"""Dense row reduction over a prime field.

The hot loop of the whole package is Gaussian elimination of integer matrices
mod p (interpolation matrices for fat point schemes get large: thousands of
rows and columns). Elimination is one forward phase (``_forward``), one
vectorized outer-product update per pivot: it brings the matrix to row
echelon form, scaling each pivot row to 1 and clearing only the rows below
it. No code clears above a pivot.

``rank`` needs only the pivot count. ``nullspace`` solves its canonical basis
(the one the reduced echelon form gives) from the echelon form by
back-substitution, one vector per free column. The pivot rule is
deterministic (first nonzero entry in column order, scanning rows top-down),
so ranks, pivot columns and nullspace bases are reproducible bit for bit.

Entries are int64, and reduction mod p is delayed (the delayed reduction of
FFLAS-FFPACK, Dumas, Giorgi and Pernet, ACM TOMS 2008). Each pivot step
reduces only the pivot column, which the pivot search reads, and the pivot
row, which is then scaled to 1; the rows it clears get ``f * row`` subtracted
unreduced, with f and row in [0, p). After k such updates every entry lies in
[-k*(p-1)**2, p), so the block is reduced in full only before an update that
could leave int64: after ``_cap(p)`` updates, the largest k with
k*(p-1)**2 < 2**63 - p. That is 2 at p = 2**31 - 1 and far more updates than
any matrix here takes at 31991. The phase ends with one full reduction, so
``_forward`` returns entries in [0, p). Every step is exact mod p, so when
the reductions happen changes no output.

The syzygy degrees of the splitting draws take no rank: ``exactla`` counts
them with an interpolation recursion. ``inverses`` serves the batched 3x3
inverses of the point replay.
"""

from __future__ import annotations

import numpy as np


def _cap(p: int) -> int:
    """Updates the trailing block can absorb between full reductions: the
    largest k with k*(p-1)**2 < 2**63 - p."""
    return (2**63 - p - 1) // (p - 1) ** 2


def _update(a: np.ndarray, r: int, idx: np.ndarray, c: int, prow: np.ndarray) -> None:
    """Subtract (column c) times ``prow`` from the rows below pivot row r
    whose column-c entries are nonzero (``idx``, absolute), on columns c and
    past. Column c comes out exactly 0 since the pivot is 1. More than half
    of those rows nonzero: the update runs on all of them in place;
    otherwise on the gathered rows."""
    span = a[r + 1 :, c:]
    if 2 * idx.size > span.shape[0]:
        span -= span[:, :1] * prow
    else:
        a[idx, c:] -= a[idx, c, None] * prow


def _forward(a: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Reduce ``a`` in place to row echelon form mod p: each pivot is 1 and
    the entries below it are 0; rows above a pivot keep their entries in its
    column. Every entry ends in [0, p). Returns (rank, pivot column indices).
    ``a`` must be int64, 2d, C-contiguous, with entries already in [0, p)."""
    nrows, cols = a.shape
    cap = _cap(p)
    pivots = np.empty(min(nrows, cols), dtype=np.int64)
    r = k = 0
    for c in range(cols):
        if r == nrows:
            break
        col = a[r:, c]
        col %= p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], c:] = a[[piv, r], c:]
        prow = a[r, c:]
        prow %= p
        prow *= pow(int(prow[0]), p - 2, p)
        prow %= p
        # Rows r..piv-1 and the row swapped to piv are zero in column c, so
        # the rows to clear are the other nonzeros found above.
        below = r + nz[1:]
        if below.size:
            if k == cap:
                a[r + 1 :, c + 1 :] %= p
                k = 0
            _update(a, r, below, c, prow)
            k += 1
        pivots[r] = c
        r += 1
    if k:
        a %= p
    return r, pivots[:r]


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` mod p; ``a`` is not modified."""
    work = np.ascontiguousarray(a, dtype=np.int64) % p
    r, _ = _forward(work, p)
    return r


def inverses(v: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of each entry of a 1-d array of residues, with 0 for
    0. One ``pow`` per entry (about 1 us each); a vectorized Fermat power
    takes about 2*log2(p) array operations instead."""
    return np.array([pow(x, -1, p) if x else 0 for x in v.tolist()], dtype=np.int64)


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace of ``a`` mod p, one vector per row.

    The basis is the canonical one of the reduced echelon form: one vector
    per free column (ascending), with a 1 in the free position and 0 at the
    other free columns. The free coordinates fix a kernel vector, so the
    forward phase is enough: bottom pivot first, each pivot coordinate is
    minus its echelon row's dot product with the coordinates past it. That
    sum of up to cols products below (p-1)**2 is taken unreduced when
    ``_cap(p) >= cols``; otherwise each product is reduced first. A matrix
    with zero rows yields the identity.
    """
    work = np.ascontiguousarray(a, dtype=np.int64) % p
    cols = work.shape[1]
    r, piv = _forward(work, p)
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    # One column per basis vector, so each solve reads contiguous rows.
    x = np.zeros((cols, free.size), dtype=np.int64)
    x[free, np.arange(free.size)] = 1
    exact = _cap(p) >= cols
    for j in range(r - 1, -1, -1):
        c = int(piv[j])
        row, tail = work[j, c + 1 :], x[c + 1 :]
        s = row @ tail if exact else (row[:, None] * tail % p).sum(axis=0)
        x[c] = -s % p
    return np.ascontiguousarray(x.T)


# The benchmark harness (perfbench/run.py, perfbench/elimination.py) still
# reads these three names from the time a numba backend existed; they stay
# until it stops. There is one backend.
HAS_NUMBA = False


def backend_name() -> str:
    return "numpy"


def rref_using(a: np.ndarray, p: int, backend: str) -> tuple[int, np.ndarray]:
    """``_forward`` under a named backend; only "numpy" exists. The harness
    reads the rank and the pivots, which the echelon form already fixes."""
    if backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}")
    return _forward(a, p)
