"""Dense row reduction over a prime field.

The hot loop of the whole package is Gaussian elimination of integer matrices
mod p (interpolation matrices for fat point schemes get large: thousands of
rows and columns). Elimination is one forward phase (``_forward``): it
brings the matrix to row echelon form, scaling each pivot row to 1 and
clearing only the rows below it. No code clears above a pivot.

``rank`` needs only the pivot count. ``nullspace`` solves its canonical basis
(the one the reduced echelon form gives) from the echelon form by
back-substitution, one vector per free column. The pivot rule is
deterministic (first nonzero entry in column order, scanning rows top-down),
so ranks, pivot columns and nullspace bases are reproducible bit for bit.

``_forward``'s ``stop`` limits the pivot search to the columns before it, so
a caller can eliminate a matrix one column block at a time: the rows past
the rank are zero on those columns, and what they hold from ``stop`` on is
the Schur complement of the block, which the next block's elimination
continues from (``cokernel._product_rank``).

The forward phase runs in column panels of ``PANEL`` columns, the blocked
LU of LAPACK (Toledo, SIAM J. Matrix Anal. Appl. 1997). Inside a panel each
pivot step is one vectorized outer-product update of the rows below, on the
panel's own columns only. It leaves its multipliers (the entries it
cleared, as they were) in place below its pivot, as LAPACK does, and keeps
the inverse of its pivot value from before the row was scaled. After the
panel, ``_trailing`` touches the columns past it once: the row swaps are
already applied, since a swap moves whole rows; with L the panel's lower
triangle (pivot values on its diagonal, multipliers below), the pivot rows
become U_top = L11^-1 Q_top and the rows below Q_rest - L21 U_top, by
float64 matrix products (in row blocks, see ``PRODUCT``). A float64 product
of residues with inner dimension k is exact while k*(p-1)**2 + p < 2**53
(``_float_cap``), so panels are used only for primes whose bound reaches
``PANEL`` (up to 16777213) and for matrices of at least ``PANEL_ROWS``
rows, the size from which they paid on the verify matrices. Then the
multipliers are zeroed. Every other matrix, primes near
2**31 and the small ones, runs as one panel spanning all its columns, which
is the unblocked elimination. No output can move with the panels: every
step is exact mod p and the pivot rule reads only the panel's own columns,
so the pivots, the echelon form and the carry under ``stop`` are the same
bit for bit; the column rank profile and the reduced echelon form are fixed
by the matrix in any case.

Entries are int64, and reduction mod p is delayed (the delayed reduction of
FFLAS-FFPACK, Dumas, Giorgi and Pernet, ACM TOMS 2008). Each pivot step
reduces only the pivot column, which the pivot search reads, and the pivot
row, which is then scaled to 1; the rows it clears get ``f * row`` subtracted
unreduced, with f and row in [0, p). After k such updates every entry lies in
[-k*(p-1)**2, p), so the block is reduced in full only before an update that
could leave int64: after ``_cap(p)`` updates, the largest k with
k*(p-1)**2 < 2**63 - p. That is 2 at p = 2**31 - 1 and far more updates than
any matrix here takes at 31991. Each panel ends with the reduction of what
its updates left unreduced, and ``_trailing`` reduces its products, so
``_forward`` returns entries in [0, p). Every step is exact mod p, so when
the reductions happen changes no output.

The syzygy degrees of the splitting draws take no rank: ``exactla`` counts
them with an interpolation recursion. ``inverses`` serves the batched 3x3
inverses of the point replay.
"""

from __future__ import annotations

import numpy as np


# The panel width, and the fewest rows from which panels are used: on the
# H0(L') matrices of a verify sweep they lost below about 110 rows (two
# shared x86-64 cores, OpenBLAS). Widths 16 to 64 took about the same time.
PANEL = 32
PANEL_ROWS = 128
# The most multiply-adds of one float64 product call. OpenBLAS runs a
# product below about 10**6 of them on the calling thread; on two shared
# cores its threaded products of this shape took two to four times as long,
# and its idle threads then slowed the elimination around them.
PRODUCT = 1 << 19


def _cap(p: int) -> int:
    """Updates the trailing block can absorb between full reductions: the
    largest k with k*(p-1)**2 < 2**63 - p."""
    return (2**63 - p - 1) // (p - 1) ** 2


def _float_cap(p: int) -> int:
    """The widest panel a float64 product takes exactly: the largest k with
    k*(p-1)**2 + p < 2**53, the most a k-term dot product of residues, plus
    one residue, can reach."""
    return (2**53 - p - 1) // (p - 1) ** 2


def _update(a: np.ndarray, r: int, nz: np.ndarray, c: int, hi: int, prow: np.ndarray) -> None:
    """Subtract (column c) times ``prow`` from the rows below pivot row r
    whose column-c entries are nonzero, r + ``nz[1:]`` (``nz`` lists the
    nonzeros of column c from row r on, the pivot's first), on columns c+1
    to ``hi``. Column c keeps those entries, the multipliers. More than half
    of the rows below nonzero: the update runs on all of them in place;
    otherwise on the gathered rows."""
    span = a[r + 1 :, c + 1 : hi]
    if 2 * (nz.size - 1) > span.shape[0]:
        span -= a[r + 1 :, c, None] * prow[1:]
    else:
        idx = r + nz[1:]
        a[idx, c + 1 : hi] -= a[idx, c, None] * prow[1:]


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place, for float64 integers x with |x| + p < 2**53:
    x - p*floor(x/p) is off by at most p either way, since x/p is rounded,
    and one correction each way fixes it. (``np.fmod`` is exact too, but
    many times slower.)"""
    q = x * (1.0 / p)
    np.floor(q, out=q)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)
    return x


def _trailing(a: np.ndarray, p: int, r0: int, pc: np.ndarray, inv: np.ndarray, hi: int) -> None:
    """Apply one panel's pivots to the columns from ``hi`` on.

    The panel's pivot rows start at row r0 and its pivot columns are ``pc``;
    below each pivot stand its multipliers, and ``inv`` holds the inverses
    of the pivot values from before scaling. With L the lower triangle they
    make (pivot values on the diagonal), the panel's steps would have taken
    the rows Q from r0 on to U_top = L11^-1 Q_top and Q_rest - L21 U_top.
    L11 = D (I + Y) with Y strictly lower, so L11^-1 = X D^-1 for the unit
    triangle X = (I + Y)^-1, whose row j left of the diagonal an integer
    forward substitution gives as -Y[j, :j] X[:j, :j] mod p. Its sums and
    the two float64 products, over residues with inner dimension at most
    ``PANEL``, stay below PANEL*(p-1)**2 + p: at every prime that takes
    panels that is below 2**53, inside int64 and leaving ``_mod`` its room.
    """
    nb = pc.size
    lower = a[r0:, pc]
    neg_y = -np.tril(lower[:nb], -1) * inv[:, None] % p
    solve = np.eye(nb, dtype=np.int64)
    for j in range(1, nb):
        solve[j, :j] = neg_y[j, :j] @ solve[:j, :j] % p
    solve = (solve * inv % p).astype(np.float64)  # X D^-1 = L11^-1
    low = np.ascontiguousarray(lower, dtype=np.float64)
    # Row blocks of at most PRODUCT multiply-adds per product: OpenBLAS
    # runs those on the calling thread (see PRODUCT), and a block's float64
    # copy stays small.
    qtop = a[r0 : r0 + nb, hi:].astype(np.float64)
    step = max(1, PRODUCT // (nb * qtop.shape[1]))
    top = np.empty_like(qtop)
    for i in range(0, nb, step):
        np.matmul(solve[i : i + step], qtop, out=top[i : i + step])
    a[r0 : r0 + nb, hi:] = _mod(top, p)
    for i in range(r0 + nb, a.shape[0], step):
        block = a[i : i + step, hi:].astype(np.float64)
        block -= low[i - r0 : i - r0 + step] @ top
        a[i : i + step, hi:] = _mod(block, p)


def _forward(a: np.ndarray, p: int, stop: int | None = None) -> tuple[int, np.ndarray]:
    """Reduce ``a`` in place to row echelon form mod p: each pivot is 1 and
    the entries below it are 0; rows above a pivot keep their entries in its
    column. Every entry ends in [0, p). Returns (rank, pivot column indices).
    ``a`` must be int64, 2d, C-contiguous, with entries already in [0, p).
    With ``stop``, pivots are searched only in the columns before it: the
    rows past the rank are then zero there, and the columns from ``stop`` on
    carry the updates of those pivots."""
    nrows, ncols = a.shape
    cols = ncols if stop is None else min(ncols, stop)
    panels = nrows >= PANEL_ROWS and _float_cap(p) >= PANEL
    width = PANEL if panels else max(cols, 1)
    cap = _cap(p)
    pivots = np.empty(min(nrows, cols), dtype=np.int64)
    inv = np.empty(pivots.size, dtype=np.int64)
    r = 0
    for c0 in range(0, cols, width):
        if r == nrows:
            break
        c1 = min(c0 + width, cols)
        hi = c1 if panels else ncols
        r0, k = r, 0
        for c in range(c0, c1):
            if r == nrows:
                break
            col = a[r:, c]
            col %= p
            nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            piv = r + int(nz[0])
            if piv != r:
                row = a[piv, c0:].copy()
                a[piv, c0:] = a[r, c0:]
                a[r, c0:] = row
            prow = a[r, c:hi]
            prow %= p
            inv[r] = s = pow(int(prow[0]), p - 2, p)
            prow *= s
            prow %= p
            # Rows r..piv-1 and the row swapped to piv are zero in column c, so
            # the rows to clear are the other nonzeros found above.
            if nz.size > 1:
                if k == cap:
                    a[r + 1 :, c + 1 : hi] %= p
                    k = 0
                _update(a, r, nz, c, hi, prow)
                k += 1
            pivots[r] = c
            r += 1
        if k:
            a[r:, c1:hi] %= p
        if r > r0 and hi < ncols:
            _trailing(a, p, r0, pivots[r0:r], inv[r0:r], hi)
        # The multipliers go: the pivot rows are zero left of their pivots
        # in the panel, and the rows past them on all of it.
        a[r0:r, c0:c1][np.arange(c0, c1) < pivots[r0:r, None]] = 0
        a[r:, c0:c1] = 0
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
