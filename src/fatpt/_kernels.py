"""Dense row reduction over a prime field.

The hot loop of the whole package is Gaussian elimination of integer matrices
mod p (interpolation matrices for fat point schemes get large: thousands of
rows and columns). Elimination runs in two phases, each one vectorized
outer-product update per pivot:

* the forward phase (``_forward``) brings the matrix to row echelon form,
  scaling each pivot row to 1 and clearing only the rows below it;
* the back phase clears the rows above each pivot, bottom pivot first, which
  turns the echelon form into the reduced one.

``rank`` needs only the pivot count and runs the forward phase alone. ``rref``
runs both; ``nullspace`` reads its canonical basis off the reduced form. The
pivot rule is deterministic (first nonzero entry in column order, scanning
rows top-down), so ranks, pivot columns and reduced echelon forms are
reproducible bit for bit, and the reduced form is the one Gauss-Jordan
elimination with the same rule gives.

Entries are int64 and every product is reduced immediately, so any modulus
below 2**31 is overflow-safe (|a - f*b| < p**2 + p < 2**63).
"""

from __future__ import annotations

import numpy as np


def _forward(a: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Reduce ``a`` in place to row echelon form mod p: each pivot is 1 and
    the entries below it are 0; rows above a pivot keep their entries in its
    column. Returns (rank, pivot column indices); input as for ``rref``."""
    rows, cols = a.shape
    pivots = np.empty(min(rows, cols), dtype=np.int64)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = a[r, c:] * inv % p
        # Rows r..piv-1 and the row swapped to piv are zero in column c, so
        # the rows to clear are the other nonzeros found above.
        below = r + nz[1:]
        if below.size:
            a[below, c:] = (a[below, c:] - np.outer(a[below, c], a[r, c:])) % p
        pivots[r] = c
        r += 1
    return r, pivots[:r]


def rref(a: np.ndarray, p: int) -> tuple[int, np.ndarray]:
    """Reduce ``a`` in place to reduced row echelon form mod p.

    Returns (rank, pivot column indices). ``a`` must be int64, 2d,
    C-contiguous, with entries already in [0, p).
    """
    r, pivots = _forward(a, p)
    for k in range(r - 1, 0, -1):
        c = int(pivots[k])
        above = np.nonzero(a[:k, c])[0]
        if above.size:
            a[above, c:] = (a[above, c:] - np.outer(a[above, c], a[k, c:])) % p
    return r, pivots


def rank(a: np.ndarray, p: int) -> int:
    """Rank of ``a`` mod p; ``a`` is not modified."""
    work = np.ascontiguousarray(a, dtype=np.int64) % p
    r, _ = _forward(work, p)
    return r


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace of ``a`` mod p, one vector per row.

    The basis is the canonical one read off the reduced echelon form: one
    vector per free column (ascending), with a 1 in the free position. A
    matrix with zero rows yields the identity.
    """
    work = np.ascontiguousarray(a, dtype=np.int64) % p
    cols = work.shape[1]
    r, piv = rref(work, p)
    is_free = np.ones(cols, dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = (-work[:r, free].T) % p
    return basis


# The benchmark harness (perfbench/run.py, perfbench/elimination.py) still
# reads these three names from the time a numba backend existed; they stay
# until it stops. There is one backend.
HAS_NUMBA = False


def backend_name() -> str:
    return "numpy"


def rref_using(a: np.ndarray, p: int, backend: str) -> tuple[int, np.ndarray]:
    """``rref`` under a named backend; only "numpy" exists."""
    if backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}")
    return rref(a, p)
