"""Elimination check: every row-reduction backend agrees, then is timed.

Row reduction mod p is where the verify workload spends most of its time.
Before any time is reported, each backend that ``fatpt._kernels`` can run
(numba when importable, numpy always) reduces the same seeded random
matrices; ranks and pivot columns must agree with each other and, on the
small matrix, with the plain-Python reference below. The nullspace basis
must also be annihilated by the matrix. Times are reported best of three,
for information; they are not benchmark metrics.
"""

from __future__ import annotations

import time

import numpy as np

# (rows, cols): a shape the reference can reduce quickly, and one of the
# mid-size shapes the verify workload reduces.
SHAPES = ((48, 60), (256, 320))
REPEATS = 3


def reference_rref(rows: list[list[int]], p: int) -> tuple[int, list[int]]:
    """Rank and pivot columns by textbook Gauss-Jordan elimination."""
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return r, pivots


def check(kernels, p: int, seed: int) -> tuple[list[str], list[str]]:
    """Returns (report lines, problems); no problems means all agree."""
    backends = ["numba", "numpy"] if kernels.HAS_NUMBA else ["numpy"]
    if kernels.HAS_NUMBA:
        kernels.rref_using(np.eye(4, dtype=np.int64), p, "numba")  # compile untimed
    rng = np.random.default_rng(seed)
    lines, problems = [], []
    for rows, cols in SHAPES:
        a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        # Column 1 repeats column 0, so the pivots skip it, and the lower
        # half of the rows repeats the upper half, so the rank is deficient.
        a[:, 1] = a[:, 0] * 2 % p
        a[rows // 2:] = a[: rows - rows // 2] * 3 % p
        results, times = {}, {}
        for backend in backends:
            best = None
            for _ in range(REPEATS):
                work = a.copy()
                t0 = time.perf_counter()
                rank, piv = kernels.rref_using(work, p, backend)
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            results[backend] = (rank, [int(c) for c in piv])
            times[backend] = best
        if rows * cols <= 5000:
            results["reference"] = reference_rref(a.tolist(), p)
        if len(set(map(repr, results.values()))) != 1:
            problems.append(f"elimination backends disagree at {rows}x{cols}: {results}")
        basis = kernels.nullspace(a, p)
        rank = results["numpy"][0]
        if basis.shape[0] != cols - rank or (a @ basis.T % p).any():
            problems.append(f"nullspace at {rows}x{cols} is not the kernel")
        lines.append(
            f"elimination {rows}x{cols} rank {rank}: "
            + ", ".join(f"{b} {times[b]:.4f} s" for b in backends)
        )
    return lines, problems
