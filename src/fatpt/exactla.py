"""Exact linear algebra over a prime field F_p.

Everything downstream (interpolation matrices, the syzygy degree of a
rational curve read off its points, the multiplication-map verifier) reduces
to ranks and nullspaces of integer matrices mod p. No floating point
anywhere; a wrong rank would silently corrupt every prediction built on top,
so the elimination (see _kernels) is deterministic. Matrices are plain int64
arrays; ``_kernels.rank`` and ``_kernels.nullspace`` reduce a copy mod p.

``syzygy_degrees`` reads the syzygy degrees of a stack of curves of one
degree: its evaluation matrices are ranked as (k, rows, cols) stacks by
``_kernels.ranks``, the first rank of every curve in one stack, the second
in one stack per shape. ``min_syzygy_degree`` is the checked entry point for
one curve, a stack of one.

The default prime 31991 is large enough that random point configurations are
almost surely generic and small enough that int64 holds about 2**33 products
of residues before a sum has to be reduced mod p.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import DegenerateConfiguration, InputError

DEFAULT_PRIME = 31991


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> None:
    """Accept p as the characteristic of F_p: an odd prime 2 < p < 2**31.

    Below 2**31 one product of residues fits int64, but a sum of three does
    not; int64 code reduces each product, or sums k of them only while
    k*(p-1)**2 < 2**63. The row reduction applies this rule through
    ``_kernels._cap``, which fixes how many unreduced updates it takes
    between reductions.
    """
    if not (2 < p < 2**31):
        raise InputError(f"prime must satisfy 2 < p < 2**31, got {p}")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")


def min_syzygy_degree(t, pts, d: int, p: int) -> int:
    """Least syzygy degree a of a degree-d rational plane curve, read off
    points of it: ``syzygy_degrees`` for a stack of one curve, after checking
    the input.

    ``pts[j]`` is a point of the curve at parameter ``t[j]``, any nonzero
    multiple of phi(t_j) for a parametrization phi of degree d; the first
    2d+1 of the t_j must be distinct residues. A syzygy s of degree e kills phi
    exactly when s(t_j) . pts[j] = 0 at d+e+1 of them, since s . phi has
    degree d+e; scaling a row does not change that. So the syzygies of
    degree e are the nullspace of the evaluation matrix with rows
    pts[j][i] * t_j**k, k = 0..e.

    For a coprime parametrization of degree d, Hilbert-Burch makes the
    syzygy module free, R(-a) + R(-b) with a + b = d (the mu-basis of the
    curve), so degree e has max(0, e-a+1) + max(0, e-b+1) syzygies. At
    e = floor((d-1)/2) the second term vanishes, so one rank there gives
    a = e + 1 - nullity, or a = d/2 when the nullity is 0. A second rank at
    e = b must then show nullity b - a + 2. The two counts together accept
    exactly a degree-d curve of type (a, b); points of a curve of lower
    degree (a common factor, or a degenerate draw) give an impossible
    nullity or a mismatch, which raises ``DegenerateConfiguration``.
    """
    t = np.asarray(t, dtype=np.int64) % p
    pts = np.asarray(pts, dtype=np.int64) % p
    if d < 0:
        raise InputError(f"syzygy degree needs a curve degree d >= 0, got {d}")
    if pts.ndim != 2 or pts.shape[1] != 3 or len(t) != len(pts):
        raise InputError("syzygy input needs one point of P^2 per parameter")
    if len(set(t[: 2 * d + 1].tolist())) < 2 * d + 1:
        raise InputError(f"syzygy degree of a degree-{d} curve needs {2 * d + 1} distinct parameters")
    a = syzygy_degrees(t[None], pts[None], d, p)[0]
    if isinstance(a, str):
        raise DegenerateConfiguration(a)
    return a


# Curves whose evaluation matrices are built and ranked as one stack: this
# bounds the memory of the matrices and of their elimination temporaries.
_CHUNK = 32


def _nullities(t: np.ndarray, pts: np.ndarray, d: int, e: int, p: int) -> np.ndarray:
    """Nullity of the degree-e evaluation matrix of each curve of a stack
    (see ``min_syzygy_degree``), ranked ``_CHUNK`` curves at a time."""
    rows = d + e + 1
    out = np.empty(len(t), dtype=np.int64)
    for lo in range(0, len(t), _CHUNK):
        tc = t[lo : lo + _CHUNK, :rows]
        powers = np.ones(tc.shape + (e + 1,), dtype=np.int64)
        for k in range(1, e + 1):
            powers[:, :, k] = powers[:, :, k - 1] * tc % p
        m = pts[lo : lo + _CHUNK, :rows, :, None] * powers[:, :, None, :] % p
        out[lo : lo + _CHUNK] = 3 * (e + 1) - _kernels.ranks(m.reshape(len(tc), rows, 3 * (e + 1)), p)
    return out


def syzygy_degrees(t: np.ndarray, pts: np.ndarray, d: int, p: int) -> list[int | str]:
    """``min_syzygy_degree`` of each curve of a stack of k curves of degree
    d: ``t`` is (k, m) and ``pts`` (k, m, 3), entries in [0, p), and each row
    of ``t`` starts with 2d+1 distinct parameters (not checked).

    Returns, per curve, its syzygy degree a, or the message of the
    ``DegenerateConfiguration`` that ``min_syzygy_degree`` raises for it. The
    first rank, at e = floor((d-1)/2), is one stack for all k curves; the
    second, at e = b, one stack per value of b.
    """
    k = len(t)
    e = (d - 1) // 2
    first = _nullities(t, pts, d, e, p) if d else np.zeros(k, dtype=np.int64)
    a = np.where(first > 0, e + 1 - first, d // 2)
    bad = (a < 0) | ((first == 0) & bool(d % 2))
    out: list[int | str] = [0] * k
    for i in np.flatnonzero(bad).tolist():
        out[i] = f"syzygy nullity {first[i]} at degree {e} is impossible for a curve of degree {d}"
    b = d - a
    for bv in sorted(set(b[~bad].tolist())):
        idx = np.flatnonzero(~bad & (b == bv))
        for i, second in zip(idx.tolist(), _nullities(t[idx], pts[idx], d, bv, p).tolist()):
            ai = int(a[i])
            expected = bv - ai + 2
            out[i] = ai if second == expected else (
                f"syzygy nullity {second} at degree {bv}, expected {expected} for type ({ai},{bv})"
            )
    return out
