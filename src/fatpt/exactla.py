"""Exact linear algebra over a prime field F_p: the prime contract and the
syzygy degrees of rational plane curves.

``check_prime`` states the contract every exact computation relies on: an
odd prime below 2**31, so that one product of residues fits int64. Floating
point enters only where it is exact: the row reduction's float64 products
of residues, taken only while their sums stay below 2**53. A wrong count
would silently corrupt every prediction built on top. The row reduction
itself lives in ``_kernels``.

``syzygy_degrees`` reads the syzygy degrees of a stack of curves of one
degree off their points without any rank: one division-free interpolation
recursion (``_basis_degrees``) runs over all k curves at once, O(d**2) per
curve, and the counts it leaves give both nullities the syzygy degree needs.

The default prime 31991 is large enough that random point configurations are
almost surely generic and small enough that int64 holds about 2**33 products
of residues before a sum has to be reduced mod p, and float64 about 2**23.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

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

    float64 holds every integer below 2**53, so a float64 product of
    residue matrices with inner dimension k is exact while
    k*(p-1)**2 + p < 2**53 (``_kernels._float_cap``). The row reduction's
    column panels need that for k = ``_kernels.PANEL`` = 32, which holds up
    to p = 16777213; at larger p every matrix is eliminated in int64 alone.
    """
    if not (2 < p < 2**31):
        raise InputError(f"prime must satisfy 2 < p < 2**31, got {p}")
    if not is_prime(p):
        raise InputError(f"{p} is not prime")


def _basis_degrees(t: np.ndarray, pts: np.ndarray, p: int) -> np.ndarray:
    """Degrees of a reduced basis of the syzygies of each curve's first n
    points, for every n: ``t`` is (k, m) with distinct parameters per row and
    ``pts`` (k, m, 3), entries in [0, p); returns the (k, m + 1, 3) degrees
    after n = 0, ..., m points.

    The basis of the vector polynomials s with s(t_l) . P_l = 0 starts as
    B = I_3, all degrees 0, and takes the points in order (the interpolation
    recursion of Beckermann and Labahn, SIAM J. Matrix Anal. Appl. 1994).
    R[i, l] = B_i(t_l) . P_l is the residual of basis vector i at point l.
    At point j the pivot is the basis vector of least degree (lowest index
    on ties) whose residual there is nonzero. Every other vector becomes
    r_pi B_i - r_i B_pi, which vanishes at t_j, and the pivot becomes
    (t - t_j) B_pi, one degree up; no step divides. The residuals are kept
    in [0, p), so each product is below (p-1)**2 < 2**62 and a difference
    of two is exact in int64 for every p below 2**31. A vector of least
    degree as pivot keeps the leading coefficients independent: the basis
    stays reduced, and the syzygies of degree at most e number
    sum_i max(0, e - deg_i + 1).
    """
    k, m = t.shape
    res = pts.transpose(0, 2, 1)
    deg = np.zeros((k, 3), dtype=np.int64)
    out = np.zeros((k, m + 1, 3), dtype=np.int64)
    ks = np.arange(k)
    for j in range(m):
        # res holds the residuals at points j, j+1, ...
        r = res[:, :, 0]
        piv = np.where(r != 0, 3 * deg + np.arange(3), 3 * (m + 1)).argmin(axis=1)
        rp = r[ks, piv]
        has = rp != 0
        prow = res[ks, piv, 1:]
        res = (np.where(has, rp, 1)[:, None, None] * res[:, :, 1:] - r[:, :, None] * prow[:, None, :]) % p
        res[ks, piv] = prow * np.where(has[:, None], (t[:, j + 1 :] - t[:, j, None]) % p, 1) % p
        deg[ks, piv] += has
        out[:, j + 1] = deg
    return out


def syzygy_degrees(t: np.ndarray, pts: np.ndarray, d: int, p: int) -> list[int | str]:
    """Least syzygy degree a of each curve of a stack of k rational plane
    curves of degree d, read off points of them: ``t`` is (k, m) and ``pts``
    (k, m, 3), entries in [0, p), and each row of ``t`` starts with 2d+1
    distinct parameters (not checked). One curve is a stack of one.

    ``pts[c, j]`` is a point of curve c at parameter ``t[c, j]``, any nonzero
    multiple of phi(t_j) for a parametrization phi of degree d. A syzygy s
    of degree e kills phi exactly when s(t_j) . pts[j] = 0 at d+e+1 of the
    points, since s . phi has degree d+e; scaling a point does not change
    that. So the syzygies of degree e are the nullspace of the evaluation
    matrix with rows pts[j][i] * t_j**k, k = 0..e, on the first d+e+1 points.

    For a coprime parametrization of degree d, Hilbert-Burch makes the
    syzygy module free, R(-a) + R(-b) with a + b = d (the mu-basis of the
    curve), so degree e has max(0, e-a+1) + max(0, e-b+1) syzygies. At
    e = floor((d-1)/2) the second term vanishes, so the nullity there gives
    a = e + 1 - nullity, or a = d/2 when the nullity is 0. The nullity at
    e = b must then be b - a + 2. The two counts together accept exactly a
    degree-d curve of type (a, b); points of a curve of lower degree (a
    common factor, or a degenerate draw) give an impossible nullity or a
    mismatch.

    Returns, per curve, its syzygy degree a, or the reason it was rejected.
    Both nullities are read off one run of ``_basis_degrees`` over the first
    2d+1 points of every curve: at e = floor((d-1)/2) after d+e+1 points,
    and at e = b after d+b+1.
    """
    k = len(t)
    ks = np.arange(k)
    degs = _basis_degrees(t[:, : 2 * d + 1], pts[:, : 2 * d + 1], p)

    def nullity(e: np.ndarray) -> np.ndarray:
        return np.maximum(0, e[:, None] - degs[ks, d + e + 1] + 1).sum(axis=1)

    e = (d - 1) // 2
    first = nullity(np.full(k, e)) if d else np.zeros(k, dtype=np.int64)
    a = np.where(first > 0, e + 1 - first, d // 2)
    bad = (a < 0) | ((first == 0) & bool(d % 2))
    b = d - a
    expected = b - a + 2
    second = nullity(np.where(bad, d, b))
    out: list[int | str] = a.tolist()
    for i in np.flatnonzero(bad | (second != expected)).tolist():
        if bad[i]:
            out[i] = f"syzygy nullity {first[i]} at degree {e} is impossible for a curve of degree {d}"
        else:
            out[i] = f"syzygy nullity {second[i]} at degree {b[i]}, expected {expected[i]} for type ({a[i]},{b[i]})"
    return out
