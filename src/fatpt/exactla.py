"""Exact linear algebra over a prime field F_p.

Everything downstream (interpolation matrices, the syzygy degree of a
rational curve read off its points, the multiplication-map verifier) reduces
to ranks and nullspaces of integer matrices mod p. No floating point
anywhere; a wrong rank would silently corrupt every prediction built on top,
so the elimination (see _kernels) is deterministic. Matrices are plain int64
arrays; ``_kernels.rank`` and ``_kernels.nullspace`` reduce a copy mod p.

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
    points of it.

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

    def nullity(e: int) -> int:
        rows = d + e + 1
        powers = np.ones((rows, e + 1), dtype=np.int64)
        for k in range(1, e + 1):
            powers[:, k] = powers[:, k - 1] * t[:rows] % p
        m = (pts[:rows, :, None] * powers[:, None, :] % p).reshape(rows, 3 * (e + 1))
        return 3 * (e + 1) - _kernels.rank(m, p)

    e = (d - 1) // 2
    first = nullity(e) if d else 0
    a = e + 1 - first if first else d // 2
    if not 0 <= a <= d // 2 or (first == 0 and d % 2):
        raise DegenerateConfiguration(
            f"syzygy nullity {first} at degree {e} is impossible for a curve of degree {d}"
        )
    b = d - a
    second = nullity(b)
    if second != b - a + 2:
        raise DegenerateConfiguration(
            f"syzygy nullity {second} at degree {b}, expected {b - a + 2} for type ({a},{b})"
        )
    return a
