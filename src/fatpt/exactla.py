"""Exact linear algebra over a prime field F_p.

Everything downstream (interpolation matrices, syzygy computations, the
multiplication-map verifier) reduces to ranks and nullspaces of integer
matrices mod p, plus gcd arithmetic of binary forms. No floating point
anywhere; a wrong rank would silently corrupt every prediction built on top,
so the elimination is deterministic and the two backends (see _kernels) are
required to agree exactly.

The default prime 31991 is large enough that random point configurations are
almost surely generic and small enough that p**2 fits comfortably in int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
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


@dataclass(frozen=True)
class PrimeField:
    """The characteristic p of F_p, validated: an odd prime 2 < p < 2**31.

    Below 2**31 one product of residues fits int64, but a sum of three does
    not; int64 code reduces each product, or sums k of them only while
    k*(p-1)**2 < 2**63.
    """

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not (2 < self.p < 2**31):
            raise InputError(f"prime must satisfy 2 < p < 2**31, got {self.p}")
        if not is_prime(self.p):
            raise InputError(f"{self.p} is not prime")


class FpMatrix:
    """A dense matrix over F_p (int64 entries, row-major)."""

    def __init__(self, entries, p: int = DEFAULT_PRIME):
        self.p = p
        a = np.asarray(entries, dtype=np.int64)
        if a.ndim != 2:
            raise InputError(f"matrix must be 2-dimensional, got shape {a.shape}")
        self.a = np.ascontiguousarray(a % p)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @classmethod
    def zero(cls, rows: int, cols: int, p: int = DEFAULT_PRIME) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    def rank(self) -> int:
        return _kernels.rank(self.a, self.p)

    def nullspace(self) -> "FpMatrix":
        """Canonical nullspace basis, one basis vector per row.

        A 0 x k matrix has the full k-dimensional nullspace; an identity
        matrix has an empty basis (0 rows).
        """
        return FpMatrix(_kernels.nullspace(self.a, self.p), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self):
        return f"FpMatrix({self.rows}x{self.cols} mod {self.p})"


def _strip(coeffs: list[int]) -> tuple[int, int]:
    """Return (lowest, highest) nonzero index of a coefficient list."""
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = max(i for i, c in enumerate(coeffs) if c)
    return lo, hi


def _poly_divmod(num: list[int], den: list[int], p: int) -> tuple[list[int], list[int]]:
    """Univariate division with remainder, coefficients ascending."""
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    q = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            f = c * inv_lead % p
            q[i - dd] = f
            for j, dc in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - f * dc) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q if q else [0], num


def _poly_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd of univariate polynomials, ascending coefficients."""
    a, b = list(f), list(g)
    while b != [0]:
        _, r = _poly_divmod(a, b, p)
        a, b = b, r
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


class BinaryForm:
    """A homogeneous form sum_i c_i u^i v^(d-i) over F_p.

    Stored as the dense coefficient tuple (c_0, ..., c_d); the zero form is
    distinguished (empty coefficient tuple, degree -1 by convention) because a
    zero remainder must never be confused with a degree-0 constant.
    """

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int = DEFAULT_PRIME):
        cs = tuple(int(c) % p for c in coeffs)
        if cs and not any(cs):
            cs = ()
        self.coeffs = cs
        self.p = p

    @classmethod
    def zero(cls, p: int = DEFAULT_PRIME) -> "BinaryForm":
        return cls((), p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, BinaryForm)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def __repr__(self):
        if self.is_zero:
            return "BinaryForm(0)"
        return f"BinaryForm(deg {self.degree}: {list(self.coeffs)})"

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise InputError("cannot add forms of different degrees")
        return BinaryForm(
            [(a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)], self.p
        )

    def scale(self, k: int) -> "BinaryForm":
        k %= self.p
        if k == 0 or self.is_zero:
            return BinaryForm.zero(self.p)
        return BinaryForm([c * k % self.p for c in self.coeffs], self.p)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        if self.is_zero or other.is_zero:
            return BinaryForm.zero(self.p)
        a, b = self.coeffs, other.coeffs
        # Each int64 convolution entry sums up to min(len) products below p**2.
        n = min(len(a), len(b))
        if n >= 16 and n * (self.p - 1) ** 2 < 2**63:
            out = np.convolve(
                np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
            )
            return BinaryForm((out % self.p).tolist(), self.p)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % self.p
        return BinaryForm(out, self.p)

    def monic(self) -> "BinaryForm":
        """Scale so the highest-u coefficient is 1."""
        if self.is_zero:
            raise InputError("zero form has no monic normalization")
        _, hi = _strip(list(self.coeffs))
        return self.scale(pow(self.coeffs[hi], self.p - 2, self.p))

    def _split(self) -> tuple[int, int, list[int]]:
        """Write the form as u^a * v^b * core with core coprime to u and v.

        Returns (a, b, ascending coefficients of the dehomogenized core).
        """
        lo, hi = _strip(list(self.coeffs))
        core = list(self.coeffs[lo : hi + 1])
        return lo, self.degree - hi, core


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd of two binary forms over the same F_p.

    Monomial factors u^a v^b are split off and handled by valuations; the
    coprime cores reduce to a univariate Euclid. Both inputs zero is rejected.
    """
    if f.p != g.p:
        raise InputError("forms live over different primes")
    if f.is_zero and g.is_zero:
        raise InputError("gcd of two zero forms is undefined")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    fu, fv, fc = f._split()
    gu, gv, gc = g._split()
    core = _poly_gcd(fc, gc, f.p)
    u_exp, v_exp = min(fu, gu), min(fv, gv)
    coeffs = [0] * u_exp + core + [0] * v_exp
    return BinaryForm(coeffs, f.p)


def form_divexact(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Quotient f/g, raising if g does not divide f exactly."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero form")
    if f.is_zero:
        return BinaryForm.zero(f.p)
    fu, fv, fc = f._split()
    gu, gv, gc = g._split()
    if fu < gu or fv < gv:
        raise InputError("form division is not exact (monomial part)")
    q, r = _poly_divmod(fc, gc, f.p)
    if r != [0]:
        raise InputError("form division is not exact")
    coeffs = [0] * (fu - gu) + q + [0] * (fv - gv)
    out = BinaryForm(coeffs, f.p)
    assert out.degree == f.degree - g.degree
    return out


def min_syzygy_degree(f0: BinaryForm, f1: BinaryForm, f2: BinaryForm) -> int:
    """Least e with a nonzero relation s0*f0 + s1*f1 + s2*f2 = 0, deg s_i = e.

    The f_i must be three nonzero forms of one common degree d with trivial
    common gcd (a common factor would shift every syzygy and is rejected).
    For such a triple the ideal (f0, f1, f2) has finite colength, so by
    Hilbert-Burch its syzygy module is free, R(-a) + R(-b) with a + b = d
    (in geometric-modeling terms, the mu-basis of the parametrization). The
    syzygies of degree e then span max(0, e-a+1) + max(0, e-b+1) dimensions.
    At e = floor((d-1)/2) the second term vanishes because b >= d/2 > e, so
    one rank there gives a = e + 1 - nullity, or a = d/2 when the nullity is 0.
    """
    forms = (f0, f1, f2)
    if any(f.is_zero for f in forms):
        raise InputError("syzygy input contains the zero form")
    d = f0.degree
    if not all(f.degree == d for f in forms):
        raise InputError("syzygy input degrees differ")
    if f0.p != f1.p or f0.p != f2.p:
        raise InputError("forms live over different primes")
    g01 = form_gcd(f0, f1)
    if not form_gcd(g01, f2).degree == 0:
        raise InputError("forms share a common factor; divide it out first")
    if d == 0:
        return 0
    e = (d - 1) // 2
    m = np.zeros((d + e + 1, 3 * (e + 1)), dtype=np.int64)
    for idx, f in enumerate(forms):
        coeffs = np.asarray(f.coeffs, dtype=np.int64)
        for k in range(e + 1):
            m[k : k + d + 1, idx * (e + 1) + k] = coeffs
    nullity = 3 * (e + 1) - _kernels.rank(m, f0.p)
    a = e + 1 - nullity if nullity else d // 2
    if not 0 <= a <= d // 2 or (nullity == 0 and d % 2):
        raise AssertionError(
            f"syzygy nullity {nullity} at degree {e} is impossible for coprime "
            f"forms of degree {d}; input is inconsistent"
        )
    return a
