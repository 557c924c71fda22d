"""Divisor classes on the plane blown up at n general points.

A class tL - m_1 E_1 - ... - m_n E_n is stored as the integer pair
(t, (m_1, ..., m_n)). The intersection form is diagonal: L.L = 1,
E_i.E_i = -1, mixed products 0, so F.G = t t' - sum m_i m'_i. The canonical
class is K = -3L + E_1 + ... + E_n, i.e. (-3, (-1, ..., -1)).

All arithmetic is plain Python ints, checked where input enters (``parse_class``,
``FatPointScheme``) and never coerced again: exactness and hashability matter
more than vectorization, and a single reduction must run well under 1 ms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError


def binom2(x: int) -> int:
    """x choose 2, clamped to 0 for x < 2."""
    return x * (x - 1) // 2 if x >= 2 else 0


@dataclass(frozen=True)
class DivisorClass:
    """tL - sum m_i E_i as (t, multiplicities): an int and a tuple of ints,
    not coerced here (a list would not hash as a cache key, and a numpy
    scalar would not encode as JSON)."""

    t: int
    m: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.m)

    def pad_to(self, n: int) -> "DivisorClass":
        """Extend with zero multiplicities up to n points. Never implicit:
        intersecting classes of different lengths is an error instead."""
        if n < self.n:
            raise InputError(f"cannot pad {self.n} multiplicities down to {n}")
        return DivisorClass(self.t, self.m + (0,) * (n - self.n))

    def truncate_to(self, n: int) -> "DivisorClass":
        """Drop trailing slots, which must all be zero."""
        if n > self.n:
            raise InputError(f"cannot truncate {self.n} multiplicities up to {n}")
        if any(self.m[n:]):
            raise InputError("truncation would drop nonzero multiplicities")
        return DivisorClass(self.t, self.m[:n])

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.n != other.n:
            raise InputError(f"adding classes on {self.n} and {other.n} points")
        return DivisorClass(self.t + other.t, tuple(a + b for a, b in zip(self.m, other.m)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if self.n != other.n:
            raise InputError(f"subtracting classes on {self.n} and {other.n} points")
        return DivisorClass(self.t - other.t, tuple(a - b for a, b in zip(self.m, other.m)))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(k * self.t, tuple(k * a for a in self.m))

    def __str__(self) -> str:
        return format_class(self)


def line_class(n: int) -> DivisorClass:
    return DivisorClass(1, (0,) * n)


def point_class(i: int, n: int) -> DivisorClass:
    """The exceptional class E_i (1-based slot), stored as multiplicity -1."""
    if not (1 <= i <= n):
        raise InputError(f"point index {i} out of range 1..{n}")
    return DivisorClass(0, tuple(-1 if j == i - 1 else 0 for j in range(n)))


def canonical_class(n: int) -> DivisorClass:
    return DivisorClass(-3, (-1,) * n)


def intersect(f: DivisorClass, g: DivisorClass) -> int:
    if f.n != g.n:
        raise InputError(f"intersecting classes on {f.n} and {g.n} points")
    return f.t * g.t - sum(a * b for a, b in zip(f.m, g.m))


def selfint(f: DivisorClass) -> int:
    return intersect(f, f)


def chi(f: DivisorClass) -> int:
    """Euler characteristic (F.F - K.F)/2 + 1; the numerator is always even."""
    k = canonical_class(f.n)
    num = intersect(f, f) - intersect(k, f)
    assert num % 2 == 0
    return num // 2 + 1


@dataclass(frozen=True)
class FatPointScheme:
    """General points with prescribed multiplicities m_i >= 1."""

    mults: tuple[int, ...]

    def __post_init__(self):
        ms = tuple(int(v) for v in self.mults)
        if not ms or any(v < 0 for v in ms) or not any(v > 0 for v in ms):
            raise InputError(
                f"multiplicities must be nonnegative with at least one positive, got {ms}"
            )
        object.__setattr__(self, "mults", ms)

    @property
    def n(self) -> int:
        return len(self.mults)

    def conditions(self) -> int:
        """Number of linear conditions sum C(m_i+1, 2)."""
        return sum(m * (m + 1) // 2 for m in self.mults)

    def __str__(self) -> str:
        return format_mults(self)


def class_of(z: FatPointScheme, t: int) -> DivisorClass:
    """The class tL - sum m_i E_i of curves of degree t through z."""
    return DivisorClass(t, z.mults)


_INT = re.compile(r"-?\d+$")


def _parse_int(tok: str, what: str) -> int:
    tok = tok.strip()
    if not _INT.match(tok):
        raise InputError(f"bad {what} {tok!r}: expected an integer")
    return int(tok)


def parse_class(text: str) -> DivisorClass:
    """Parse "t;m1,m2,...,mn" (whitespace-insensitive; n = 0 is "t;")."""
    s = "".join(text.split())
    if ";" not in s:
        raise InputError(f"bad class {text!r}: expected 't;m1,...,mn'")
    tpart, mpart = s.split(";", 1)
    t = _parse_int(tpart, "degree")
    if mpart == "":
        return DivisorClass(t, ())
    m = tuple(_parse_int(tok, "multiplicity") for tok in mpart.split(","))
    return DivisorClass(t, m)


def format_class(f: DivisorClass) -> str:
    return f"{f.t};" + ",".join(map(str, f.m))


def parse_mults(text: str) -> FatPointScheme:
    """Parse "m1,m2,...,mn" with repeat shorthand "77x7" / "77×7"."""
    s = "".join(text.split())
    out: list[int] = []
    if not s:
        raise InputError("empty multiplicity list")
    for tok in s.split(","):
        if "×" in tok or "x" in tok:
            parts = re.split(r"[x×]", tok)
            if len(parts) != 2:
                raise InputError(f"bad multiplicity token {tok!r}")
            v = _parse_int(parts[0], "multiplicity")
            k = _parse_int(parts[1], "repeat count")
            if k < 1:
                raise InputError(f"bad repeat count in {tok!r}")
            out.extend([v] * k)
        else:
            out.append(_parse_int(tok, "multiplicity"))
    return FatPointScheme(tuple(out))


def format_mults(z: FatPointScheme) -> str:
    return ",".join(map(str, z.mults))
