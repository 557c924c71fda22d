"""Expected dimension theory for linear systems through fat points.

The central operation writes an effective class F uniquely as F = H + N where
H is the class of the free part (expected to move) and N = sum c_j C_j is a
nonnegative combination of pairwise orthogonal exceptional classes fixed in
the system. Everything here is conjecturally exact for general points: the
expected h^0 is max(0, chi(H)), and the Hilbert function of a fat point
scheme in degree t is the expected h^0 of tL - sum m_i E_i.

The decomposition is computed in the Weyl chamber (after Cremona reduction)
where it can be read off the multiplicity signs, then pulled back through the
reduction word. Classes whose reduction ends NegL or NegLine are not
effective and decompose returns None for them. The expected h^0 needs only
chi of the free part, which is Weyl-invariant, so it is read in the chamber
without the pull-back.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InputError
from .lattice import (
    DivisorClass,
    FatPointScheme,
    canonical_class,
    chi,
    class_of,
    intersect,
    point_class,
)
from .weyl import IN_CHAMBER, apply_word, is_exceptional, reduce, reduce_class


@dataclass(frozen=True)
class Decomposition:
    """F = H + sum c_j C_j with the C_j pairwise orthogonal exceptional
    classes satisfying F.C_j < 0, H.C_j = 0.

    ``boundary`` marks the ambiguous chamber case (second multiplicity 0 with
    a negative third): both case splits agree there, but the caller may want
    to know the input sat on the case boundary.
    """

    h: DivisorClass
    components: tuple[tuple[DivisorClass, int], ...] = ()
    boundary: bool = False

    @property
    def total(self) -> DivisorClass:
        out = self.h
        for c, mult in self.components:
            out = out + mult * c
        return out


def _chamber_free(t: int, m: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Degree and multiplicities (zero-padded to len(m)) of the free part of
    an in-chamber terminal class of ``reduce``: its multiplicities are
    sorted descending, and there are at least 3.

    Negative multiplicities are fixed exceptional curves E_i. When
    m_3 < 0 < m_2 the free part lives on the first two points only, and if
    then c = t - m_1 - m_2 < 0 the line through them is fixed -c times."""
    n = len(m)
    if m[2] >= 0 or m[1] <= 0:
        return t, tuple(v if v > 0 else 0 for v in m)
    c = min(t - m[0] - m[1], 0)
    return t + c, (m[0] + c, m[1] + c) + (0,) * (n - 2)


def _chamber_split(
    t: int, m: tuple[int, ...]
) -> tuple[DivisorClass, list[tuple[DivisorClass, int]], bool]:
    """Split a class as ``_chamber_free`` takes it into free part and fixed
    components, in chamber coordinates."""
    n = len(m)
    boundary = m[1] == 0 and m[2] < 0
    h = DivisorClass(*_chamber_free(t, m))
    comps = [(DivisorClass(1, (1, 1) + (0,) * (n - 2)), t - h.t)] if h.t < t else []
    for i in range(n):
        if m[i] < 0:
            comps.append((point_class(i + 1, n), -m[i]))
    return h, comps, boundary


def pull_back(word: tuple[int, ...], c: DivisorClass, n: int) -> DivisorClass:
    """c carried back through ``reduce``'s word to the original n slots."""
    return apply_word(word, c, inverse=True).truncate_to(n)


def decompose(f: DivisorClass) -> Decomposition | None:
    """The free-part/fixed-part decomposition of f, or None when f is not
    effective (reduction ends NegL or NegLine)."""
    r = reduce(f)
    if r.status != IN_CHAMBER:
        return None
    h_c, comps_c, boundary = _chamber_split(r.reduced.t, r.reduced.m)
    h = pull_back(r.word, h_c, f.n)
    comps = tuple((pull_back(r.word, c_cls, f.n), mult) for c_cls, mult in comps_c)
    return Decomposition(h, comps, boundary)


def expected_h0(f: DivisorClass) -> int:
    """Conjecturally exact dimension of the complete linear system of f
    (projective dimension + 1; 0 for non-effective classes).

    This is max(0, chi(H)) for the free part H, read in chamber coordinates:
    chi is Weyl-invariant and zero-padded slots do not change it, so H is
    never pulled back, and the reduction builds no word (``decompose`` does
    both for callers that need the components)."""
    reduced, status = reduce_class(f)
    if status != IN_CHAMBER:
        return 0
    t, m = _chamber_free(reduced.t, reduced.m)
    # chi = C(t+2, 2) - sum C(m_i+1, 2), the lattice's chi for this class.
    return max(0, (t + 1) * (t + 2) // 2 - sum(v * (v + 1) // 2 for v in m))


def expected_h1(f: DivisorClass) -> int:
    """h^0 - chi + h^2 with h^2 = expected_h0(K - F).

    A negative value means the input contradicts the dimension conjectures;
    it is returned as-is with a warning, never clamped.
    """
    val = expected_h0(f) - chi(f) + expected_h0(canonical_class(f.n) - f)
    if val < 0:
        warnings.warn(f"negative expected h1 = {val} for {f}; input is inconsistent")
    return val


@dataclass(frozen=True)
class HilbertEntry:
    value: int
    fixed: tuple[tuple[DivisorClass, int], ...] = ()


@dataclass(frozen=True)
class HilbertReport:
    alpha: int
    entries: dict[int, HilbertEntry] = field(default_factory=dict)


@lru_cache(maxsize=None)
def alpha_degree(z: FatPointScheme) -> int:
    """Least degree with a curve through z (expected): the first t with
    expected_h0 > 0, found by bisection between two bounds.

    Below lo = max multiplicity the class meets the nef class L - E_i of the
    heaviest point negatively, so it has no curve. hi is the least t >= lo
    with C(t+2, 2) > conditions: there chi(F) > 0, and the free part has
    chi(H) = chi(F) + sum C(c_j, 2) >= chi(F), so hi is effective (an
    AssertionError says otherwise). A curve of degree t plus a line is one
    of degree t + 1, so expected_h0 > 0 is monotone in t and bisection takes
    at most ceil(log2(hi - lo + 1)) + 1 evaluations. Memoized per scheme,
    the package's one request cache: ``cli.run`` clears it at the start of
    each request."""
    lo = max(z.mults)
    hi, conditions = lo, z.conditions()
    while (hi + 1) * (hi + 2) // 2 <= conditions:
        hi += 1
    if expected_h0(class_of(z, hi)) <= 0:
        raise AssertionError(f"degree {hi} is not effective for {z}")
    while lo < hi:
        mid = (lo + hi) // 2
        if expected_h0(class_of(z, mid)) > 0:
            hi = mid
        else:
            lo = mid + 1
    return hi


def hilbert(z: FatPointScheme, degrees=None) -> HilbertReport:
    """Expected Hilbert function values e(t) = expected_h0 of class_of(z, t)
    with the fixed part recorded per degree.

    ``degrees`` is an iterable of degrees (default: alpha-2 .. alpha+2).
    """
    a = alpha_degree(z)
    if degrees is None:
        degrees = range(max(0, a - 2), a + 3)
    entries = {}
    for t in degrees:
        f = class_of(z, t)
        d = decompose(f)
        if d is None or chi(d.h) <= 0:
            entries[t] = HilbertEntry(0, ())
        else:
            entries[t] = HilbertEntry(chi(d.h), d.components)
    return HilbertReport(a, entries)


def fixed_part(z: FatPointScheme, t: int) -> tuple[tuple[DivisorClass, int], ...]:
    """Components (C_j, c_j) fixed in the degree-t system through z.

    Degrees with no curve at all are rejected: the fixed part of an empty
    system is not defined.
    """
    f = class_of(z, t)
    d = decompose(f)
    if d is None or chi(d.h) <= 0:
        raise InputError(f"degree {t} is not effective for {z}")
    return d.components


def sanity_check_decomposition(f: DivisorClass, d: Decomposition) -> None:
    """Assert the characterizing properties of the decomposition; used by
    tests and by the CLI's ``decompose`` on every report, not in hot loops."""
    assert d.total == f, (d.total, f)
    for c_cls, mult in d.components:
        assert mult > 0
        assert is_exceptional(c_cls), c_cls
        assert intersect(f, c_cls) == -mult, (f, c_cls, mult)
        assert intersect(d.h, c_cls) == 0, (d.h, c_cls)
    for i, (c1, _) in enumerate(d.components):
        for c2, _ in d.components[i + 1 :]:
            assert intersect(c1, c2) == 0, (c1, c2)
    assert d.h.t >= 0
