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
effective and decompose returns None for them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import InputError
from .lattice import (
    DivisorClass,
    FatPointScheme,
    canonical_class,
    chi,
    class_of,
    intersect,
    line_class,
)
from .weyl import IN_CHAMBER, ReducedForm, apply_word, is_exceptional, reduce


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
    def n_part(self) -> DivisorClass:
        out = DivisorClass(0, (0,) * self.h.n)
        for c, mult in self.components:
            out = out + mult * c
        return out

    @property
    def total(self) -> DivisorClass:
        return self.h + self.n_part


def _chamber_split(
    t: int, m: tuple[int, ...]
) -> tuple[DivisorClass, list[tuple[DivisorClass, int]], bool]:
    """Split an in-chamber class (multiplicities sorted descending) into free
    part and fixed components, in chamber coordinates."""
    n = len(m)
    boundary = n >= 3 and m[1] == 0 and m[2] < 0

    def e_slot(i: int) -> DivisorClass:
        return DivisorClass(0, tuple(-1 if j == i else 0 for j in range(n)))

    if n < 3 or m[2] >= 0 or m[1] <= 0:
        h = DivisorClass(t, tuple(v if v > 0 else 0 for v in m))
        comps = [(e_slot(i), -m[i]) for i in range(n) if m[i] < 0]
        return h, comps, boundary
    # now m_3 < 0 < m_2
    c = t - m[0] - m[1]
    tail = [(e_slot(i), -m[i]) for i in range(2, n)]
    if c < 0:
        h = DivisorClass(t + c, (m[0] + c, m[1] + c) + (0,) * (n - 2))
        line12 = DivisorClass(1, (1, 1) + (0,) * (n - 2))
        return h, [(line12, -c)] + tail, boundary
    h = DivisorClass(t, (m[0], m[1]) + (0,) * (n - 2))
    return h, tail, boundary


def decompose(f: DivisorClass, reduced: ReducedForm | None = None) -> Decomposition | None:
    """The free-part/fixed-part decomposition of f, or None when f is not
    effective (reduction ends NegL or NegLine)."""
    r = reduced if reduced is not None else reduce(f)
    if r.status != IN_CHAMBER:
        return None
    h_c, comps_c, boundary = _chamber_split(r.reduced.t, r.reduced.m)
    h = apply_word(r.word, h_c, inverse=True)
    if h.n > f.n:
        h = h.truncate_to(f.n)
    comps = []
    for c_cls, mult in comps_c:
        back = apply_word(r.word, c_cls, inverse=True)
        comps.append((back.truncate_to(f.n) if back.n > f.n else back, mult))
    return Decomposition(h, tuple(comps), boundary)


def expected_h0(f: DivisorClass) -> int:
    """Conjecturally exact dimension of the complete linear system of f
    (projective dimension + 1; 0 for non-effective classes)."""
    d = decompose(f)
    if d is None:
        return 0
    return max(0, chi(d.h))


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
    scheme: FatPointScheme
    alpha: int
    entries: dict[int, HilbertEntry] = field(default_factory=dict)


def alpha_degree(z: FatPointScheme) -> int:
    """Least degree with a curve through z (expected): first t with
    expected_h0 > 0, found by upward scan from 0."""
    t = 0
    while True:
        if expected_h0(class_of(z, t)) > 0:
            return t
        t += 1
        if t > sum(z.mults):
            raise AssertionError(f"no effective degree up to {sum(z.mults)} for {z}")


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
    return HilbertReport(z, a, entries)


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
    tests and the CLI's verbose path, not in hot loops."""
    assert d.total == f, (d.total, f)
    for c_cls, mult in d.components:
        assert mult > 0
        assert is_exceptional(c_cls), c_cls
        assert intersect(f, c_cls) == -mult, (f, c_cls, mult)
        assert intersect(d.h, c_cls) == 0, (d.h, c_cls)
    for i, (c1, _) in enumerate(d.components):
        for c2, _ in d.components[i + 1 :]:
            assert intersect(c1, c2) == 0, (c1, c2)
    assert intersect(d.h, line_class(f.n)) >= 0
