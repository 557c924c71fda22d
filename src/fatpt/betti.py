"""Graded Betti numbers of fat point ideals in the plane.

The ideal of a fat point scheme Z has a length-one minimal free resolution

    0 -> sum_i R(-i)^{s_i} -> sum_i R(-i)^{g_i} -> I(Z) -> 0.

Writing e(t) = dim I(Z)_t, the generator counts determine the syzygies
through the third difference, s_i = g_i - D3 e(i) (with e = 0 below alpha),
so everything reduces to g_{t+1} = dim cok mu_t for the multiplication maps
mu_t : I(Z)_t x R_1 -> I(Z)_{t+1}. Those cokernels are governed by the
exceptional curves in the fixed parts of the systems near degree t and by
their splitting types.

Two routes are implemented and kept separate on purpose:

* ``expected_betti`` works from the decomposition of the class at degree
  i - 2 (free part H plus fixed multiples of exceptional curves) and prices
  each component through its splitting type, with a correction term when a
  fixed multiple exceeds the component degree.
* ``bettibound_data`` packages the fixed-part exponents at three consecutive
  degrees (t-1, t, t+1) and evaluates the closed bound expression on them.
  Its value also equals g_{t+1}; agreement of the two routes is a test, not
  an assumption.

Degree alpha + 1 needs special handling because degree alpha - 1 carries no
curves at all; ``betti_alpha_plus_one`` runs a cascade of four methods, the
later ones weaker, and reports which one fired.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .cokernel import predicted_cokernel, proven_case
from .errors import InfeasibleError, InputError
from .exactla import DEFAULT_PRIME
from .lattice import DivisorClass, FatPointScheme, binom2, class_of, line_class, point_class
from .linsys import alpha_degree, decompose, expected_h0, expected_h1, fixed_part, pull_back
from .splitting import DEFAULT_SEED, SplittingType, is_provisional, splittings_of
from .weyl import reduce

EXACT = "Exact"
CONJECTURAL = "ConjecturalExact"
INTERVAL = "Interval"
UNKNOWN = "Unknown"


def line_presentation(z: FatPointScheme):
    """Write class_of(z, alpha) as L + H + sum c_j C_j, or None.

    Built by reducing class_of(z, alpha - 1) = F_alpha - L and splitting off
    the terminal slots of multiplicity <= -2 (unit slots stay inside H, they
    cost nothing against a single extra line). The C_j, distinct point
    classes pulled back through one word, are pairwise orthogonal and
    exceptional by construction, and H.C_j = 0: H's terminal form is 0 at
    their slots, intersection is Weyl-invariant and ``truncate_to`` drops
    only zero slots. Returns (H, components), or None unless H.L >= 0 and
    expected h^1(H) = 0; H need not be effective.
    """
    a = alpha_degree(z)
    start = class_of(z, a - 1)
    rf = reduce(start)
    term = rf.reduced
    hm = list(term.m)
    deep = []
    for i, v in enumerate(term.m):
        if v <= -2:
            deep.append((i, -v))
            hm[i] = 0
    h_term = DivisorClass(term.t, tuple(hm))
    comps = [(pull_back(rf.word, point_class(i + 1, term.n), z.n), c) for i, c in deep]
    h = pull_back(rf.word, h_term, z.n)
    if h.t < 0 or expected_h1(h) != 0:
        return None
    total = line_class(z.n) + h
    for cls, c in comps:
        total = total + c * cls
    assert total == class_of(z, a), "presentation does not reassemble the degree-alpha class"
    return h, tuple(comps)


def _price_components(comps, base: DivisorClass, p: int, seed):
    """Price fixed components (C_j, c_j) through their splitting types.

    Clips each exponent at k_j = min(c_j, L.C_j) and returns (total, clipped,
    info, flag): total = sum_j binom2(k_j - a_j) + binom2(k_j - b_j),
    clipped = base + sum_j k_j C_j, info the (C_j, c_j, k_j, type) rows, and
    flag CONJECTURAL when some component leaves the proven range
    (``proven_case``). The types come from one request for all components.
    """
    total = 0
    clipped = base
    info = []
    conjectural = False
    for (cls, c), st in zip(comps, splittings_of([cls for cls, _ in comps], p, seed)):
        k = min(c, cls.t)
        total += predicted_cokernel(k, st)
        clipped = clipped + k * cls
        info.append((cls, c, k, st))
        if not proven_case(cls, k, st):
            conjectural = True
    return total, clipped, tuple(info), CONJECTURAL if conjectural else EXACT


@dataclass(frozen=True)
class AlphaOneResult:
    """Outcome for the generator count in degree alpha + 1.

    Exactly one of value / interval is set unless nothing is known; path
    records which method produced it: "unique-section" (a pencil cannot
    drop rank), "injective" (both obstruction terms vanish),
    "decomposition" (priced through a presentation L + H + N), "interval"
    (two-sided obstruction bounds), or "unknown".
    """

    value: int | None
    interval: tuple[int, int] | None
    path: str
    flag: str
    components: tuple[tuple[DivisorClass, int, int, SplittingType], ...] = ()


def betti_alpha_plus_one(
    z: FatPointScheme, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED
) -> AlphaOneResult:
    a = alpha_degree(z)
    f = class_of(z, a)
    h0 = expected_h0(f)
    h0_next = expected_h0(class_of(z, a + 1))

    if h0 == 1:
        return AlphaOneResult(h0_next - 3, None, "unique-section", EXACT)

    # l_i = h0(F - (L - E_i)) and q_i = h0(F - E_i) obstruct injectivity;
    # both vanishing at one point suffices.
    lcls = line_class(f.n)
    points = [point_class(i, f.n) for i in range(1, f.n + 1)]
    ls = [expected_h0(f - (lcls - ei)) for ei in points]
    if any(li == 0 and expected_h0(f - ei) == 0 for li, ei in zip(ls, points)):
        return AlphaOneResult(h0_next - 3 * h0, None, "injective", EXACT)

    pres = line_presentation(z)
    if pres is not None and pres[1]:
        h, comps = pres
        total, m_clip, info, flag = _price_components(comps, 2 * line_class(z.n) + h, p, seed)
        total += h0_next - expected_h0(m_clip)
        return AlphaOneResult(total, None, "decomposition", flag, info)

    if expected_h1(f) > 0:
        return AlphaOneResult(None, None, "unknown", UNKNOWN)

    lo = 0
    hi = None
    for ei, li in zip(points, ls):
        qi_star = expected_h1(f - ei)
        li_star = expected_h1(f - (lcls - ei))
        lo = max(lo, a + 2 - 2 * h0 + li)
        hi = qi_star + li_star if hi is None else min(hi, qi_star + li_star)
    if hi < lo:
        raise InfeasibleError(
            f"inconsistent generator bounds [{lo}, {hi}] in degree {a + 1} for {z}"
        )
    if lo == hi:
        return AlphaOneResult(lo, None, "interval", EXACT)
    return AlphaOneResult(None, (lo, hi), "interval", INTERVAL)


@dataclass(frozen=True)
class ExpectedBetti:
    """Generator count in one degree, with the pricing data that made it."""

    value: int
    flag: str
    components: tuple[tuple[DivisorClass, int, int, SplittingType], ...]


def expected_betti(
    z: FatPointScheme, i: int, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED
) -> ExpectedBetti:
    """Expected number of degree-i minimal generators, for i >= alpha + 2.

    Decomposes the class two degrees down as H + sum c_j C_j, clips each
    exponent at k_j = min(c_j, L.C_j), and returns

        [h0(F_i) - h0(2L + H + sum k_j C_j)] + sum_j binom2(k_j - a_j)
                                                    + binom2(k_j - b_j).
    """
    a = alpha_degree(z)
    if i < a + 2:
        raise InputError(f"expected_betti needs degree >= alpha + 2 = {a + 2}, got {i}")
    # i - 2 >= alpha and expected h0 > 0 is monotone in t (``alpha_degree``),
    # so the class reduces InChamber and ``decompose`` gives a decomposition.
    dec = decompose(class_of(z, i - 2))
    total, clipped, info, flag = _price_components(dec.components, 2 * line_class(z.n) + dec.h, p, seed)
    value = expected_h0(class_of(z, i)) - expected_h0(clipped) + total
    return ExpectedBetti(value, flag, info)


@dataclass(frozen=True)
class BoundComponent:
    """One exceptional curve with its fixed exponents at degrees t-1, t, t+1."""

    cls: DivisorClass
    c: int
    c1: int
    c2: int
    splitting: SplittingType


@dataclass(frozen=True)
class BettiBoundData:
    """Fixed-part data of the multiplication map mu_t; value() bounds
    dim cok mu_t = g_{t+1} and is conjecturally sharp."""

    components: tuple[BoundComponent, ...]

    def value(self) -> int:
        total = 0
        for comp in self.components:
            drop = comp.c1 - comp.c2
            k = comp.c - comp.c1
            total += comp.cls.t * drop - binom2(drop)
            total += predicted_cokernel(k, comp.splitting)
        return total


def bettibound_data(
    z: FatPointScheme, t: int, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED
) -> BettiBoundData:
    """Exponent data (c, c', c'') for mu_t, defined for t >= alpha.

    For t > alpha the c exponents are the fixed multiplicities at degree
    t - 1. At t = alpha that degree is empty and the exponents come from the
    class-level presentation F_alpha = L + H + N instead, whose N plays the
    role of the fixed part one degree down.
    """
    a = alpha_degree(z)
    if t < a:
        raise InputError(f"bound data needs degree >= alpha = {a}, got {t}")
    if t == a:
        pres = line_presentation(z)
        if pres is None:
            raise InfeasibleError(f"no component presentation at degree {a} for {z}")
        prev = pres[1]
    else:
        prev = fixed_part(z, t - 1)
    cur = {cls: c for cls, c in fixed_part(z, t)}
    nxt = {cls: c for cls, c in fixed_part(z, t + 1)}
    known = {cls for cls, _ in prev}
    if not set(cur) <= known or not set(nxt) <= set(cur) | known:
        raise InfeasibleError(f"fixed components appear from nowhere at degree {t} for {z}")

    comps = []
    for (cls, c), st in zip(prev, splittings_of([cls for cls, _ in prev], p, seed)):
        c1 = cur.get(cls, 0)
        c2 = nxt.get(cls, 0)
        assert c >= c1 >= c2 >= 0 and c - c1 <= cls.t, "fixed exponents out of range"
        comps.append(BoundComponent(cls, c, c1, c2, st))
    return BettiBoundData(tuple(comps))


@dataclass(frozen=True)
class BettiEntry:
    """One degree of the resolution. generators/syzygies hold numbers when
    known, otherwise the interval field carries two-sided bounds and both
    are None for an unknown entry."""

    degree: int
    generators: int | None
    generators_interval: tuple[int, int] | None
    syzygies: int | None
    syzygies_interval: tuple[int, int] | None
    flag: str


@dataclass(frozen=True)
class ResolutionTable:
    scheme: FatPointScheme
    alpha: int
    regularity: int
    entries: tuple[BettiEntry, ...]
    alpha_plus_one_path: str
    provisional: tuple[DivisorClass, ...]

    def entry(self, i: int) -> BettiEntry:
        for ent in self.entries:
            if ent.degree == i:
                return ent
        if i < self.alpha:
            return BettiEntry(i, 0, None, 0, None, EXACT)
        raise InputError(f"degree {i} outside the assembled range")

    def gens_dict(self) -> dict:
        return {e.degree: e.generators if e.generators is not None else e.generators_interval
                for e in self.entries}

    def syz_dict(self) -> dict:
        return {e.degree: e.syzygies if e.syzygies is not None else e.syzygies_interval
                for e in self.entries}

    def flags_dict(self) -> dict:
        return {e.degree: e.flag for e in self.entries}


def regularity(z: FatPointScheme) -> int:
    """First degree >= alpha where the expected h^1 of the scheme's class
    vanishes; generator degrees are confined to <= regularity + 1."""
    a = alpha_degree(z)
    bound = a + 3 * max(z.mults) + 3
    for t in range(a, bound + 1):
        if expected_h1(class_of(z, t)) == 0:
            return t
    raise InfeasibleError(f"no vanishing h^1 up to degree {bound} for {z}")


def assemble_resolution(
    z: FatPointScheme,
    i_max: int | None = None,
    p: int = DEFAULT_PRIME,
    seed=DEFAULT_SEED,
) -> ResolutionTable:
    """Full expected resolution over degrees alpha .. i_max.

    g_alpha = e(alpha) always; degree alpha + 1 goes through the cascade;
    higher degrees use expected_betti until one past the regularity, beyond
    which generators vanish. Syzygies follow as s_i = g_i - D3 e(i).
    """
    a = alpha_degree(z)
    reg = regularity(z)
    if i_max is None:
        i_max = reg + 2
    if i_max < a + 2:
        raise InputError(f"i_max must be >= alpha + 2 = {a + 2}, got {i_max}")

    e = {t: expected_h0(class_of(z, t)) for t in range(a, i_max + 1)}

    def ev(t: int) -> int:
        return e.get(t, 0) if t >= a else 0

    ap1 = betti_alpha_plus_one(z, p, seed)
    priced = {comp[0] for comp in ap1.components}
    entries = []
    for i in range(a, i_max + 1):
        if i == a:
            g, gint, flag = e[a], None, EXACT
        elif i == a + 1:
            g, gint, flag = ap1.value, ap1.interval, ap1.flag
        elif i > reg + 1:
            g, gint, flag = 0, None, EXACT
        else:
            eb = expected_betti(z, i, p, seed)
            g, gint, flag = eb.value, None, eb.flag
            priced.update(comp[0] for comp in eb.components)
        d3 = ev(i) - 3 * ev(i - 1) + 3 * ev(i - 2) - ev(i - 3)
        if g is not None:
            s, sint = g - d3, None
            if s < 0 and flag != UNKNOWN:
                warnings.warn(f"negative syzygy count {s} in degree {i} for {z}")
        elif gint is not None:
            s, sint = None, (max(0, gint[0] - d3), gint[1] - d3)
        else:
            s, sint = None, None
        entries.append(BettiEntry(i, g, gint, s, sint, flag))

    assert entries[0].syzygies == 0, "syzygies cannot start at alpha"
    prov = sorted(filter(is_provisional, priced), key=str)
    return ResolutionTable(z, a, reg, tuple(entries), ap1.path, tuple(prov))


def check_hilbert_consistency(table: ResolutionTable) -> None:
    """Resolution ranks must reproduce the ideal dimensions: for every t in
    the assembled range, sum_i (g_i - s_i) binom2(t - i + 2) == e(t).
    Only meaningful when every entry is a number; intervals are skipped."""
    z = table.scheme
    if any(ent.generators is None or ent.syzygies is None for ent in table.entries):
        return
    for t in range(table.alpha, table.entries[-1].degree + 1):
        total = 0
        for ent in table.entries:
            total += (ent.generators - ent.syzygies) * binom2(t - ent.degree + 2)
        expected = expected_h0(class_of(z, t))
        assert total == expected, (
            f"resolution ranks give {total} at degree {t}, dimension is {expected}"
        )
