import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpt import linsys
from fatpt.errors import InputError
from fatpt.lattice import (
    DivisorClass,
    FatPointScheme,
    binom2,
    canonical_class,
    chi,
    class_of,
    parse_class,
)
from fatpt.linsys import (
    alpha_degree,
    decompose,
    expected_h0,
    expected_h1,
    fixed_part,
    hilbert,
    sanity_check_decomposition,
)

Z616 = FatPointScheme((77,) * 7 + (44, 11, 11, 11))
Z102 = FatPointScheme((50, 50, 38, 38, 26, 26, 22, 18, 14, 14))


def test_hilbert_frozen_large_quasihomogeneous():
    rep = hilbert(Z616)
    assert rep.alpha == 209
    assert {t: e.value for t, e in rep.entries.items()} == {
        207: 0,
        208: 0,
        209: 1,
        210: 157,
        211: 369,
    }


def test_hilbert_frozen_ten_point_scheme():
    rep = hilbert(Z102, degrees=range(99, 105))
    assert rep.alpha == 102
    assert {t: e.value for t, e in rep.entries.items()} == {
        99: 0,
        100: 0,
        101: 0,
        102: 4,
        103: 92,
        104: 197,
    }


def test_fixed_part_frozen_components():
    fixed = fixed_part(Z102, 102)
    assert fixed == (
        (parse_class("8;4,4,3,3,2,2,1,2,1,1"), 2),
        (parse_class("8;4,4,3,3,2,2,2,1,1,1"), 6),
    )
    # one degree up both components drop out of the fixed locus
    assert fixed_part(Z102, 104) == ()


def test_fixed_part_rejects_empty_system():
    with pytest.raises(InputError):
        fixed_part(Z616, 208)


def test_decompose_multiple_exceptional_curve():
    # the unique degree-209 curve is the 11-fold exceptional component
    d = decompose(class_of(Z616, 209))
    assert d.h == DivisorClass(0, (0,) * 11)
    assert d.components == ((parse_class("19;7,7,7,7,7,7,7,4,1,1,1"), 11),)
    assert expected_h0(class_of(Z616, 209)) == 1


def test_decompose_none_for_non_effective():
    assert decompose(DivisorClass(-1, ())) is None
    assert decompose(parse_class("1;2,0,0")) is None
    assert expected_h0(parse_class("1;2,0,0")) == 0


def test_decompose_boundary_flag():
    d = decompose(parse_class("2;1,0,-1"))
    assert d.boundary
    assert d.h == parse_class("2;1,0,0")
    assert d.components == ((DivisorClass(0, (0, 0, -1)), 1),)


def test_decompose_interior_line_component():
    f = parse_class("3;2,2,-2")
    d = decompose(f)
    assert d.h == parse_class("2;1,1,0")
    assert d.components == (
        (parse_class("1;1,1,0"), 1),
        (DivisorClass(0, (0, 0, -1)), 2),
    )
    sanity_check_decomposition(f, d)


def test_alpha_and_hilbert_single_simple_point():
    z = FatPointScheme((1,))
    assert alpha_degree(z) == 1
    rep = hilbert(z, degrees=range(4))
    assert {t: e.value for t, e in rep.entries.items()} == {0: 0, 1: 2, 2: 5, 3: 9}


def test_expected_h1_frozen():
    assert expected_h1(class_of(Z102, 102)) == 16
    assert expected_h1(class_of(Z102, 104)) == 0


classes = st.builds(
    DivisorClass,
    st.integers(min_value=-3, max_value=18),
    st.tuples(*[st.integers(min_value=-3, max_value=6)] * 6),
)


@given(classes)
@settings(max_examples=300)
def test_decomposition_properties_random(f):
    d = decompose(f)
    if d is None:
        assert expected_h0(f) == 0
        return
    sanity_check_decomposition(f, d)
    fix = sum(binom2(mult) for _, mult in d.components)
    h0 = expected_h0(f)
    if h0 > 0:
        # removing the fixed part costs exactly binom2 of each multiplicity
        assert h0 == chi(f) + fix
        assert expected_h1(f) == fix + expected_h0(canonical_class(f.n) - f)


@given(classes)
@settings(max_examples=300)
def test_expected_h1_nonnegative(f):
    assert expected_h1(f) >= 0


def _alpha_by_scan(z):
    """Reference: the first t with expected_h0 > 0, scanning up from 0."""
    t = 0
    while True:
        if expected_h0(class_of(z, t)) > 0:
            return t
        t += 1
        if t > sum(z.mults):
            raise AssertionError(f"no effective degree up to {sum(z.mults)} for {z}")


def _expected_h0_by_pullback(f):
    """Reference: chi of the free part after pulling it back to f's slots."""
    d = decompose(f)
    return 0 if d is None else max(0, chi(d.h))


def _bisection_bounds(z):
    lo = max(z.mults)
    hi = lo
    while (hi + 1) * (hi + 2) // 2 <= z.conditions():
        hi += 1
    return lo, hi


schemes = st.lists(st.integers(0, 79), min_size=1, max_size=11).filter(any).map(
    lambda ms: FatPointScheme(tuple(ms))
)


@given(schemes)
@example(FatPointScheme((1,)))
@example(FatPointScheme((0, 79)))
@example(FatPointScheme((5, 5, 5)))
@example(FatPointScheme((77,) * 7 + (44, 11, 11, 11)))
@settings(max_examples=150)
def test_alpha_bisection_matches_scan(z):
    assert alpha_degree(z) == _alpha_by_scan(z)


@given(schemes)
@settings(max_examples=40)
def test_expected_h0_positivity_monotone(z):
    lo, a = max(z.mults), alpha_degree(z)
    positive = [expected_h0(class_of(z, t)) > 0 for t in range(lo, a + 41)]
    assert positive == sorted(positive)


mixed_classes = st.builds(
    DivisorClass,
    st.integers(-5, 40),
    st.lists(st.integers(-6, 15), min_size=0, max_size=9).map(tuple),
)


@given(mixed_classes)
@example(DivisorClass(-1, ()))
@example(DivisorClass(4, (2,)))
@example(DivisorClass(2, (1, -1)))
@settings(max_examples=400)
def test_chamber_expected_h0_matches_pullback(f):
    assert expected_h0(f) == _expected_h0_by_pullback(f)


@given(schemes)
@example(FatPointScheme((1,)))
@example(FatPointScheme((50, 50, 38, 38, 26, 26, 22, 18, 14, 14)))
@settings(max_examples=60)
def test_alpha_degree_call_count(z):
    calls = []

    def counted(f):
        calls.append(f)
        return expected_h0(f)

    lo, hi = _bisection_bounds(z)
    alpha_degree.cache_clear()
    with mock.patch.object(linsys, "expected_h0", counted):
        first = alpha_degree(z)
        spent = len(calls)
        assert alpha_degree(z) == first
    assert spent <= math.ceil(math.log2(hi - lo + 1)) + 1
    assert len(calls) == spent  # the second call came from the memo
