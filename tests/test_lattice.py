import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpt.errors import InputError
from fatpt.lattice import (
    DivisorClass,
    FatPointScheme,
    binom2,
    canonical_class,
    chi,
    class_of,
    format_class,
    format_mults,
    intersect,
    line_class,
    parse_class,
    parse_mults,
    point_class,
    selfint,
)

classes = st.builds(
    DivisorClass,
    st.integers(-50, 50),
    st.lists(st.integers(-20, 20), min_size=0, max_size=8).map(tuple),
)


def test_basis_products():
    n = 5
    l = line_class(n)
    assert selfint(l) == 1
    for i in range(1, n + 1):
        ei = point_class(i, n)
        assert selfint(ei) == -1
        assert intersect(l, ei) == 0
        for j in range(i + 1, n + 1):
            assert intersect(ei, point_class(j, n)) == 0


def test_canonical_class_products():
    k = canonical_class(4)
    assert selfint(k) == 9 - 4
    assert intersect(k, line_class(4)) == -3
    assert intersect(k, point_class(2, 4)) == -1


@given(classes, classes, classes, st.integers(-5, 5))
@settings(max_examples=120)
def test_intersection_bilinear(f, g, h, k):
    n = max(f.n, g.n, h.n)
    f, g, h = f.pad_to(n), g.pad_to(n), h.pad_to(n)
    assert intersect(f, g) == intersect(g, f)
    assert intersect(f + g, h) == intersect(f, h) + intersect(g, h)
    assert intersect(k * f, g) == k * intersect(f, g)


@given(classes)
@settings(max_examples=120)
def test_chi_riemann_roch_integrality(f):
    # (F^2 - K.F)/2 is always an integer; chi adds 1.
    num = selfint(f) - intersect(canonical_class(f.n), f)
    assert num % 2 == 0
    assert chi(f) == num // 2 + 1


def test_chi_plane_curves():
    for t in range(0, 8):
        f = DivisorClass(t, ())
        assert chi(f) == (t + 1) * (t + 2) // 2


def test_chi_frozen_values():
    assert chi(DivisorClass(27, (8, 8, 8, 8, 5, 5, 5, 5, 5, 5, 5))) == 157
    assert chi(DivisorClass(2, ())) == 6


@given(st.integers(-10, 40))
def test_binom2_pair_count(x):
    assert binom2(x) == (x * (x - 1) // 2 if x >= 2 else 0)
    # Staircase identity used throughout the cokernel bounds.
    assert binom2(x) == sum(max(0, x - 1 - j) for j in range(max(0, x)))


def test_mismatched_sizes_rejected():
    with pytest.raises(InputError):
        intersect(DivisorClass(1, (1,)), DivisorClass(1, (1, 1)))


def test_pad_and_truncate():
    f = DivisorClass(3, (2, 1))
    assert f.pad_to(4).m == (2, 1, 0, 0)
    assert f.pad_to(4).truncate_to(2) == f
    with pytest.raises(InputError):
        DivisorClass(3, (2, 1)).truncate_to(1)


def test_parse_format_roundtrip():
    for text in ("27;8,8,8,8,5,5,5,5,5,5,5", "0;", "-23;8,-1,-5", "3;2,1,1"):
        assert format_class(parse_class(text)) == text


def test_parse_class_names_bad_token():
    with pytest.raises(InputError, match="8x"):
        parse_class("27;8x,5")
    with pytest.raises(InputError, match="degree"):
        parse_class("abc;1,2")
    with pytest.raises(InputError):
        parse_class("12")


def test_parse_mults_shorthand():
    z = parse_mults("77x7,44,11,11,11")
    assert z.mults == (77,) * 7 + (44, 11, 11, 11)
    assert parse_mults("5×3") == parse_mults("5,5,5")
    assert format_mults(FatPointScheme((5, 5, 4))) == "5,5,4"


def test_parse_mults_rejects_garbage():
    with pytest.raises(InputError, match="x"):
        parse_mults("5,x5")
    with pytest.raises(InputError):
        parse_mults("")
    with pytest.raises(InputError):
        parse_mults("0,0")


def test_scheme_conditions():
    z = FatPointScheme((3, 2, 1))
    assert z.conditions() == 6 + 3 + 1
    assert z.n == 3


def test_class_of_scheme():
    z = FatPointScheme((2, 1))
    assert class_of(z, 5) == DivisorClass(5, (2, 1))


def test_negative_multiplicity_rejected():
    with pytest.raises(InputError):
        FatPointScheme((2, -1))
