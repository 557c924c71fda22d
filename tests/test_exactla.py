import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatpt import _kernels
from fatpt.errors import InputError
from fatpt.exactla import (
    DEFAULT_PRIME,
    BinaryForm,
    FpMatrix,
    PrimeField,
    form_divexact,
    form_gcd,
    is_prime,
    min_syzygy_degree,
)


def test_prime_field_validates():
    PrimeField(31991)
    PrimeField(7)
    with pytest.raises(InputError):
        PrimeField(10)
    with pytest.raises(InputError):
        PrimeField(2)
    with pytest.raises(InputError):
        PrimeField(2**31 + 11)


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_rank_and_nullspace_identity():
    p = 101
    a = FpMatrix(np.eye(4, dtype=np.int64), p)
    assert a.rank() == 4
    assert a.nullspace().rows == 0


def test_nullspace_of_zero_rows():
    ns = FpMatrix(np.zeros((0, 5), dtype=np.int64), 7).nullspace()
    assert ns.rows == 5
    assert ns.rank() == 5


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(5)
    p = 113
    a = rng.integers(0, p, size=(7, 12))
    m = FpMatrix(a, p)
    ns = m.nullspace()
    assert ns.rows == 12 - m.rank()
    prod = (a % p @ ns.a.T) % p
    assert not prod.any()


def test_backends_agree_bit_for_bit():
    if not _kernels.HAS_NUMBA:
        pytest.skip("numba not importable")
    rng = np.random.default_rng(11)
    p = 31991
    for rows, cols in [(6, 6), (10, 17), (17, 10), (1, 1), (30, 30)]:
        a = rng.integers(0, p, size=(rows, cols))
        a1 = np.ascontiguousarray(a.copy())
        a2 = np.ascontiguousarray(a.copy())
        r1, piv1 = _kernels.rref_using(a1, p, "numpy")
        r2, piv2 = _kernels.rref_using(a2, p, "numba")
        assert r1 == r2
        assert np.array_equal(piv1, piv2)
        assert np.array_equal(a1, a2)


def test_binary_form_gcd_frozen():
    p = 7
    # u^2 - v^2 and u - v share the factor u - v (monic in u).
    f = BinaryForm((p - 1, 0, 1), p)
    g = BinaryForm((p - 1, 1), p)
    assert form_gcd(f, g).coeffs == (6, 1)


def test_form_divexact_roundtrip():
    p = 31991
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = BinaryForm(tuple(int(v) for v in rng.integers(0, p, size=4)), p)
        b = BinaryForm(tuple(int(v) for v in rng.integers(1, p, size=3)), p)
        if a.is_zero or b.is_zero:
            continue
        prod = a * b
        assert form_divexact(prod, b).coeffs == a.coeffs


@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 400))
@settings(max_examples=60, deadline=None)
def test_form_gcd_divides_both(da, db, seed):
    p = 101
    rng = np.random.default_rng(seed)
    a = BinaryForm(tuple(int(v) for v in rng.integers(0, p, size=da + 1)), p)
    b = BinaryForm(tuple(int(v) for v in rng.integers(0, p, size=db + 1)), p)
    if a.is_zero or b.is_zero:
        return
    g = form_gcd(a, b)
    form_divexact(a, g)
    form_divexact(b, g)


def test_min_syzygy_degree_examples():
    p = 31991
    # (u, v, u + v) has a linear syzygy in degree 0: 1*u + 1*v - 1*(u+v).
    assert min_syzygy_degree(BinaryForm((0, 1), p), BinaryForm((1, 0), p), BinaryForm((1, 1), p)) == 0
    # (u^2, v^2, uv): no degree-0 relation, degree 1 works.
    assert min_syzygy_degree(BinaryForm((0, 0, 1), p), BinaryForm((1, 0, 0), p), BinaryForm((0, 1, 0), p)) == 1


def _syzygy_degree_scan(f0, f1, f2):
    """Reference: the least e whose (d+e+1) x 3(e+1) coefficient matrix has a
    nonzero kernel, found by trying e = 0, 1, ... in turn."""
    d, p = f0.degree, f0.p
    for e in range(d // 2 + 1):
        m = np.zeros((d + e + 1, 3 * (e + 1)), dtype=np.int64)
        for idx, f in enumerate((f0, f1, f2)):
            for k in range(e + 1):
                for j, c in enumerate(f.coeffs):
                    m[j + k, idx * (e + 1) + k] = c
        if FpMatrix(m, p).rank() < 3 * (e + 1):
            return e
    raise AssertionError("no syzygy up to floor(d/2)")


def _minors(pv, qv):
    """The 2x2 minors of the 3x2 matrix with columns pv, qv: three forms
    whose syzygy module is generated by pv and qv when they are coprime."""
    return [
        pv[(i + 1) % 3] * qv[(i + 2) % 3] + (pv[(i + 2) % 3] * qv[(i + 1) % 3]).scale(-1)
        for i in range(3)
    ]


def _coprime(forms):
    if any(f.is_zero for f in forms):
        return False
    return form_gcd(form_gcd(forms[0], forms[1]), forms[2]).degree == 0


def _form(*coeffs, p=31991):
    return BinaryForm(coeffs, p)


@pytest.mark.parametrize(
    "forms, a",
    [
        ((_form(1), _form(2), _form(3)), 0),  # d = 0
        ((_form(0, 1), _form(1, 0), _form(1, 1)), 0),  # d = 1
        ((_form(0, 0, 0, 0, 1), _form(1, 0, 0, 0, 0), _form(1, 0, 0, 0, 1)), 0),  # f2 = f0 + f1
        ((_form(0, 0, 0, 1), _form(1, 0, 0, 0), _form(0, 0, 1, 0)), 1),  # odd d, v*f0 = u*f2
        ((_form(0, 0, 0, 0, 1), _form(1, 0, 0, 0, 0), _form(0, 0, 1, 0, 0)), 2),  # even d, a = d/2
        ((_form(0, 0, 0, 0, 0, 1), _form(1, 0, 0, 0, 0, 0), _form(0, 1, 0, 0, 0, 0)), 1),  # odd d
    ],
)
def test_min_syzygy_degree_frozen_cases(forms, a):
    assert min_syzygy_degree(*forms) == a
    assert _syzygy_degree_scan(*forms) == a


@given(
    st.sampled_from([7, 101, 31991]),
    st.integers(0, 12),
    st.data(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_min_syzygy_degree_matches_scan(p, d, data, seed):
    # Build the triple as the minors of two random columns of degrees a and
    # d - a, so that every a in 0..d/2 is exercised, not only the balanced
    # type of a generic triple.
    a = data.draw(st.integers(0, d // 2))
    rng = np.random.default_rng(seed)

    def column(deg):
        return [BinaryForm(rng.integers(0, p, size=deg + 1).tolist(), p) for _ in range(3)]

    forms = _minors(column(a), column(d - a))
    assume(_coprime(forms))
    assert min_syzygy_degree(*forms) == _syzygy_degree_scan(*forms)


def test_min_syzygy_degree_uses_one_rank(monkeypatch):
    calls = []
    rank = _kernels.rank
    monkeypatch.setattr(_kernels, "rank", lambda a, p: calls.append(a.shape) or rank(a, p))
    rng = np.random.default_rng(17)
    p = 31991
    forms = [BinaryForm([int(v) for v in rng.integers(1, p, size=10)], p) for _ in range(3)]
    assert min_syzygy_degree(*forms) == 4
    assert calls == [(14, 15)]


@pytest.mark.parametrize("fake_rank", [lambda a, p: a.shape[1], lambda a, p: 0])
def test_min_syzygy_degree_rejects_impossible_nullity(monkeypatch, fake_rank):
    # A full-rank matrix at odd d, or a nullity above e + 1, cannot come from
    # coprime forms.
    monkeypatch.setattr(_kernels, "rank", fake_rank)
    forms = (_form(0, 0, 0, 1), _form(1, 0, 0, 0), _form(0, 0, 1, 0))
    with pytest.raises(AssertionError):
        min_syzygy_degree(*forms)


def test_min_syzygy_rejects_common_factor():
    p = 31991
    u = BinaryForm((0, 1), p)
    with pytest.raises(InputError):
        min_syzygy_degree(u, u, u)


def test_default_prime_value():
    assert DEFAULT_PRIME == 31991
    assert is_prime(DEFAULT_PRIME)


LARGEST_PRIME = 2**31 - 1


def test_form_product_at_largest_prime():
    p = LARGEST_PRIME
    rng = np.random.default_rng(23)
    a = [int(v) for v in rng.integers(p // 2, p, size=20)]
    b = [int(v) for v in rng.integers(p // 2, p, size=24)]
    ref = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            ref[i + j] += ca * cb
    assert (BinaryForm(a, p) * BinaryForm(b, p)).coeffs == tuple(c % p for c in ref)
