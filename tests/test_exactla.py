import numpy as np
import pytest
from hypothesis import given, settings
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


def test_min_syzygy_rejects_common_factor():
    p = 31991
    u = BinaryForm((0, 1), p)
    with pytest.raises(InputError):
        min_syzygy_degree(u, u, u)


def test_default_prime_value():
    assert DEFAULT_PRIME == 31991
    assert is_prime(DEFAULT_PRIME)
