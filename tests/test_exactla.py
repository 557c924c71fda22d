import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fatpt import _kernels, exactla
from fatpt.errors import DegenerateConfiguration, InputError
from fatpt.exactla import DEFAULT_PRIME, check_prime, is_prime, min_syzygy_degree, syzygy_degrees
from test_splitting import _coprime, _evaluate, _form_comb, _form_mul


def test_prime_field_validates():
    check_prime(31991)
    check_prime(7)
    with pytest.raises(InputError, match="^10 is not prime$"):
        check_prime(10)
    with pytest.raises(InputError, match=r"^prime must satisfy 2 < p < 2\*\*31, got 2$"):
        check_prime(2)
    with pytest.raises(InputError, match=r"^prime must satisfy 2 < p < 2\*\*31, got 2147483659$"):
        check_prime(2**31 + 11)


def test_is_prime_small():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_reduction_cap():
    # The largest k with k*(p-1)**2 < 2**63 - p: how many unreduced updates
    # int64 absorbs between full reductions.
    for p in (3, 7, 31991, 2**31 - 1):
        k = _kernels._cap(p)
        assert k * (p - 1) ** 2 < 2**63 - p <= (k + 1) * (p - 1) ** 2
    assert _kernels._cap(2**31 - 1) == 2
    assert _kernels._cap(31991) > 2**33


def test_rank_and_nullspace_identity():
    p = 101
    a = np.eye(4, dtype=np.int64)
    assert _kernels.rank(a, p) == 4
    assert _kernels.nullspace(a, p).shape == (0, 4)


def test_nullspace_of_zero_rows():
    ns = _kernels.nullspace(np.zeros((0, 5), dtype=np.int64), 7)
    assert ns.shape == (5, 5)
    assert _kernels.rank(ns, 7) == 5


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(5)
    p = 113
    a = rng.integers(0, p, size=(7, 12))
    ns = _kernels.nullspace(a, p)
    assert ns.shape[0] == 12 - _kernels.rank(a, p)
    prod = (a % p @ ns.T) % p
    assert not prod.any()


def _reference_rref(rows, ncols, p):
    """Plain-Python Gauss-Jordan with the kernel's pivot rule: the first
    nonzero entry in column order, scanning rows top-down. Returns (rank,
    pivot columns, reduced matrix)."""
    a = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return len(pivots), pivots, a


def _reference_nullspace(reduced, pivots, ncols, p):
    """The canonical basis read off a reduced matrix: one vector per free
    column, ascending, with a 1 there and minus that column's entries at the
    pivot columns."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for row, pc in enumerate(pivots):
            v[pc] = -reduced[row][fc] % p
        basis.append(v)
    return basis


@st.composite
def _rank_deficient_matrices(draw):
    """(p, rows, ncols): rows and columns are scaled repeats of those of a
    small base matrix with many zeros, so most draws are rank-deficient;
    empty picks give 0-row and 0-column matrices."""
    p = draw(st.sampled_from([7, 101, 31991, 2**31 - 1]))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    r0, c0 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(entry, min_size=c0, max_size=c0), min_size=r0, max_size=r0))
    scale = st.integers(1, p - 1)
    row_pick = draw(st.lists(st.tuples(st.integers(0, r0 - 1), scale), max_size=8))
    col_pick = draw(st.lists(st.tuples(st.integers(0, c0 - 1), scale), max_size=8))
    rows = [[base[i][j] * s * t % p for j, t in col_pick] for i, s in row_pick]
    return p, rows, len(col_pick)


def _low_rank(p, nrows, ncols, inner, seed):
    """(p, rows, ncols) for a product of random nrows x inner and inner x
    ncols matrices mod p, computed in Python integers: rank at most inner,
    with entries spread over the whole of [0, p)."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, size=(nrows, inner)).tolist()
    right = rng.integers(0, p, size=(inner, ncols)).tolist()
    rows = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]
    return p, rows, ncols


def _banded(p, nforms, width, shifts, seed):
    """(p, rows, ncols) shaped like a product matrix: ``nforms`` random rows
    of ``width`` entries, each placed at every shift 0..shifts-1. Below most
    pivots fewer than half of the rows are nonzero."""
    rng = np.random.default_rng(seed)
    forms = rng.integers(0, p, size=(nforms, width)).tolist()
    ncols = width + shifts - 1
    rows = [[0] * s + f + [0] * (ncols - width - s) for s in range(shifts) for f in forms]
    return p, rows, ncols


def _solve_worst_case(p, ncols):
    """(p, rows, ncols): an echelon matrix of rank ncols - 1 whose rows hold
    p - 1 past the diagonal and whose kernel vector is p - 1 at every pivot
    column. Back-substituting the first pivot sums ncols - 2 products of
    (p - 1)**2, which leaves int64 unless each is reduced first when
    ``_cap(p)`` is below ncols - 2."""
    last = ncols - 2
    rows = [[0] * j + [1] + [p - 1] * (last - j) + [(j - last + 1) % p] for j in range(last + 1)]
    return p, rows, ncols


# Primes whose _cap is 36, 39, 40 and 41, around the 40 columns of the
# boundary examples: back-substitution sums unreduced products only at 40
# and 41.
CAP_PRIMES = {36: 506166719, 39: 486309269, 40: 480191923, 41: 474299773}


def test_cap_primes():
    assert all(is_prime(p) and _kernels._cap(p) == cap for cap, p in CAP_PRIMES.items())


@given(_rank_deficient_matrices())
@example((7, [], 4))
@example((101, [[], [], []], 0))
@example((31991, [], 0))
@example((2**31 - 1, [], 6))
@example(_low_rank(2**31 - 1, 4, 17, 3, 1))  # wide
@example(_low_rank(2**31 - 1, 17, 4, 3, 2))  # tall
@example(_low_rank(2**31 - 1, 9, 9, 9, 3))  # square, almost surely full rank
@example(_low_rank(31991, 12, 30, 5, 4))
# Many pivots: at 2**31 - 1 the trailing block is reduced after every second
# update; at 31991 only once, at the end of each phase.
@example(_low_rank(2**31 - 1, 40, 40, 40, 5))  # dense
@example(_low_rank(2**31 - 1, 60, 50, 7, 6))
@example(_low_rank(31991, 40, 40, 40, 7))
@example(_low_rank(31991, 60, 50, 7, 8))
@example(_banded(31991, 3, 12, 30, 9))  # sparse: the gathered-rows update
@example(_banded(2**31 - 1, 3, 12, 30, 10))
@example(_solve_worst_case(CAP_PRIMES[36], 40))
@example(_solve_worst_case(CAP_PRIMES[39], 40))
@example(_solve_worst_case(CAP_PRIMES[40], 40))
@example(_solve_worst_case(CAP_PRIMES[41], 40))
@example(_low_rank(CAP_PRIMES[39], 30, 40, 6, 11))
@example(_low_rank(CAP_PRIMES[40], 30, 40, 6, 12))
@example(_low_rank(CAP_PRIMES[41], 30, 40, 6, 13))
@settings(max_examples=200)
def test_rref_and_nullspace_match_reference(case):
    p, rows, ncols = case
    a = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    ref_rank, ref_pivots, ref_reduced = _reference_rref(rows, ncols, p)

    # The forward phase alone: same pivots, each pivot 1 with zeros below,
    # and the rows past the rank all zero.
    work = a.copy()
    rank, pivots = _kernels._forward(work, p)
    assert rank == ref_rank == _kernels.rank(a, p)
    assert a.tolist() == rows
    assert pivots.tolist() == ref_pivots
    for r, c in enumerate(ref_pivots):
        assert work[r, c] == 1 and not work[r + 1 :, c].any() and not work[r, :c].any()
    assert not work[rank:].any()
    assert ((0 <= work) & (work < p)).all()

    # The benchmark's entry point: the forward phase under its one backend.
    rank, pivots = _kernels.rref_using(a.copy(), p, "numpy")
    assert rank == ref_rank
    assert pivots.tolist() == ref_pivots
    with pytest.raises(ValueError, match="unknown backend 'numba'"):
        _kernels.rref_using(a.copy(), p, "numba")

    # The reduced form is pinned here: the reference basis reads every free
    # column of the reference's reduced matrix.
    basis = _kernels.nullspace(a, p)
    assert basis.shape == (ncols - rank, ncols)
    assert basis.tolist() == _reference_nullspace(ref_reduced, ref_pivots, ncols, p)
    assert a.tolist() == rows


# Forms are plain coefficient lists, as in test_splitting's form route: the
# list [c_0, ..., c_d] is sum_i c_i u^i v^(d-i).


def _points(forms, p):
    """min_syzygy_degree's input for the forms: their values at the 2d+1
    parameters t = 0, 1, ..., 2d."""
    d = len(forms[0]) - 1
    t = list(range(2 * d + 1))
    return t, [_evaluate(forms, tj, p) for tj in t], d, p


def test_min_syzygy_degree_examples():
    p = 31991
    # (u, v, u + v) has a linear syzygy in degree 0: 1*u + 1*v - 1*(u+v).
    assert min_syzygy_degree(*_points([[0, 1], [1, 0], [1, 1]], p)) == 0
    # (u^2, v^2, uv): no degree-0 relation, degree 1 works.
    assert min_syzygy_degree(*_points([[0, 0, 1], [1, 0, 0], [0, 1, 0]], p)) == 1


def _syzygy_degree_scan(forms, p):
    """Reference: the least e whose (d+e+1) x 3(e+1) coefficient matrix has a
    nonzero kernel, found by trying e = 0, 1, ... in turn."""
    d = len(forms[0]) - 1
    for e in range(d // 2 + 1):
        m = np.zeros((d + e + 1, 3 * (e + 1)), dtype=np.int64)
        for idx, f in enumerate(forms):
            for k in range(e + 1):
                for j, c in enumerate(f):
                    m[j + k, idx * (e + 1) + k] = c
        if _kernels.rank(m, p) < 3 * (e + 1):
            return e
    raise AssertionError("no syzygy up to floor(d/2)")


def _minors(pv, qv, p):
    """The 2x2 minors of the 3x2 matrix with columns pv, qv: three forms
    whose syzygy module is generated by pv and qv when they are coprime."""
    return [
        _form_comb(
            (1, -1),
            [_form_mul(pv[(i + 1) % 3], qv[(i + 2) % 3], p), _form_mul(pv[(i + 2) % 3], qv[(i + 1) % 3], p)],
            p,
        )
        for i in range(3)
    ]


@st.composite
def _rank_stacks(draw):
    """(p, t, pts): a stack of k configurations of m points of P^2, each
    point at its own parameter (distinct residues per row of ``t``). The
    members mix zero points, random points, points of rank 1 or 2 (one
    point up to scale, or points on one line: products of random m x r and
    r x 3 factors, computed in Python integers) and repeated points. So the
    evaluation matrices of most members are rank-deficient."""
    p = draw(st.sampled_from([3, 7, 101, 31991, 2**31 - 1]))
    k, m = draw(st.integers(1, 6)), draw(st.integers(0, min(p, 13)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for kind in draw(st.lists(st.sampled_from(["zero", "full", "low", "repeat"]), min_size=k, max_size=k)):
        if kind == "zero":
            x = np.zeros((m, 3), dtype=object)
        elif kind == "full":
            x = rng.integers(0, p, size=(m, 3)).astype(object)
        else:
            inner = int(rng.integers(0, 3))
            x = rng.integers(0, p, size=(m, inner)).astype(object) @ rng.integers(0, p, size=(inner, 3)).astype(object)
            if kind == "repeat" and m:
                x[rng.integers(0, m, size=m)] = x[:1] * int(rng.integers(1, p))
        members.append(x % p)
    distinct = st.lists(st.integers(0, p - 1), min_size=m, max_size=m, unique=True)
    t = np.array([draw(distinct) for _ in range(k)], dtype=np.int64).reshape(k, m)
    return p, t, np.array(members, dtype=object).astype(np.int64).reshape(k, m, 3)


def _evaluation_nullity(t, pts, e, p):
    """Reference: the syzygies of degree at most e of the points, counted as
    3(e+1) minus the rank of their evaluation matrix, whose row j is
    pts[j][i] * t_j**k for i = 0, 1, 2 and k = 0..e."""
    rows = [[pts[j][i] * pow(int(t[j]), k, p) % p for i in range(3) for k in range(e + 1)] for j in range(len(t))]
    return 3 * (e + 1) - _kernels.rank(np.array(rows, dtype=np.int64).reshape(len(t), 3 * (e + 1)), p)


def _curve_stack(p, forms_list):
    """(p, t, pts) for curves given by forms: their values at the 2d+1
    parameters t = 0, ..., 2d."""
    pts = [_points(forms, p)[1] for forms in forms_list]
    return p, np.array([_points(forms_list[0], p)[0]] * len(pts)), np.array(pts)


@given(_rank_stacks())
# Zero points; (u, u, u), a curve of degree 0 read as a line; u * (u^2, v^2,
# uv), a common factor; the cubic (v^3, u^3, u v^2), and a quintic that is
# u^2 times a cubic, a curve of lower degree.
@example((7, np.zeros((2, 3), dtype=np.int64), np.zeros((2, 3, 3), dtype=np.int64)))
@example(_curve_stack(3, [([0, 1], [0, 1], [0, 1]), ([0, 1], [1, 0], [1, 1])]))
@example(_curve_stack(101, [([0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]), ([0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0])]))
@example(_curve_stack(31991, [[[0, 0] + f for f in ([0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0])]]))
@example(_curve_stack(2**31 - 1, [_minors([[1, 2, 3], [4, 0, 6], [7, 8, 1]], [[1, 0, 5, 2], [0, 3, 1, 1], [2, 2, 0, 7]], 2**31 - 1)]))
@example((2**31 - 1, np.array([[3, 1, 4, 1 << 30, 2**31 - 2, 5, 9]]), np.full((1, 7, 3), 2**31 - 2)))
@settings(max_examples=200)
def test_interpolation_nullities_match_rank(case):
    # The recursion's count of syzygies of degree at most e, after the first
    # n points, equals the nullity of their evaluation matrix: at every n
    # up to m = 2d+1 and every e with d+e+1 <= n, the pairs the syzygy
    # degree reads. The input is left as it was.
    p, t, pts = case
    before = pts.copy()
    degs = exactla._basis_degrees(t, pts, p)
    assert degs.shape == (len(t), t.shape[1] + 1, 3)
    assert (pts == before).all()
    d = (t.shape[1] - 1) // 2
    for c in range(len(t)):
        for n in range(d + 1, t.shape[1] + 1):
            for e in range(n - d):
                got = int(np.maximum(0, e - degs[c, n] + 1).sum())
                assert got == _evaluation_nullity(t[c, :n], pts[c, :n].tolist(), e, p), (c, n, e)


@pytest.mark.parametrize(
    "forms, a",
    [
        (([1], [2], [3]), 0),  # d = 0
        (([0, 1], [1, 0], [1, 1]), 0),  # d = 1
        (([0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [1, 0, 0, 0, 1]), 0),  # f2 = f0 + f1
        (([0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]), 1),  # odd d, v*f0 = u*f2
        (([0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0]), 2),  # even d, a = d/2
        (([0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]), 1),  # odd d
    ],
)
def test_min_syzygy_degree_frozen_cases(forms, a):
    assert min_syzygy_degree(*_points(forms, 31991)) == a
    assert _syzygy_degree_scan(forms, 31991) == a


@given(
    st.sampled_from([7, 101, 31991]),
    st.integers(0, 12),
    st.data(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150)
def test_min_syzygy_degree_matches_scan(p, d, data, seed):
    # Build the triple as the minors of two random columns of degrees a and
    # d - a, so that every a in 0..d/2 is exercised, not only the balanced
    # type of a generic triple. At p = 7 the 2d+1 parameters need d <= 3.
    a = data.draw(st.integers(0, d // 2))
    assume(2 * d + 1 <= p)
    rng = np.random.default_rng(seed)

    def column(deg):
        return [rng.integers(0, p, size=deg + 1).tolist() for _ in range(3)]

    forms = _minors(column(a), column(d - a), p)
    assume(all(forms))
    if _coprime(forms, p):
        assert min_syzygy_degree(*_points(forms, p)) == _syzygy_degree_scan(forms, p)
    else:
        with pytest.raises(DegenerateConfiguration):
            min_syzygy_degree(*_points(forms, p))


def test_min_syzygy_degree_reads_two_nullities():
    rng = np.random.default_rng(17)
    p = 31991
    forms = [[int(v) for v in rng.integers(1, p, size=10)] for _ in range(3)]
    t, pts, d, _ = _points(forms, p)
    assert min_syzygy_degree(t, pts, d, p) == 4
    # e = 4 on 9 + 4 + 1 points, then e = b = 5 on 9 + 5 + 1 points: the
    # recursion's counts are the nullities of those evaluation matrices.
    degs = exactla._basis_degrees(np.array([t]), np.array([pts]), p)[0]
    for n, e, nullity in ((14, 4, 1), (15, 5, 3)):
        assert np.maximum(0, e - degs[n] + 1).sum() == nullity == _evaluation_nullity(t[:n], pts[:n], e, p)
    stack = np.array([pts, np.roll(pts, 1, axis=1), pts]) % p
    assert syzygy_degrees(np.array([t] * 3), stack, d, p) == [4, 4, 4]


def test_syzygy_degrees_of_a_mixed_stack():
    # Curves of types (1, 4), (2, 3) and (1, 4), with one rejected: each
    # gets what min_syzygy_degree gives it alone, and the rejected curve the
    # message it raises.
    p = 31991
    quintics = [
        ([0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]),  # (1, 4)
        _minors([[1, 2, 3], [4, 0, 6], [7, 8, 1]], [[1, 0, 5, 2], [0, 3, 1, 1], [2, 2, 0, 7]], p),
        ([0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]),
        [[0, 0] + f for f in ([0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0])],  # u^2 * a cubic
    ]
    t = np.array([_points(forms, p)[0] for forms in quintics])
    pts = np.array([_points(forms, p)[1] for forms in quintics])
    got = syzygy_degrees(t, pts, 5, p)
    expected = []
    for forms in quintics:
        try:
            expected.append(min_syzygy_degree(*_points(forms, p)))
        except DegenerateConfiguration as exc:
            expected.append(str(exc))
    assert got[:3] == [1, 2, 1] and "expected 7 for type (0,5)" in got[3]
    assert got == expected


@pytest.mark.parametrize(
    "fake_degrees",
    [
        lambda t, pts, p: np.full((len(t), t.shape[1] + 1, 3), t.shape[1] + 1),
        lambda t, pts, p: np.zeros((len(t), t.shape[1] + 1, 3), dtype=np.int64),
    ],
)
def test_min_syzygy_degree_rejects_impossible_nullity(monkeypatch, fake_degrees):
    # No syzygy at all at odd d (degrees past every e), or a nullity above
    # e + 1 (all degrees 0), cannot come from a curve of degree d.
    monkeypatch.setattr(exactla, "_basis_degrees", fake_degrees)
    forms = ([0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0])
    with pytest.raises(DegenerateConfiguration):
        min_syzygy_degree(*_points(forms, 31991))


def test_min_syzygy_rejects_common_factor():
    p = 31991
    # (u, u, u): the points all lie at (1, 1, 1), a curve of degree 0; the
    # first rank shows an impossible nullity.
    with pytest.raises(DegenerateConfiguration, match="impossible"):
        min_syzygy_degree(*_points([[0, 1]] * 3, p))
    # u * (u^2, v^2, uv): a conic of type (1, 1) read as a cubic. The first
    # rank reads a = 0, and the second, at e = 3, finds 6 syzygies, not 5.
    with pytest.raises(DegenerateConfiguration, match="expected 5"):
        min_syzygy_degree(*_points([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], p))


def test_min_syzygy_degree_rejects_bad_input():
    p = 31991
    t, pts, d, _ = _points([[0, 0, 1], [1, 0, 0], [0, 1, 0]], p)
    with pytest.raises(InputError, match="distinct"):
        min_syzygy_degree(t[:4], pts[:4], d, p)
    with pytest.raises(InputError, match="distinct"):
        min_syzygy_degree([0, 1, 2, 3, p], pts, d, p)
    with pytest.raises(InputError, match="one point"):
        min_syzygy_degree(t, [row[:2] for row in pts], d, p)


def test_default_prime_value():
    assert DEFAULT_PRIME == 31991
    assert is_prime(DEFAULT_PRIME)
