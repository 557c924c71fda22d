import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpt.errors import InfeasibleError, InputError
from fatpt.lattice import DivisorClass, FatPointScheme, intersect, line_class, parse_class, point_class
from fatpt import cokernel, splitting
from fatpt._kernels import _forward, nullspace, rank
from fatpt.cokernel import (
    DEFAULT_COLUMN_CEILING,
    cok_dimension,
    fat_point_matrix,
    h0_basis,
    monomial_exponents,
    monomial_index,
    mu_rank_oracle,
    predicted_cokernel,
    proven_case,
)
from fatpt.linsys import expected_h0
from fatpt.splitting import SplittingType, forced_type, is_provisional, splittings_of
from fatpt.weyl import apply_word, enumerate_exceptional, reduction_to_point

CUBIC = parse_class("3;2,1,1,1,1,1,1")


def test_monomial_index_roundtrip():
    for d in (0, 1, 2, 5, 9):
        exps = monomial_exponents(d)
        assert exps.shape == ((d + 1) * (d + 2) // 2, 3)
        assert exps.dtype == np.int64
        assert exps.tolist() == [[i, j, d - i - j] for i in range(d + 1) for j in range(d - i + 1)]
        assert (exps.sum(axis=1) == d).all()
        idx = monomial_index(d, exps[:, 0], exps[:, 1])
        assert (idx == np.arange(exps.shape[0])).all()


@pytest.mark.parametrize("p", [5, 7, 31991])
def test_falling_table_matches_perm(p):
    for max_e, max_o in ((0, 0), (7, 3), (9, 12), (20, 20)):
        ff = cokernel._falling_table(max_e, max_o, p)
        assert ff.dtype == np.int64
        assert ff.tolist() == [[math.perm(e, o) % p for o in range(max_o + 1)] for e in range(max_e + 1)]


def test_fat_point_matrix_shapes_and_vanishing():
    p = 31991
    rng = np.random.default_rng(4)
    pts = rng.integers(1, p, size=(3, 3), dtype=np.int64)
    mat = fat_point_matrix(pts, 4, (2, 2, 1), p)
    assert mat.shape == (3 + 3 + 1, 15)
    ns = nullspace(mat, p)
    assert ns.shape[0] == 15 - (3 + 3 + 1)
    # every section really vanishes doubly at the first point: value and all
    # first partials are zero there
    exps = monomial_exponents(4)
    x, y, z = (int(v) for v in pts[0])
    for row in ns:
        val = 0
        dx = dy = dz = 0
        for c, (i, j, k) in zip(row, exps):
            c = int(c)
            val += c * pow(x, int(i), p) * pow(y, int(j), p) * pow(z, int(k), p)
            if i:
                dx += c * i * pow(x, int(i) - 1, p) * pow(y, int(j), p) * pow(z, int(k), p)
            if j:
                dy += c * j * pow(x, int(i), p) * pow(y, int(j) - 1, p) * pow(z, int(k), p)
            if k:
                dz += c * k * pow(x, int(i), p) * pow(y, int(j), p) * pow(z, int(k) - 1, p)
        assert val % p == 0 and dx % p == 0 and dy % p == 0 and dz % p == 0


def test_fat_point_matrix_conic_through_five():
    p = 31991
    rng = np.random.default_rng(11)
    pts = rng.integers(1, p, size=(5, 3), dtype=np.int64)
    assert nullspace(fat_point_matrix(pts, 2, (1,) * 5, p), p).shape[0] == 1
    with pytest.raises(InputError):
        fat_point_matrix(pts, 2, (1,) * 4, p)


def _reference_fat_point_matrix(points, d, mults, p, columns=None):
    """Entry by entry from the definition: for each point, one row per order
    triple (alpha, beta, mu-1-alpha-beta), alpha ascending then beta, holding
    d^alpha/dx^alpha d^beta/dy^beta d^gamma/dz^gamma of each monomial
    x^i y^j z^k at the point, in Python integers (0**0 == 1)."""
    exps = [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
    if columns is not None:
        exps = [exps[c] for c in columns]
    rows = []
    for pt, mu in zip(points, mults):
        for alpha in range(mu):
            for beta in range(mu - alpha):
                orders = (alpha, beta, mu - 1 - alpha - beta)
                row = []
                for exp in exps:
                    v = 1
                    for coord, o, e in zip(pt, orders, exp):
                        v *= math.perm(e, o) * int(coord) ** (e - o) if e >= o else 0
                    row.append(v % p)
                rows.append(row)
    return rows


@pytest.mark.parametrize(
    "p, d, points, mults, columns",
    [
        # zero coordinates: 0**0 = 1 at the exponents equal to the order
        (31991, 6, [(0, 3, 5), (2, 0, 0), (0, 0, 7), (4, 5, 6)], (3, 2, 2, 1), None),
        (31991, 4, [(0, 0, 1), (1, 0, 0), (0, 1, 0)], (4, 5, 1), None),  # orders above d
        # p at or below d: some falling factorials are 0 mod p
        (5, 7, [(1, 2, 3), (0, 4, 1), (3, 0, 0), (2, 2, 2)], (4, 3, 3, 1), None),
        (101, 8, [(7, 0, 9), (13, 21, 1), (0, 0, 5)], (3, 4, 2), [0, 2, 3, 7, 11, 12, 20, 33, 40, 44]),
        (31991, 5, [(3, 1, 4), (1, 5, 9), (0, 2, 6)], (2, 0, 3), None),  # a multiplicity 0
        (31991, 3, [(2, 7, 1)], (0,), None),  # no rows at all
        (2**31 - 1, 9, [(2**31 - 2, 2**30, 12345), (0, 2**31 - 3, 1)], (5, 3), [1, 4, 9, 16, 25, 36, 49]),
    ],
)
def test_fat_point_matrix_matches_definition(p, d, points, mults, columns):
    mat = fat_point_matrix(np.array(points), d, mults, p, None if columns is None else np.array(columns))
    ncols = (d + 1) * (d + 2) // 2 if columns is None else len(columns)
    assert mat.dtype == np.int64
    assert mat.shape == (sum(mu * (mu + 1) // 2 for mu in mults), ncols)
    assert mat.tolist() == _reference_fat_point_matrix(points, d, mults, p, columns)


def _reference_product_rows(basis, tp, d, m):
    """The product rows one multiplier at a time, multiplier-major (i
    ascending, then j), one row per basis form: the coefficients of
    f * a^i b^j c^(d-1-i-j) at the window monomials a^wa b^wb (a+b degree
    2d-m to 2d-1, a ascending within a degree)."""
    window = [(wa, s - wa) for s in range(2 * d - m, 2 * d) for wa in range(s + 1)]
    rows = []
    for i in range(d):
        for j in range(d - i):
            if i + j < d - m:
                continue
            for form in basis.tolist():
                row = []
                for wa, wb in window:
                    fa, fb = wa - i, wb - j
                    ok = fa >= 0 and fb >= 0 and fa + fb <= tp
                    row.append(form[int(monomial_index(tp, fa, fb))] if ok else 0)
                rows.append(row)
    return rows


def _full_product_matrix(basis, tp, d, m):
    """The whole product matrix from its levels: each level's rows padded
    with zeros on the window columns before its own."""
    window = 2 * d * m - m * (m - 1) // 2
    levels = [cokernel._product_matrix(basis, tp, d, k) for k in range(d - m, d)]
    return np.concatenate([np.pad(rows, ((0, 0), (window - rows.shape[1], 0))) for rows in levels])


def _forms(rng, p, tp, order, count=3, density=1.0):
    """``count`` random degree-tp forms vanishing to ``order`` at (0, 0, 1),
    with about ``density`` of their other coefficients nonzero."""
    i, j, _ = monomial_exponents(tp).T
    forms = rng.integers(0, p, size=(count, i.size), dtype=np.int64)
    forms[:, i + j < order] = 0
    forms[rng.random(forms.shape) >= density] = 0
    return forms


@pytest.mark.parametrize(
    "tp, d, m, staircase, seed",
    [
        (4, 3, 2, True, 1),
        (7, 5, 3, True, 2),
        (9, 6, 6, False, 3),
        (12, 8, 1, True, 4),
        (11, 9, 5, False, 5),
        (14, 10, 7, True, 6),
    ],
)
def test_product_matrix_rows_are_a_permutation(tp, d, m, staircase, seed):
    # Forms vanishing to order d at (0, 0, 1), as the H0(L') basis does, or
    # random forms. Each level's rows are the reference rows of its
    # multipliers on the window columns from its own level on; the columns
    # before are zero for forms in m^d, and are not built.
    p = 31991
    basis = _forms(np.random.default_rng(seed), p, tp, d if staircase else 0)
    ref = []
    for row, (i, j) in zip(
        _reference_product_rows(basis, tp, d, m),
        [(i, j) for i in range(d) for j in range(d - i) if i + j >= d - m for _ in range(3)],
    ):
        # Window columns of a+b degree below d+i+j: those of degrees 2d-m
        # to d+i+j-1.
        skip = sum(s + 1 for s in range(2 * d - m, d + i + j))
        assert not staircase or not any(row[:skip])
        ref.append([0] * skip + row[skip:])
    mat = _full_product_matrix(basis, tp, d, m)
    assert sorted(mat.tolist()) == sorted(ref)
    assert rank(mat, p) == rank(np.array(ref, dtype=np.int64), p)


@st.composite
def _product_cases(draw):
    """(basis, tp, d, m, p): forms in m^d, some zero, repeated, sparse or
    vanishing to a higher order."""
    p = draw(st.sampled_from([101, 31991, 2**31 - 1]))
    d = draw(st.integers(1, 9))
    m = draw(st.integers(1, d))
    tp = draw(st.integers(d, 2 * d + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "sparse", "zero", "repeat", "higher"]))
        if kind == "repeat" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))] * draw(st.integers(1, p - 1)) % p)
            continue
        order = d + draw(st.integers(1, d)) if kind == "higher" else d
        density = {"sparse": 0.1, "zero": 0.0}.get(kind, 1.0)
        rows.append(_forms(rng, p, tp, order, 1, density)[0])
    return np.array(rows), tp, d, m, p


def _full_level_walk(basis, tp, d, m, p):
    """(rank, levels, full): the rank of the whole product matrix, the
    number of levels up to and including the first whose window columns are
    all pivots (m if none is), and whether one is. The pivot columns of an
    echelon form depend only on the row space, so the whole matrix's are the
    walk's."""
    _, pivots = _forward(_full_product_matrix(basis, tp, d, m), p)
    starts = np.cumsum([0] + [s + 1 for s in range(2 * d - m, 2 * d)])
    counts = np.histogram(pivots, bins=starts)[0]
    full = np.flatnonzero(counts == np.diff(starts))
    return pivots.size, int(full[0]) + 1 if full.size else m, bool(full.size)


@given(_product_cases())
@settings(max_examples=200)
def test_level_walk_rank_matches_full_rank(case):
    basis, tp, d, m, p = case
    rank_, levels, _ = _full_level_walk(basis, tp, d, m, p)
    assert cokernel._product_rank(basis, tp, d, m, p) == (rank_, levels)


@pytest.mark.parametrize(
    "tp, d, m, p, order, edit, levels",
    [
        (14, 7, 7, 31991, 7, None, 4),  # m = d
        (14, 7, 1, 31991, 7, None, 1),  # m = 1: one level, full
        (14, 7, 5, 101, 7, "zero", 5),  # one zero form
        (14, 7, 5, 2**31 - 1, 7, "equal", 5),  # two equal forms
        (14, 7, 5, 31991, 8, None, 3),  # forms in m^(d+1): a later level is full
        (14, 7, 5, 31991, 10, None, None),  # forms in m^(d+3): no level is full
        (20, 10, 10, 31991, 14, None, None),
    ],
)
def test_level_walk_edge_cases(tp, d, m, p, order, edit, levels):
    basis = _forms(np.random.default_rng(tp + d + m), p, tp, order)
    if edit == "zero":
        basis[1] = 0
    elif edit == "equal":
        basis[2] = basis[0]
    rank_, levels_, full = _full_level_walk(basis, tp, d, m, p)
    assert rank_ > 0 and full == (levels is not None) and levels_ == (levels or m)
    assert cokernel._product_rank(basis, tp, d, m, p) == (rank_, levels_)


@pytest.mark.extended
def test_level_walk_on_every_degree_25_product_matrix(monkeypatch, capsys):
    # Every product matrix that sweep --max-degree 25 --verify ranks: the
    # walk's rank and stop level against the whole matrix's forward pass.
    from fatpt.cli import run

    seen = []
    walk = cokernel._product_rank

    def capture(basis, tp, d, m, p):
        seen.append(((basis, tp, d, m, p), walk(basis, tp, d, m, p)))
        return seen[-1][1]

    monkeypatch.setattr(cokernel, "_product_rank", capture)
    assert run(["sweep", "--max-degree", "25", "--verify"]) == 0
    capsys.readouterr()
    assert len(seen) >= 182
    for args, got in seen:
        assert got[0] == rank(_full_product_matrix(*args[:4]), args[4])
        assert got == _full_level_walk(*args)[:2]


VERTICES = ((0, 0, 1), (1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize(
    "p, d, mults, vertex_slots, seed",
    [
        (31991, 8, (4, 3, 3, 2, 1, 1), (0, 1, 2), 1),
        (31991, 9, (5, 0, 4, 2, 2, 1), (0, 1, 2), 2),  # a vertex of multiplicity 0
        (31991, 6, (0, 0, 0, 2, 2), (0, 1, 2), 3),  # three vertices of multiplicity 0
        (31991, 7, (3, 2, 2, 1), (3, 0, 2), 4),  # vertices in other slots
        (31991, 5, (2, 3, 1), (0, 1, 2), 5),  # only vertices: no rows remain
        (31991, 10, (6, 5, 1, 3, 2, 2, 2), (0, 1, 1), 6),  # one vertex twice
        (101, 12, (7, 6, 5, 2, 2), (0, 1, 2), 7),
        (5, 7, (4, 3, 3, 1), (0, 1, 2), 8),  # partials that are 0 mod p kill nothing
    ],
)
def test_h0_basis_matches_full_nullspace(p, d, mults, vertex_slots, seed):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, p, size=(len(mults), 3), dtype=np.int64)
    for slot, vertex in zip(vertex_slots, VERTICES):
        pts[slot] = np.array(vertex) * int(rng.integers(1, p))
    full = nullspace(fat_point_matrix(pts, d, mults, p), p)
    assert h0_basis(pts, d, mults, p).tolist() == full.tolist()


def test_h0_basis_kills_the_vertex_columns(monkeypatch):
    # Points of multiplicity 3, 2, 2 at (0, 0, 1), (1, 0, 0), (0, 1, 0) kill
    # the monomials with i+j < 3, j+k < 2 and i+k < 2; only the fourth
    # point's rows are built, on the other columns.
    d = 6
    built = []
    build = cokernel.fat_point_matrix
    monkeypatch.setattr(
        cokernel, "fat_point_matrix", lambda *args: built.append(args) or build(*args)
    )
    pts = np.array([(0, 0, 1), (1, 0, 0), (0, 1, 0), (3, 5, 7)])
    basis = h0_basis(pts, d, (3, 2, 2, 1), 31991)
    (sub_pts, _, sub_mults, _, columns), = built
    assert sub_pts.tolist() == [[3, 5, 7]] and sub_mults == [1]
    exps = monomial_exponents(d)
    i, j, k = exps.T
    killed = (i + j < 3) | (j + k < 2) | (i + k < 2)
    assert columns.tolist() == np.flatnonzero(~killed).tolist()
    assert not basis[:, killed].any()
    assert basis.shape == (28 - killed.sum() - 1, 28)


def test_frame_slots_take_the_two_largest_lower_index_first():
    assert cokernel._frame_slots((5, 2, 3, 3, 1)) == [0, 2, 3]
    assert cokernel._frame_slots((9, 0, 0, 0)) == [0, 1, 2]
    assert cokernel._frame_slots((4, 1, 7, 1)) == [0, 2, 1]


@pytest.mark.parametrize(
    "cls, p, seed",
    [("19;7,7,7,7,7,7,7,4,1,1,1", 31991, 1), ("3;2,1,1,1,1,1,1", 101, 11)],
)
def test_draw_with_cokernel_above_prediction_is_retried(cls, p, seed):
    # The first draw of these seeds is special: h0(L') is 3, but the product
    # matrix loses rank, so it reads more than the prediction. The next draw
    # is generic.
    e = parse_class(cls)
    (st,) = splittings_of([e], p, seed)
    v = cok_dimension(e, st.b, p, seed)
    word = reduction_to_point(e)
    first, info = cokernel._formula_cokernel(e, word, st.b, p, seed, DEFAULT_COLUMN_CEILING, 10**9)
    assert info["attempt"] == 0 and first > v.predicted
    computed, info = cokernel._formula_cokernel(e, word, st.b, p, seed, DEFAULT_COLUMN_CEILING, v.predicted)
    assert info["attempt"] == 1 and computed == v.predicted
    assert v.computed == v.predicted and v.match


def test_persistent_excess_reports_the_smallest_draw():
    # Against an impossible prediction every draw reads too much: all
    # RETRY_CAP draws are made and the least value comes back, so the excess
    # is reported instead of hidden.
    from fatpt.splitting import RETRY_CAP

    e = parse_class("3;2,1,1,1,1,1,1")
    word = reduction_to_point(e)
    computed, info = cokernel._formula_cokernel(e, word, 2, 101, 11, DEFAULT_COLUMN_CEILING, -1)
    assert info["attempt"] == RETRY_CAP - 1
    assert computed == 0


def test_basis_outside_m_d_is_refused(monkeypatch):
    # The level walk is exact only for forms in m^d at E's point; a basis
    # with a term of order d-1 there must stop the check, not be ranked.
    build = cokernel.h0_basis

    def spoil(pts, tp, mu, p):
        basis = build(pts, tp, mu, p)
        basis[0, monomial_index(tp, 0, mu[0] - 1)] = 1
        return basis

    monkeypatch.setattr(cokernel, "h0_basis", spoil)
    with pytest.raises(AssertionError, match="terms of order below 3 at E's point"):
        cokernel._formula_cokernel(CUBIC, reduction_to_point(CUBIC), 2, 31991, 11, DEFAULT_COLUMN_CEILING, 0)


def test_formula_info_counts_the_levels_eliminated(monkeypatch):
    # The escape 13;5^6,4,1^4 of type (5, 8) at m = 8: the first full level
    # is multiplier degree b - 1 = 7, so 3 of the 8 levels are eliminated.
    e = parse_class("13;5,5,5,5,5,5,4,1,1,1,1")
    bases = []
    build = cokernel.h0_basis
    monkeypatch.setattr(cokernel, "h0_basis", lambda *args: bases.append(build(*args)) or bases[-1])
    computed, info = cokernel._formula_cokernel(e, reduction_to_point(e), 8, 31991, 1, DEFAULT_COLUMN_CEILING, 3)
    assert computed == 3 and info["attempt"] == 0 and len(bases) == 1
    assert info["levels"] == 3
    assert _full_level_walk(bases[0], info["transported_degree"], 13, 8, 31991)[1:] == (3, True)


def test_reduction_to_point():
    word = reduction_to_point(CUBIC)
    assert apply_word(word, CUBIC) == point_class(1, 7)
    with pytest.raises(InputError):
        reduction_to_point(parse_class("2;1,1"))


def test_cok_dimension_reduces_twice(reduce_calls):
    # Once for the word to E_1, which is also the exceptional check, and
    # once for the expected h0 of the transported line system.
    cok_dimension(CUBIC, 2)
    assert len(reduce_calls) == 2


def test_predicted_cokernel_closed_form():
    st = SplittingType(1, 2)
    assert [predicted_cokernel(m, st) for m in range(4)] == [0, 0, 0, 1]
    assert predicted_cokernel(8, SplittingType(5, 8)) == 0 + 3


def test_proven_case_boundaries():
    e13 = parse_class("13;5,5,5,5,5,5,4,1,1,1,1")
    # m <= a+2: proven up to m = 7 for type (5, 8), not at m = 8.
    assert proven_case(e13, 7, SplittingType(5, 8))
    assert not proven_case(e13, 8, SplittingType(5, 8))
    # b - a <= 2: proven at every m for (6, 7), and for (5, 7) of degree 12.
    assert proven_case(e13, 13, SplittingType(6, 7))
    assert proven_case(DivisorClass(12, (5,)), 12, SplittingType(5, 7))
    assert not proven_case(DivisorClass(12, (4,)), 12, SplittingType(4, 8))
    # a = d - max mult: 5;4,1^10 has forced type (1, 4), proven at m = 4 by
    # that case alone.
    e5 = parse_class("5;4,1,1,1,1,1,1,1,1,1,1")
    assert forced_type(5, 4) == SplittingType(1, 4)
    assert proven_case(e5, 4, SplittingType(1, 4))
    assert not proven_case(DivisorClass(5, (3,)), 4, SplittingType(1, 4))


def test_every_forced_type_is_proven():
    # A forced type has a = d - max mult or b - a <= 1, so every m is proven;
    # is_provisional is exactly the classes without one, a class with no
    # points included (its max mult is 0). No point class E_i is drawn, on
    # one slot (max mult -1) or more.
    for n in range(1, 4):
        assert not any(is_provisional(point_class(i, n)) for i in range(1, n + 1)), n
    for d in range(1, 81):
        assert is_provisional(DivisorClass(d, ())) == (forced_type(d, 0) is None), d
        for mm in range(d + 1):
            st = forced_type(d, mm)
            assert is_provisional(DivisorClass(d, (mm,))) == (st is None), (d, mm)
            if st is not None:
                e = DivisorClass(d, (mm,))
                assert all(proven_case(e, m, st) for m in range(d + 1)), (d, mm)


def test_proven_case_escapes_match_the_unforced_unbalanced_rule():
    # At m = b an escape is exactly a randomized type with b - a > 2: a type
    # that is not forced has a <= d/2 < d - max mult.
    classes = enumerate_exceptional(20)
    typed = splittings_of(classes)
    escapes = [e for e, st in zip(classes, typed) if not proven_case(e, st.b, st)]
    assert escapes == [e for e, st in zip(classes, typed) if is_provisional(e) and st.b - st.a > 2]
    assert len(escapes) == 25


def test_all_special_draws_name_the_last_h0(monkeypatch):
    # Every draw with h0(L') != 3 is drawn again; after RETRY_CAP of them
    # the error gives the last one's h0.
    build = cokernel.h0_basis
    monkeypatch.setattr(cokernel, "h0_basis", lambda *args: np.concatenate([build(*args)] * 2))
    with pytest.raises(InfeasibleError) as exc:
        cokernel._formula_cokernel(CUBIC, reduction_to_point(CUBIC), 2, 31991, 11, DEFAULT_COLUMN_CEILING, 0)
    assert str(exc.value) == "no generic configuration in 10 draws: special configuration: h0 = 6 != 3"


def test_splitting_of_forced_vs_pipeline():
    classes = [CUBIC, parse_class("13;5,5,5,5,5,5,4,1,1,1,1")]
    assert splittings_of(classes) == [SplittingType(1, 2), SplittingType(5, 8)]
    assert [is_provisional(e) for e in classes] == [False, True]


def test_cubic_dual_route_two_seeds():
    # formula and oracle agree with the closed-form bound for every m
    for seed in (20260814, 12345):
        for m in range(4):
            for method in ("formula", "oracle"):
                v = cok_dimension(CUBIC, m, seed=seed, method=method)
                assert v.splitting == SplittingType(1, 2)
                assert v.predicted == [0, 0, 0, 1][m]
                assert v.computed == v.predicted, (seed, m, method, v)
                assert v.match


def test_both_routes_agree_on_all_small_classes():
    for e in enumerate_exceptional(3):
        d = intersect(e, line_class(e.n))
        if d < 1:
            continue
        for m in range(d + 1):
            for seed in (20260814, 99):
                vf = cok_dimension(e, m, seed=seed, method="formula")
                vo = cok_dimension(e, m, seed=seed, method="oracle")
                assert vf.computed == vo.computed, (e, m, seed)
                assert vf.computed == vf.predicted, (e, m, seed)


def test_medium_class_dual_route():
    e = parse_class("5;2,2,2,2,2,2,1,1")
    (st,) = splittings_of([e])
    assert st == SplittingType(2, 3) and not is_provisional(e)
    for m in (2, 4):
        vf = cok_dimension(e, m, method="formula")
        vo = cok_dimension(e, m, method="oracle")
        assert vf.computed == vf.predicted == vo.computed


def test_m_zero_is_trivially_zero():
    v = cok_dimension(CUBIC, 0, method="formula")
    assert v.computed == 0 and v.predicted == 0


def test_cok_dimension_input_validation():
    with pytest.raises(InputError):
        cok_dimension(parse_class("2;1,1"), 1)
    with pytest.raises(InputError):
        cok_dimension(CUBIC, 4)
    with pytest.raises(InputError):
        cok_dimension(CUBIC, -1)
    with pytest.raises(InputError):
        cok_dimension(CUBIC, 1, method="magic")
    with pytest.raises(InputError):
        cok_dimension(DivisorClass(0, (-1, 0, 0)), 0)


def test_cok_dimension_rejects_a_type_outside_the_allowed_range():
    e = parse_class("8;3,3,3,3,3,3,3,1,1")  # allowed: (3,5) and (4,4)
    with pytest.raises(InputError, match="allowed"):
        cok_dimension(e, 1, splitting=SplittingType(4, 5))  # degree 9, not 8
    with pytest.raises(InputError, match="allowed"):
        cok_dimension(e, 1, splitting=SplittingType(2, 6))  # a below the range
    with pytest.raises(InputError, match="allowed"):
        cok_dimension(CUBIC, 1, splitting=SplittingType(0, 3))  # forced (1,2)


@pytest.mark.parametrize("cls", ["3;2,1,1,1,1,1,1", "8;3,3,3,3,3,3,3,1,1"])
def test_cok_dimension_predicts_with_the_type_it_is_handed(cls, monkeypatch):
    # A caller that holds the type makes no draw, and gets the verdict of
    # the one-class request.
    e = parse_class(cls)
    (st,) = splittings_of([e])
    default = cok_dimension(e, 1)
    assert default.splitting == st

    def no_draw(*args, **kwargs):
        raise AssertionError("a held type needs no draw")

    monkeypatch.setattr(splitting, "compute_splittings", no_draw)
    assert cok_dimension(e, 1, splitting=st) == default


def test_column_ceiling_refuses_large_instances():
    e19 = parse_class("19;7,7,7,7,7,7,7,4,1,1,1")
    with pytest.raises(InfeasibleError) as exc:
        cok_dimension(e19, 1, ceiling=10)
    assert "ceiling" in str(exc.value)
    assert DEFAULT_COLUMN_CEILING == 16000


def test_oracle_cap_refuses_large_instances():
    from fatpt.lattice import FatPointScheme

    rng = np.random.default_rng(0)
    pts = rng.integers(1, 101, size=(2, 3), dtype=np.int64)
    with pytest.raises(InfeasibleError):
        mu_rank_oracle(pts, FatPointScheme((1, 1)), 70, 101, max_dim=100)


def test_oracle_without_sections_in_degree_t():
    # (2; 3, 3) has no curve, so the cokernel is all of degree 3: the
    # triple line through the two points, expected_h0 of (3; 3, 3).
    pts = np.random.default_rng(5).integers(0, 31991, size=(2, 3), dtype=np.int64)
    assert mu_rank_oracle(pts, FatPointScheme((3, 3)), 2) == 1 == expected_h0(DivisorClass(3, (3, 3)))


def test_oracle_route_refuses_oversized_interpolation():
    # Sections stay tiny here but the interpolation matrix would be about
    # 22000 x 22000; the guard must fire before anything is allocated.
    e = parse_class("19;7,7,7,7,7,7,7,4,1,1,1")
    with pytest.raises(InfeasibleError, match="per dimension"):
        cok_dimension(e, 11, 31991, 20260814, method="oracle")


def test_oracle_route_capped_below_the_formula_ceiling(monkeypatch):
    # At m = 9 the sections number only 3 + md - C(m, 2) = 138, but the
    # interpolation matrix would be 14913 x 15400, under the formula route's
    # 16000-column ceiling. The oracle's own 2000 cap must refuse it before
    # any matrix is built.
    def refuse(*args, **kwargs):
        raise AssertionError("oracle built an interpolation matrix")

    monkeypatch.setattr(cokernel, "fat_point_matrix", refuse)
    e = parse_class("19;7,7,7,7,7,7,7,4,1,1,1")
    with pytest.raises(InfeasibleError, match="the cap is 2000 per dimension"):
        cok_dimension(e, 9, 31991, 20260814, method="oracle")
