"""Acceptance suite: one test per published acceptance criterion, each
emitting a single pass/fail line on the diagnostic stream.

Frozen inputs are the worked examples used across the test suite; tolerances
(timing, seed counts, sample sizes) are stated inline next to each check.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fatpt.betti import (
    assemble_resolution,
    betti_alpha_plus_one,
    bettibound_data,
    check_hilbert_consistency,
    expected_betti,
)
from fatpt.cokernel import cok_dimension, fat_point_matrix, predicted_cokernel
from fatpt.lattice import (
    DivisorClass,
    FatPointScheme,
    class_of,
    intersect,
    parse_class,
)
from fatpt.linsys import (
    alpha_degree,
    decompose,
    expected_h0,
    hilbert,
    sanity_check_decomposition,
)
from fatpt.splitting import (
    SplittingType,
    defect_sum,
    derive_seed,
    is_provisional,
    predict_report,
    splittings_of,
)
from fatpt.weyl import (
    CREMONA,
    NEG_L,
    apply_word,
    enumerate_exceptional,
    orbit_of_line,
    reduce,
)
from fatpt import _kernels

PRIME = 31991
Z616 = FatPointScheme((77,) * 7 + (44, 11, 11, 11))
Z102 = FatPointScheme((50, 50, 38, 38, 26, 26, 22, 18, 14, 14))
Z9 = FatPointScheme((48, 33, 33, 33, 32, 32, 32, 24, 16))

ESCAPE_TABLE = {
    (5, 8, 13, (5, 5, 5, 5, 5, 5, 4, 1, 1, 1, 1)),
    (6, 9, 15, (6, 6, 6, 6, 5, 5, 5, 2, 1, 1, 1)),
    (6, 9, 15, (6, 6, 6, 6, 6, 5, 4, 1, 1, 1, 1, 1)),
    (6, 10, 16, (6, 6, 6, 6, 6, 6, 6, 1, 1, 1, 1, 1)),
    (7, 10, 17, (7, 7, 6, 6, 6, 6, 6, 2, 2, 2)),
    (7, 10, 17, (7, 7, 6, 6, 6, 6, 6, 3, 1, 1, 1)),
    (7, 10, 17, (7, 7, 7, 6, 6, 6, 5, 2, 2, 1, 1)),
    (7, 10, 17, (7, 7, 7, 7, 6, 5, 5, 2, 1, 1, 1, 1)),
    (7, 10, 17, (7, 7, 7, 7, 6, 6, 4, 1, 1, 1, 1, 1, 1)),
    (7, 11, 18, (7, 7, 7, 7, 7, 6, 6, 2, 1, 1, 1, 1)),
    (7, 11, 18, (7, 7, 7, 7, 7, 7, 5, 1, 1, 1, 1, 1, 1)),
    (8, 11, 19, (7, 7, 7, 7, 7, 7, 7, 4, 1, 1, 1)),
    (8, 11, 19, (8, 7, 7, 7, 7, 7, 6, 3, 2, 2)),
    (8, 11, 19, (8, 8, 7, 7, 7, 6, 6, 3, 2, 1, 1)),
    (8, 11, 19, (8, 8, 7, 7, 7, 7, 5, 2, 2, 2, 1)),
    (8, 11, 19, (8, 8, 8, 7, 6, 6, 6, 2, 2, 2, 1)),
    (8, 11, 19, (8, 8, 8, 7, 6, 6, 6, 3, 1, 1, 1, 1)),
    (8, 11, 19, (8, 8, 8, 7, 7, 6, 5, 2, 2, 1, 1, 1)),
    (8, 11, 19, (8, 8, 8, 7, 7, 7, 4, 1, 1, 1, 1, 1, 1, 1)),
    (8, 11, 19, (8, 8, 8, 8, 6, 6, 5, 2, 1, 1, 1, 1, 1)),
    (8, 12, 20, (8, 8, 8, 7, 7, 7, 7, 2, 2, 2, 1)),
    (8, 12, 20, (8, 8, 8, 7, 7, 7, 7, 3, 1, 1, 1, 1)),
    (8, 12, 20, (8, 8, 8, 8, 7, 7, 6, 2, 2, 1, 1, 1)),
    (8, 12, 20, (8, 8, 8, 8, 8, 6, 6, 2, 1, 1, 1, 1, 1)),
    (8, 12, 20, (8, 8, 8, 8, 8, 7, 5, 1, 1, 1, 1, 1, 1, 1)),
}


@pytest.fixture(name="criterion")
def criterion_fixture(capfd):
    """Context manager emitting one pass/fail line per criterion on the real
    diagnostic stream, outside pytest's capture."""

    @contextmanager
    def criterion(label: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"acceptance {label}: FAIL", file=sys.stderr)
            raise
        with capfd.disabled():
            print(f"acceptance {label}: PASS", file=sys.stderr)

    return criterion


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # compile the elimination kernels and touch the reduction path once so
    # timed criteria do not measure jit compilation
    _kernels.rank(np.eye(3, dtype=np.int64), PRIME)
    reduce(class_of(Z616, 209))


def _best_of(runs, fn):
    best = None
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def test_criterion_1_weyl_reduction(criterion):
    with criterion("1 (Weyl reduction, frozen triple, < 1 ms)"):
        f208, f209, f210 = (class_of(Z616, t) for t in (208, 209, 210))
        assert apply_word((CREMONA,), f208) == parse_class(
            "185;54,54,54,77,77,77,77,44,11,11,11"
        )
        r208 = reduce(f208)
        assert r208.status == NEG_L
        assert r208.reduced == parse_class("-23;8,-1,-5,-5,-5,-5,-8,-8,-14,-17,-17")
        r209 = reduce(f209)
        assert r209.status == "InChamber"
        assert r209.reduced == DivisorClass(0, (0,) * 10 + (-11,))
        r210 = reduce(f210)
        assert r210.status == "InChamber"
        assert r210.reduced == parse_class("27;8,8,8,8,5,5,5,5,5,5,5")
        for f in (f208, f209, f210):
            assert _best_of(5, lambda: reduce(f)) < 1e-3


def test_criterion_2_hilbert_values(criterion):
    with criterion("2 (Hilbert values, frozen, < 10 ms)"):
        assert expected_h0(class_of(Z616, 208)) == 0
        assert expected_h0(class_of(Z616, 209)) == 1
        rep = hilbert(Z102, degrees=range(99, 105))
        assert rep.alpha == 102
        assert {t: e.value for t, e in rep.entries.items()} == {
            99: 0, 100: 0, 101: 0, 102: 4, 103: 92, 104: 197,
        }
        assert rep.entries[102].fixed == (
            (parse_class("8;4,4,3,3,2,2,1,2,1,1"), 2),
            (parse_class("8;4,4,3,3,2,2,2,1,1,1"), 6),
        )
        assert _best_of(5, lambda: hilbert(Z102, degrees=range(99, 105))) < 1e-2


def test_criterion_3_resolution_ten_points(criterion):
    with criterion("3 (resolution of the ten-point scheme)"):
        table = assemble_resolution(Z102)
        gens = {ent.degree: ent.generators for ent in table.entries}
        syz = {ent.degree: ent.syzygies for ent in table.entries}
        for i, g in gens.items():
            assert g == {102: 4, 103: 80, 104: 2}.get(i, 0)
        for i, s in syz.items():
            assert s == {104: 69, 105: 16}.get(i, 0)
        assert table.entry(101).generators == 0
        assert table.alpha_plus_one_path == "injective"
        e102 = expected_h0(class_of(Z102, 102))
        e103 = expected_h0(class_of(Z102, 103))
        assert gens[103] == e103 - 3 * e102 == 92 - 3 * 4


def test_criterion_4_resolution_nine_points(criterion):
    with criterion("4 (resolution of the nine-point scheme)"):
        table = assemble_resolution(Z9)
        assert table.alpha == 98
        assert table.entry(98).generators == 71
        assert table.entry(99).generators == 2
        assert table.entry(99).syzygies == 44
        assert table.entry(100).syzygies == 28
        ap1 = betti_alpha_plus_one(Z9)
        assert ap1.path == "decomposition"
        assert [st for _, _, _, st in ap1.components] == [SplittingType(6, 6)]


def _classify_escapes(master: int):
    classes = enumerate_exceptional(20)
    typed = splittings_of(classes, PRIME, master, 3)
    escapes = {
        (st.a, st.b, e.t, e.m)
        for e, st in zip(classes, typed)
        if is_provisional(e) and st.b - st.a > 2
    }
    return classes, escapes


def test_criterion_5_enumeration_and_escapes(criterion):
    with criterion("5 (2051 classes, 25 escape rows, 3 seeds)"):
        rows_by_seed = []
        for master in (20260814, 31337, 271828):
            classes, escapes = _classify_escapes(master)
            assert len(classes) == 2051
            rows_by_seed.append(escapes)
        assert rows_by_seed[0] == rows_by_seed[1] == rows_by_seed[2]
        assert len(rows_by_seed[0]) == 25
        assert rows_by_seed[0] == ESCAPE_TABLE


def test_criterion_6_prediction_worked_example(criterion):
    with criterion("6 (splitting prediction worked example)"):
        c = parse_class("12;5,5,5,4,4,4,4,2")
        assert defect_sum(orbit_of_line(c), c.n) == 21
        rep = predict_report(c)
        assert rep.defect == 21
        assert rep.rejected == ((SplittingType(6, 6), 20),)
        assert rep.type == SplittingType(5, 7)


def test_criterion_7_cokernel_dual_route(criterion):
    with criterion("7 (cokernel dual route on the cubic, 2 seeds)"):
        e = parse_class("3;2,1,1,1,1,1,1")
        st = SplittingType(1, 2)
        for seed in (20260814, 424242):
            for m in range(4):
                bound = predicted_cokernel(m, st)
                assert bound == [0, 0, 0, 1][m]
                for method in ("formula", "oracle"):
                    v = cok_dimension(e, m, PRIME, seed, method)
                    assert v.splitting == st
                    assert v.computed == bound, (seed, m, method, v)


def test_criterion_8i_weyl_invariance(criterion):
    with criterion("8i (form and expected_h0 invariance, 1000 words)"):
        rng = np.random.default_rng(101)
        n = 8
        for _ in range(1000):
            ops = tuple(int(v) for v in rng.integers(0, n, size=rng.integers(1, 13)))
            w = ops
            f = DivisorClass(int(rng.integers(-2, 21)),
                             tuple(int(v) for v in rng.integers(-3, 7, n)))
            g = DivisorClass(int(rng.integers(-2, 21)),
                             tuple(int(v) for v in rng.integers(-3, 7, n)))
            wf, wg = apply_word(w, f), apply_word(w, g)
            assert intersect(wf, wg) == intersect(f, g)
            assert expected_h0(wf) == expected_h0(f)


def test_criterion_8ii_decomposition_properties(criterion):
    with criterion("8ii (decomposition sanity on 1000 monoid classes)"):
        gens = [e.pad_to(8) for e in enumerate_exceptional(6) if e.n <= 8]
        gens.append(DivisorClass(3, (1,) * 8))  # the anticanonical generator
        rng = np.random.default_rng(202)
        done = 0
        while done < 1000:
            f = DivisorClass(0, (0,) * 8)
            for idx in rng.integers(0, len(gens), size=4):
                f = f + int(rng.integers(0, 3)) * gens[int(idx)]
            if f.t == 0 or f.t > 30:
                continue
            d = decompose(f)
            assert d is not None, f
            sanity_check_decomposition(f, d)
            done += 1


def test_criterion_8iii_expected_dims_vs_oracle(criterion):
    with criterion("8iii (expected dims vs interpolation oracle, 1200 checks)"):
        rng = np.random.default_rng(20260814)
        mismatches = []
        for k in range(100):
            n = int(rng.integers(1, 9))
            mults = tuple(sorted((int(v) for v in rng.integers(1, 5, n)), reverse=True))
            z = FatPointScheme(mults)
            a = alpha_degree(z)
            for t in range(a, a + 4):
                e = expected_h0(class_of(z, t))
                for s in range(3):
                    pts = np.random.default_rng(
                        derive_seed(20260814, k, t, s)
                    ).integers(0, PRIME, size=(n, 3), dtype=np.int64)
                    dim = _kernels.nullspace(fat_point_matrix(pts, t, mults, PRIME), PRIME).shape[0]
                    if dim != e:
                        mismatches.append((z, t, s, dim, e))
        assert mismatches == [], mismatches


def test_criterion_8iv_dual_route_on_forced_types(criterion):
    with criterion("8iv (generator-count routes agree, 200 forced pairs)"):
        rng = np.random.default_rng(404)
        done = with_components = 0
        attempts = 0
        while done < 200:
            attempts += 1
            assert attempts < 3000, "sampling starved"
            n = int(rng.integers(4, 10))
            z = FatPointScheme(
                tuple(sorted((int(v) for v in rng.integers(1, 9, n)), reverse=True))
            )
            a = alpha_degree(z)
            t = a + int(rng.integers(1, 3))
            data = bettibound_data(z, t)
            if any(is_provisional(c.cls) for c in data.components):
                continue
            assert data.value() == expected_betti(z, t + 1).value, (z, t)
            done += 1
            with_components += bool(data.components)
        assert with_components >= 50


def test_criterion_8v_hilbert_series_consistency(criterion):
    with criterion("8v (Hilbert series consistency of exact tables)"):
        tables = [assemble_resolution(z) for z in (Z616, Z102, Z9)]
        rng = np.random.default_rng(505)
        exact = 0
        for _ in range(20):
            n = int(rng.integers(2, 7))
            z = FatPointScheme(
                tuple(sorted((int(v) for v in rng.integers(1, 5, n)), reverse=True))
            )
            tables.append(assemble_resolution(z))
        for table in tables:
            if any(ent.generators is None or ent.syzygies is None for ent in table.entries):
                continue
            check_hilbert_consistency(table)
            exact += 1
        assert exact >= 15


def test_soft_benchmark(criterion):
    with criterion("soft benchmark (resolution < 1 s, verification < 600 s)"):
        t0 = time.perf_counter()
        table = assemble_resolution(Z616)
        dt = time.perf_counter() - t0
        assert dt < 1.0, f"resolution took {dt:.2f}s"
        assert table.provisional == (parse_class("19;7,7,7,7,7,7,7,4,1,1,1"),)
        hard = table.provisional[0]
        t0 = time.perf_counter()
        v = cok_dimension(hard, 11, PRIME, 20260814, "formula")
        dt = time.perf_counter() - t0
        assert v.splitting == SplittingType(8, 11)
        assert v.match, v
        assert dt < 600.0, f"verification took {dt:.2f}s"
