import itertools
from dataclasses import fields

import numpy as np
import pytest

from fatpt.betti import (
    CONJECTURAL,
    EXACT,
    INTERVAL,
    BettiEntry,
    ResolutionTable,
    assemble_resolution,
    betti_alpha_plus_one,
    bettibound_data,
    check_hilbert_consistency,
    expected_betti,
    line_presentation,
    regularity,
)
from fatpt.cokernel import mu_rank_oracle
from fatpt.errors import InputError
from fatpt.lattice import DivisorClass, FatPointScheme, class_of, intersect, parse_class
from fatpt.linsys import alpha_degree, expected_h0
from fatpt.splitting import SplittingType, derive_seed, is_provisional
from fatpt.weyl import is_exceptional

Z102 = FatPointScheme((50, 50, 38, 38, 26, 26, 22, 18, 14, 14))
Z9 = FatPointScheme((48, 33, 33, 33, 32, 32, 32, 24, 16))
Z616 = FatPointScheme((77,) * 7 + (44, 11, 11, 11))
POINT = FatPointScheme((1,))


def test_regularity_frozen():
    assert regularity(Z102) == 103
    assert regularity(Z9) == 98
    assert regularity(Z616) == 210
    assert regularity(POINT) == 1


def test_resolution_ten_points():
    table = assemble_resolution(Z102)
    assert (table.alpha, table.regularity) == (102, 103)
    assert table.alpha_plus_one_path == "injective"
    assert table.gens_dict() == {102: 4, 103: 80, 104: 2, 105: 0}
    assert table.syz_dict() == {102: 0, 103: 0, 104: 69, 105: 16}
    assert set(table.flags_dict().values()) == {EXACT}
    assert table.provisional == ()
    check_hilbert_consistency(table)


def test_resolution_nine_points():
    table = assemble_resolution(Z9)
    assert (table.alpha, table.regularity) == (98, 98)
    assert table.alpha_plus_one_path == "decomposition"
    assert table.gens_dict() == {98: 71, 99: 2, 100: 0}
    assert table.syz_dict() == {98: 0, 99: 44, 100: 28}
    assert set(table.flags_dict().values()) == {EXACT}
    check_hilbert_consistency(table)


def test_resolution_quasihomogeneous():
    table = assemble_resolution(Z616)
    assert (table.alpha, table.regularity) == (209, 210)
    assert table.alpha_plus_one_path == "unique-section"
    assert table.gens_dict() == {209: 1, 210: 154, 211: 3, 212: 0}
    assert table.syz_dict() == {209: 0, 210: 0, 211: 102, 212: 55}
    assert table.flags_dict()[211] == CONJECTURAL
    assert table.provisional == (parse_class("19;7,7,7,7,7,7,7,4,1,1,1"),)
    check_hilbert_consistency(table)


def test_resolution_single_point():
    table = assemble_resolution(POINT)
    assert table.gens_dict() == {1: 2, 2: 0, 3: 0}
    assert table.syz_dict() == {1: 0, 2: 1, 3: 0}
    assert table.alpha_plus_one_path == "interval"
    check_hilbert_consistency(table)


def test_table_entry_access():
    table = assemble_resolution(POINT)
    assert table.entry(0).generators == 0 and table.entry(0).syzygies == 0
    with pytest.raises(InputError):
        table.entry(99)


def test_resolution_records_keep_their_fields():
    # perfbench/workloads.py rebuilds both records positionally from a
    # resolution report, so their fields and order are fixed.
    assert [f.name for f in fields(BettiEntry)] == [
        "degree", "generators", "generators_interval", "syzygies", "syzygies_interval", "flag",
    ]
    assert [f.name for f in fields(ResolutionTable)] == [
        "scheme", "alpha", "regularity", "entries", "alpha_plus_one_path", "provisional",
    ]


def test_alpha_plus_one_paths():
    r102 = betti_alpha_plus_one(Z102)
    assert (r102.value, r102.path, r102.flag) == (80, "injective", EXACT)
    r9 = betti_alpha_plus_one(Z9)
    assert (r9.value, r9.path) == (2, "decomposition")
    assert r9.components == (
        (parse_class("12;6,4,4,4,4,4,4,3,2"), 8, 8, SplittingType(6, 6)),
    )
    r616 = betti_alpha_plus_one(Z616)
    assert (r616.value, r616.path) == (154, "unique-section")
    rp = betti_alpha_plus_one(POINT)
    assert (rp.value, rp.path, rp.flag) == (0, "interval", EXACT)


def test_line_presentation_frozen():
    h, comps = line_presentation(Z9)
    assert h == DivisorClass(1, (0, 1, 1, 1, 0, 0, 0, 0, 0))
    assert comps == ((parse_class("12;6,4,4,4,4,4,4,3,2"), 8),)
    assert line_presentation(POINT) == (DivisorClass(0, (1,)), ())


def test_bettibound_frozen_ten_points():
    data = bettibound_data(Z102, 103)
    assert data.value() == 2
    assert {c.cls for c in data.components} == {
        parse_class("8;4,4,3,3,2,2,1,2,1,1"),
        parse_class("8;4,4,3,3,2,2,2,1,1,1"),
    }
    assert {c.cls: c.c for c in data.components} == {
        parse_class("8;4,4,3,3,2,2,1,2,1,1"): 2,
        parse_class("8;4,4,3,3,2,2,2,1,1,1"): 6,
    }
    assert all(c.splitting == SplittingType(4, 4) for c in data.components)
    assert not any(is_provisional(c.cls) for c in data.components)


def test_bettibound_frozen_nine_points_at_alpha():
    data = bettibound_data(Z9, 98)
    assert data.value() == 2
    (comp,) = data.components
    assert comp.cls == parse_class("12;6,4,4,4,4,4,4,3,2")
    assert (comp.c, comp.c1, comp.c2) == (8, 0, 0)
    assert comp.splitting == SplittingType(6, 6)


def test_bettibound_rejects_below_alpha():
    with pytest.raises(InputError):
        bettibound_data(Z9, 97)


def test_expected_betti_precondition():
    with pytest.raises(InputError):
        expected_betti(Z9, 98)
    with pytest.raises(InputError):
        assemble_resolution(Z9, i_max=99)


def test_routes_agree_random():
    # the pricing through decompose two degrees down and the exponent-drop
    # expression must give the same generator counts
    rng = np.random.default_rng(20260814)
    for _ in range(8):
        n = int(rng.integers(4, 9))
        z = FatPointScheme(tuple(sorted((int(v) for v in rng.integers(1, 7, n)), reverse=True)))
        a = alpha_degree(z)
        for t in (a + 1, a + 2):
            assert bettibound_data(z, t).value() == expected_betti(z, t + 1).value, (z, t)


def test_line_presentation_components_random():
    # What line_presentation no longer checks holds by construction: the
    # components are exceptional and pairwise orthogonal, and H.C_j = 0.
    rng = np.random.default_rng(20260814)
    pairs = 0
    for _ in range(300):
        n = int(rng.integers(4, 9))
        z = FatPointScheme(tuple(sorted((int(v) for v in rng.integers(1, 7, n)), reverse=True)))
        pres = line_presentation(z)
        if pres is None:
            continue
        h, comps = pres
        classes = [cls for cls, _ in comps]
        assert all(is_exceptional(cls) and intersect(h, cls) == 0 for cls in classes), z
        for i, j in itertools.combinations(range(len(classes)), 2):
            assert intersect(classes[i], classes[j]) == 0, z
            pairs += 1
    assert pairs >= 10


def test_interval_case_brackets_oracle():
    z = FatPointScheme((3, 3, 2, 1, 1))
    table = assemble_resolution(z)
    ent = table.entry(table.alpha + 1)
    assert ent.generators is None
    lo, hi = ent.generators_interval
    assert (lo, hi) == (0, 1)
    # Interval cells have no ranks to add up: the check returns.
    assert check_hilbert_consistency(table) is None
    for seed in (1, 2):
        rng = np.random.default_rng(derive_seed(seed, 5))
        pts = rng.integers(0, 31991, size=(z.n, 3), dtype=np.int64)
        cok = mu_rank_oracle(pts, z, table.alpha)
        assert lo <= cok <= hi


def test_exact_tables_match_oracle_small():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 6:
        n = int(rng.integers(3, 6))
        z = FatPointScheme(tuple(sorted((int(v) for v in rng.integers(1, 4, n)), reverse=True)))
        table = assemble_resolution(z)
        if any(ent.generators is None for ent in table.entries):
            continue
        check_hilbert_consistency(table)
        pts = rng.integers(0, 31991, size=(z.n, 3), dtype=np.int64)
        assert table.entry(table.alpha).generators == expected_h0(class_of(z, table.alpha))
        for i in range(table.alpha + 1, table.regularity + 2):
            assert table.entry(i).generators == mu_rank_oracle(pts, z, i - 1), (z, i)
        checked += 1


def test_generators_vanish_past_regularity():
    table = assemble_resolution(Z9, i_max=regularity(Z9) + 4)
    for i in range(regularity(Z9) + 2, regularity(Z9) + 5):
        ent = table.entry(i)
        assert ent.generators == 0 and ent.flag == EXACT
