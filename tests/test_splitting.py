import numpy as np
import pytest

from fatpt.cokernel import cok_dimension
from fatpt.errors import InputError
from fatpt.lattice import DivisorClass, intersect, line_class, parse_class
from fatpt.splitting import (
    SplittingType,
    candidate_pairs,
    compute_splitting,
    defect_sum,
    derive_seed,
    draw_points,
    forced_type,
    parametrize,
    predict_report,
    predict_splitting,
    split_bounds,
    splitting_of,
    splitting_type,
    _replay_points,
)
from fatpt.weyl import CREMONA, WeylWord, enumerate_exceptional, exceptional_points, orbit_of_line


def test_candidate_pairs_frozen():
    assert candidate_pairs(12, 6) == (SplittingType(6, 6),)
    assert candidate_pairs(8, 4) == (SplittingType(4, 4),)
    assert candidate_pairs(13, 5) == (SplittingType(5, 8), SplittingType(6, 7))
    assert candidate_pairs(1, 0) == (SplittingType(0, 1),)


def test_candidate_pairs_rejects_bad_input():
    with pytest.raises(InputError):
        candidate_pairs(0, 0)
    with pytest.raises(InputError):
        candidate_pairs(5, 6)
    with pytest.raises(InputError):
        SplittingType(3, 2)


def test_forced_type_threshold():
    # unique candidate exactly when d <= 2m+1
    for d in range(1, 16):
        for m in range(d + 1):
            forced = forced_type(d, m)
            assert (forced is not None) == (d <= 2 * m + 1)
            if forced is not None:
                assert forced == SplittingType(min(m, d - m), max(m, d - m))


def test_split_bounds():
    assert split_bounds(parse_class("3;2,1,1,1,1,1,1")) == (SplittingType(1, 2),)
    with pytest.raises(InputError):
        split_bounds(parse_class("2;1,1"))  # not exceptional
    with pytest.raises(InputError):
        split_bounds(DivisorClass(0, (0, -1)))  # point class, no plane image


def test_compute_splitting_frozen():
    e13 = parse_class("13;5,5,5,5,5,5,4,1,1,1,1")
    e19 = parse_class("19;7,7,7,7,7,7,7,4,1,1,1")
    assert compute_splitting(e13) == SplittingType(5, 8)
    assert compute_splitting(e19) == SplittingType(8, 11)


def test_compute_splitting_deterministic():
    e = parse_class("13;5,5,5,5,5,5,4,1,1,1,1")
    assert compute_splitting(e, seed=7) == compute_splitting(e, seed=7)


def test_compute_splitting_rejects_non_exceptional():
    with pytest.raises(InputError):
        compute_splitting(parse_class("2;1,1"))
    with pytest.raises(InputError):
        compute_splitting(DivisorClass(0, (-1, 0, 0)))


@pytest.mark.parametrize("trials", [0, -1])
def test_library_entry_points_reject_trials_below_one(trials):
    e = parse_class("8;3,3,3,3,3,3,3,1,1")  # not forced: degree 8 > 2*3 + 1
    with pytest.raises(InputError, match="trial"):
        compute_splitting(e, 31991, 1, trials)
    with pytest.raises(InputError, match="trial"):
        splitting_type(e, 31991, 1, trials)
    with pytest.raises(InputError, match="trial"):
        splitting_of(e, 31991, 1, trials)
    with pytest.raises(InputError, match="trial"):
        cok_dimension(e, 2, 31991, 1, trials=trials)


def test_computed_type_always_allowed():
    for e in enumerate_exceptional(4):
        if intersect(e, line_class(e.n)) < 1:
            continue
        st = compute_splitting(e, trials=1)
        bounds = split_bounds(e)
        assert st in bounds
        if len(bounds) == 1:
            assert st == bounds[0]


def test_parametrize_interpolates_multiplicities():
    import numpy as np

    from fatpt.exactla import FpMatrix, form_gcd

    e = parse_class("5;3,2,2,2,1,1,1,1,1")
    phi, config = parametrize(e)
    assert [f.degree for f in phi] == [5, 5, 5]
    p = config.p
    for i, m in enumerate(e.m):
        # two independent lines through point i; the parameter values mapped
        # onto the point are exactly their common pullback roots, so the
        # gcd degree is the multiplicity of the curve there
        pt = np.array([config.points[i]], dtype=np.int64) % p
        lines = FpMatrix(pt, p).nullspace().a
        assert lines.shape == (2, 3)
        pulls = [
            phi[0].scale(int(r[0])) + phi[1].scale(int(r[1])) + phi[2].scale(int(r[2]))
            for r in lines
        ]
        assert form_gcd(pulls[0], pulls[1]).degree == m, (i, m)


def test_predict_report_frozen():
    c = parse_class("12;5,5,5,4,4,4,4,2")
    rep = predict_report(c)
    assert rep.type == SplittingType(5, 7)
    assert rep.defect == 21
    assert rep.score == 21
    assert rep.rejected == ((SplittingType(6, 6), 20),)


def test_defect_sum_frozen():
    c = parse_class("12;5,5,5,4,4,4,4,2")
    assert defect_sum(orbit_of_line(c), c.n) == 21


def test_predict_via_companion():
    # the exceptional class carrying the same curve data predicts identically
    rep = predict_report(parse_class("12;5,5,5,4,4,4,4,2,1,1"))
    assert rep.type == SplittingType(5, 7)
    assert rep.defect == 21


def test_predict_forced_is_exact():
    rep = predict_report(parse_class("3;2,1,1,1,1"))
    assert rep.type == SplittingType(1, 2)
    assert rep.defect == 0
    assert not rep.provisional
    assert predict_splitting(line_class(0)) == SplittingType(0, 1)


def test_predict_report_provisional_flag():
    # provisional exactly when some conjugate point class of positive degree
    # has no forced type
    seen = set()
    for e in enumerate_exceptional(13):
        ones = [i for i, v in enumerate(e.m) if v == 1]
        if len(ones) < 2:
            continue
        c = DivisorClass(e.t, tuple(v for i, v in enumerate(e.m) if i not in ones[-2:]))
        w = orbit_of_line(c)
        if w is None or len(candidate_pairs(c.t, max(c.m) if c.n else 0)) == 1:
            continue
        degrees = [(intersect(cl, line_class(c.n)), cl) for cl in exceptional_points(w, c.n)]
        expected = any(dd > 0 and forced_type(dd, max(cl.m)) is None for dd, cl in degrees)
        assert predict_report(e, trials=1).provisional == expected, e
        seen.add(expected)
    assert seen == {False, True}


def _replay_points_reference(word, pts, p):
    """_replay_points in Python integers, one point at a time."""
    pts = [list(map(int, row)) for row in pts]
    mats = []
    for op in word.ops:
        if op != CREMONA:
            pts[op - 1], pts[op] = pts[op], pts[op - 1]
            continue
        m = [[pts[c][r] % p for c in range(3)] for r in range(3)]
        (a, b, c), (d, e, f), (g, h, i) = m
        det = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
        adj = [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
        inv = pow(det, p - 2, p)
        minv = [[v * inv % p for v in row] for row in adj]
        mats.append(m)
        for j in range(3, len(pts)):
            y = [sum(minv[r][k] * pts[j][k] for k in range(3)) % p for r in range(3)]
            pts[j] = [y[1] * y[2] % p, y[0] * y[2] % p, y[0] * y[1] % p]
        pts[:3] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return pts, mats


def test_replay_points_at_largest_prime():
    p = 2**31 - 1
    rng = np.random.default_rng(29)
    n = 14
    # 40 Cremonas, each transporting 11 points. Before each one, three
    # points from rows 6.. move to the front, so the Cremona matrix is never
    # close to the identity left by the previous one.
    ops = []
    for _ in range(40):
        for _ in range(3):
            ops += range(int(rng.integers(6, n)), 0, -1)
        ops.append(CREMONA)
    word = WeylWord(tuple(ops))
    pts = draw_points(n, p, seed=31).as_array()
    got, mats = _replay_points(word, pts, p)
    ref, ref_mats = _replay_points_reference(word, pts, p)
    assert got.tolist() == ref
    assert [m.tolist() for m in mats] == ref_mats


def test_predict_rejects_bad_input():
    with pytest.raises(InputError):
        predict_report(parse_class("2;1,1"))  # self-intersection 2
    with pytest.raises(InputError):
        predict_report(DivisorClass(0, (-1,)))  # no companion slots


def test_derive_seed_stable():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed() == 0
    assert 0 <= derive_seed(2**80, -5) < 2**63
