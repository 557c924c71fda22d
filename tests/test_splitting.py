import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpt import _kernels, exactla, splitting
from fatpt.errors import InfeasibleError, InputError
from fatpt.lattice import DivisorClass, intersect, line_class, parse_class
from fatpt.splitting import (
    DEFAULT_SEED,
    RETRY_CAP,
    SplittingType,
    candidate_pairs,
    compute_splittings,
    defect_sum,
    derive_seed,
    draw_points,
    forced_type,
    is_provisional,
    parametrize,
    predict_report,
    split_bounds,
    splittings_of,
    splitting_types,
    _draw,
)
from fatpt.weyl import CREMONA, enumerate_exceptional, exceptional_points, line_reduction, orbit_of_line


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
    for d, m in ((0, 0), (5, 6), (5, -1)):
        with pytest.raises(InputError):
            forced_type(d, m)
    with pytest.raises(InputError):
        SplittingType(3, 2)


def test_forced_type_threshold():
    # unique candidate exactly when d <= 2m+1, and forced_type returns it
    for d in range(1, 81):
        for m in range(d + 1):
            forced = forced_type(d, m)
            cands = candidate_pairs(d, m)
            assert forced == (cands[0] if len(cands) == 1 else None)
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
    assert compute_splittings([e13]) == [SplittingType(5, 8)]
    assert compute_splittings([e19]) == [SplittingType(8, 11)]


def test_compute_splitting_deterministic():
    e = parse_class("13;5,5,5,5,5,5,4,1,1,1,1")
    assert compute_splittings([e], seed=7) == compute_splittings([e], seed=7)


def test_compute_splitting_rejects_non_exceptional():
    with pytest.raises(InputError):
        compute_splittings([parse_class("2;1,1")])
    with pytest.raises(InputError):
        compute_splittings([DivisorClass(0, (-1, 0, 0))])


@pytest.mark.parametrize("trials", [0, -1])
def test_library_entry_points_reject_trials_below_one(trials):
    e = parse_class("8;3,3,3,3,3,3,3,1,1")  # not forced: degree 8 > 2*3 + 1
    with pytest.raises(InputError, match="trial"):
        compute_splittings([e], 31991, 1, trials)
    with pytest.raises(InputError, match="trial"):
        splitting_types([e], 31991, 1, trials)
    with pytest.raises(InputError, match="trial"):
        splittings_of([e], 31991, 1, trials)


def test_computed_type_always_allowed():
    for e in enumerate_exceptional(4):
        if intersect(e, line_class(e.n)) < 1:
            continue
        (st,) = compute_splittings([e], trials=1)
        bounds = split_bounds(e)
        assert st in bounds
        if len(bounds) == 1:
            assert st == bounds[0]


# The form route: the splitting type computed by undoing each Cremona on a
# parametrization of the final line, as binary forms, dividing out the gcd of
# the three forms after each undo, then reading the syzygy degree off the
# forms' coefficients. It is kept here, in plain Python lists, as the
# reference for the point route of ``parametrize`` and
# ``exactla.syzygy_degrees``. A form sum_i c_i u^i v^(d-i) is the list
# [c_0, ..., c_d]; the zero form is [], so that a zero form is never mistaken
# for a constant.


class _Rejected(Exception):
    """The form route rejects a draw, with the reason."""


def _form(coeffs, p):
    coeffs = [int(c) % p for c in coeffs]
    return coeffs if any(coeffs) else []


def _form_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _form(out, p)


def _form_comb(scalars, forms, p):
    """sum_k scalars[k] * forms[k] over forms of one degree (zero forms
    count as that degree's zero)."""
    n = max(len(f) for f in forms)
    return _form(
        [sum(int(s) * (f[i] if f else 0) for s, f in zip(scalars, forms)) for i in range(n)], p
    )


def _split_monomial(f):
    """(a, b, core) with f = u^a v^b core and core coprime to u and v, as
    ascending coefficients of the dehomogenized core."""
    lo = next(i for i, c in enumerate(f) if c)
    hi = max(i for i, c in enumerate(f) if c)
    return lo, len(f) - 1 - hi, f[lo : hi + 1]


def _poly_divmod(num, den, p):
    """Univariate division with remainder, ascending coefficients; the
    remainder is [] when it is zero."""
    num = list(num)
    dd = len(den) - 1
    inv = pow(den[-1], p - 2, p)
    q = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * inv % p
        if c:
            q[i - dd] = c
            for j, x in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * x) % p
    rem = num[:dd]
    while rem and not rem[-1]:
        rem.pop()
    return q, rem


def _form_gcd(f, g, p):
    """Monic gcd of two forms, not both zero: the monomial parts by
    valuation, the cores by Euclid."""
    if not f or not g:
        h = f or g
        lead = h[max(i for i, c in enumerate(h) if c)]
        return [c * pow(lead, p - 2, p) % p for c in h]
    fu, fv, fc = _split_monomial(f)
    gu, gv, gc = _split_monomial(g)
    a, b = fc, gc
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    core = [c * pow(a[-1], p - 2, p) % p for c in a]
    return [0] * min(fu, gu) + core + [0] * min(fv, gv)


def _form_divexact(f, g, p):
    fu, fv, fc = _split_monomial(f)
    gu, gv, gc = _split_monomial(g)
    q, rem = _poly_divmod(fc, gc, p)
    assert fu >= gu and fv >= gv and not rem, "division is not exact"
    return [0] * (fu - gu) + q + [0] * (fv - gv)


def _coprime(forms, p):
    if not all(forms):
        return False
    return len(_form_gcd(_form_gcd(forms[0], forms[1], p), forms[2], p)) == 1


def _degrees_before_cremonas(e, word):
    """The class degree before each Cremona of the word, in order."""
    t, m = e.t, list(e.pad_to(3).m if e.n < 3 else e.m)
    out = []
    for op in word:
        if op != CREMONA:
            m[op - 1], m[op] = m[op], m[op - 1]
            continue
        out.append(t)
        c = t - m[0] - m[1] - m[2]
        t += c
        m[:3] = [v + c for v in m[:3]]
    return out


def _reference_parametrize(e, pts, p):
    """Forms of the plane image of e through the points ``pts`` (an (n, 3)
    array), by the form route; raises _Rejected where a
    component vanishes or a degree drops."""
    word = line_reduction(e)
    final, mats, reason = _replay_points_reference(word, pts, p)
    if reason:
        raise _Rejected(reason)
    phi = [_form([final[1][i], final[0][i]], p) for i in range(3)]
    if not all(phi):
        raise _Rejected("degenerate final line")
    for m, deg in zip(reversed(mats), reversed(_degrees_before_cremonas(e, word))):
        psi = [
            _form_mul(phi[1], phi[2], p),
            _form_mul(phi[0], phi[2], p),
            _form_mul(phi[0], phi[1], p),
        ]
        new = [_form_comb(m[i], psi, p) for i in range(3)]
        if not all(new):
            raise _Rejected("parametrization component vanished")
        g = _form_gcd(_form_gcd(new[0], new[1], p), new[2], p)
        phi = [_form_divexact(f, g, p) for f in new]
        if len(phi[0]) - 1 != deg:
            raise _Rejected(f"degree {len(phi[0]) - 1} after undo, expected {deg}")
    if len(phi[0]) - 1 != intersect(e, line_class(e.n)):
        raise _Rejected("parametrization degree")
    return phi


def _reference_syzygy_degree(forms, p):
    """The syzygy degree of three coprime forms of degree d from one rank of
    their (d+e+1) x 3(e+1) coefficient matrix at e = floor((d-1)/2)."""
    d = len(forms[0]) - 1
    if d == 0:
        return 0
    e = (d - 1) // 2
    m = [[0] * (3 * (e + 1)) for _ in range(d + e + 1)]
    for idx, f in enumerate(forms):
        for k in range(e + 1):
            for j, c in enumerate(f):
                m[j + k][idx * (e + 1) + k] = c
    nullity = 3 * (e + 1) - _kernels.rank(np.array(m, dtype=np.int64), p)
    return e + 1 - nullity if nullity else d // 2


def _reference_once(e, pts, p):
    """One draw of e by the form route, for the given points."""
    phi = _reference_parametrize(e, pts, p)
    d = len(phi[0]) - 1
    a = _reference_syzygy_degree(phi, p)
    st_ = SplittingType(a, d - a)
    if st_ not in candidate_pairs(d, max(e.m)):
        raise _Rejected(f"type {st_} outside the allowed range")
    return st_


def _evaluate(forms, t, p):
    """The point (f_0(t), f_1(t), f_2(t)) at v = 1, u = t."""
    return [sum(c * pow(int(t), i, p) for i, c in enumerate(f)) % p for f in forms]


def _draws(e, p, seeds):
    """One draw of e per seed by the stacked route of ``compute_splittings``
    (``_draw`` with the word and the types it hands over): the type, or
    "degenerate"."""
    word, cands = line_reduction(e), candidate_pairs(e.t, max(e.m))
    draws = [(e, word, cands, s) for s in seeds]
    return [got if isinstance(got, SplittingType) else "degenerate" for got in _draw(draws, p)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except _Rejected:
        return "degenerate"


def test_parametrize_interpolates_multiplicities():
    e = parse_class("5;3,2,2,2,1,1,1,1,1")
    p = 31991
    config = draw_points(e.n, p, DEFAULT_SEED)
    phi = _reference_parametrize(e, config, p)
    assert [len(f) - 1 for f in phi] == [5, 5, 5]
    for i, m in enumerate(e.m):
        # two independent lines through point i; the parameter values mapped
        # onto the point are exactly their common pullback roots, so the
        # gcd degree is the multiplicity of the curve there
        pt = np.array([config[i]], dtype=np.int64) % p
        lines = _kernels.nullspace(pt, p)
        assert lines.shape == (2, 3)
        pulls = [_form_comb(r, phi, p) for r in lines]
        assert len(_form_gcd(pulls[0], pulls[1], p)) - 1 == m, (i, m)
    # The point route samples the same curve: each point is a nonzero
    # multiple of phi at its parameter.
    (t,), (pts,), _, reasons = parametrize([line_reduction(e)], [config], e.t, p)
    assert reasons == [None]
    assert len(t) == 11 == len(set(t.tolist()))
    for tj, pj in zip(t, pts):
        ref = np.array(_evaluate(phi, tj, p), dtype=object)
        assert ref.any() and not (np.cross(ref, pj.astype(object)) % p).any()


_SPLIT_CLASSES = [e for e in enumerate_exceptional(16) if intersect(e, line_class(e.n)) >= 2]
_RANDOMIZED_CLASSES = [e for e in _SPLIT_CLASSES if forced_type(e.t, max(e.m)) is None]


@given(
    st.one_of(st.sampled_from(_RANDOMIZED_CLASSES), st.sampled_from(_SPLIT_CLASSES)),
    st.sampled_from([53, 1009, 31991, 2**31 - 1]),
    st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5),
)
@settings(max_examples=150)
def test_point_route_matches_form_route(e, p, seeds):
    # Several draws as one stack: each member gets the same type as the form
    # route on its own configuration, or both reject it.
    got = _draws(e, p, seeds)
    assert got == [_outcome(_reference_once, e, draw_points(max(e.n, 3), p, s), p) for s in seeds]


_FORWARD_REASONS = ("collinear Cremona centers", "point collides with a Cremona center")


def _both_reject(e, pts, p, monkeypatch):
    """Both routes reject the draw ``pts``; returns whether it got past the
    forward replay, so that only the checks of the undo could reject it."""
    pts = np.asarray(pts, dtype=np.int64) % p
    with pytest.raises(_Rejected):
        _reference_once(e, pts, p)
    monkeypatch.setattr(splitting, "draw_points", lambda n, p, seed: pts)
    assert _draws(e, p, [0]) == ["degenerate"]
    return parametrize([line_reduction(e)], [pts], e.t, p)[3][0] not in _FORWARD_REASONS


def test_collinear_points_rejected_by_both_routes(monkeypatch):
    # Three collinear points whose multiplicities sum past d: the line
    # through them meets the curve too often, so no curve of class e passes
    # through the configuration. Most such draws put three collinear points
    # into one Cremona's centers, or a point onto a center; the rest reach
    # the undo.
    p = 31991
    rng = np.random.default_rng(41)
    past_forward = 0
    for e in _RANDOMIZED_CLASSES:
        for i, j, k in itertools.combinations(range(e.n), 3):
            if e.m[i] + e.m[j] + e.m[k] <= e.t:
                continue
            pts = rng.integers(1, p, size=(e.n, 3))
            pts[k] = 3 * pts[i] + 5 * pts[j]
            past_forward += _both_reject(e, pts, p, monkeypatch)
    assert past_forward >= 5


def test_six_points_on_a_conic_rejected_by_both_routes(monkeypatch):
    # Six points on one conic whose multiplicities sum past 2d: the conic
    # meets the curve too often.
    p = 31991
    rng = np.random.default_rng(43)
    past_forward = 0
    for e in _RANDOMIZED_CLASSES:
        for six in itertools.islice(itertools.combinations(range(e.n), 6), 40):
            if sum(e.m[i] for i in six) <= 2 * e.t:
                continue
            pts = rng.integers(1, p, size=(e.n, 3))
            s = rng.choice(np.arange(1, p), size=6, replace=False)
            conic = np.stack([s * s % p, s, np.ones(6, dtype=np.int64)], axis=1)
            mix = rng.integers(0, p, size=(3, 3))
            pts[list(six)] = (conic[:, None, :] * mix % p).sum(axis=2) % p
            past_forward += _both_reject(e, pts, p, monkeypatch)
    assert past_forward >= 50


@pytest.mark.extended
def test_every_draw_matches_form_route():
    # Every (trial, attempt) draw of every randomized class up to degree 22,
    # under the seed rule of the commands at two master seeds.
    p = 31991
    classes = [
        e
        for e in enumerate_exceptional(22)
        if intersect(e, line_class(e.n)) >= 1 and forced_type(e.t, max(e.m)) is None
    ]
    draws = 0
    for master in (DEFAULT_SEED, 1):
        seed = derive_seed(master, 757)
        for e in classes:
            open_ = [0, 1, 2]
            for attempt in range(RETRY_CAP):
                seeds = [derive_seed(seed, trial, attempt) for trial in open_]
                for trial, s, got in zip(list(open_), seeds, _draws(e, p, seeds)):
                    pts = draw_points(max(e.n, 3), p, s)
                    assert got == _outcome(_reference_once, e, pts, p), (e, s)
                    draws += 1
                    if got != "degenerate":
                        open_.remove(trial)
                if not open_:
                    break
    assert draws >= 2 * 3 * len(classes)


def test_compute_splitting_checks_the_prime_once(monkeypatch):
    calls = []
    is_prime = exactla.is_prime
    monkeypatch.setattr(exactla, "is_prime", lambda n: calls.append(n) or is_prime(n))
    e = parse_class("8;3,3,3,3,3,3,3,1,1")  # not forced: degree 8 > 2*3 + 1
    compute_splittings([e], 31991, 1, 3)
    assert calls == [31991]


def test_compute_splitting_reduces_the_class_once(reduce_calls):
    # Every trial and attempt reads the one word; no draw reduces again,
    # whether a class is split alone or with others of its degree.
    classes = [parse_class(text) for text in ("8;3,3,3,3,3,3,3,1,1", "13;5,5,5,5,5,5,4,1,1,1,1")]
    for e in classes:
        reduce_calls.clear()
        compute_splittings([e], trials=3, seed=1)
        assert reduce_calls == [e]
    classes += [e for e in _RANDOMIZED_CLASSES if e.t == 13 and e != classes[1]][:2]
    reduce_calls.clear()
    compute_splittings(classes, trials=3, seed=1)
    assert reduce_calls == classes


def test_compute_splittings_matches_one_class_at_a_time():
    # Drawing the classes of two degrees together changes no type.
    classes = [e for e in _RANDOMIZED_CLASSES if e.t in (13, 14)]
    assert len({e.t for e in classes}) == 2 and len(classes) > 4
    for p in (211, 31991):
        together = compute_splittings(classes, p, 5, 3)
        assert together == [compute_splittings([e], p, 5, 3)[0] for e in classes]
        assert splitting_types(classes, p, 5, 3) == together


def test_splitting_types_read_an_iterator_once():
    # Any iterable will do: a generator gives the types a list gives, with
    # the forced class by the closed form and the other one drawn.
    classes = [parse_class("3;2,1,1,1,1,1,1"), parse_class("8;3,3,3,3,3,3,3,1,1")]
    listed = splittings_of(classes)
    assert [is_provisional(e) for e in classes] == [False, True]
    assert splittings_of(e for e in classes) == listed
    assert splitting_types((e for e in classes), 31991, 5) == splitting_types(classes, 31991, 5)


def test_compute_splittings_names_the_first_infeasible_class():
    # At p = 29 both classes run out of attempts. One attempt loop spans both
    # degrees, and the error names the first class in the given order, the
    # higher degree here, with that class's rejections counted by reason.
    high, low = parse_class("13;5,5,5,5,5,5,4,1,1,1,1"), parse_class("8;3,3,3,3,3,3,3,1,1")
    expected = (
        "no nondegenerate configuration in 10 attempts for 13;5,5,5,5,5,5,4,1,1,1,1 over F_29 "
        "(point collides with a Cremona center: 8; fewer than 27 parameters of F_29 avoid the base points: 1; "
        "collinear Cremona centers: 1)"
    )
    with pytest.raises(InfeasibleError) as both:
        compute_splittings([high, low], 29, 1, 3)
    assert str(both.value) == expected
    with pytest.raises(InfeasibleError, match=f"for {low} over F_29"):
        compute_splittings([low, high], 29, 1, 3)


@pytest.mark.parametrize(
    "votes",
    [
        [SplittingType(5, 8), SplittingType(5, 8), SplittingType(6, 7)],
        [SplittingType(5, 8), SplittingType(6, 7)],
    ],
)
def test_vote_keeps_the_largest_a(monkeypatch, votes):
    # A special draw can only lower a, so the accepted type with the largest
    # a wins, against a majority and against a tie's first vote.
    e = parse_class("13;5,5,5,5,5,5,4,1,1,1,1")
    monkeypatch.setattr(splitting, "_draw", lambda draws, p: votes[: len(draws)])
    assert compute_splittings([e], trials=len(votes)) == [SplittingType(6, 7)]


def test_compute_splitting_rejects_composite_prime():
    with pytest.raises(InputError, match="not prime"):
        compute_splittings([parse_class("8;3,3,3,3,3,3,3,1,1")], 15)


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
    assert predict_report(line_class(0)).type == SplittingType(0, 1)


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
    """The forward replay of ``parametrize`` for one configuration, in
    Python integers, one point at a time: (points, Cremona matrices,
    reason). It stops at the first failing check, with that reason; the
    matrices then end with the failing Cremona's."""
    pts = [list(map(int, row)) for row in pts]
    mats = []
    for op in word:
        if op != CREMONA:
            pts[op - 1], pts[op] = pts[op], pts[op - 1]
            continue
        m = [[pts[c][r] % p for c in range(3)] for r in range(3)]
        mats.append(m)
        (a, b, c), (d, e, f), (g, h, i) = m
        det = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
        if det == 0:
            return pts, mats, "collinear Cremona centers"
        adj = [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
        inv = pow(det, p - 2, p)
        minv = [[v * inv % p for v in row] for row in adj]
        for j in range(3, len(pts)):
            y = [sum(minv[r][k] * pts[j][k] for k in range(3)) % p for r in range(3)]
            pts[j] = [y[1] * y[2] % p, y[0] * y[2] % p, y[0] * y[1] % p]
            if not any(pts[j]):
                return pts, mats, "point collides with a Cremona center"
        pts[:3] = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return pts, mats, None


def _undo_reference(mats, point, p):
    """A point pushed back through the Cremonas ``mats``, most recent first,
    in Python integers: P <- M q(P)."""
    for m in reversed(mats):
        q = [point[1] * point[2] % p, point[0] * point[2] % p, point[0] * point[1] % p]
        point = [sum(x * y for x, y in zip(row, q)) % p for row in m]
    return point


def test_replay_points_at_largest_prime():
    # A stack of four configurations at p = 2**31 - 1, where three products
    # of residues overflow int64 unless each is reduced before a sum (as in
    # the 3x3 determinants and matrix products). Every member matches the
    # reference, and the one with a repeated point is rejected, with the
    # reference's reason, while the others go on to points of their curve.
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
    # Two transported points move to the front for the final line.
    for _ in range(2):
        ops += range(int(rng.integers(6, n)), 0, -1)
    word = tuple(ops)
    stack = np.stack([draw_points(n, p, seed=s) for s in (31, 32, 33, 34)])
    stack[2, 9] = stack[2, 8] * 5 % p
    t, got, mats, reasons = parametrize([word] * 4, list(stack), 2, p)
    assert reasons[2] is not None and reasons.count(None) == 3
    for member in range(4):
        ref, ref_mats, why = _replay_points_reference(word, stack[member], p)
        assert reasons[member] == why
        if why is None:
            assert [m.tolist() for m in mats[member]] == ref_mats
            line = [[(int(tj) * x + y) % p for x, y in zip(ref[0], ref[1])] for tj in t[member]]
            assert got[member].tolist() == [_undo_reference(ref_mats, pt, p) for pt in line]


@pytest.mark.parametrize("p", [29, 2**31 - 1])
def test_lockstep_replay_matches_each_class_alone(p):
    # The draws of every class of one degree, interleaved in one stack: the
    # classes differ in their number of points and of Cremonas. A third of
    # the configurations get a repeated point and a third three collinear
    # points, so that members are rejected at different Cremonas for each
    # reason; at p = 29 many draws also run out of parameters. Each member
    # gets the reason, the Cremona matrices and (when it is not rejected)
    # the points it gets with its class alone, and the forward replay
    # agrees with the reference.
    d = 12
    classes = [e for e in _SPLIT_CLASSES if e.t == d]
    words = [line_reduction(e) for e in classes]
    assert len({e.n for e in classes}) > 3 and len({w.count(CREMONA) for w in words}) > 2
    rng = np.random.default_rng(p)
    members = []
    for c, e in enumerate(classes):
        for s in range(6):
            x = draw_points(max(e.n, 3), p, derive_seed(p, c, s))
            i, j, k = rng.choice(len(x), size=3, replace=False).tolist()
            if s % 3 == 1:
                x[k] = x[i] * 7 % p
            elif s % 3 == 2:
                x[k] = (3 * x[i] + 5 * x[j]) % p
            members.append((c, x))
    members = [members[i] for i in rng.permutation(len(members))]
    t, pts, mats, reasons = parametrize([words[c] for c, _ in members], [x for _, x in members], d, p)
    assert t.shape == (len(members), 2 * d + 1) and pts.shape == t.shape + (3,)
    steps: dict = {reason: set() for reason in _FORWARD_REASONS}
    for c, word in enumerate(words):
        idx = [i for i, (cc, _) in enumerate(members) if cc == c]
        cremonas = word.count(CREMONA)
        alone = parametrize([word] * len(idx), [members[i][1] for i in idx], d, p)
        assert [reasons[i] for i in idx] == alone[3]
        assert mats[idx, :cremonas].tolist() == alone[2].tolist()
        assert not mats[idx, cremonas:].any()
        for i, a in zip(idx, range(len(idx))):
            _, ref_mats, why = _replay_points_reference(word, members[i][1], p)
            if why is not None:
                assert reasons[i] == why
                steps[why].add(len(ref_mats))
                continue
            assert reasons[i] not in _FORWARD_REASONS
            assert mats[i, :cremonas].tolist() == ref_mats
            if reasons[i] is None:
                assert t[i].tolist() == alone[0][a].tolist()
                assert pts[i].tolist() == alone[1][a].tolist()
    assert all(len(at) >= 2 for at in steps.values()), steps
    assert None in reasons
    if p == 29:
        assert any(r and r.startswith("fewer than") for r in reasons)


def test_draw_points_redraws_zero_rows():
    # Over F_3 at seed 0, two of the twelve raw rows are zero; only those
    # are drawn again.
    raw = np.random.default_rng(0).integers(0, 3, size=(12, 3), dtype=np.int64)
    zero = ~raw.any(axis=1)
    assert zero.sum() == 2
    pts = draw_points(12, 3, 0)
    assert pts.any(axis=1).all()
    assert (pts[~zero] == raw[~zero]).all()


def test_draw_straddles_a_chunk_boundary(monkeypatch):
    # More draws than one chunk holds, chunks that split a class's seeds,
    # and a run of another degree between two runs of one: every draw gets
    # the outcome it gets drawn alone.
    d, p = 16, 1009
    classes = [e for e in _RANDOMIZED_CLASSES if e.t == d]
    classes.insert(len(classes) // 2, next(e for e in _RANDOMIZED_CLASSES if e.t == d - 1))
    draws = [
        (e, line_reduction(e), candidate_pairs(e.t, max(e.m)), derive_seed(5, c, s))
        for c, e in enumerate(classes)
        for s in range(10)
    ]
    assert len(draws) > splitting._CHUNK
    alone = [got for draw in draws for got in _draw([draw], p)]
    assert _draw(draws, p) == alone
    monkeypatch.setattr(splitting, "_CHUNK", 7)
    assert _draw(draws, p) == alone
    assert any(isinstance(got, str) for got in alone)
    assert sum(isinstance(got, SplittingType) for got in alone) > len(alone) // 2


def test_inverse_3x3_stack_at_largest_prime():
    # Entries just below p make about half the adjugate entries just below p
    # too, so the three products of a determinant, each near p**2, overflow
    # int64 unless each is reduced before the sum. Singular members get
    # determinant 0 and the zero matrix.
    p = 2**31 - 1
    rng = np.random.default_rng(7)
    m = p - rng.integers(1, 2**20, size=(64, 3, 3))
    m[5, 2] = m[5, 0] * 3 % p  # singular
    m[9] = p - 1
    inv, det = splitting._inv3(m, p)
    for a, got, d in zip(m.tolist(), inv.tolist(), det.tolist()):
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        ref = (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)) % p
        assert d == ref
        if ref == 0:
            assert got == [[0] * 3] * 3
            continue
        # M times its inverse is the identity mod p.
        assert [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*got)] for row in a] == np.eye(3).tolist()
    assert det[5] == det[9] == 0


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
