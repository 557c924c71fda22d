from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpt.errors import InputError
from fatpt.lattice import (
    DivisorClass,
    FatPointScheme,
    canonical_class,
    class_of,
    format_class,
    intersect,
    line_class,
    parse_class,
    selfint,
)
from fatpt.linsys import decompose
from fatpt.weyl import (
    CREMONA,
    IN_CHAMBER,
    NEG_L,
    NEG_LINE,
    apply_word,
    enumerate_exceptional,
    format_word,
    is_exceptional,
    line_reduction,
    orbit_of_line,
    reduce,
    reduce_class,
)

# The running 11-point example: one scheme, three consecutive degrees with
# three different outcomes (empty, a single curve, a free system).
Z11 = (77, 77, 77, 77, 77, 77, 77, 44, 11, 11, 11)


def _cls(t):
    return DivisorClass(t, Z11)


def test_single_cremona_step_frozen():
    # c = 208 - 3*77 = -23 hits the first three slots and the degree.
    g = apply_word((CREMONA,), _cls(208))
    assert g == DivisorClass(185, (54, 54, 54, 77, 77, 77, 77, 44, 11, 11, 11))


def test_reduce_208_terminal_frozen():
    rf = reduce(_cls(208))
    assert rf.status == NEG_L
    assert rf.reduced == parse_class("-23;8,-1,-5,-5,-5,-5,-8,-8,-14,-17,-17")
    assert apply_word(rf.word, _cls(208)) == rf.reduced
    assert apply_word(rf.word, rf.reduced, inverse=True) == _cls(208)


def test_reduce_209_terminal_frozen():
    rf = reduce(_cls(209))
    assert rf.status == IN_CHAMBER
    assert rf.reduced == DivisorClass(0, (0,) * 10 + (-11,))


def test_reduce_210_terminal_frozen():
    rf = reduce(_cls(210))
    assert rf.status == IN_CHAMBER
    assert rf.reduced == parse_class("27;8,8,8,8,5,5,5,5,5,5,5")


def test_reduce_small_classes():
    assert reduce(DivisorClass(1, (2,))).status == NEG_LINE
    assert reduce(DivisorClass(0, (1,))).status == NEG_L
    assert reduce(line_class(2)).status == IN_CHAMBER


def test_format_word():
    assert format_word((0, 2, 1, 0)) == "s0 s2 s1 s0"
    assert format_word(()) == ""


def test_word_inverse_recovers():
    f = DivisorClass(9, (4, 3, 3, 2, 1))
    w = (0, 1, 0, 3, 2, 0, 4)
    assert apply_word(w[::-1], apply_word(w, f)) == f
    assert apply_word(w, apply_word(w, f), inverse=True) == f


def test_generators_are_involutions():
    f = DivisorClass(9, (4, 3, 3, 2, 1))
    for g in (0, 1, 2, 3, 4):
        assert apply_word((g, g), f) == f


def test_cremona_needs_three_slots():
    with pytest.raises(InputError):
        apply_word((CREMONA,), DivisorClass(2, (1, 1)))
    with pytest.raises(InputError):
        apply_word((2,), DivisorClass(2, (1, 1)))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("word", [(-1,), (1, -2), (-4, 0)])
def test_apply_word_rejects_negative_generator(word, inverse):
    # A negative index must not swap slots counted from the end.
    with pytest.raises(InputError, match="out of range"):
        apply_word(word, DivisorClass(9, (4, 3, 3, 2, 1)), inverse=inverse)


words = st.lists(st.integers(0, 5), min_size=0, max_size=25).map(tuple)
classes6 = st.builds(
    DivisorClass,
    st.integers(-30, 30),
    st.lists(st.integers(-12, 12), min_size=6, max_size=6).map(tuple),
)


@given(words, classes6, classes6)
@settings(max_examples=150)
def test_word_preserves_form_and_canonical(ops, f, g):
    wf, wg = apply_word(ops, f), apply_word(ops, g)
    assert intersect(wf, wg) == intersect(f, g)
    assert selfint(wf) == selfint(f)
    k = canonical_class(6)
    assert intersect(k, wf) == intersect(k, f)


@given(words, classes6)
@settings(max_examples=150)
def test_reduce_chamber_outcome_word_invariant(ops, f):
    """Chamber membership is an orbit property and the chamber terminal is
    canonical. (Non-effective classes stop at the first witness, which may
    differ between orbit representatives.)"""
    rf = reduce(f)
    rg = reduce(apply_word(ops, f))
    assert (rf.status == IN_CHAMBER) == (rg.status == IN_CHAMBER)
    if rf.status == IN_CHAMBER:
        assert rf.reduced == rg.reduced


def _assert_plain(c):
    assert type(c.t) is int and type(c.m) is tuple
    assert all(type(v) is int for v in c.m)


@given(words, classes6)
@settings(max_examples=150)
def test_classes_are_plain_ints(ops, f):
    """DivisorClass coerces nothing: input is checked where it enters (parse,
    FatPointScheme), and every class built after that stays plain ints, so
    classes hash and serialize. The scheme is fed numpy integers on purpose."""
    z = FatPointScheme(tuple(np.abs(np.array(f.m, dtype=np.int64)) + 1))
    outs = [
        parse_class(format_class(f)),
        class_of(z, f.t),
        apply_word(ops, f),
        apply_word(ops, f, inverse=True),
        reduce(f).reduced,
    ]
    d = decompose(f)
    if d is not None:
        outs.append(d.h)
        outs.extend(c for c, _ in d.components)
    for c in outs:
        _assert_plain(c)


def _reference_generator(f, g):
    """Reference: one generator on a DivisorClass, as a fresh class."""
    if g == CREMONA:
        if f.n < 3:
            raise InputError("Cremona needs at least 3 multiplicity slots")
        c = f.t - f.m[0] - f.m[1] - f.m[2]
        return DivisorClass(f.t + c, (f.m[0] + c, f.m[1] + c, f.m[2] + c) + f.m[3:])
    i = g - 1
    if i + 1 >= f.n:
        raise InputError(f"swap s{g} out of range for {f.n} points")
    m = list(f.m)
    m[i], m[i + 1] = m[i + 1], m[i]
    return DivisorClass(f.t, tuple(m))


def _reference_word(w, f, inverse=False):
    """Reference: the generator-by-generator fold."""
    for g in reversed(w) if inverse else w:
        f = _reference_generator(f, g)
    return f


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        return ("InputError", str(exc))


any_classes = st.builds(
    DivisorClass,
    st.integers(-30, 30),
    st.lists(st.integers(-12, 12), min_size=0, max_size=7).map(tuple),
)
long_words = st.lists(st.integers(0, 7), min_size=0, max_size=40).map(tuple)


@given(long_words, any_classes, st.booleans())
@example((0,), DivisorClass(2, (1, 1)), False)
@example((1, 2), DivisorClass(2, (1, 1)), True)
@example((3,), DivisorClass(5, (1, 1, 1)), False)
@settings(max_examples=300)
def test_apply_word_matches_generator_fold(ops, f, inverse):
    assert _outcome(apply_word, ops, f, inverse=inverse) == _outcome(
        _reference_word, ops, f, inverse=inverse
    )


@given(
    st.builds(
        DivisorClass,
        st.integers(-40, 40),
        st.lists(st.integers(-15, 15), min_size=0, max_size=12).map(tuple),
    )
)
@example(DivisorClass(0, ()))
@example(DivisorClass(1, (1,)))
@example(DivisorClass(-1, (2, -3)))
@example(DivisorClass(13, (5, 5, 5, 5, 5, 5, 4, 1, 1, 1, 1)))
@settings(max_examples=400)
def test_reduce_class_matches_reduce(f):
    # The word-free loop sorts with list.sort and records nothing; it ends at
    # the same class (padded to 3 slots for n < 3) with the same status.
    rf = reduce(f)
    assert reduce_class(f) == (rf.reduced, rf.status)


def test_reduce_idempotent():
    f = DivisorClass(13, (5, 5, 5, 5, 5, 5, 4, 1, 1, 1, 1))
    rf = reduce(f)
    again = reduce(rf.reduced)
    assert again.reduced == rf.reduced
    assert len(again.word) == 0 or again.reduced == rf.reduced


def test_exceptional_predicate():
    assert is_exceptional(parse_class("1;1,1"))
    assert is_exceptional(parse_class("3;2,1,1,1,1,1,1"))
    assert is_exceptional(parse_class("0;-1"))
    assert not is_exceptional(parse_class("1;1"))
    assert not is_exceptional(parse_class("2;1,1"))


def test_enumeration_counts():
    assert len(enumerate_exceptional(1)) == 1
    assert len(enumerate_exceptional(3)) == 3
    assert [str(e) for e in enumerate_exceptional(3)] == [
        "1;1,1",
        "2;1,1,1,1,1",
        "3;2,1,1,1,1,1,1",
    ]


def test_enumeration_full_count():
    classes = enumerate_exceptional(20)
    assert len(classes) == 2051
    assert all(selfint(e) == -1 for e in classes[:50])
    for e in classes:
        _assert_plain(e)
    degrees = sorted({e.t for e in classes})
    assert degrees == list(range(1, 21))


def test_orbit_of_line():
    c = parse_class("12;5,5,5,4,4,4,4,2")
    w = orbit_of_line(c)
    assert w is not None
    assert apply_word(w, line_class(c.n)) == c
    assert orbit_of_line(parse_class("2;1,1")) is None


def test_line_reduction_trail():
    e = parse_class("13;5,5,5,5,5,5,4,1,1,1,1")
    word = line_reduction(e)
    assert all(isinstance(g, int) for g in word)
    assert apply_word(word, e) == DivisorClass(1, (1, 1) + (0,) * (e.n - 2))


def _reference_line_reduction(e):
    """Reference: the reduction loop that stops at the first degree-1 class."""
    if intersect(e, line_class(e.n)) < 1:
        raise InputError("line reduction needs a class of degree >= 1")
    g = e.pad_to(3) if e.n < 3 else e
    t, m = g.t, list(g.m)
    ops = []
    while True:
        for i in range(1, len(m)):
            j = i
            while j > 0 and m[j - 1] < m[j]:
                m[j - 1], m[j] = m[j], m[j - 1]
                ops.append(j)
                j -= 1
        if t == 1:
            break
        c = t - m[0] - m[1] - m[2]
        if c >= 0:
            raise InputError(f"class {e} is not in the line orbit")
        ops.append(CREMONA)
        t += c
        m[0] += c
        m[1] += c
        m[2] += c
    term = DivisorClass(t, tuple(m))
    if term.m[:2] != (1, 1) or any(term.m[2:]):
        raise InputError(f"class {e} is not in the line orbit")
    return tuple(ops), term


def _canon(t, m):
    ms = tuple(sorted(m, reverse=True))
    while ms and ms[-1] == 0:
        ms = ms[:-1]
    return t, ms


@lru_cache(maxsize=None)
def _reference_enumerate(max_degree):
    """Reference: breadth-first walk of every s_0 move (on each value triple
    of the multiplicities plus three zeros) from the line through two points,
    keeping a set of the classes seen."""
    if max_degree < 1:
        return []
    start = _canon(1, (1, 1))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t, m in frontier:
            values = list(m) + [0, 0, 0]
            triples = set()
            for a in range(len(values) - 2):
                for b in range(a + 1, len(values) - 1):
                    for c in range(b + 1, len(values)):
                        triples.add((values[a], values[b], values[c]))
            for v1, v2, v3 in triples:
                c0 = t - v1 - v2 - v3
                t2 = t + c0
                if not (1 <= t2 <= max_degree):
                    continue
                rest = list(m) + [0, 0, 0]
                for v in (v1, v2, v3):
                    rest.remove(v)
                child = _canon(t2, tuple(rest + [v1 + c0, v2 + c0, v3 + c0]))
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return [DivisorClass(t, m) for t, m in sorted(seen)]


@pytest.mark.parametrize("max_degree", range(-1, 19))
def test_enumeration_matches_breadth_first_reference(max_degree):
    classes = enumerate_exceptional(max_degree)
    assert classes == _reference_enumerate(max_degree)
    assert len(set(classes)) == len(classes)


@pytest.mark.extended
def test_enumeration_to_degree_28_matches_reference():
    classes = enumerate_exceptional(28)
    assert len(classes) == 17382
    assert classes == _reference_enumerate(28)


@given(st.data())
@settings(max_examples=200)
def test_line_reduction_matches_reference_loop(data):
    """Shuffled slots and padded zeros of exceptional classes of degree <= 16:
    the cut of reduce's word equals the reference loop's word, and that word
    ends at the line class (1; 1, 1, 0, ...) of max(n, 3) slots."""
    e = data.draw(st.sampled_from(_reference_enumerate(16)))
    pad = data.draw(st.integers(0, 3))
    f = DivisorClass(e.t, tuple(data.draw(st.permutations(e.m + (0,) * pad))))
    word, terminal = _reference_line_reduction(f)
    assert line_reduction(f) == word
    assert terminal == DivisorClass(1, (1, 1) + (0,) * (max(f.n, 3) - 2))


@pytest.mark.parametrize("text", ["1;1", "2;1,1", "0;-1", "1;"])
def test_line_reduction_rejects_non_line_orbit(text):
    e = parse_class(text)
    with pytest.raises(InputError):
        line_reduction(e)
    with pytest.raises(InputError):
        _reference_line_reduction(e)
