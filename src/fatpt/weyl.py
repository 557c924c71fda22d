"""Weyl group action and Cremona reduction on the blown-up plane.

The group is generated by the multiplicity swaps s_i (i >= 1, exchanging
slots i and i+1) and the quadratic Cremona reflection s_0 in the root
L - E_1 - E_2 - E_3. Every generator is an involution preserving the
intersection form and the canonical class.

A word is a tuple of generator indices, applied left to right: CREMONA (0)
for s_0, i >= 1 for the swap s_i. Since every generator is an involution,
the inverse of a word is its reverse.

``reduce`` drives a class into a terminal form by sorting multiplicities
descending (recording adjacent swaps) and applying s_0 while it decreases the
degree. Terminal statuses:

* NegL      -- the reduced class meets L negatively (degree < 0),
* NegLine   -- it meets L - E_1 negatively (degree < top multiplicity),
* InChamber -- degree >= m_1 + m_2 + m_3 with multiplicities sorted.

A class is effective only if reduction ends InChamber with the visible free
part; NegL / NegLine witnesses non-effectivity.

One loop does every reduction. ``reduce`` records the word as it goes;
``reduce_class`` runs the same loop for callers that read only the terminal
class and status, sorting each round with ``list.sort`` and recording
nothing. ``is_exceptional`` and ``linsys.expected_h0`` take that form.

A class is exceptional when it ends at a point class E_i, and this module is
the one place that checks it: the word of an exceptional class to a point
(``reduction_to_point``, ending at E_1) and to a line (``line_reduction``,
cut before the last s_0) both come from one checked ``reduce``;
``enumerate_exceptional`` walks the tree of its first step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .lattice import DivisorClass, canonical_class, intersect, line_class, point_class, selfint

CREMONA = 0

NEG_L = "NegL"
NEG_LINE = "NegLine"
IN_CHAMBER = "InChamber"


def format_word(w: tuple[int, ...]) -> str:
    return " ".join(f"s{i}" for i in w)


def apply_word(w: tuple[int, ...], f: DivisorClass, inverse: bool = False) -> DivisorClass:
    """w(f), generators applied left to right (right to left, that is
    w^{-1}(f), for ``inverse``). Folds over the (t, list) pair and builds one
    class at the end. Every generator index needs 0 <= g < n, and Cremona
    needs n >= 3."""
    n = f.n
    t, m = f.t, list(f.m)
    for g in reversed(w) if inverse else w:
        if g == CREMONA:
            if n < 3:
                raise InputError("Cremona needs at least 3 multiplicity slots")
            c = t - m[0] - m[1] - m[2]
            t += c
            m[0] += c
            m[1] += c
            m[2] += c
        elif 0 < g < n:
            m[g - 1], m[g] = m[g], m[g - 1]
        else:
            raise InputError(f"swap s{g} out of range for {n} points")
    return DivisorClass(t, tuple(m))


@dataclass(frozen=True)
class ReducedForm:
    """Result of reduction: terminal class, the word that got there, status.

    apply_word(word, original) == reduced, and apply_word(word, reduced,
    inverse=True) recovers the original.
    """

    reduced: DivisorClass
    word: tuple[int, ...]
    status: str


def _sort_ops(m: list[int]) -> list[int]:
    """Stable descending insertion sort, returning the adjacent swaps used."""
    ops = []
    for i in range(1, len(m)):
        j = i
        while j > 0 and m[j - 1] < m[j]:
            m[j - 1], m[j] = m[j], m[j - 1]
            ops.append(j)
            j -= 1
    return ops


def _reduce(f: DivisorClass, ops: list[int] | None) -> tuple[DivisorClass, str]:
    """The reduction loop: terminal class and status. The word goes into
    ``ops`` when it is a list; with None the loop sorts without recording."""
    g = f.pad_to(3) if f.n < 3 else f
    t, m = g.t, list(g.m)
    while True:
        if ops is None:
            m.sort(reverse=True)
        else:
            ops.extend(_sort_ops(m))
        if t < 0:
            status = NEG_L
            break
        c = t - m[0] - m[1] - m[2]
        if c >= 0:
            status = NEG_LINE if t < m[0] else IN_CHAMBER
            break
        if ops is not None:
            ops.append(CREMONA)
        t += c
        m[0] += c
        m[1] += c
        m[2] += c
    return DivisorClass(t, tuple(m)), status


def reduce(f: DivisorClass) -> ReducedForm:
    """Cremona reduction. Classes with n < 3 are padded to 3 slots first, so
    the terminal class (and word) always has max(n, 3) slots."""
    ops: list[int] = []
    reduced, status = _reduce(f, ops)
    return ReducedForm(reduced, tuple(ops), status)


def reduce_class(f: DivisorClass) -> tuple[DivisorClass, str]:
    """``reduce``'s terminal class and status, without building the word."""
    return _reduce(f, None)


def _is_point_terminal(reduced: DivisorClass) -> bool:
    """Whether a terminal of ``reduce`` is the point class E_n."""
    return reduced.t == 0 and reduced.m[-1] == -1 and not any(reduced.m[:-1])


def is_exceptional(e: DivisorClass) -> bool:
    """True for Weyl images of the point classes E_i: self-intersection -1,
    K.E = -1, and reduction terminates at a single -1 multiplicity."""
    if selfint(e) != -1 or intersect(canonical_class(e.n), e) != -1:
        return False
    return _is_point_terminal(reduce_class(e)[0])


def orbit_of_line(c: DivisorClass) -> tuple[int, ...] | None:
    """A word w with apply_word(w, L) == c, when c is in the orbit of L
    (equivalently reduce(c) terminates at L); None otherwise."""
    r = reduce(c)
    if r.reduced != line_class(r.reduced.n):
        return None
    return r.word[::-1]


def enumerate_exceptional(max_degree: int) -> list[DivisorClass]:
    """All exceptional classes with 1 <= E.L <= max_degree, canonicalized
    (multiplicities sorted descending, trailing zeros stripped), sorted by
    (degree, multiplicities).

    Walks the tree of ``reduce``'s first step from the line through two
    points, so each class comes out once (reverse search). Above degree 1,
    s_0 on the three largest multiplicities (each becomes d - m_j - m_k >= 0)
    gives a class's one parent; the children of (t, m) raise one value triple
    v_a >= v_b >= v_c of m and three zeros by c = t - v_a - v_b - v_c > 0, when
    the raised values stay the three largest.

    A child has degree 2t - S for S = v_a + v_b + v_c, so it needs
    2t - D <= S <= t - 1 at D = max_degree (slots counted from 0 here). The
    walk therefore skips nodes with t >= D, which have no child; stops the a
    loop once v_a + v_{a+1} + v_{a+2} < 2t - D; skips every b whose smallest
    raised value t - v_a - v_b is below v_0 (a > 0) or v_1 (a = 0, where no
    c works at b = 1); and takes v_c only from the window
    [t - v_a - v_b + t - D, t - v_a - v_b).
    """
    found = []
    stack = [(1, (1, 1))] if max_degree >= 1 else []
    while stack:
        t, m = stack.pop()
        found.append((t, m))
        if t >= max_degree:
            continue
        vals = m + (0, 0, 0)
        least = 2 * t - max_degree  # the least S of a child
        # Each value triple is taken at the first slots its values occupy.
        firsts = [i for i, v in enumerate(vals) if i == 0 or v != vals[i - 1]]
        for a in firsts:
            va = vals[a]
            if va + vals[a + 1] + vals[a + 2] < least:
                break
            for b in [a + 1] + [i for i in firsts if i > a + 1]:
                low = t - va - vals[b]  # the smallest raised value
                if low + t - vals[b + 1] > max_degree:
                    break
                # The raised values stay the three largest: low is at least
                # the largest kept value, vals[0] for a > 0 and vals[1] for
                # b > 1. The test against vals[1] also drops (a, b) = (0, 1),
                # where no c works: every node has t < v_0 + v_1 + v_2 (it is
                # the root, or s_0 lowers it), so there low < v_2. Past it,
                # every vals[c] is below low: below vals[0] for a > 0, and for
                # a = 0 below vals[1], as b > 1 is a first slot. So of the c
                # window [low + t - D, low) only the lower end is tested.
                if low < vals[1 if a == 0 else 0]:
                    continue
                for c in [b + 1] + [i for i in firsts if i > b + 1]:
                    t2 = low + t - vals[c]
                    if t2 > max_degree:
                        break
                    kept = vals[:a] + vals[a + 1 : b] + vals[b + 1 : c] + vals[c + 1 :]
                    child = (t - vals[b] - vals[c], t - va - vals[c], low) + kept
                    stack.append((t2, child[: len(child) - child.count(0)]))
    found.sort()
    return [DivisorClass(t, m) for t, m in found]


def _point_word(e: DivisorClass) -> tuple[int, ...]:
    """``reduce``'s word for e, which must end at the point class E_n of
    max(n, 3) slots; InputError when e is not exceptional."""
    r = reduce(e)
    if not _is_point_terminal(r.reduced):
        raise InputError(f"{e} is not an exceptional class")
    return r.word


def reduction_to_point(e: DivisorClass) -> tuple[int, ...]:
    """A word sending the exceptional class e to E_1 of max(n, 3) slots:
    ``reduce``'s word, then the swaps moving slot n to slot 1."""
    return _point_word(e) + tuple(range(max(e.n, 3) - 1, 0, -1))


def line_reduction(e: DivisorClass) -> tuple[int, ...]:
    """A word sending an exceptional class of degree >= 1 to the line class
    (1; 1, 1, 0, ..., 0) of max(n, 3) slots, the proper transform of a line
    through two points: ``reduce``'s word cut before its last s_0, which
    sends that line to a point.
    """
    if e.t < 1:
        raise InputError("line reduction needs a class of degree >= 1")
    word = _point_word(e)
    cut = max(i for i, g in enumerate(word) if g == CREMONA)
    return word[:cut]


def exceptional_points(w: tuple[int, ...], n: int) -> list[DivisorClass]:
    """The images w(E_i) for i = 1..n (classes of the exceptional curves
    after transporting by w)."""
    return [apply_word(w, point_class(i, n)) for i in range(1, n + 1)]
