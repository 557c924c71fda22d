"""Splitting types of exceptional curves and their prediction.

The restricted tangent bundle of the plane to a rational curve of degree d
splits as O(a) + O(b) with a + b = d; the pair (a, b), a <= b, is the curve's
splitting type. For the image of an exceptional curve of degree d and maximal
multiplicity m the allowed range is

    min(m, d-m) <= a <= min(d-m, floor(d/2)),

a single forced value exactly when d <= 2m+1.

``compute_splittings`` determines (a, b) for explicit curves over F_p, of
one class or of many. Each class is reduced once to a line through two of
its points (``weyl.line_reduction``). A draw takes a random point
configuration, replays the reduction on the points (recording each Cremona's
base triangle), then pushes 2d+1 points of the final line back through the
Cremonas, most recent first. Each lands, up to scale, on the plane image of
the curve at its parameter, and the syzygy degree a is read off those points
from two exact syzygy counts (``exactla.syzygy_degrees``); the second count
also rejects a draw whose image has dropped degree. This is a randomized
computation over one prime: results are correct for the drawn configuration
but only provisional as statements about the generic curve, and reports
label them so.

Draws are stacks, not loops. Every draw of every class of one degree is
one (k, N, 3) array, ``_CHUNK`` draws at a time: each member's word is
replayed over it in lockstep with batched 3x3 inverses (each member with its
own row orders and its own number of Cremonas), the parameters are pushed
back over all of it, and the syzygy degrees of the live draws are read in
one recursion over the stack. A rejected draw carries the reason its first
failing check gives and is drawn again under its trial's next seed, so
every trial sees the draws, and casts the vote, it would alone.

``splitting_types`` is the single place that decides between the two: the
closed form when the degree forces the type, else ``compute_splittings``
(marked provisional), with the classes that need draws drawn together.
``splitting_type`` is its one-class case. It is memoized per (class, prime,
seed, trials); the command line clears the memo at the start of every
request, and ``sweep`` fills it for all of its classes at once, so the
cokernel verification that follows reads it. ``splittings_of`` and
``splitting_of`` are the same decision under the seed rule shared by the
commands and the cokernel and Betti layers.

``predict_splitting`` is the deterministic conjecture: among the allowed
(a, b) it returns the most balanced pair whose genus-like score
(a-1)(a-2)/2 + (b-1)(b-2)/2 is at least the defect sum of the conjugate point
classes, a quantity computable from forced types and recursive splittings.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import _kernels
from .errors import ConjectureViolation, InfeasibleError, InputError
from .exactla import DEFAULT_PRIME, check_prime, syzygy_degrees
from .lattice import DivisorClass, binom2, selfint
from .weyl import CREMONA, exceptional_points, is_exceptional, line_reduction, orbit_of_line

DEFAULT_SEED = 20260814
RETRY_CAP = 10


def derive_seed(*parts: int) -> int:
    """Deterministically fold seed components into one int (no hash()
    involved, so results are stable across processes and platforms)."""
    h = 0
    for v in parts:
        h = (h * 1000003 + int(v) + 0x9E3779B9) % (1 << 63)
    return h


@dataclass(frozen=True)
class SplittingType:
    a: int
    b: int

    def __post_init__(self):
        if not (0 <= self.a <= self.b):
            raise InputError(f"splitting type needs 0 <= a <= b, got ({self.a}, {self.b})")

    @property
    def degree(self) -> int:
        return self.a + self.b

    def __iter__(self):
        return iter((self.a, self.b))

    def __str__(self):
        return f"({self.a},{self.b})"


def draw_points(n: int, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED) -> np.ndarray:
    """n uniform random points of P^2 over F_p, rows of an (n, 3) int64
    array; all-zero rows are redrawn."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, p, size=(n, 3), dtype=np.int64)
    for i in np.flatnonzero(~pts.any(axis=1)):
        while not pts[i].any():
            pts[i] = rng.integers(0, p, size=3, dtype=np.int64)
    return pts


def _type_range(d: int, m: int) -> tuple[int, int]:
    """The least and largest a of an allowed type (a, d - a) for degree d and
    maximal multiplicity m; never empty."""
    if d < 1:
        raise InputError(f"splitting needs degree >= 1, got {d}")
    if not (0 <= m <= d):
        raise InputError(f"multiplicity {m} out of range for degree {d}")
    return min(m, d - m), min(d - m, d // 2)


def candidate_pairs(d: int, m: int) -> tuple[SplittingType, ...]:
    """Allowed splitting types for degree d and maximal multiplicity m."""
    lo, hi = _type_range(d, m)
    return tuple(SplittingType(a, d - a) for a in range(lo, hi + 1))


def split_bounds(e: DivisorClass) -> tuple[SplittingType, ...]:
    """Allowed types for an exceptional class of degree >= 1."""
    if not is_exceptional(e):
        raise InputError(f"{e} is not an exceptional class")
    if e.t < 1:
        raise InputError("point classes E_i have no plane image to split")
    return candidate_pairs(e.t, max(e.m))


def forced_type(d: int, m: int) -> SplittingType | None:
    """The unique allowed type when d <= 2m+1, else None."""
    lo, hi = _type_range(d, m)
    return SplittingType(lo, d - lo) if lo == hi else None


def _inv3(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverses mod p of a (k, 3, 3) stack of matrices with entries in
    [0, p), via the adjugate, and their determinants; a singular matrix gets
    the zero matrix. Each product is reduced before a sum: three products
    below p**2 overflow int64 for p near 2**31."""
    # adj[i][j] = M[j+1][i+1] M[j+2][i+2] - M[j+1][i+2] M[j+2][i+1], indices
    # mod 3, gathered from the flattened matrices in one step.
    f = m.reshape(len(m), 9)[:, [
        [4, 7, 1, 5, 8, 2, 3, 6, 0],
        [8, 2, 5, 6, 0, 3, 7, 1, 4],
        [5, 8, 2, 3, 6, 0, 4, 7, 1],
        [7, 1, 4, 8, 2, 5, 6, 0, 3],
    ]]
    adj = (f[:, 0] * f[:, 1] % p - f[:, 2] * f[:, 3] % p) % p
    det = (m[:, 0] * adj[:, ::3] % p).sum(axis=1) % p
    return (adj * _kernels.inverses(det, p)[:, None] % p).reshape(-1, 3, 3), det


def _matvec(m: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """M x mod p for each row x of each member: m is (k, 3, 3), x is
    (k, r, 3), entries in [0, p). x is split into its bits from 16 up and
    its low 16 bits, one matrix product each: every intermediate stays below
    2**49, so int64 is exact for every p below 2**31."""
    mt = m.transpose(0, 2, 1)
    return ((x >> 16) @ mt % p * 65536 + (x & 65535) @ mt) % p


def _quadratic(y: np.ndarray, p: int) -> np.ndarray:
    """q(y) = (y2 y3, y1 y3, y1 y2) mod p for each point y (last axis)."""
    return y[..., [1, 0, 0]] * y[..., [2, 2, 1]] % p


def _reject(reasons: list, mask: np.ndarray, reason: str) -> None:
    """Give ``reason`` to the members in ``mask`` that have none yet."""
    if mask.any():
        for i in np.flatnonzero(mask).tolist():
            reasons[i] = reasons[i] or reason


def _row_orders(word: tuple[int, ...], n: int) -> np.ndarray:
    """The (c + 1, n) row orders of a word with c Cremonas: row s is the run
    of swaps before Cremona s composed into one permutation, applied as
    ``pts[order]``; the last row is the run after the last Cremona."""
    order = list(range(n))
    orders = []
    for op in word:
        if op != CREMONA:
            order[op - 1], order[op] = order[op], order[op - 1]
            continue
        orders.append(order)
        order = list(range(n))
    orders.append(order)
    return np.array(orders, dtype=np.intp)


def _undo_cremonas(mats: np.ndarray, active: list[int], pts: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Push a (k, r, 3) stack of points back through each member's recorded
    Cremonas, most recent first: P <- M q(P), with M = mats[i, s] for
    member i's Cremona s. The members come sorted by their number of
    Cremonas, most first, so the first active[s] of them are the ones that
    have a step s, and the step applies to those only. Returns the points
    (``pts`` is overwritten) and a mask of the points that survive every
    step; a point with q(P) = 0 sits on a base point of that undo and has
    no image."""
    alive = np.ones(pts.shape[:2], dtype=bool)
    for s in reversed(range(mats.shape[1])):
        a = active[s]
        q = _quadratic(pts[:a], p)
        alive[:a] &= q.any(axis=2)
        pts[:a] = _matvec(mats[:a, s], q, p)
    return pts, alive


def parametrize(words, configs, d: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """(t, pts, mats, reasons) for a stack of draws of degree-d classes:
    member i is the configuration configs[i] (an (n_i, 3) array, as
    ``draw_points`` gives it) of a class whose line reduction is words[i].
    For each member, pts[i, j] is a point over F_p of the plane image of its
    curve at parameter t[i, j], up to scale, for 2d+1 parameters; mats[i, s]
    is the matrix of its Cremona s, for s below its number of Cremonas (the
    rest are 0); ``reasons`` holds None, or why that draw is rejected.

    Every member is replayed in one (k, N, 3) stack, N the largest n_i; the
    padding rows of shorter configurations take no part in any check. Before
    each Cremona, each member's rows are put in its own order (the run of
    swaps since its last Cremona, composed). A Cremona maps x to q(M^-1 x)
    with q(y) = (y2 y3, y1 y3, y1 y2) and M the matrix of the first three
    points; those three become the coordinate vertices. Members are sorted
    by their number of Cremonas, so the ones that still have a step s are a
    prefix of the stack, and a member with no more steps is left alone. A
    member is rejected, with the reason of its first failing check, at its
    first Cremona with collinear centers or with a point that q sends to 0,
    or for a final line with a zero component.

    The final line of each is P = t A + B for its first two points A and B;
    the parameters t = 0, 1, 2, ... are pushed back through the reduction,
    and parameters that hit a base point of some undo are dropped (t = 0
    often is, so the first batch has one spare parameter). Each draw keeps
    its first 2d+1 surviving parameters. The caller validates p.
    """
    k = len(configs)
    cache: dict = {}
    member_orders = []
    for word, x in zip(words, configs):
        key = (word, len(x))
        if key not in cache:
            cache[key] = _row_orders(*key)
        member_orders.append(cache[key])
    counts = np.array([len(o) - 1 for o in member_orders], dtype=np.int64)
    by_count = np.argsort(-counts, kind="stable")
    n_max = max(len(x) for x in configs)
    steps = int(counts.max())
    active = [int((counts > s).sum()) for s in range(steps)]
    perm = np.tile(np.arange(n_max), (k, steps + 1, 1))
    pts = np.zeros((k, n_max, 3), dtype=np.int64)
    sizes = np.empty(k, dtype=np.int64)
    for row, i in enumerate(by_count.tolist()):
        o = member_orders[i]
        c, n = o.shape[0] - 1, o.shape[1]
        perm[row, :c, :n] = o[:-1]
        perm[row, steps, :n] = o[-1]
        pts[row, :n] = configs[i]
        sizes[row] = n
    real = np.arange(3, n_max) < sizes[:, None]

    reasons: list = [None] * k
    mats = np.zeros((k, steps, 3, 3), dtype=np.int64)
    for s, a in enumerate(active):
        x = np.take_along_axis(pts[:a], perm[:a, s, :, None], axis=1)
        m = mats[:a, s]
        m[:] = x[:, :3].transpose(0, 2, 1)
        inv, det = _inv3(m, p)
        _reject(reasons, det == 0, "collinear Cremona centers")
        q = _quadratic(_matvec(inv, x[:, 3:], p), p)
        _reject(reasons, (~q.any(axis=2) & real[:a]).any(axis=1), "point collides with a Cremona center")
        x[:, 3:] = q
        x[:, :3] = np.eye(3, dtype=np.int64)
        pts[:a] = x
    pts = np.take_along_axis(pts, perm[:, steps, :, None], axis=1)
    _reject(reasons, ~(pts[:, :2] != 0).any(axis=1).all(axis=1), "degenerate final line")
    need = 2 * d + 1

    def push_back(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _undo_cremonas(mats, active, (ts[:, None] * pts[:, None, 0] + pts[:, None, 1]) % p, p)

    t = np.arange(min(need + 1, p), dtype=np.int64)
    image, alive = push_back(t)
    live = np.array([r is None for r in reasons])
    while len(t) < p and (alive[live].sum(axis=1) < need).any():
        more = np.arange(len(t), min(len(t) + need, p), dtype=np.int64)
        more_image, more_alive = push_back(more)
        t = np.concatenate([t, more])
        image = np.concatenate([image, more_image], axis=1)
        alive = np.concatenate([alive, more_alive], axis=1)
    _reject(reasons, alive.sum(axis=1) < need, f"fewer than {need} parameters of F_{p} avoid the base points")
    first = np.argsort(~alive, axis=1, kind="stable")[:, :need]
    back = np.empty(k, dtype=np.intp)
    back[by_count] = np.arange(k)
    image = np.take_along_axis(image, first[:, :, None], axis=1)
    return t[first][back], image[back], mats[back], [reasons[i] for i in back.tolist()]


# Draws replayed and classified as one stack: this bounds the memory of the
# replay, of the parameters pushed back and of the syzygy recursion.
_CHUNK = 128


def _draw(draws, p: int) -> list:
    """One outcome per draw. Each draw is (class, word, cands, seed): the
    class, its line reduction, its allowed types and the seed of its
    configuration, ``draw_points(max(n, 3), p, seed)``. Consecutive draws of
    one degree are replayed and classified together, ``_CHUNK`` at a time.
    An outcome is the type, or the reason the draw is rejected, in the order
    the checks of one draw run: the replay, the final line, the parameters,
    the two syzygy nullities, the allowed range."""
    out: list = []
    for d, run in groupby(draws, key=lambda draw: draw[0].t):
        run = list(run)
        for lo in range(0, len(run), _CHUNK):
            chunk = run[lo : lo + _CHUNK]
            t, pts, _, outcomes = parametrize(
                [word for _, word, _, _ in chunk], [draw_points(max(e.n, 3), p, s) for e, _, _, s in chunk], d, p
            )
            live = [i for i, why in enumerate(outcomes) if why is None]
            for i, a in zip(live, syzygy_degrees(t[live], pts[live], d, p) if live else ()):
                if isinstance(a, str):
                    outcomes[i] = a
                    continue
                st = SplittingType(a, d - a)
                outcomes[i] = st if st in chunk[i][2] else f"type {st} outside the allowed range"
            out += outcomes
    return out


def compute_splittings(
    classes, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED, trials: int = 3
) -> list[SplittingType]:
    """Splitting type of the plane image of each class over F_p, majority
    over ``trials`` independent configurations.

    Trial i of a class draws under derive_seed(seed, i, attempt) for
    attempt 0, 1, ...: a degenerate draw is drawn again under the next
    attempt, up to ``RETRY_CAP``. Each class is reduced once, and every draw
    reads that word. Each attempt is one ``_draw`` over the open trials of
    every class, which stacks the draws of consecutive classes of one
    degree. The votes are counted in trial order. If some trial runs out of
    attempts, InfeasibleError names the first such class in the given
    order, with that trial's rejections counted by reason.
    """
    if trials < 1:
        raise InputError(f"trials {trials}: the vote needs at least one trial")
    check_prime(p)
    classes = list(classes)
    words = [line_reduction(e)[0] for e in classes]
    cands = [candidate_pairs(e.t, max(e.m)) for e in classes]
    results = [[None] * trials for _ in classes]
    rejected = defaultdict(Counter)
    for attempt in range(RETRY_CAP):
        todo = [(c, i) for c, res in enumerate(results) for i, r in enumerate(res) if r is None]
        if not todo:
            break
        draws = [(classes[c], words[c], cands[c], derive_seed(seed, i, attempt)) for c, i in todo]
        for (c, i), got in zip(todo, _draw(draws, p)):
            if isinstance(got, str):
                rejected[c, i][got] += 1
            else:
                results[c][i] = got
    for c, res in enumerate(results):
        for i, r in enumerate(res):
            if r is None:
                reasons = "; ".join(f"{reason}: {k}" for reason, k in rejected[c, i].most_common())
                raise InfeasibleError(
                    f"no nondegenerate configuration in {RETRY_CAP} attempts for {classes[c]} over F_{p} ({reasons})"
                )
    return [Counter(res).most_common(1)[0][0] for res in results]


def compute_splitting(
    e: DivisorClass, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED, trials: int = 3
) -> SplittingType:
    """``compute_splittings`` of one class."""
    return compute_splittings([e], p, seed, trials)[0]


# (type, provisional) by (class, prime, seed, trials). The command line
# clears it at the start of every request.
_memo: dict = {}


def clear_memo() -> None:
    _memo.clear()


def splitting_types(classes, p: int, seed, trials: int = 3) -> list[tuple[SplittingType, bool]]:
    """(type, provisional) of each class: the closed form when the degree
    forces the type, else ``compute_splittings`` with this exact seed
    (marked provisional), memoized. The classes that need a draw are drawn
    together, in the given order."""
    keys = [(e, p, seed, trials) for e in classes]
    todo = []
    for e, key in zip(classes, keys):
        if key not in _memo:
            st = forced_type(e.t, max(e.m))
            if st is None:
                todo.append(e)
            else:
                _memo[key] = (st, False)
    todo = list(dict.fromkeys(todo))
    for e, st in zip(todo, compute_splittings(todo, p, seed, trials) if todo else ()):
        _memo[e, p, seed, trials] = (st, True)
    return [_memo[key] for key in keys]


def splitting_type(e: DivisorClass, p: int, seed, trials: int = 3) -> tuple[SplittingType, bool]:
    """``splitting_types`` of one class; a memoized class skips the lists."""
    return _memo.get((e, p, seed, trials)) or splitting_types([e], p, seed, trials)[0]


_COMMAND_STREAM = 757


def splittings_of(
    classes, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED, trials: int = 3
) -> list[tuple[SplittingType, bool]]:
    """``splitting_types`` under the seed rule of the commands, the cokernel
    verifier and the Betti assembly: the randomized draws use
    derive_seed(seed, 757)."""
    return splitting_types(classes, p, derive_seed(seed, _COMMAND_STREAM), trials)


def splitting_of(
    e: DivisorClass, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED, trials: int = 3
) -> tuple[SplittingType, bool]:
    """``splitting_type`` under the seed rule of ``splittings_of``."""
    return splitting_type(e, p, derive_seed(seed, _COMMAND_STREAM), trials)


def defect_sum(
    w: tuple[int, ...],
    n: int,
    p: int = DEFAULT_PRIME,
    seed=DEFAULT_SEED,
    trials: int = 3,
) -> int:
    """sum_i binom2(a_i) + binom2(b_i) over the splitting types of the
    conjugate point classes w(E_1), ..., w(E_n)."""
    return _defect_pass(w, n, p, seed, trials)[0]


def _defect_pass(w: tuple[int, ...], n: int, p: int, seed, trials: int) -> tuple[int, bool]:
    """(defect sum, whether any conjugate type came from the randomized
    pipeline), in one walk over the conjugate point classes; degree-0
    classes contribute nothing."""
    total = 0
    provisional = False
    for i, c in enumerate(exceptional_points(w, n)):
        if c.t:
            st, prov = splitting_type(c, p, derive_seed(seed, 101, i), trials)
            total += binom2(st.a) + binom2(st.b)
            provisional = provisional or prov
    return total, provisional


@dataclass(frozen=True)
class SplitPrediction:
    type: SplittingType
    defect: int
    score: int
    rejected: tuple[tuple[SplittingType, int], ...]
    provisional: bool


def _score(st: SplittingType) -> int:
    return binom2(st.a - 1) + binom2(st.b - 1)


def predict_report(
    c: DivisorClass,
    p: int = DEFAULT_PRIME,
    seed=DEFAULT_SEED,
    trials: int = 3,
) -> SplitPrediction:
    """Conjectural splitting type of a degree-d rational curve class with
    c.c = 1 (a Weyl image of the line), or of an exceptional class via its
    companion with two multiplicity-1 slots removed."""
    if c.n and is_exceptional(c):
        ones = [i for i, v in enumerate(c.m) if v == 1]
        if len(ones) < 2:
            raise InputError(
                f"exceptional {c} has no companion: needs two multiplicity-1 slots"
            )
        kept = [v for i, v in enumerate(c.m) if i not in ones[-2:]]
        return predict_report(DivisorClass(c.t, tuple(kept)), p, seed, trials)
    if selfint(c) != 1:
        raise InputError(f"prediction needs c.c = 1 or an exceptional class, got {c}")
    if c.t < 1 or any(v < 0 for v in c.m):
        raise InputError(f"{c} is not the class of a rational plane curve")
    w = orbit_of_line(c)
    if w is None:
        raise InputError(f"{c} is not in the Weyl orbit of the line")
    m = max(c.m) if c.n else 0
    cands = candidate_pairs(c.t, m)
    if len(cands) == 1:
        return SplitPrediction(cands[0], 0, _score(cands[0]), (), False)
    ds, provisional = _defect_pass(w, c.n, p, seed, trials)
    feasible = [st for st in cands if _score(st) >= ds]
    if not feasible:
        raise ConjectureViolation(
            f"no allowed splitting of {c} has score >= defect sum {ds}"
        )
    best = min(feasible, key=_score)
    rejected = tuple((st, _score(st)) for st in cands if _score(st) < ds)
    return SplitPrediction(best, ds, _score(best), rejected, provisional)


def predict_splitting(
    c: DivisorClass,
    p: int = DEFAULT_PRIME,
    seed=DEFAULT_SEED,
    trials: int = 3,
) -> SplittingType:
    return predict_report(c, p, seed, trials).type
