"""Splitting types of exceptional curves and their prediction.

The restricted tangent bundle of the plane to a rational curve of degree d
splits as O(a) + O(b) with a + b = d; the pair (a, b), a <= b, is the curve's
splitting type. For the image of an exceptional curve of degree d and maximal
multiplicity m the allowed range is

    min(m, d-m) <= a <= min(d-m, floor(d/2)),

a single forced value exactly when d <= 2m+1.

``compute_splitting`` determines (a, b) for an explicit curve over F_p:
reduce the class to a line through two of the points once
(``weyl.line_reduction``), then for each draw take a random point
configuration, replay the reduction on the points (recording each Cremona's
base triangle), then push 2d+1 points of the final line back through the
Cremonas, most recent first. Each lands, up to scale, on the plane image of
the curve at its parameter, and the syzygy degree a is read off those points
with two exact ranks (``min_syzygy_degree``); the second rank also rejects a
draw whose image has dropped degree. This is a randomized computation over
one prime: results are correct for the drawn configuration but only
provisional as statements about the generic curve, and reports label them
so.

``splitting_type`` is the single place that decides between the two: the
closed form when the degree forces the type, else ``compute_splitting``
(marked provisional). It is memoized per (class, prime, seed, trials); the
command line clears the memo at the start of every request. ``splitting_of``
is the same decision under the seed rule shared by the commands and the
cokernel and Betti layers.

``predict_splitting`` is the deterministic conjecture: among the allowed
(a, b) it returns the most balanced pair whose genus-like score
(a-1)(a-2)/2 + (b-1)(b-2)/2 is at least the defect sum of the conjugate point
classes, a quantity computable from forced types and recursive splittings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConjectureViolation, DegenerateConfiguration, InfeasibleError, InputError
from .exactla import DEFAULT_PRIME, check_prime, min_syzygy_degree
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
    for i in range(n):
        while not pts[i].any():
            pts[i] = rng.integers(0, p, size=3, dtype=np.int64)
    return pts


def candidate_pairs(d: int, m: int) -> tuple[SplittingType, ...]:
    """Allowed splitting types for degree d and maximal multiplicity m."""
    if d < 1:
        raise InputError(f"splitting needs degree >= 1, got {d}")
    if not (0 <= m <= d):
        raise InputError(f"multiplicity {m} out of range for degree {d}")
    lo = min(m, d - m)
    hi = min(d - m, d // 2)
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
    cands = candidate_pairs(d, m)
    return cands[0] if len(cands) == 1 else None


def _inv3(mat: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a 3x3 matrix mod p via the adjugate; raises on det 0."""
    a, b, c = (int(v) for v in mat[0])
    d, e, f = (int(v) for v in mat[1])
    g, h, i = (int(v) for v in mat[2])
    det = (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
    if det == 0:
        raise DegenerateConfiguration("collinear Cremona centers")
    inv = pow(det, p - 2, p)
    adj = np.array(
        [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ],
        dtype=np.int64,
    )
    return adj % p * inv % p


def _matvec(m: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """M x mod p for each row x. Each product is reduced before the sum:
    three products below p**2 overflow int64 for p near 2**31."""
    return (x[:, None, :] * m % p).sum(axis=2) % p


def _quadratic(y: np.ndarray, p: int) -> np.ndarray:
    """q(y) = (y2 y3, y1 y3, y1 y2) mod p for each row y."""
    return np.stack([y[:, 1] * y[:, 2], y[:, 0] * y[:, 2], y[:, 0] * y[:, 1]], axis=1) % p


def _replay_points(word: tuple[int, ...], pts: np.ndarray, p: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Transport a point configuration through a reduction word.

    Swaps permute rows; each run of them is composed into one permutation
    of the rows, applied before the next Cremona. A Cremona maps x to
    q(M^-1 x) with q(y) = (y2 y3, y1 y3, y1 y2) and M the matrix of the
    first three points; those three become the coordinate vertices. Returns
    the final points and the stack of Cremona matrices M in application
    order.
    """
    order = list(range(len(pts)))
    mats: list[np.ndarray] = []
    for op in word:
        if op != CREMONA:
            order[op - 1], order[op] = order[op], order[op - 1]
            continue
        pts = pts[order]
        order = list(range(len(pts)))
        m = pts[:3].T % p
        mats.append(m)
        q = _quadratic(_matvec(_inv3(m, p), pts[3:], p), p)
        if not q.any(axis=1).all():
            raise DegenerateConfiguration("point collides with a Cremona center")
        pts[3:] = q
        pts[:3] = np.eye(3, dtype=np.int64)
    return pts[order], mats


def _undo_cremonas(mats: list[np.ndarray], pts: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Push points back through the recorded Cremonas, most recent first:
    P <- M q(P). Returns the points and a mask of the rows that survive
    every step; a row with q(P) = 0 sits on a base point of that undo and
    has no image."""
    alive = np.ones(len(pts), dtype=bool)
    for m in reversed(mats):
        q = _quadratic(pts, p)
        alive &= q.any(axis=1)
        pts = _matvec(m, q, p)
    return pts, alive


def parametrize(word: tuple[int, ...], d: int, n: int, p: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """(t, pts): 2d+1 points over F_p of the plane image of the degree-d
    exceptional curve on n points whose line reduction is ``word``, through
    the configuration ``draw_points`` gives for this seed, the point pts[j]
    at parameter t[j], each up to scale.

    The final line of the replayed configuration is P = t A + B for its
    first two points A and B; each parameter t = 0, 1, 2, ... is pushed
    back through the reduction, and parameters that hit a base point of
    some undo are dropped (t = 0 often is, so the first batch has one spare
    parameter). The caller validates p.
    """
    pts, mats = _replay_points(word, draw_points(max(n, 3), p, seed), p)
    if not (pts[:2] != 0).any(axis=0).all():
        raise DegenerateConfiguration("degenerate final line")
    need = 2 * d + 1
    ts, curve = [], []
    start = 0
    while need > 0 and start < p:
        t = np.arange(start, min(start + need + (start == 0), p), dtype=np.int64)
        start += len(t)
        image, alive = _undo_cremonas(mats, (t[:, None] * pts[0] % p + pts[1]) % p, p)
        ts.append(t[alive])
        curve.append(image[alive])
        need -= int(alive.sum())
    if need > 0:
        raise DegenerateConfiguration(f"fewer than {2 * d + 1} parameters of F_{p} avoid the base points")
    return np.concatenate(ts)[: 2 * d + 1], np.concatenate(curve)[: 2 * d + 1]


def _splitting_once(
    e: DivisorClass, word: tuple[int, ...], cands: tuple[SplittingType, ...], p: int, seed
) -> SplittingType:
    """One draw for e, given its line reduction ``word`` and its allowed
    types ``cands``."""
    t, pts = parametrize(word, e.t, e.n, p, seed)
    a = min_syzygy_degree(t, pts, e.t, p)
    st = SplittingType(a, e.t - a)
    if st not in cands:
        raise DegenerateConfiguration(f"type {st} outside the allowed range")
    return st


def compute_splitting(
    e: DivisorClass,
    p: int = DEFAULT_PRIME,
    seed=DEFAULT_SEED,
    trials: int = 3,
) -> SplittingType:
    """Splitting type of the plane image of e over F_p, majority over
    ``trials`` independent configurations. Degenerate draws are retried with
    fresh derived seeds up to a cap, then reported as infeasible, with the
    trial's rejections counted by reason. The class is reduced once, and
    every draw reads that word."""
    if trials < 1:
        raise InputError(f"trials {trials}: the vote needs at least one trial")
    check_prime(p)
    word, _ = line_reduction(e)
    cands = candidate_pairs(e.t, max(e.m))
    votes: Counter[SplittingType] = Counter()
    for trial in range(trials):
        rejected: Counter[str] = Counter()
        for attempt in range(RETRY_CAP):
            try:
                votes[_splitting_once(e, word, cands, p, derive_seed(seed, trial, attempt))] += 1
                break
            except DegenerateConfiguration as exc:
                rejected[str(exc)] += 1
        else:
            reasons = "; ".join(f"{reason}: {k}" for reason, k in rejected.most_common())
            raise InfeasibleError(
                f"no nondegenerate configuration in {RETRY_CAP} attempts for {e} over F_{p} ({reasons})"
            )
    return votes.most_common(1)[0][0]


@lru_cache(maxsize=None)
def splitting_type(e: DivisorClass, p: int, seed, trials: int = 3) -> tuple[SplittingType, bool]:
    """(type, provisional): the closed form when the degree forces the type,
    else ``compute_splitting`` with this exact seed (marked provisional)."""
    st = forced_type(e.t, max(e.m))
    if st is not None:
        return st, False
    return compute_splitting(e, p, seed, trials), True


def splitting_of(
    e: DivisorClass, p: int = DEFAULT_PRIME, seed=DEFAULT_SEED, trials: int = 3
) -> tuple[SplittingType, bool]:
    """``splitting_type`` under the seed rule of the commands, the cokernel
    verifier and the Betti assembly: the randomized draws use
    derive_seed(seed, 757)."""
    return splitting_type(e, p, derive_seed(seed, 757), trials)


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
