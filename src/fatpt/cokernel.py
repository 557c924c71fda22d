"""Exact verification of multiplication-map cokernels over F_p.

For an exceptional curve E of degree d with splitting type (a, b), the
multiplication map mu of the system L + mE (sections of L + mE tensored with
sections of L, mapped into L + mE + L) has

    dim coker mu <= binom2(m - b) + binom2(m - a),

with equality proved for m <= a+2, for b - a <= 2, and for a = d - max mult,
and equality conjectured always; ``proven_case`` is that rule, the one
place it is decided. A forced type (``splitting.forced_type``) is always
proven: it has a = d - max mult or b - a <= 1. A type that is not forced has
max mult < d/2, so a <= d/2 < d - max mult, and at m = b the first case is
the second. This module computes the left side exactly for explicit points
over F_p and compares.

Two independent routes:

* formula path (``method="formula"``): transport E to a coordinate point by
  its Weyl word to E_1 (``weyl.reduction_to_point``, which is also the check
  that E is exceptional); the line system L becomes a system L' of plane
  curves of degree t' = L'.L with base points, and sections of L + mE + L
  correspond to degree-(d-1) multiples of H^0(L') lying in the proper ideal
  power at the two distinguished base points. Everything reduces to one large
  interpolation nullspace (H^0(L'), dimension 3) and one small rank over a
  window of monomials; no Groebner bases anywhere. The draw fixes a
  coordinate frame: E's point sits at (0, 0, 1) and the two largest other
  base points of L' at (1, 0, 0) and (0, 1, 0) (lower index first on a
  tie); the rest are random. Three non-collinear points can always be moved
  there, so the frame loses no generality, and a base point at a vertex
  costs no rows: its conditions kill monomials outright (``h0_basis``), and
  the nullspace runs on the other points' rows over the surviving columns.
  The product-matrix rank stops early (below).

* oracle path (``method="oracle"``): build the fat point scheme of L + mE
  at independent random points, multiply its degree-t forms by x, y, z and
  compare ranks in degree t+1. Only for small instances; it shares no code
  path or point configuration with the formula route, which is the point.

Random draws can only overestimate the cokernel (special position drops
rank). A draw with h0(L') != 3 is degenerate and is drawn again; so is a
draw whose cokernel exceeds the prediction, up to RETRY_CAP draws in all.
The smallest value seen is the result, so a persistent excess is reported,
never hidden. The ``ceiling`` test counts all C(t'+2, 2) columns of degree
t', killed or not.

The product-matrix rank is taken level by level and stops at the first full
level (``_product_rank``). Dehomogenize at E's point, so c = 1 and
m = (a, b). The H0(L') forms f_s lie in m^d; let V be the span of the
products f_s g modulo m^(2d), g running over the multipliers of a+b degree
d-m to d-1. The rows are those products, so the rank is dim V. V is closed
under multiplication by a and b: a multiplier of degree at most d-2 times a
or b is another multiplier, and one of degree d-1 times a or b lands in
m^(2d), which is 0 here. Multiplier level k reaches only window levels d+k
and up, so eliminating level by level, the pivots of window level j come
from the multiplier levels up to j-d. If they cover all j+1 columns of that
level, then m^j lies in V + m^(j+1); multiplying by a and b and going up to
m^(2d) gives m^j in V, so every later level is full as well, and the rank is
the pivots found so far plus the window columns past level j. The rows of
the levels past that one are never built. For the leading forms the full
levels start at multiplier degree b-1, so about b-a of the m levels are
eliminated. The oracle route keeps ``_kernels.rank`` of a whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InfeasibleError, InputError
from .exactla import DEFAULT_PRIME, check_prime
from .lattice import DivisorClass, FatPointScheme, binom2, line_class, point_class
from .linsys import expected_h0
from .splitting import (
    DEFAULT_SEED,
    RETRY_CAP,
    SplittingType,
    candidate_pairs,
    derive_seed,
    draw_points,
    splittings_of,
)
from .weyl import apply_word, reduction_to_point

DEFAULT_COLUMN_CEILING = 16000
# The oracle's own cap on either dimension of the matrices it builds.
ORACLE_MAX_DIM = 2000


def monomial_exponents(d: int) -> np.ndarray:
    """Exponent triples (i, j, k), i+j+k = d, in the fixed column order
    (i ascending, then j ascending)."""
    i = np.repeat(np.arange(d + 1), np.arange(d + 1, 0, -1))
    j = np.arange(i.size) - monomial_index(d, i, 0)
    return np.stack([i, j, d - i - j], axis=1)


def monomial_index(d: int, i, j):
    """Column index of x^i y^j z^(d-i-j) in the order of monomial_exponents.
    Accepts arrays."""
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    return i * (d + 1) - i * (i - 1) // 2 + j


def _falling_table(max_e: int, max_o: int, p: int) -> np.ndarray:
    """ff[e, o] = e (e-1) ... (e-o+1) mod p, zero when o > e."""
    ff = np.zeros((max_e + 1, max_o + 1), dtype=np.int64)
    ff[:, 0] = 1
    e = np.arange(max_e + 1)
    for o in range(1, max_o + 1):
        ff[:, o] = ff[:, o - 1] * np.maximum(e - o + 1, 0) % p
    return ff


def _pow_table(x: int, max_e: int, p: int) -> np.ndarray:
    out = np.empty(max_e + 1, dtype=np.int64)
    out[0] = 1
    for e in range(1, max_e + 1):
        out[e] = out[e - 1] * x % p
    return out


def fat_point_matrix(points, d: int, mults, p: int = DEFAULT_PRIME, columns=None) -> np.ndarray:
    """Interpolation matrix: one row per vanishing condition (all partial
    derivatives of order m_i - 1 at the i-th point), one column per monomial
    of degree d. Multiplicity >= m at P is exactly the vanishing of the
    C(m+1, 2) order-(m-1) partials there (Euler reduces lower orders).
    ``columns`` (indices in the order of monomial_exponents) builds only
    those columns.

    The partial with orders (alpha, beta, gamma) of x^i y^j z^k at (x, y, z)
    separates: X[alpha, i] Y[beta, j] Z[gamma, k] with
    X[alpha, i] = ff(i, alpha) x^(i-alpha), which is 0 for i < alpha (and
    0^0 = 1). A point's rows are built from its three tables at once, in
    the order alpha ascending, then beta ascending."""
    pts = np.asarray(points, dtype=np.int64) % p
    mults = [int(v) for v in mults]
    if pts.shape[0] != len(mults):
        raise InputError(f"{pts.shape[0]} points but {len(mults)} multiplicities")
    exps = monomial_exponents(d)
    if columns is not None:
        exps = exps[columns]
    nrows = sum(mu * (mu + 1) // 2 for mu in mults)
    mat = np.empty((nrows, exps.shape[0]), dtype=np.int64)
    maxmu = max(mults, default=0)
    ff = _falling_table(d, max(maxmu - 1, 0), p)
    # shift[o, e] = e - o, the power in X[o, e]; clamped at 0 where e < o,
    # since ff(e, o) = 0 there.
    shift = np.maximum(np.arange(d + 1) - np.arange(maxmu)[:, None], 0)
    r = 0
    for pt, mu in zip(pts, mults):
        if mu == 0:
            continue
        orders = np.array([(a, b) for a in range(mu) for b in range(mu - a)], dtype=np.int64)
        alpha, beta = orders[:, :1], orders[:, 1:]
        x, y, z = (ff.T[:mu] * _pow_table(int(v), d, p)[shift[:mu]] % p for v in pt)
        mat[r : r + orders.shape[0]] = (
            x[alpha, exps[:, 0]] * y[beta, exps[:, 1]] % p * z[mu - 1 - alpha - beta, exps[:, 2]] % p
        )
        r += orders.shape[0]
    return mat


def h0_basis(points, d: int, mults, p: int = DEFAULT_PRIME) -> np.ndarray:
    """Canonical basis of the degree-d forms with multiplicity >= mults[i]
    at points[i]: the rows of ``_kernels.nullspace(fat_point_matrix(...))``,
    computed without the rows of points at coordinate vertices.

    At a vertex, the point with one nonzero coordinate (say the z axis),
    the order-(mu-1) partial with orders (o1, o2, mu-1-o1-o2) has a single
    nonzero entry, o1! o2! ff(k, mu-1-o1-o2) times a power of that
    coordinate, at the monomial x^o1 y^o2 z^k. So each of the point's
    C(mu+1, 2) rows kills one monomial: i+j < mu at (0, 0, 1), j+k < mu at
    (1, 0, 0), i+k < mu at (0, 1, 0) (a row whose entry is 0 mod p kills
    nothing). A killed column is a pivot of the full matrix and is zero in
    every other row of its reduced form, so the canonical basis is the
    nullspace of the other points' rows on the surviving columns, with
    zeros put back at the killed ones.
    """
    pts = np.asarray(points, dtype=np.int64) % p
    mults = [int(v) for v in mults]
    if pts.shape[0] != len(mults):
        raise InputError(f"{pts.shape[0]} points but {len(mults)} multiplicities")
    exps = monomial_exponents(d)
    ff = _falling_table(d, max(max(mults, default=0) - 1, 0), p)
    killed = np.zeros(exps.shape[0], dtype=bool)
    rest = []
    for i, (pt, mu) in enumerate(zip(pts, mults)):
        nz = np.flatnonzero(pt)
        if nz.size != 1:
            rest.append(i)
            continue
        axis = int(nz[0])
        o1, o2 = np.delete(exps, axis, axis=1).T
        hit = np.flatnonzero(o1 + o2 < mu)
        o1, o2 = o1[hit], o2[hit]
        entry = ff[o1, o1] * ff[o2, o2] % p * ff[exps[hit, axis], mu - 1 - o1 - o2] % p
        killed[hit[entry != 0]] = True
    keep = np.flatnonzero(~killed)
    sub = _kernels.nullspace(fat_point_matrix(pts[rest], d, [mults[i] for i in rest], p, keep), p)
    basis = np.zeros((sub.shape[0], exps.shape[0]), dtype=np.int64)
    basis[:, keep] = sub
    return basis


def mu_rank_oracle(
    points,
    z: FatPointScheme,
    t: int,
    p: int = DEFAULT_PRIME,
    max_dim: int = ORACLE_MAX_DIM,
) -> int:
    """dim coker of multiplication by linear forms from degree t to t+1 on
    the homogeneous ideal of the fat point scheme at the given points.

    Direct construction (forms, times x, y, z, rank), for cross-checking the
    formula route on small instances. Instances whose dense matrices would
    exceed ``max_dim`` in either dimension are refused before any allocation,
    with the sizes in the message.
    """
    nrows = sum(mu * (mu + 1) // 2 for mu in z.mults)
    ncols = (t + 3) * (t + 4) // 2
    if nrows > max_dim or ncols > max_dim:
        raise InfeasibleError(
            f"oracle instance too large: interpolation matrix is {nrows} "
            f"conditions by {ncols} monomials in degree {t + 1}; "
            f"the cap is {max_dim} per dimension"
        )
    ideal_t = _kernels.nullspace(fat_point_matrix(points, t, z.mults, p), p)
    h0 = ideal_t.shape[0]
    cols1 = (t + 2) * (t + 3) // 2
    h0p = cols1 - _kernels.rank(fat_point_matrix(points, t + 1, z.mults, p), p)
    if h0 == 0:
        return h0p
    exps = monomial_exponents(t)
    prod = np.zeros((3 * h0, cols1), dtype=np.int64)
    ix = monomial_index(t + 1, exps[:, 0] + 1, exps[:, 1])
    iy = monomial_index(t + 1, exps[:, 0], exps[:, 1] + 1)
    iz = monomial_index(t + 1, exps[:, 0], exps[:, 1])
    prod[0:h0][:, ix] = ideal_t
    prod[h0 : 2 * h0][:, iy] = ideal_t
    prod[2 * h0 :][:, iz] = ideal_t
    return h0p - _kernels.rank(prod, p)


@dataclass(frozen=True)
class MuVerdict:
    """Outcome of one cokernel verification."""

    splitting: SplittingType
    predicted: int
    computed: int

    @property
    def match(self) -> bool:
        return self.predicted == self.computed


def predicted_cokernel(m: int, st: SplittingType) -> int:
    return binom2(m - st.b) + binom2(m - st.a)


def proven_case(e: DivisorClass, m: int, st: SplittingType) -> bool:
    """Whether ``predicted_cokernel(m, st)`` is proven exact for the class e
    of type st: m <= a+2, b - a <= 2, or a = d - max mult."""
    return m <= st.a + 2 or st.b - st.a <= 2 or st.a == e.t - max(e.m)


def _check_prime_above_degree(p: int, degree: int) -> None:
    """At p <= degree the falling factorials in ``fat_point_matrix``'s
    partials can vanish mod p, and its rows stop being fat point conditions."""
    if p <= degree:
        raise InputError(f"prime {p} is too small for interpolation in degree {degree}: "
                         f"verification needs a prime above {degree}")


def _frame_slots(mu) -> list[int]:
    """The slots drawn at the coordinate vertices (0, 0, 1), (1, 0, 0) and
    (0, 1, 0): slot 0 (E's point), then the two largest other base points,
    the lower index first on a tie."""
    rest = sorted(range(1, len(mu)), key=lambda i: (-mu[i], i))
    return [0, rest[0], rest[1]]


def _formula_cokernel(
    e: DivisorClass, word: tuple[int, ...], m: int, p: int, seed, ceiling: int, predicted: int
) -> tuple[int, dict]:
    """dim coker mu for L + mE by the formula path, ``word`` sending e to E_1."""
    d = e.t
    n = max(e.n, 3)
    assert apply_word(word, e.pad_to(n) if e.n < n else e) == point_class(1, n)
    lam = apply_word(word, line_class(n))
    tp = lam.t
    mu = lam.m
    if mu[0] != d or any(v < 0 for v in mu):
        raise AssertionError(f"unexpected transported line system {lam}")
    if expected_h0(lam) != 3:
        raise AssertionError(f"transported line system {lam} has expected h0 != 3")
    _check_prime_above_degree(p, tp)
    ncols = (tp + 1) * (tp + 2) // 2
    nrows = sum(v * (v + 1) // 2 for v in mu)
    if ncols > ceiling:
        raise InfeasibleError(
            f"H0 matrix for {e} at m={m} is {nrows}x{ncols} "
            f"(degree {tp}); exceeds the {ceiling}-column ceiling"
        )
    window = 2 * d * m - binom2(m)
    frame = _frame_slots(mu)
    low = monomial_exponents(tp)[:, :2].sum(axis=1) < d

    rng_master = derive_seed(seed, 31)
    best: int | None = None
    last_err: str | None = None
    for attempt in range(RETRY_CAP):
        pts = draw_points(n, p, derive_seed(rng_master, attempt))
        pts[frame] = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
        basis = h0_basis(pts, tp, mu, p)
        if basis.shape[0] != 3:
            last_err = f"special configuration: h0 = {basis.shape[0]} != 3"
            continue
        if basis[:, low].any():
            raise AssertionError(f"H0(L') basis has terms of order below {d} at E's point")
        prank, levels = _product_rank(basis, tp, d, m, p)
        value = window - prank
        best = value if best is None else min(best, value)
        if value <= predicted:
            break
    if best is None:
        raise InfeasibleError(f"no generic configuration in {RETRY_CAP} draws: {last_err}")
    return best, {
        "transported_degree": tp,
        "matrix": (nrows, ncols),
        "window": window,
        "attempt": attempt,
        "levels": levels,
    }


def _product_matrix(basis: np.ndarray, tp: int, d: int, k: int) -> np.ndarray:
    """Level k of the product matrix: each H0(L') basis form times each
    degree-(d-1) multiplier a^i b^(k-i) c^(d-1-k), one block of rows per
    multiplier (i ascending), one row per form. The columns are the window
    monomials a^wa b^wb of a+b degree d+k to 2d-1 (a+b degree ascending, then
    wa); the window columns before them read only terms of order below d at
    E's point, which forms in m^d lack."""
    wa, wb = np.array(
        [(a, s - a) for s in range(d + k, 2 * d) for a in range(s + 1)], dtype=np.int64
    ).T
    i = np.arange(k + 1)[:, None]
    fa = wa - i
    fb = wb - (k - i)
    ok = (fa >= 0) & (fb >= 0) & (fa + fb <= tp)
    # A window monomial that no basis monomial reaches reads the zero column
    # appended past the last one.
    srcc = np.where(ok, monomial_index(tp, fa, fb), basis.shape[1])
    padded = np.pad(basis, ((0, 0), (0, 1)))
    return padded[np.arange(basis.shape[0])[:, None], srcc[:, None, :]].reshape(-1, wa.size)


def _product_rank(basis: np.ndarray, tp: int, d: int, m: int, p: int) -> tuple[int, int]:
    """Rank mod p of the product matrix of forms in m^d (entries in [0, p)),
    and the number of its m levels eliminated: level by level, stopping at
    the first full one (see the module docstring)."""
    rank = 0
    carry = None
    for level, k in enumerate(range(d - m, d), 1):
        rows = _product_matrix(basis, tp, d, k)
        work = rows if carry is None else np.concatenate((carry, rows))
        width = d + k + 1
        r, _ = _kernels._forward(work, p, width)
        rank += r
        if r == width:
            return rank + work.shape[1] - width, level
        carry = work[r:, width:]
    return rank, m


def cok_dimension(
    e: DivisorClass,
    m: int,
    p: int = DEFAULT_PRIME,
    seed=DEFAULT_SEED,
    method: str = "formula",
    ceiling: int = DEFAULT_COLUMN_CEILING,
    splitting: SplittingType | None = None,
) -> MuVerdict:
    """Computed and predicted dim coker mu for the system L + mE by
    ``method``. The prediction uses ``splitting``, the class's type as its
    caller already holds it; when None, the type comes from a one-class
    ``splittings_of`` request. The verdict holds the type the prediction
    used and the predicted and computed dimensions; e, m and the method stay
    with the caller, and ``splitting.is_provisional(e)`` says whether the
    type is provisional."""
    check_prime(p)
    word = reduction_to_point(e)
    d = e.t
    if d < 1:
        raise InputError("point classes E_i have no multiplication map here")
    if not (0 <= m <= d):
        raise InputError(f"m must satisfy 0 <= m <= degree {d}, got {m}")
    if method not in ("formula", "oracle"):
        raise InputError(f"unknown method {method!r}")
    if splitting is None:
        splitting, = splittings_of([e], p, seed)
    elif splitting not in candidate_pairs(d, max(e.m)):
        raise InputError(f"splitting type {splitting} is not an allowed type of {e}")
    predicted = predicted_cokernel(m, splitting)
    if m == 0:
        computed = 0
    elif method == "formula":
        computed, _ = _formula_cokernel(e, word, m, p, seed, ceiling, predicted)
    else:
        z = FatPointScheme(tuple(m * v for v in e.m))
        t = 1 + m * d
        _check_prime_above_degree(p, t + 1)
        pts = draw_points(e.n, p, derive_seed(seed, 47))
        # The oracle is for small instances: its own cap bounds the matrices
        # it builds, whatever the formula route's ceiling.
        computed = mu_rank_oracle(pts, z, t, p, max_dim=min(ceiling, ORACLE_MAX_DIM))
    return MuVerdict(splitting, predicted, computed)
