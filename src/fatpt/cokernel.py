"""Exact verification of multiplication-map cokernels over F_p.

For an exceptional curve E of degree d with splitting type (a, b), the
multiplication map mu of the system L + mE (sections of L + mE tensored with
sections of L, mapped into L + mE + L) has

    dim coker mu <= binom2(m - b) + binom2(m - a),

with equality proved for m <= a+2, for b - a <= 2, and for a = d - max mult,
and equality conjectured always. This module computes the left side exactly
for explicit points over F_p and compares.

Two independent routes:

* formula path (``method="formula"``): transport E to a coordinate point by a
  Weyl word ending at E_1; the line system L becomes a system L' of plane
  curves of degree t' = L'.L with base points, and sections of L + mE + L
  correspond to degree-(d-1) multiples of H^0(L') lying in the proper ideal
  power at the two distinguished base points. Everything reduces to one large
  interpolation nullspace (H^0(L'), dimension 3) and one small rank over a
  window of monomials; no Groebner bases anywhere.

* oracle path (``method="oracle"``): build the fat point scheme of L + mE
  at independent random points, multiply its degree-t forms by x, y, z and
  compare ranks in degree t+1. Only for small instances; it shares no code
  path or point configuration with the formula route, which is the point.

Random draws can only overestimate the cokernel (special position drops
rank), so computed <= predicted failures retry and a persistent excess is
reported, never hidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateConfiguration, InfeasibleError, InputError
from .exactla import DEFAULT_PRIME, FpMatrix, PrimeField
from .lattice import DivisorClass, FatPointScheme, binom2, class_of, intersect, line_class, point_class
from .linsys import expected_h0
from .splitting import DEFAULT_SEED, RETRY_CAP, SplittingType, derive_seed, splitting_of
from .weyl import WeylWord, apply_word, is_exceptional, reduce

DEFAULT_COLUMN_CEILING = 16000


def h0_mE(m: int, t: int) -> int:
    """Sections of the m-th infinitesimal neighborhood twisted by t: binomial
    count C(m+1,2) + m t for t >= 0, C(m+t+1, 2) for negative twists."""
    if m < 0:
        raise InputError(f"multiplicity must be >= 0, got {m}")
    if m == 0:
        return 0
    if t >= 0:
        return m * (m + 1) // 2 + m * t
    return binom2(m + t + 1)


def h1_mE(m: int, t: int) -> int:
    """First cohomology of the same sheaf; zero for t >= 0."""
    if m < 0:
        raise InputError(f"multiplicity must be >= 0, got {m}")
    if m == 0 or t >= 0:
        return 0
    s = -t
    if s <= m:
        return binom2(s)
    return s * m - m * (m + 1) // 2


def monomial_exponents(d: int) -> np.ndarray:
    """Exponent triples (i, j, k), i+j+k = d, in the fixed column order
    (i ascending, then j ascending)."""
    out = np.empty(((d + 1) * (d + 2) // 2, 3), dtype=np.int64)
    r = 0
    for i in range(d + 1):
        for j in range(d - i + 1):
            out[r] = (i, j, d - i - j)
            r += 1
    return out


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
    for o in range(1, max_o + 1):
        for e in range(max_e + 1):
            ff[e, o] = ff[e, o - 1] * max(e - o + 1, 0) % p
    return ff


def _pow_table(x: int, max_e: int, p: int) -> np.ndarray:
    out = np.empty(max_e + 1, dtype=np.int64)
    out[0] = 1
    for e in range(1, max_e + 1):
        out[e] = out[e - 1] * x % p
    return out


def fat_point_matrix(points, d: int, mults, p: int = DEFAULT_PRIME) -> FpMatrix:
    """Interpolation matrix: one row per vanishing condition (all partial
    derivatives of order m_i - 1 at the i-th point), one column per monomial
    of degree d. Multiplicity >= m at P is exactly the vanishing of the
    C(m+1, 2) order-(m-1) partials there (Euler reduces lower orders)."""
    pts = np.asarray(points, dtype=np.int64) % p
    mults = [int(v) for v in mults]
    if pts.shape[0] != len(mults):
        raise InputError(f"{pts.shape[0]} points but {len(mults)} multiplicities")
    exps = monomial_exponents(d)
    ii, jj, kk = exps[:, 0], exps[:, 1], exps[:, 2]
    nrows = sum(mu * (mu + 1) // 2 for mu in mults)
    mat = np.zeros((nrows, exps.shape[0]), dtype=np.int64)
    maxmu = max(mults) if mults else 0
    ff = _falling_table(d, max(maxmu - 1, 0), p)
    r = 0
    for pt, mu in zip(pts, mults):
        if mu == 0:
            continue
        px = _pow_table(int(pt[0]), d, p)
        py = _pow_table(int(pt[1]), d, p)
        pz = _pow_table(int(pt[2]), d, p)
        for alpha in range(mu):
            for beta in range(mu - alpha):
                gamma = mu - 1 - alpha - beta
                ok = (ii >= alpha) & (jj >= beta) & (kk >= gamma)
                row = ff[ii, alpha] * ff[jj, beta] % p * ff[kk, gamma] % p
                row = row * px[np.maximum(ii - alpha, 0)] % p
                row = row * py[np.maximum(jj - beta, 0)] % p
                row = row * pz[np.maximum(kk - gamma, 0)] % p
                mat[r] = np.where(ok, row, 0)
                r += 1
    return FpMatrix(mat, p)


def mu_rank_oracle(
    points,
    z: FatPointScheme,
    t: int,
    p: int = DEFAULT_PRIME,
    max_dim: int = 2000,
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
    ideal_t = fat_point_matrix(points, t, z.mults, p).nullspace()
    ideal_t1 = fat_point_matrix(points, t + 1, z.mults, p).nullspace()
    h0, h0p = ideal_t.rows, ideal_t1.rows
    if h0 == 0:
        return h0p
    exps = monomial_exponents(t)
    cols1 = (t + 2) * (t + 3) // 2
    prod = np.zeros((3 * h0, cols1), dtype=np.int64)
    ix = monomial_index(t + 1, exps[:, 0] + 1, exps[:, 1])
    iy = monomial_index(t + 1, exps[:, 0], exps[:, 1] + 1)
    iz = monomial_index(t + 1, exps[:, 0], exps[:, 1])
    prod[0:h0][:, ix] = ideal_t.a
    prod[h0 : 2 * h0][:, iy] = ideal_t.a
    prod[2 * h0 :][:, iz] = ideal_t.a
    return h0p - _kernels.rank(prod, p)


@dataclass(frozen=True)
class MuVerdict:
    """Outcome of one cokernel verification."""

    cls: DivisorClass
    m: int
    prime: int
    seed: int
    splitting: SplittingType
    provisional: bool
    predicted: int
    computed: int
    method: str

    @property
    def match(self) -> bool:
        return self.predicted == self.computed


def predicted_cokernel(m: int, st: SplittingType) -> int:
    return binom2(m - st.b) + binom2(m - st.a)


def reduction_to_point(e: DivisorClass) -> WeylWord:
    """A word sending e to E_1 (Cremona reduction plus slot swaps)."""
    r = reduce(e)
    term = r.reduced
    if not (term.t == 0 and term.m[-1] == -1 and not any(term.m[:-1])):
        raise InputError(f"{e} is not an exceptional class")
    n = term.n
    return WeylWord(r.word.ops + tuple(range(n - 1, 0, -1)))


def _formula_cokernel(
    e: DivisorClass, m: int, p: int, seed, ceiling: int
) -> tuple[int, dict]:
    d = intersect(e, line_class(e.n))
    word = reduction_to_point(e)
    n = max(e.n, 3)
    assert apply_word(word, e.pad_to(n) if e.n < n else e) == point_class(1, n)
    lam = apply_word(word, line_class(n))
    tp = lam.t
    mu = lam.m
    if mu[0] != d or any(v < 0 for v in mu):
        raise AssertionError(f"unexpected transported line system {lam}")
    if expected_h0(lam) != 3:
        raise AssertionError(f"transported line system {lam} has expected h0 != 3")
    ncols = (tp + 1) * (tp + 2) // 2
    nrows = sum(v * (v + 1) // 2 for v in mu)
    if ncols > ceiling:
        raise InfeasibleError(
            f"H0 matrix for {e} at m={m} is {nrows}x{ncols} "
            f"(degree {tp}); exceeds the {ceiling}-column ceiling"
        )
    window = 2 * d * m - binom2(m)

    rng_master = derive_seed(seed, 31)
    last_err: Exception | None = None
    for attempt in range(RETRY_CAP):
        rng = np.random.default_rng(derive_seed(rng_master, attempt))
        pts = rng.integers(0, p, size=(n, 3), dtype=np.int64)
        pts[0] = (0, 0, 1)
        basis = fat_point_matrix(pts, tp, mu, p).nullspace()
        if basis.rows != 3:
            last_err = DegenerateConfiguration(
                f"special configuration: h0 = {basis.rows} != 3"
            )
            continue
        prod = _product_matrix(basis.a, tp, d, m, p)
        rank = _kernels.rank(prod, p)
        return window - rank, {
            "transported_degree": tp,
            "matrix": (nrows, ncols),
            "window": window,
            "attempt": attempt,
        }
    raise InfeasibleError(f"no generic configuration in {RETRY_CAP} draws: {last_err}")


def _product_matrix(basis: np.ndarray, tp: int, d: int, m: int, p: int) -> np.ndarray:
    """Rows: each H0(L') basis form times each degree-(d-1) monomial
    a^pg b^qg c^rg with pg+qg >= d-m, projected to coefficients of monomials
    of a+b degree in [2d-m, 2d-1] (the quotient past the ideal power at the
    second base point)."""
    lut = np.full((tp + 1, tp + 1), -1, dtype=np.int64)
    exps = monomial_exponents(tp)
    lut[exps[:, 0], exps[:, 1]] = np.arange(exps.shape[0])

    wa, wb = [], []
    for s in range(2 * d - m, 2 * d):
        for a_exp in range(s + 1):
            wa.append(a_exp)
            wb.append(s - a_exp)
    wa = np.array(wa, dtype=np.int64)
    wb = np.array(wb, dtype=np.int64)
    window = wa.size

    mults_g = [
        (pg, qg)
        for pg in range(d)
        for qg in range(d - pg)
        if pg + qg >= d - m
    ]
    prod = np.zeros((3 * len(mults_g), window), dtype=np.int64)
    for gi, (pg, qg) in enumerate(mults_g):
        fa = wa - pg
        fb = wb - qg
        ok = (fa >= 0) & (fb >= 0) & (fa + fb <= tp)
        src = lut[np.clip(fa, 0, tp), np.clip(fb, 0, tp)]
        ok &= src >= 0
        srcc = np.where(ok, src, 0)
        for r in range(3):
            prod[3 * gi + r] = np.where(ok, basis[r, srcc], 0)
    return prod


def cok_dimension(
    e: DivisorClass,
    m: int,
    p: int = DEFAULT_PRIME,
    seed=DEFAULT_SEED,
    method: str = "formula",
    ceiling: int = DEFAULT_COLUMN_CEILING,
    trials: int = 3,
) -> MuVerdict:
    """Computed and predicted dim coker mu for the system L + mE; the
    prediction uses the splitting type from ``trials`` randomized draws when
    the type is not forced."""
    PrimeField(p)
    if not is_exceptional(e):
        raise InputError(f"{e} is not an exceptional class")
    d = intersect(e, line_class(e.n))
    if d < 1:
        raise InputError("point classes E_i have no multiplication map here")
    if not (0 <= m <= d):
        raise InputError(f"m must satisfy 0 <= m <= degree {d}, got {m}")
    if method not in ("formula", "oracle"):
        raise InputError(f"unknown method {method!r}")
    st, provisional = splitting_of(e, p, seed, trials)
    predicted = predicted_cokernel(m, st)
    if m == 0:
        computed = 0
    elif method == "formula":
        computed, _ = _formula_cokernel(e, m, p, seed, ceiling)
    else:
        z = FatPointScheme(tuple(m * v for v in e.m))
        t = 1 + m * d
        rng = np.random.default_rng(derive_seed(seed, 47))
        pts = rng.integers(0, p, size=(e.n, 3), dtype=np.int64)
        h0_t = expected_h0(class_of(z, t))
        h0_t1 = expected_h0(class_of(z, t + 1))
        if max(h0_t, h0_t1) > 2000:
            raise InfeasibleError(
                f"oracle sections {h0_t}/{h0_t1} in degrees {t}/{t + 1} exceed the 2000 cap"
            )
        computed = mu_rank_oracle(pts, z, t, p, max_dim=ceiling)
    return MuVerdict(e, m, p, int(seed), st, provisional, predicted, computed, method)
