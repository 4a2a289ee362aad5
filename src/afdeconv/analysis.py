"""Performance quantification and Monte Carlo verification suites.

Contains the integrated-squared-error metric, the four-case convergence-rate
regime classifier with its min-formula cross-check, log-log slope fitting,
and the three verification suites for the variance/moment/tail behaviour of
the empirical coefficients.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import estimator as es
from . import model as md
from . import wavelets as wv

__all__ = [
    "BesovParams",
    "RegimeResult",
    "RateReport",
    "UnclassifiedRegimeError",
    "mise",
    "theoretical_exponent",
    "fit_rate",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "rate_experiment",
    "rate_report_csv",
    "rate_report_text",
]


class UnclassifiedRegimeError(RuntimeError):
    """No regime condition matched (boundary or overlap gap)."""


@dataclass(frozen=True)
class BesovParams:
    """Anisotropic smoothness-class parameters with derived indices.

    Derived quantities are recomputed on access so they can never go stale:
    s*_i = s_i + 1/2 - 1/p,  s'_i = s_i + 1/2 - 1/p' with p' = min(2, p),
    and s''(beta) = (1/p - 1/2) / (1 - beta).
    """

    s1: float
    s2: float
    p: float = 2.0

    def __post_init__(self):
        if not 1.0 <= self.p:
            raise md.ParameterError("integrability index p must be >= 1")
        if min(self.s1, self.s2) < max(1.0 / self.p, 0.5):
            raise md.ParameterError(
                "smoothness must satisfy min{s1,s2} >= max{1/p, 1/2}")

    @property
    def p_prime(self) -> float:
        return min(2.0, self.p)

    @property
    def s1_star(self) -> float:
        return self.s1 + 0.5 - 1.0 / self.p

    @property
    def s2_star(self) -> float:
        return self.s2 + 0.5 - 1.0 / self.p

    @property
    def s1_prime(self) -> float:
        return self.s1 + 0.5 - 1.0 / self.p_prime

    @property
    def s2_prime(self) -> float:
        return self.s2 + 0.5 - 1.0 / self.p_prime

    def s_dprime(self, beta: float) -> float:
        return (1.0 / self.p - 0.5) / (1.0 - beta)

    @classmethod
    def from_test_function(cls, f: md.TestFunction) -> "BesovParams":
        return cls(s1=f.s1, s2=f.s2, p=f.p)


# ----------------------------------------------------------------------
# MISE
# ----------------------------------------------------------------------

def mise(fhat, f) -> float:
    """Integrated squared error of the grid fhat against the grid f on the
    common uniform periodic grid.

    The grid is uniform and the integrand periodic, so the trapezoid rule
    reduces to the mean of the squared differences.
    """
    a = np.asarray(fhat, dtype=float)
    b = np.asarray(f, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise md.ParameterError(
            f"grid dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


# ----------------------------------------------------------------------
# Regime classification
# ----------------------------------------------------------------------

@dataclass
class RegimeResult:
    regime: int
    d: float
    xi1: int
    xi2: int
    d_min: float
    agrees: bool
    notes: list[str] = dc_field(default_factory=list)


def _upper_bound_conditions(bp: BesovParams, nu: float,
                            beta1: float, beta2: float):
    s1, s2 = bp.s1, bp.s2
    s1p, s2p = bp.s1_prime, bp.s2_prime
    sd1, sd2 = bp.s_dprime(beta1), bp.s_dprime(beta2)
    ratio2 = (s2p / beta2) if beta2 > 0 else math.inf
    cases = {
        1: (s1 > s2 * (2 * nu + 1)
            and s1p / s2 > 2 * nu + beta1
            and s2 > sd2),
        2: (sd1 * (2 * nu + 1) <= s1 <= s2 * (2 * nu + 1)
            and s1 < ratio2 * (2 * nu + 1)),
        3: (s1p < ratio2 * (2 * nu + beta1)
            and s1p / s2 < 2 * nu + beta1
            and s1 < sd1 * (2 * nu + 1)),
        4: (s1p >= ratio2 * (2 * nu + beta1)
            and s1 > ratio2 * (2 * nu + 1)
            and s2 <= sd2),
    }
    exponents = {
        1: 2 * s2 / (2 * s2 + 1),
        2: 2 * s1 / (2 * s1 + 2 * nu + 1),
        3: 2 * s1p / (2 * s1p + 2 * nu + beta1),
        4: 2 * s2p / (2 * s2p + beta2),
    }
    return cases, exponents, ratio2


def theoretical_exponent(bp: BesovParams, nu: float, beta1: float,
                         beta2: float) -> RegimeResult:
    """Classify the convergence regime and return its exponent d.

    Evaluates the four-case upper-bound condition table (with s'-indices),
    the log-factor exponents xi1/xi2, and cross-checks d against the
    closed-form minimum over the four candidate exponents (which uses
    s*-indices and provably agrees whenever p >= 2).
    """
    cases, exponents, ratio2 = _upper_bound_conditions(bp, nu, beta1, beta2)
    matched = [r for r, ok in cases.items() if ok]
    notes: list[str] = []
    if math.isinf(ratio2):
        notes.append("beta2 = 0 limit rule fired: s'_2/beta_2 treated as +inf")
    if len(matched) != 1:
        if len(matched) > 1 and len({exponents[r] for r in matched}) == 1:
            notes.append(f"boundary overlap of regimes {matched}, equal d")
            matched = matched[:1]
        else:
            diag = ", ".join(f"case {r}: {ok}" for r, ok in cases.items())
            raise UnclassifiedRegimeError(
                f"unclassified regime (matched {matched}); conditions: {diag}; "
                f"s'=({bp.s1_prime:.4g},{bp.s2_prime:.4g}), "
                f"s''=({bp.s_dprime(beta1):.4g},{bp.s_dprime(beta2):.4g}), "
                f"nu={nu}, beta=({beta1},{beta2})")
    regime = matched[0]
    d = exponents[regime]
    xi1 = int(((bp.p < 2 and beta1 == beta2) or bp.p >= 2)
              and bp.s1 == bp.s2 * (2 * nu + 1))
    xi2 = int(beta2 * bp.s1_prime == bp.s2_prime * (2 * nu + beta1))
    d_min = min(2 * bp.s1 / (2 * bp.s1 + 2 * nu + 1),
                2 * bp.s2 / (2 * bp.s2 + 1),
                2 * bp.s1_star / (2 * bp.s1_star + 2 * nu + beta1),
                2 * bp.s2_star / (2 * bp.s2_star + beta2))
    agrees = math.isclose(d, d_min, rel_tol=1e-12, abs_tol=1e-12)
    if not agrees:
        notes.append(f"min-formula disagreement: regime d={d:.6g}, "
                     f"min-formula d={d_min:.6g} (p={bp.p})")
    return RegimeResult(regime=regime, d=d, xi1=xi1, xi2=xi2,
                        d_min=d_min, agrees=agrees, notes=notes)


def fit_rate(points) -> tuple[float, float]:
    """Least-squares slope of log(MISE) against log(n), with standard error."""
    pts = sorted((float(n), float(v)) for n, v in points)
    n = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if n.size < 3:
        raise md.ParameterError("need at least 3 ladder points")
    # positive form, so that NaN fails it too
    if not np.all(np.isfinite(n) & (n > 0) & np.isfinite(v) & (v > 0)):
        raise md.ParameterError("only positive finite values can be log-fitted")
    if not np.all(np.diff(n) > 0):
        raise md.ParameterError("ladder values must be strictly increasing")
    X = np.log(n)
    Y = np.log(v)
    slope, intercept = np.polyfit(X, Y, 1)
    resid = Y - (slope * X + intercept)
    dof = max(n.size - 2, 1)
    sxx = np.sum((X - X.mean()) ** 2)
    se = math.sqrt(float(resid @ resid) / dof / sxx)
    return float(slope), se


# ----------------------------------------------------------------------
# Lemma verification suites
# ----------------------------------------------------------------------

@dataclass
class Lemma1Report:
    entries: list[dict]
    spread2: float
    spread4: float


def verify_lemma1(cfg: es.EstimatorConfig, levels1) -> Lemma1Report:
    """Check the scaling laws of the deconvolving-function integrals.

    Computes fine-grid quadratures of int U^2/(h1 h2) and int U^4/(h1^3 h2^3)
    over a (level, shift) sweep of t-levels ``levels1``, at one shift of the
    x-level m20 - 1, and divides them by the estimator's variance law
    ``estimator._variance_order`` at p = 2 and 4; the report carries the
    max/min ratio spreads.
    """
    d1, d2 = cfg.d1, cfg.d2
    # the midpoint grid avoids evaluating the reciprocal density at a
    # singularity
    tg = np.asarray(wv.Grid(8192, 0.5))
    h1 = d1.pdf(tg)
    h2 = d2.pdf(tg)
    # the x factor: one shift of the scaling pseudo-level, off the singularity
    j2 = cfg.wavelet.m20 - 1
    count2 = wv.shift_count(cfg.wavelet, j2, axis=1)
    k2 = (es._singular_shift(count2, d2.x0) + max(2, count2 // 4)) % count2
    v = wv.eval_level(cfg.wavelet, j2, 1, tg)[:, k2]
    q2_x = np.mean(v ** 2 / h2)
    q4_x = np.mean(v ** 4 / h2 ** 3)
    entries = []
    for j1 in levels1:
        count1 = wv.shift_count(cfg.wavelet, j1, axis=0)
        k10 = es._singular_shift(count1, d1.x0)
        # four shifts away from the singularity, spaced across the circle
        ks1 = (k10 + max(2, count1 // 8) + max(1, count1 // 5) * np.arange(4)) % count1
        conj_g = es._conj_kernel(cfg.kernel, wv.base_table(cfg.wavelet, j1, 0)[0], None, j1)
        u = wv.eval_level(cfg.wavelet, j1, 0, tg, conj_g)[:, ks1]
        ratio2 = (np.mean(u ** 2 / h1[:, None], axis=0) * q2_x
                  / es._variance_order(cfg, 2, j1, ks1, j2, k2))
        ratio4 = (np.mean(u ** 4 / h1[:, None] ** 3, axis=0) * q4_x
                  / es._variance_order(cfg, 4, j1, ks1, j2, k2))
        entries += [{"j1": j1, "k1": int(k1), "j2": j2, "k2": k2,
                     "ratio2": float(r2), "ratio4": float(r4)}
                    for k1, r2, r4 in zip(ks1, ratio2, ratio4)]
    r2 = np.array([e["ratio2"] for e in entries])
    r4 = np.array([e["ratio4"] for e in entries])
    return Lemma1Report(entries=entries,
                        spread2=float(r2.max() / r2.min()),
                        spread4=float(r4.max() / r4.min()))


def _deviation_weights(cfg: es.EstimatorConfig, index, N: int, M: int) -> np.ndarray:
    """V such that beta-tilde of index (j1, k1, j2, k2) = sum V_il Y_il on
    the quantile designs of cfg.d1 and cfg.d2: the clean estimate is
    sum V q and the noise part sigma sum V eps."""
    t = md.quantile_design(N, cfg.d1)
    x = md.quantile_design(M, cfg.d2)
    U = es.compute_U(cfg, index, t, x)
    return U * np.outer(*es._design_weights(cfg, t, x)) / (N * M)


# 16 MiB of float64 innovations per block, the budget of
# wavelets._BLOCK_EXPONENTIALS: the whole (replicates, N*M) matrix would be
# 1 GiB at N = 2048, M = 128 and 500 replicates.
_BLOCK_INNOVATIONS = 1 << 21


def _colored_deviations(V: np.ndarray, noise: md.NoiseSpec, replicates: int,
                        seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw the noise part of beta-tilde for many replicates at once.

    Uses the exact linear form: the deviation equals sum_l w_l . z_l with
    w_l = sigma A_N^T V[:, l], A_N the Cholesky factor of the error
    covariance applied by ``model._fgn_factor_product`` (O(N) memory on top
    of V and w), and z the unit innovations, so sampling the innovations
    directly reproduces the estimator's noise distribution.  Returns
    (w, deviations); Var = ||w||^2 since the innovations have unit
    variance.  The innovations are drawn in row blocks of about
    `_BLOCK_INNOVATIONS` values from the one generator, which gives the
    same stream as one draw of the whole (replicates, N*M) matrix.
    """
    N, M = V.shape
    w = (noise.sigma * md._fgn_factor_product(V, noise.alpha)).ravel()
    rng = np.random.default_rng(seed)
    dev = np.empty(replicates)
    step = max(1, _BLOCK_INNOVATIONS // w.size)
    for lo in range(0, replicates, step):
        rows = min(step, replicates - lo)
        # each block is freed right after its product
        dev[lo:lo + rows] = md._draw_innovations(rng, (rows, w.size),
                                                 noise.kind) @ w
    return w, dev


@dataclass
class Lemma2Report:
    alpha: float
    N_ladder: list[int]
    variances: list[float]
    slope: float
    slope_se: float
    exact_variances: list[float]
    exact_slope: float
    kurtosis: float
    fourth_ratios: list[float]


def verify_lemma2(cfg: es.EstimatorConfig, index, M: int, N_ladder,
                  replicates: int = 500, seed: int = 0) -> Lemma2Report:
    """Monte Carlo check of the variance law Var ~ sigma^2 2^{...}/(M N^alpha).

    Fits the slope of log Var against log N (predicted -alpha at fixed M),
    reports the sample kurtosis at the largest N, and the ratio of the
    empirical fourth central moment to the predicted two-term bound.  The
    exact variance sigma^2 ||A_N^T V||_F^2 (A_N the Cholesky factor of the
    error covariance, applied by ``model._fgn_factor_product``) and its slope
    are reported next to the Monte Carlo ones.
    """
    if replicates < 2:
        raise md.ParameterError(f"replicates: lemma 2 needs at least 2 for its "
                                f"sample variance, got {replicates}")
    variances, exact_variances, fourth_ratios = [], [], []
    kurt = math.nan
    noise = cfg.noise
    order2 = es._variance_order(cfg, 2, *index)
    order4 = es._variance_order(cfg, 4, *index)
    for i, N in enumerate(N_ladder):
        V = _deviation_weights(cfg, index, N, M)
        w, dev = _colored_deviations(V, noise, replicates, seed + i)
        variances.append(float(np.var(dev, ddof=1)))
        exact_variances.append(float(w @ w))
        centered = dev - dev.mean()
        m4 = float(np.mean(centered ** 4))
        term1 = noise.sigma ** 4 / (M ** 3 * N ** 2) * order4
        term2 = noise.sigma ** 4 / (M ** 2 * N ** (2 * noise.alpha)) * order2 ** 2
        fourth_ratios.append(m4 / (term1 + term2))
        if i == len(N_ladder) - 1:
            kurt = m4 / float(np.mean(centered ** 2)) ** 2
    slope, se = fit_rate(zip(N_ladder, variances))
    exact_slope, _ = fit_rate(zip(N_ladder, exact_variances))
    return Lemma2Report(alpha=noise.alpha, N_ladder=list(N_ladder),
                        variances=variances, slope=slope, slope_se=se,
                        exact_variances=exact_variances,
                        exact_slope=exact_slope, kurtosis=kurt,
                        fourth_ratios=fourth_ratios)


@dataclass
class Lemma3Report:
    frequencies: dict
    max_frequency: float
    tail_exponent: float | None
    ladder: list[tuple[int, int, float]]


def verify_lemma3(f: md.TestFunction, cfg: es.EstimatorConfig, indices,
                  M: int = 256, N: int = 256, replicates: int = 1000,
                  seed: int = 0, ladder=None) -> Lemma3Report:
    """Empirical exceedance check Pr(|beta-tilde - beta| > lambda/2).

    The deviation splits exactly into a deterministic quadrature bias (the
    noiseless estimate minus the true coefficient) plus the linear noise
    form, so each replicate needs only one weighted innovation draw.  When a
    ladder of (N, M) pairs is given, the Gaussian exceedance probability is
    evaluated in closed form per point and its log-log slope against the
    effective sample size is reported as the measured tail exponent.
    """
    J1 = max(j1 for j1, _, _, _ in indices) + 1
    J2 = max(j2 for _, _, j2, _ in indices) + 1
    freqs = {}
    for pos, index in enumerate(indices):
        bias, lam, w_norm, dev = _tail_ingredients(
            f, cfg, index, M, N, J1, J2, replicates, seed + 7919 * pos)
        freqs[index] = float(np.mean(np.abs(bias + dev) > lam / 2))
    tail_exponent = None
    ladder_rows = []
    if ladder:
        probs = []
        ns = []
        index = indices[0]
        for pos, (Ni, Mi) in enumerate(ladder):
            bias, lam, w_norm, _ = _tail_ingredients(
                f, cfg, index, Mi, Ni, J1, J2, 0, seed)
            # closed-form Gaussian tail of bias + Normal(0, w_norm^2)
            if w_norm == 0:
                p = float(abs(bias) > lam / 2)
            else:
                scale = math.sqrt(2) * w_norm
                p = 0.5 * (math.erfc((lam / 2 - bias) / scale)
                           + math.erfc((lam / 2 + bias) / scale))
            probs.append(max(p, 1e-300))
            ns.append(Mi * Ni ** cfg.noise.alpha)
            ladder_rows.append((Mi, Ni, p))
        if len(ladder) >= 3:
            tail_exponent = fit_rate(zip(ns, probs))[0]
    return Lemma3Report(frequencies=freqs,
                        max_frequency=max(freqs.values()),
                        tail_exponent=tail_exponent, ladder=ladder_rows)


def _tail_ingredients(f, cfg, index, M, N, J1, J2, replicates, seed):
    j1, k1, j2, k2 = index
    V = _deviation_weights(cfg, index, N, M)
    q = md.convolved_signal(f, cfg.kernel, md.quantile_design(N, cfg.d1),
                            md.quantile_design(M, cfg.d2))
    true_blocks = es.true_coefficients(f, cfg, J1, J2)
    beta = true_blocks[(j1, j2)][k1, k2]
    bias = float(np.sum(V * q)) - beta
    lam = es.threshold(cfg, M, N, *index)
    w, dev = _colored_deviations(V, cfg.noise, replicates, seed)
    return bias, lam, float(np.linalg.norm(w)), dev


# ----------------------------------------------------------------------
# Rate experiments
# ----------------------------------------------------------------------

@dataclass
class RateReport:
    points: list[dict]           # N, M, n, mise_mean, mise_se, chi
    slope: float
    slope_se: float
    regime: int
    d: float
    xi1: int
    xi2: int
    alpha: float
    notes: list[str] = dc_field(default_factory=list)


def _ladder_point(f, cfg, N, M, replicates, seed, i, grid, f_ref):
    """MISE mean and standard error over the replicates of ladder point i;
    replicate r draws its noise from SeedSequence(seed, spawn_key=(i, r))."""
    plan = es.FieldPlan(cfg, md.quantile_design(N, cfg.d1),
                        md.quantile_design(M, cfg.d2))
    values = np.empty(replicates)
    grids = md.simulate_replicates(f, cfg.kernel, cfg.d1, cfg.d2, cfg.noise,
                                   N, M, (np.random.SeedSequence(seed, spawn_key=(i, r))
                                          for r in range(replicates)))
    # the replicates' reconstructions share the level matrices of every level
    points = np.arange(grid) / grid
    bases = tuple({j: wv.eval_level(cfg.wavelet, j, axis, points)
                   for j in wv.level_range(cfg.wavelet, J, axis)}
                  for axis, J in ((0, plan.J1), (1, plan.J2)))
    for r, obs in enumerate(grids):
        fld = es.estimate_field(plan, obs.Y)
        values[r] = mise(es.reconstruct(fld, cfg, grid=grid, bases=bases), f_ref)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(replicates)) if replicates > 1 else 0.0


def rate_experiment(f: md.TestFunction, cfg: es.EstimatorConfig, ladder,
                    replicates: int = 20, seed: int = 0, grid: int = 512,
                    threads: int = 1,
                    bp: BesovParams | None = None) -> RateReport:
    """Full-pipeline convergence benchmark over an (N, M) ladder.

    Averages the integrated squared error of the thresholded reconstruction
    over replicates at each ladder point, fits the log-log slope against the
    effective sample size n = M N^alpha, and attaches the classified
    theoretical regime for comparison.  Replicate r of ladder point i
    draws its noise from SeedSequence(seed, spawn_key=(i, r)): unlike the
    entropy [seed, i, r], this key is not padded into the key of the plain
    seed, and a seed of 2^32 or more is not split into words that alias
    (i, r), so replicates of different runs, and a replicate and a plain
    ``simulate`` seed, never share their noise.
    """
    if not ladder:
        raise md.ParameterError("ladder must contain at least one (N, M) pair")
    if bp is None:
        bp = BesovParams.from_test_function(f)
    regime = theoretical_exponent(bp, cfg.kernel.nu, cfg.d1.beta, cfg.d2.beta)
    f_ref = f.grid(grid)

    def work(args):
        i, (N, M) = args
        return _ladder_point(f, cfg, N, M, replicates, seed, i, grid, f_ref)

    jobs = list(enumerate(ladder))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, jobs))
    else:
        results = [work(j) for j in jobs]
    noise = cfg.noise
    points = []
    for (N, M), (mean, se) in zip(ladder, results):
        n_eff = M * N ** noise.alpha
        chi = noise.sigma ** 2 * math.log(n_eff) / (cfg.besov_radius ** 2 * n_eff)
        points.append({"N": N, "M": M, "n": n_eff, "mise_mean": mean,
                       "mise_se": se, "chi": chi})
    if len(points) >= 3:
        slope, se = fit_rate([(p["n"], p["mise_mean"]) for p in points])
    else:
        slope, se = math.nan, math.nan
    return RateReport(points=points, slope=slope, slope_se=se,
                      regime=regime.regime, d=regime.d, xi1=regime.xi1,
                      xi2=regime.xi2, alpha=noise.alpha, notes=regime.notes)


def rate_report_csv(report: RateReport, path) -> None:
    """One row per ladder point, every value %.17g (N and M are integers)."""
    columns = ("N", "M", "n", "mise_mean", "mise_se", "chi")
    md._write_csv(path, ",".join(columns),
                  np.array([[p[c] for c in columns] for p in report.points], dtype=float))


def rate_report_text(report: RateReport) -> str:
    lines = [
        f"ladder points: {len(report.points)}",
        f"fitted slope: {report.slope:.4f} +/- {report.slope_se:.4f}",
        f"regime: {report.regime}  theoretical exponent d: {report.d:.4f}"
        f"  (expected slope {-report.d:.4f})",
        f"log-factor exponents: xi1={report.xi1} xi2={report.xi2}",
        f"alpha: {report.alpha}",
    ]
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
