"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
measured values inline).  Criterion A3 checks the eigenvalue law of the
fractional-Gaussian-noise covariance: the largest eigenvalue scales like
N^{1-alpha}, while the smallest is non-increasing in N (Cauchy interlacing)
and decreases to the spectral-density floor 2*pi*f(pi) (Grenander-Szego).
"""

import math

import numpy as np
import pytest
from scipy.special import gamma, zeta

from afdeconv import analysis as an
from afdeconv import estimator as es
from afdeconv import model as md
from afdeconv import wavelets as wv

UNIFORM = md.DesignDensity(beta=0.0, x0=0.5)
THREADS = 4


def _lemma_config(kernel, d1, d2, noise=md.NoiseSpec(alpha=1.0, sigma=1.0)):
    """The config the lemma suites read: kernel and designs, and the noise
    law where it enters (lemma 2)."""
    return es.EstimatorConfig(kernel, d1, d2, noise)


def _report(name: str, detail: str, ok: bool) -> None:
    print(f"{name}: {detail} -> {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def rate_runs():
    """Shared A1/A1b ladder runs (the expensive part of the suite)."""
    f = md.tensor_sinusoid(1.0, 1.0, max_freq=4096)
    ker = md.power_kernel(1.0)
    ladder = [(128, 128), (256, 256), (512, 512), (1024, 1024)]
    out = {}
    for alpha in (1.0, 0.5):
        noise = md.NoiseSpec(alpha=alpha, sigma=0.05)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise)
        out[alpha] = an.rate_experiment(f, cfg, ladder, replicates=20,
                                        seed=11, threads=THREADS)
    return out


class TestAcceptance:

    def test_A1_regime2_rate(self, rate_runs):
        """Fitted log-log MISE slope at alpha=1 within 0.15 of -0.4."""
        rep = rate_runs[1.0]
        ok = abs(rep.slope - (-0.4)) <= 0.15
        _report("A1", f"slope={rep.slope:.4f} (target -0.4 +/- 0.15, "
                f"d={rep.d})", ok)
        assert rep.d == pytest.approx(0.4)
        assert ok

    def test_A1b_long_memory_degradation(self, rate_runs):
        """alpha=0.5 slope within 0.2 of -0.4 and MISE uniformly worse."""
        rep = rate_runs[0.5]
        base = rate_runs[1.0]
        slope_ok = abs(rep.slope - (-0.4)) <= 0.2
        worse = all(a["mise_mean"] > b["mise_mean"]
                    for a, b in zip(rep.points, base.points))
        _report("A1b", f"slope={rep.slope:.4f} (target -0.4 +/- 0.2), "
                f"uniformly worse than alpha=1: {worse}", slope_ok and worse)
        assert slope_ok
        assert worse

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_A2_variance_law(self, alpha):
        """Slope of log Var(beta-tilde) vs log N equals -alpha +/- 0.15."""
        noise = md.NoiseSpec(alpha=alpha, sigma=1.0)
        rep = an.verify_lemma2(_lemma_config(md.power_kernel(1.0), UNIFORM,
                                             UNIFORM, noise), (3, 2, 2, 1), M=128,
                               N_ladder=[128, 256, 512, 1024],
                               replicates=500, seed=3)
        ok = abs(rep.slope - (-alpha)) <= 0.15
        _report("A2", f"alpha={alpha}: slope={rep.slope:.4f} "
                f"(target {-alpha} +/- 0.15)", ok)
        assert ok

    def test_A3_eigenvalue_growth(self):
        """Extreme eigenvalues of Sigma_N over N in {128, 256, 512, 1024}.

        lambda_max/N^{1-alpha} drifts by at most a factor 2.  lambda_min
        follows the fGn law: Sigma_N is a principal submatrix of Sigma_2N,
        so by Cauchy interlacing lambda_min is non-increasing in N; by
        Grenander-Szego it is bounded below by, and converges to,
        lambda_inf = 2*pi*f(pi), with f the unit-variance fGn spectral
        density.  Asserted: lambda_min >= lambda_inf (to rounding), the
        ladder is non-increasing, and lambda_min/lambda_inf - 1 <= 1e-3.
        """
        ladder = [128, 256, 512, 1024]
        failures = []
        for alpha in (0.4, 0.6, 0.8, 1.0):
            H = 1 - alpha / 2
            s = 2 * H + 1
            # 2*pi*f(pi) in closed form; equals 1 at alpha = 1 (white noise).
            lam_inf = (8 * gamma(s) * math.sin(math.pi * H) * math.pi ** -s
                       * (1 - 2 ** -s) * zeta(s))
            lo, hi = [], []
            for N in ladder:
                eig = np.linalg.eigvalsh(md.lrd_covariance(N, alpha))
                lo.append(eig[0])
                hi.append(eig[-1] / N ** (1 - alpha))
            drift_hi = max(hi) / min(hi)
            gaps = [lam / lam_inf - 1 for lam in lo]
            above = min(gaps) >= -1e-12
            monotone = all(b <= a * (1 + 1e-12) for a, b in zip(lo, lo[1:]))
            close = max(gaps) <= 1e-3
            ok = drift_hi <= 2.0 and above and monotone and close
            detail = (f"alpha={alpha}: lambda_max drift {drift_hi:.3f}, "
                      f"lambda_inf {lam_inf:.6f}, lambda_min "
                      f"{', '.join(f'{lam:.6f}' for lam in lo)}, "
                      f"max relative gap {max(gaps):.2e}, "
                      f"non-increasing {monotone}")
            if not ok:
                failures.append(detail)
            _report("A3", detail, ok)
        assert not failures, "; ".join(failures)

    def test_A4_quadrature_scaling(self):
        """U^2 ratio spread <= 8 and U^4 ratio spread <= 16 over j1 in 3..6."""
        d = md.DesignDensity(beta=0.3, x0=0.5)
        rep = an.verify_lemma1(_lemma_config(md.power_kernel(1.0), d, d),
                               levels1=[3, 4, 5, 6])
        ok = rep.spread2 <= 8.0 and rep.spread4 <= 16.0
        _report("A4", f"spread2={rep.spread2:.3f} (<=8), "
                f"spread4={rep.spread4:.3f} (<=16)", ok)
        assert rep.spread2 <= 8.0
        assert rep.spread4 <= 16.0

    @pytest.mark.parametrize("kind,const", [("gaussian-fgn", 4.0),
                                            ("subgaussian-rademacher", 4.0)])
    def test_A5_tail_probability(self, kind, const):
        """Pr(|beta-tilde - beta| > lambda/2) <= 0.01 for every probed omega."""
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=256)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=0.8, kind=kind, sigma=1.0)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise,
                                 gamma=const, mu=const)
        indices = [(2, 1, 2, 2), (3, 2, 2, 1), (3, 5, 3, 4), (4, 9, 2, 3),
                   (2, 0, 4, 11)]
        rep = an.verify_lemma3(f, cfg, indices, M=256, N=256,
                               replicates=1000, seed=17)
        ok = rep.max_frequency <= 0.01
        _report("A5", f"{kind}: max exceedance frequency="
                f"{rep.max_frequency:.4f} (<=0.01)", ok)
        assert ok

    def test_A6_noiseless_consistency(self):
        """sigma=0, identity kernel, J at cap: MISE <= 1e-3 and MISE
        strictly decreases as J1 grows from 3 to the cap."""
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=4096)
        ker = md.identity_kernel()
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, silent,
                                       N=256, M=256, seed=1)
        cap = int(math.log2(256)) - 1
        truth = f.grid(512)
        errs = []
        for J1 in range(3, cap + 1):
            cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, silent,
                                     J1=J1, J2=cap)
            field = es.estimate_field(es.FieldPlan(cfg, obs.t, obs.x), obs.Y)
            rec = es.reconstruct(field, cfg, grid=512, which="kept")
            errs.append(an.mise(rec, truth))
        decreasing = all(a > b for a, b in zip(errs, errs[1:]))
        ok = errs[-1] <= 1e-3 and decreasing
        _report("A6", f"MISE at cap={errs[-1]:.3e} (<=1e-3), strictly "
                f"decreasing over J1: {decreasing}", ok)
        assert errs[-1] <= 1e-3
        assert decreasing

    def test_A7_exponent_table(self):
        """Worked regime examples exact; min-formula agreement on the
        p >= 2 sweep (20 x 20 smoothness grid x nu x beta)."""
        r1 = an.theoretical_exponent(an.BesovParams(s1=4, s2=1, p=2), 1, 0, 0)
        r2 = an.theoretical_exponent(an.BesovParams(s1=1, s2=1, p=2), 1, 0, 0)
        r3 = an.theoretical_exponent(an.BesovParams(s1=1, s2=2, p=1), 1, 0, 0)
        examples_ok = (abs(r1.d - 2 / 3) < 1e-12 and r1.regime == 1
                       and abs(r2.d - 0.4) < 1e-12 and r2.regime == 2
                       and abs(r3.d - 1 / 3) < 1e-12 and r3.regime == 3)
        disagreements = 0
        total = 0
        for s1 in np.linspace(0.6, 4.0, 20):
            for s2 in np.linspace(0.6, 4.0, 20):
                for nu in (0.5, 1.0, 2.0):
                    for beta in (0.0, 0.3, 0.6):
                        total += 1
                        res = an.theoretical_exponent(
                            an.BesovParams(s1=s1, s2=s2, p=2.0),
                            nu, beta, beta)
                        if not res.agrees:
                            disagreements += 1
        ok = examples_ok and disagreements == 0
        _report("A7", f"worked examples exact: {examples_ok}; sweep "
                f"{total} points, {disagreements} disagreements", ok)
        assert examples_ok
        assert disagreements == 0

    def test_A8_unbiasedness(self):
        """MC mean of beta-tilde within 4 standard errors of beta for 10
        random omega at M=N=256, 500 replicates."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=4096)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=0.8, sigma=1.0)
        replicates = 500
        silent = md.NoiseSpec(alpha=noise.alpha, sigma=0.0)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, silent,
                                       N=256, M=256, seed=5)
        J1 = J2 = 5
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise, J1=J1, J2=J2)
        truth = es.true_coefficients(f, cfg, J1, J2)
        clean = es.estimate_field(es.FieldPlan(cfg, obs.t, obs.x), obs.Y)
        rng = np.random.default_rng(99)
        worst = 0.0
        for draw in range(10):
            j1 = int(rng.integers(2, J1))
            j2 = int(rng.integers(2, J2))
            k1 = int(rng.integers(0, wv.shift_count(cfg.wavelet, j1, 0)))
            k2 = int(rng.integers(0, wv.shift_count(cfg.wavelet, j2, 1)))
            beta = truth[(j1, j2)][k1, k2]
            clean_val = clean[(j1, j2)].beta_hat[k1, k2]
            V = an._deviation_weights(cfg, (j1, k1, j2, k2), 256, 256)
            _, dev = an._colored_deviations(V, noise, replicates, 1000 + draw)
            mc_mean = clean_val + float(dev.mean())
            se = float(dev.std(ddof=1)) / math.sqrt(replicates)
            worst = max(worst, abs(mc_mean - beta) / se)
        ok = worst <= 4.0
        _report("A8", f"max |mean - beta| / SE over 10 omegas = "
                f"{worst:.2f} (<=4)", ok)
        assert ok
