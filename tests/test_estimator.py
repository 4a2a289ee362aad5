import dataclasses
import math

import numpy as np
import pytest

from afdeconv import analysis as an
from afdeconv import estimator as es
from afdeconv import model as md
from afdeconv import wavelets as wv

WSPEC = wv.WaveletSpec()
UNIFORM = md.DesignDensity(beta=0.0, x0=0.5)
SILENT = md.NoiseSpec(alpha=1.0, sigma=0.0)
# power_kernel(1) scaled by (1 + x/2): a kernel whose coefficients vary in x
_POWER = md.power_kernel(1.0)
X_VARYING = md.KernelSpec(nu=1.0,
                          fourier=lambda m, x: _POWER.fourier(m)
                          * (1.0 + 0.5 * np.asarray(x)),
                          x_dependent=True)


def _config(nu=1.0, d1=UNIFORM, d2=UNIFORM, alpha=1.0, sigma=1.0,
            kind="gaussian-fgn", **kw):
    """An estimator config over power_kernel(nu) and the given designs and
    noise law."""
    return es.EstimatorConfig(md.power_kernel(nu), d1, d2,
                              md.NoiseSpec(alpha=alpha, kind=kind,
                                           sigma=sigma), **kw)


def _estimate(obs, cfg):
    """The level blocks of `obs` under the model and levels of `cfg`."""
    return es.estimate_field(es.FieldPlan(cfg, obs.t, obs.x), obs.Y)


def _plan(t, x, d1, d2, kernel, J1, J2):
    """A FieldPlan on the levels J1, J2; the noise law does not enter it."""
    cfg = es.EstimatorConfig(kernel, d1, d2, SILENT, J1=J1, J2=J2)
    return es.FieldPlan(cfg, t, x)


class TestLevelSelection:

    def test_worked_example(self):
        # M = N = 1024, alpha = 0.5, sigma = A = 1, nu = 1:
        # log2(M N^alpha) = 15, so J1 = floor(15/3) = 5 and J2 = 15
        # capped at floor(log2 M) - 1 = 9.
        assert es.choose_levels(1024, 1024, 0.5, 1.0, A=1.0, nu=1.0) == (5, 9)

    def test_caps(self):
        J1, J2 = es.choose_levels(256, 256, 1.0, 1e-6)
        assert J1 == 7 and J2 == 7

    def test_sigma_zero_hits_cap(self):
        assert es.choose_levels(512, 512, 1.0, 0.0) == (8, 8)

    def test_monotone_in_information(self):
        lo = es.choose_levels(4096, 4096, 1.0, 10.0)
        hi = es.choose_levels(4096, 4096, 1.0, 0.1)
        assert hi[0] >= lo[0] and hi[1] >= lo[1]


class TestThreshold:

    def test_worked_value(self):
        # gamma=4, sigma=1, nu=1, beta=0, alpha=1, M=N=1024, j1=3, j2=2:
        # lambda^2 = 16 * 2^6 * ln(2^20) / 2^20
        cfg = _config(gamma=4.0)
        lam = es.threshold(cfg, 1024, 1024, 3, 1, 2, 1)
        expected = math.sqrt(16 * 64 * math.log(2 ** 20) / 2 ** 20)
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_pinned_numeric_value(self):
        # lambda^2 = 16 * 64 * ln(65536) / 65536 at M = N = 256
        cfg = _config(gamma=4.0)
        lam = es.threshold(cfg, 256, 256, 3, 1, 2, 1)
        assert lam == pytest.approx(0.4163, abs=5e-4)

    def test_stronger_long_memory_raises_threshold(self):
        lam_1 = es.threshold(_config(alpha=1.0), 256, 256, 3, 1, 2, 1)
        lam_05 = es.threshold(_config(alpha=0.5), 256, 256, 3, 1, 2, 1)
        assert lam_05 > lam_1

    def test_distance_discount(self):
        """Each axis is discounted by its own design: t by (beta, x0) =
        (0.5, 0.5), so k0 = 8 at level 4, and x by (0.2, 0.25), so k0 = 4."""
        cfg = _config(d1=md.DesignDensity(beta=0.5, x0=0.5),
                      d2=md.DesignDensity(beta=0.2, x0=0.25))
        near = es.threshold(cfg, 256, 256, 4, 8, 4, 4)
        far_t = es.threshold(cfg, 256, 256, 4, 0, 4, 4)
        far_x = es.threshold(cfg, 256, 256, 4, 8, 4, 12)
        assert far_t < near and far_x < near
        # |k - k0| = 8 discounts by 8^{beta/2}: 8^{1/4} on t, 8^{1/10} on x
        assert near / far_t == pytest.approx(8 ** 0.25, rel=1e-12)
        assert near / far_x == pytest.approx(8 ** 0.1, rel=1e-12)
        # A scaling axis (pseudo-level m0 - 1 = 2, 2^{m0} = 8 shifts) is
        # discounted around the shift whose function peaks nearest x0 = 0.5:
        # k = 4 of 8, not round(x0 2^2) = 2.
        cfg = _config(d1=md.DesignDensity(beta=0.5, x0=0.5),
                      d2=md.DesignDensity(beta=0.2, x0=0.5))
        fine = np.arange(4096) / 4096
        for axis in (0, 1):
            scaling = WSPEC.lowest_level(axis) - 1
            centres = fine[np.argmax(wv.eval_on_points(
                fine, *wv.build_basis(WSPEC, scaling, axis)), axis=0)]
            peak = int(np.argmin(np.abs(centres - 0.5)))
            assert peak == 4
            lam = [es.threshold(cfg, 256, 256,
                                *[(scaling, k, 4, 3), (4, 3, scaling, k)][axis])
                   for k in range(wv.shift_count(WSPEC, scaling, axis))]
            assert lam[peak] == max(lam)
            assert lam[peak - 2] < lam[peak] and lam[peak + 2] < lam[peak]
        # lemma 1 probes the x scaling level off the singularity
        rep = an.verify_lemma1(cfg, levels1=[3], shifts_per_level=1, grid=1024)
        assert abs(rep.entries[0]["k2"] - peak) >= 2

    def test_variance_law_x_factor(self):
        """The x factor of the variance law, which lemma 1's one x shift
        cancels: on an x-design singular at x0 = 0.5, the offset-grid
        quadratures of int eta^p / h2^{p-1} over the x-levels m20 - 1 .. 6,
        divided by `_variance_order` at a fixed t-index, stay within A4's
        spreads: 8 for p = 2 over every shift, 16 for p = 4 over the shifts
        at least max(2, count/8) from k0."""
        d2 = md.DesignDensity(beta=0.3, x0=0.5)
        cfg = _config(d2=d2)
        x = an._quad_grid(8192)
        h2 = d2.pdf(x)
        ratios = {2: [], 4: []}
        for j2 in range(cfg.wavelet.m20 - 1, 7):
            eta = wv.eval_on_points(x, *wv.build_basis(cfg.wavelet, j2, axis=1))
            k2 = np.arange(eta.shape[1])
            far = np.abs(k2 - es._singular_shift(k2.size, d2.x0)) >= max(2, k2.size / 8)
            for p, shifts in ((2, k2), (4, k2[far])):
                quad = np.mean(eta[:, shifts] ** p / h2[:, None] ** (p - 1), axis=0)
                ratios[p].append(quad / es._variance_order(cfg, p, 3, 1, j2, shifts))
        for p, bound in ((2, 8.0), (4, 16.0)):
            r = np.concatenate(ratios[p])
            assert r.max() / r.min() <= bound

    def test_subgaussian_form(self):
        g = _config(kind="gaussian-fgn")
        s = _config(kind="subgaussian-rademacher")
        lam_g = es.threshold(g, 256, 256, 3, 1, 3, 1)
        lam_s = es.threshold(s, 256, 256, 3, 1, 3, 1)
        n = 256 * 256
        assert (lam_s / lam_g) ** 2 == pytest.approx(
            (1 + 16 * math.log(n)) / (16 * math.log(n)), rel=1e-12)

    def test_level_scaling(self):
        cfg = _config()
        lam3 = es.threshold(cfg, 256, 256, 3, 1, 2, 1)
        lam4 = es.threshold(cfg, 256, 256, 4, 1, 2, 1)
        assert lam4 / lam3 == pytest.approx(2 ** ((2 * 1.0) / 2), rel=1e-12)


class TestCoefficientRecovery:

    @pytest.mark.parametrize("kernel", [md.identity_kernel(),
                                        md.power_kernel(1.0),
                                        md.fractional_kernel(0.5)])
    def test_atom_recovered_exactly(self, kernel):
        """A single basis atom under a uniform design is estimated to
        machine precision: the quadrature is exact for band-limited data."""
        f = md.single_atom(3, 2, 3, 5, WSPEC)
        obs = md.simulate_observations(f, kernel, UNIFORM, UNIFORM, SILENT,
                                       N=256, M=256, seed=1)
        cfg = es.EstimatorConfig(kernel, UNIFORM, UNIFORM, SILENT, J1=5, J2=5)
        field = _estimate(obs, cfg)
        for (j1, j2), blk in field.items():
            expected = np.zeros_like(blk.beta_hat)
            if (j1, j2) == (3, 3):
                expected[2, 5] = 1.0
            assert np.allclose(blk.beta_hat, expected, atol=1e-12)

    def test_field_matches_single_coefficient_path(self):
        """Vectorized field estimation equals the per-index quadrature
        (NM)^{-1} sum U Y / (h1 h2), for an x-independent and an
        x-dependent kernel, on uniform and singular designs, and on
        different t- and x-designs."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=64)
        noise = md.NoiseSpec(alpha=0.8, sigma=0.5)
        singular = md.DesignDensity(beta=0.3, x0=0.5)
        designs = [(UNIFORM, UNIFORM), (singular, singular),
                   (md.DesignDensity(beta=0.3, x0=0.4),
                    md.DesignDensity(beta=0.6, x0=0.7))]
        for ker in (md.power_kernel(1.0), X_VARYING):
            for d1, d2 in designs:
                obs = md.simulate_observations(f, ker, d1, d2, noise,
                                               N=64, M=64, seed=5)
                cfg = es.EstimatorConfig(ker, d1, d2, noise, J1=4, J2=4)
                field = _estimate(obs, cfg)
                weights = 1.0 / np.outer(d1.pdf(obs.t), d2.pdf(obs.x))
                for j1, k1, j2, k2 in [(2, 0, 2, 3), (3, 7, 2, 1), (2, 4, 3, 6)]:
                    U = es.compute_U(cfg, (j1, k1, j2, k2), obs.t, obs.x)
                    single = np.sum(U * obs.Y * weights) / (obs.N * obs.M)
                    blk = field[(j1, j2)]
                    assert blk.beta_hat[k1, k2] == pytest.approx(
                        single, abs=1e-12)
                    # the lemma suites' linear form is the plan's estimate
                    V = an._deviation_weights(cfg, (j1, k1, j2, k2), obs.N, obs.M)
                    assert np.sum(V * obs.Y) == pytest.approx(
                        blk.beta_hat[k1, k2], abs=1e-12)

    def test_x_dependent_kernel_path(self):
        """A kernel with x-varying coefficients recovers a band-limited
        atom exactly."""
        ker = X_VARYING
        f = md.single_atom(3, 1, 3, 2, WSPEC)
        obs_clean = md.simulate_observations(f, md.identity_kernel(), UNIFORM,
                                             UNIFORM, SILENT, N=128, M=128,
                                             seed=0)
        # convolve manually per column with the x-dependent kernel
        Y = np.empty_like(obs_clean.Y)
        m, base_tab = wv.base_table(WSPEC, 3, axis=0)
        for l, xl in enumerate(obs_clean.x):
            fhat = f.u_hat_at(m) * f.v(xl) * ker.coeff(m, xl)
            Y[:, l] = np.real(np.exp(
                2j * np.pi * np.outer(obs_clean.t, m)) @ fhat)
        obs = md.ObservationGrid(t=obs_clean.t, x=obs_clean.x, Y=Y)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, SILENT, J1=5, J2=5)
        field = _estimate(obs, cfg)
        blk = field[(3, 3)]
        assert blk.beta_hat[1, 2] == pytest.approx(1.0, abs=1e-10)
        off = blk.beta_hat.copy()
        off[1, 2] = 0.0
        assert np.max(np.abs(off)) < 1e-10

    @pytest.mark.parametrize("ker", [md.power_kernel(1.0), X_VARYING],
                             ids=["power", "x-varying"])
    @pytest.mark.parametrize("d1, d2", [
        (md.DesignDensity(beta=0.3, x0=0.5), md.DesignDensity(beta=0.3, x0=0.5)),
        (md.DesignDensity(beta=0.3, x0=0.4), md.DesignDensity(beta=0.6, x0=0.7))],
        ids=["singular", "mixed"])
    def test_column_blocks_match_single_coefficient_path(self, monkeypatch,
                                                         ker, d1, d2):
        """M = 40 over column blocks of 16 (three blocks, the last one
        short): the plan still equals the per-index quadrature, and an
        all-zero Y estimates exactly zero."""
        monkeypatch.setattr(es, "_BLOCK_COLUMNS", 16)
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=64)
        noise = md.NoiseSpec(alpha=0.8, sigma=0.5)
        obs = md.simulate_observations(f, ker, d1, d2, noise, N=48, M=40, seed=5)
        plan = _plan(obs.t, obs.x, d1, d2, ker, 4, 4)
        blocks = plan.estimate(obs.Y)
        weights = 1.0 / np.outer(d1.pdf(obs.t), d2.pdf(obs.x))
        for j1, k1, j2, k2 in [(2, 0, 2, 0), (3, 7, 3, 7), (2, 4, 3, 6),
                               (3, 3, 2, 1), (3, 0, 3, 5)]:
            U = es.compute_U(plan.cfg, (j1, k1, j2, k2), obs.t, obs.x)
            single = np.sum(U * obs.Y * weights) / (obs.N * obs.M)
            assert blocks[(j1, j2)][k1, k2] == pytest.approx(single, abs=1e-12)
        for blk in plan.estimate(np.zeros_like(obs.Y)).values():
            assert np.all(blk == 0.0)

    def test_estimate_holds_no_grid_sized_array(self):
        """At N = M = 512, with the levels of the rule for alpha = 0.5 and
        sigma = 0.05, the traced peak of FieldPlan.estimate stays below
        the bytes of one N x M float64 array."""
        import tracemalloc
        d = md.DesignDensity(beta=0.3, x0=0.5)
        J1, J2 = es.choose_levels(512, 512, 0.5, 0.05)
        plan = _plan(md.quantile_design(512, d), md.quantile_design(512, d),
                     d, d, md.power_kernel(1.0), J1, J2)
        Y = np.random.default_rng(4).standard_normal((512, 512))
        tracemalloc.start()
        try:
            plan.estimate(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Y.nbytes

    def test_linearity(self):
        ker = md.power_kernel(1.0)
        rng = np.random.default_rng(8)
        t = md.quantile_design(64, UNIFORM)
        x = md.quantile_design(64, UNIFORM)
        Y1 = rng.standard_normal((64, 64))
        Y2 = rng.standard_normal((64, 64))
        plan = _plan(t, x, UNIFORM, UNIFORM, ker, 4, 4)

        def est(Y):
            return plan.estimate(Y)[(3, 3)][4, 1]

        assert est(Y1 + Y2) == pytest.approx(est(Y1) + est(Y2), abs=1e-10)
        assert est(np.zeros((64, 64))) == 0.0

    def test_constant_function_hits_only_scaling_level(self):
        one = md.TestFunction(
            u=lambda t: np.ones(np.shape(t)), v=lambda x: np.ones(np.shape(x)),
            u_hat=np.array([1.0 + 0.0j]), s1=2.0, s2=2.0)
        blocks = es.true_coefficients(one, _config(), 5, 5)
        s1, s2 = WSPEC.m10 - 1, WSPEC.m20 - 1
        for (j1, j2), blk in blocks.items():
            if (j1, j2) == (s1, s2):
                assert np.max(np.abs(blk)) > 0.1
                # scaling coefficients of the constant resynthesize to 1
                assert np.sum(blk ** 2) == pytest.approx(1.0, abs=1e-10)
            else:
                assert np.max(np.abs(blk)) < 1e-10

    def test_true_coefficients_against_grid_quadrature(self):
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=128)
        blocks = es.true_coefficients(f, _config(), 4, 4)
        g = np.arange(1024) / 1024
        F = f.eval(g[:, None], g[None, :])
        m1, psi = wv.build_basis(WSPEC, 3, axis=0)
        m2, eta = wv.build_basis(WSPEC, 3, axis=1)
        psi = wv.eval_on_points(g, m1, psi[:, 2])
        eta = wv.eval_on_points(g, m2, eta[:, 5])
        quad = psi @ F @ eta / 1024 ** 2
        assert blocks[(3, 3)][2, 5] == pytest.approx(quad, abs=1e-9)

    def test_true_coefficients_on_the_top_x_level(self):
        """J2 = 12 reaches x-level 11, whose band of 2732 needs a grid of
        8192 points: its blocks come back, and the blocks of x-levels up
        to 10 equal bitwise those of the J2 = 11 call."""
        f = md.tensor_sinusoid(1.0, 1.0)
        top = es.true_coefficients(f, _config(), 3, 12)
        lower = es.true_coefficients(f, _config(), 3, 11)
        assert {j2 for _, j2 in top} == set(range(2, 12))
        assert top[(2, 11)].shape == (8, 2 ** 11)
        for key, blk in lower.items():
            assert np.array_equal(top[key], blk)


class TestThresholdingRules:

    def _observations(self):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=128)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=1.0, sigma=0.5)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, noise,
                                       N=128, M=128, seed=3)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise)
        return obs, cfg

    def test_strict_inequality_and_scaling_block(self):
        obs, cfg = self._observations()
        field = _estimate(obs, cfg)
        s1, s2 = min(field)
        for (j1, j2), blk in field.items():
            if (j1, j2) == (s1, s2):
                assert np.all(blk.kept)
            else:
                assert np.array_equal(blk.kept,
                                      np.abs(blk.beta_hat) > blk.lam)

    def test_larger_gamma_keeps_fewer(self):
        obs, cfg = self._observations()
        kept = [sum(blk.kept.sum() for blk in
                    _estimate(obs, dataclasses.replace(cfg, gamma=gamma)).values())
                for gamma in (4.0, 8.0)]
        assert kept[1] <= kept[0]


class TestReconstruction:

    @pytest.mark.parametrize("grid, aliased", [(16, True), (512, False)])
    def test_reconstruct_is_direct_synthesis(self, grid, aliased):
        """The grid holds sum beta_hat psi_{j1,k1}(t) eta_{j2,k2}(x) over
        the kept coefficients, evaluated point by point at t, x = a / grid;
        on the 16-point grid the bands alias."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=64)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=1.0, sigma=0.3)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, noise,
                                       N=128, M=128, seed=9)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise, J1=5, J2=5)
        field = _estimate(obs, cfg)
        assert any(not blk.kept.all() for blk in field.values())
        points = np.arange(grid) / grid
        expected = np.zeros((grid, grid))
        band = 0
        for (j1, j2), blk in field.items():
            m1, psi = wv.build_basis(cfg.wavelet, j1, axis=0)
            m2, eta = wv.build_basis(cfg.wavelet, j2, axis=1)
            band = max(band, m1.max(), m2.max())
            expected += (wv.eval_on_points(points, m1, psi)
                         @ np.where(blk.kept, blk.beta_hat, 0.0)
                         @ wv.eval_on_points(points, m2, eta).T)
        assert (2 * band + 1 > grid) == aliased
        assert np.allclose(es.reconstruct(field, cfg, grid=grid), expected,
                           rtol=0.0, atol=1e-12)

    def test_parseval_identity(self):
        """Grid energy of the reconstruction equals the coefficient energy."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=64)
        ker = md.identity_kernel()
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, SILENT,
                                       N=128, M=128, seed=2)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, SILENT, J1=5, J2=5)
        field = _estimate(obs, cfg)
        for blk in field.values():
            blk.kept[:] = True
        recon = es.reconstruct(field, cfg, grid=512)
        coeff_energy = sum(np.sum(blk.beta_hat ** 2)
                           for blk in field.values())
        grid_energy = np.mean(recon ** 2)
        assert grid_energy == pytest.approx(coeff_energy, rel=1e-10)


class TestErrorsAndIO:

    def test_kernel_not_invertible(self):
        dead = md.KernelSpec(nu=1.0,
                             fourier=lambda m: np.where(
                                 np.abs(np.asarray(m)) == 7, 0.0, 1.0),
                             x_dependent=False)
        with pytest.raises(es.KernelNotInvertibleError):
            es.compute_U(es.EstimatorConfig(dead, UNIFORM, UNIFORM, SILENT),
                         (3, 0, 3, 0), np.linspace(0.01, 0.99, 16),
                         np.linspace(0.01, 0.99, 16))

    def test_singular_design_point(self):
        d = md.DesignDensity(beta=0.5, x0=0.5)
        t = np.array([0.25, 0.5, 0.75])  # 0.5 sits on the singularity
        x = np.array([0.2, 0.4, 0.6])
        with pytest.raises(es.SingularDesignError):
            _plan(t, x, d, UNIFORM, md.identity_kernel(), 2, 2)

    @staticmethod
    def _check_field_rows(path, field, truth):
        """The file read by the package's CSV reader lists every index once,
        level blocks in (j1, j2) order and k1, k2 row-major inside, with
        every value bitwise; without the truth there is no beta_true."""
        with_truth = truth is not None
        names = es._FIELD_COLUMNS + (("beta_true",) if with_truth else ())
        data = md._read_csv(path, names)
        expected = {name: [] for name in names}
        for (j1, j2), blk in sorted(field.items()):
            k1, k2 = np.indices(blk.beta_hat.shape)
            for name, values in (("j1", np.full(k1.size, j1)), ("k1", k1),
                                 ("j2", np.full(k1.size, j2)), ("k2", k2),
                                 ("beta_hat", blk.beta_hat),
                                 ("lambda", blk.lam), ("kept", blk.kept),
                                 ("beta_true", with_truth and truth[(j1, j2)])):
                if name in names:
                    expected[name].append(np.ravel(values))
        for name in names:
            assert np.array_equal(data[name], np.concatenate(expected[name]))
        if not with_truth:
            with pytest.raises(md.ParameterError, match="beta_true missing"):
                md._read_csv(path, (*names, "beta_true"))

    def test_field_csv_roundtrip(self, tmp_path):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=64)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=1.0, sigma=0.5)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, noise,
                                       N=64, M=64, seed=4)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise, J1=4, J2=4)
        truth = es.true_coefficients(f, cfg, 4, 4)
        field = _estimate(obs, cfg)
        path = tmp_path / "field.csv"
        es.save_field_csv(field, path, truth)
        self._check_field_rows(path, field, truth)

    @pytest.mark.parametrize("with_truth", [True, False])
    def test_field_csv_bytes_and_exact_roundtrip(self, tmp_path, monkeypatch,
                                                 with_truth):
        """On beta = 0.3 designs the block writer's bytes equal one f-string
        per index, also in blocks of 100 values, and the reader returns
        every value bitwise."""
        monkeypatch.setattr(es, "_BLOCK_VALUES", 100)
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=64)
        ker = md.power_kernel(1.0)
        d = md.DesignDensity(beta=0.3, x0=0.4)
        noise = md.NoiseSpec(alpha=0.8, sigma=0.5)
        obs = md.simulate_observations(f, ker, d, d, noise, N=64, M=64, seed=9)
        cfg = es.EstimatorConfig(ker, d, d, noise, J1=4, J2=5)
        truth = es.true_coefficients(f, cfg, 4, 5) if with_truth else None
        field = _estimate(obs, cfg)
        path = tmp_path / "field.csv"
        es.save_field_csv(field, path, truth)
        rows = ["j1,k1,j2,k2,beta_hat,lambda,kept"
                + (",beta_true" if with_truth else "")]
        for (j1, j2), blk in sorted(field.items()):
            count1, count2 = blk.beta_hat.shape
            for k1 in range(count1):
                for k2 in range(count2):
                    row = (f"{j1},{k1},{j2},{k2},{blk.beta_hat[k1, k2]:.17g},"
                           f"{blk.lam[k1, k2]:.17g},{int(blk.kept[k1, k2])}")
                    if with_truth:
                        row += f",{truth[(j1, j2)][k1, k2]:.17g}"
                    rows.append(row)
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
        self._check_field_rows(path, field, truth)
