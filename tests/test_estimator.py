import math

import numpy as np
import pytest

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
                          x_dependent=True, name="x-varying")


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
        cfg = es.EstimatorConfig(gamma=4.0, sigma=1.0, alpha=1.0, nu=1.0)
        lam = es.threshold(es.Index(3, 1, 2, 1), cfg, M=1024, N=1024)
        expected = math.sqrt(16 * 64 * math.log(2 ** 20) / 2 ** 20)
        assert lam == pytest.approx(expected, rel=1e-12)

    def test_pinned_numeric_value(self):
        # lambda^2 = 16 * 64 * ln(65536) / 65536 at M = N = 256
        cfg = es.EstimatorConfig(gamma=4.0, sigma=1.0, alpha=1.0, nu=1.0)
        lam = es.threshold(es.Index(3, 1, 2, 1), cfg, M=256, N=256)
        assert lam == pytest.approx(0.4163, abs=5e-4)

    def test_stronger_long_memory_raises_threshold(self):
        kw = dict(sigma=1.0, nu=1.0)
        lam_1 = es.threshold(es.Index(3, 1, 2, 1),
                             es.EstimatorConfig(alpha=1.0, **kw), 256, 256)
        lam_05 = es.threshold(es.Index(3, 1, 2, 1),
                              es.EstimatorConfig(alpha=0.5, **kw), 256, 256)
        assert lam_05 > lam_1

    def test_distance_discount(self):
        cfg = es.EstimatorConfig(sigma=1.0, alpha=1.0, nu=1.0,
                                 beta1=0.5, beta2=0.5, t0=0.5, x0=0.5)
        near = es.threshold(es.Index(4, 8, 4, 8), cfg, 256, 256)
        far = es.threshold(es.Index(4, 0, 4, 8), cfg, 256, 256)
        assert far < near
        # |k - k0| = 8 at beta = 0.5 discounts by 8^{1/4}
        assert near / far == pytest.approx(8 ** 0.25, rel=1e-12)

    def test_subgaussian_form(self):
        g = es.EstimatorConfig(noise_kind="gaussian-fgn", sigma=1.0, alpha=1.0)
        s = es.EstimatorConfig(noise_kind="subgaussian-rademacher",
                               sigma=1.0, alpha=1.0)
        lam_g = es.threshold(es.Index(3, 1, 3, 1), g, 256, 256)
        lam_s = es.threshold(es.Index(3, 1, 3, 1), s, 256, 256)
        n = 256 * 256
        assert (lam_s / lam_g) ** 2 == pytest.approx(
            (1 + 16 * math.log(n)) / (16 * math.log(n)), rel=1e-12)

    def test_level_scaling(self):
        cfg = es.EstimatorConfig(sigma=1.0, alpha=1.0, nu=1.0)
        lam3 = es.threshold(es.Index(3, 1, 2, 1), cfg, 256, 256)
        lam4 = es.threshold(es.Index(4, 1, 2, 1), cfg, 256, 256)
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
        cfg = es.EstimatorConfig.from_specs(kernel, UNIFORM, UNIFORM, SILENT,
                                            J1=5, J2=5)
        field = es.estimate_field(obs, UNIFORM, UNIFORM, kernel, WSPEC, cfg)
        for (j1, j2), blk in field.blocks.items():
            expected = np.zeros_like(blk.beta_hat)
            if (j1, j2) == (3, 3):
                expected[2, 5] = 1.0
            assert np.allclose(blk.beta_hat, expected, atol=1e-12)

    def test_field_matches_single_coefficient_path(self):
        """Vectorized field estimation equals the per-index formula, for an
        x-independent and an x-dependent kernel, on uniform and singular
        designs."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=64)
        noise = md.NoiseSpec(alpha=0.8, sigma=0.5)
        for ker in (md.power_kernel(1.0), X_VARYING):
            for design in (UNIFORM, md.DesignDensity(beta=0.3, x0=0.5)):
                obs = md.simulate_observations(f, ker, design, design, noise,
                                               N=64, M=64, seed=5)
                cfg = es.EstimatorConfig.from_specs(ker, design, design,
                                                    noise, J1=4, J2=4)
                field = es.estimate_field(obs, design, design, ker, WSPEC,
                                          cfg)
                for idx in [es.Index(2, 0, 2, 3), es.Index(3, 7, 2, 1),
                            es.Index(2, 4, 3, 6)]:
                    single = es.estimate_coefficient(idx, obs, design, design,
                                                     ker, WSPEC)
                    blk = field.blocks[(idx.j1, idx.j2)]
                    assert blk.beta_hat[idx.k1, idx.k2] == pytest.approx(
                        single, abs=1e-12)

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
            fhat = f.fourier_t(m, np.array([xl]))[:, 0] * ker.coeff(m, xl)
            Y[:, l] = np.real(np.exp(
                2j * np.pi * np.outer(obs_clean.t, m)) @ fhat)
        obs = md.ObservationGrid(N=128, M=128, t=obs_clean.t, x=obs_clean.x,
                                 Y=Y, seed=0)
        cfg = es.EstimatorConfig.from_specs(ker, UNIFORM, UNIFORM, SILENT,
                                            J1=5, J2=5)
        field = es.estimate_field(obs, UNIFORM, UNIFORM, ker, WSPEC, cfg)
        blk = field.blocks[(3, 3)]
        assert blk.beta_hat[1, 2] == pytest.approx(1.0, abs=1e-10)
        off = blk.beta_hat.copy()
        off[1, 2] = 0.0
        assert np.max(np.abs(off)) < 1e-10

    def test_linearity(self):
        ker = md.power_kernel(1.0)
        rng = np.random.default_rng(8)
        t = md.quantile_design(64, UNIFORM)
        x = md.quantile_design(64, UNIFORM)
        Y1 = rng.standard_normal((64, 64))
        Y2 = rng.standard_normal((64, 64))
        idx = es.Index(3, 4, 3, 1)

        def est(Y):
            obs = md.ObservationGrid(N=64, M=64, t=t, x=x, Y=Y, seed=0)
            return es.estimate_coefficient(idx, obs, UNIFORM, UNIFORM,
                                           ker, WSPEC)

        assert est(Y1 + Y2) == pytest.approx(est(Y1) + est(Y2), abs=1e-10)
        assert est(np.zeros((64, 64))) == 0.0

    def test_constant_function_hits_only_scaling_level(self):
        one = md.TestFunction(
            name="constant",
            eval=lambda t, x: np.ones(np.broadcast(t, x).shape),
            fourier_t=lambda m, x: np.where(
                np.asarray(m)[:, None] == 0, 1.0, 0.0)
            * np.ones((1, np.asarray(x).size)),
            s1=2.0, s2=2.0)
        blocks = es.true_coefficients(one, WSPEC, 5, 5)
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
        blocks = es.true_coefficients(f, WSPEC, 4, 4, grid=2048)
        g = np.arange(1024) / 1024
        F = f.eval(g[:, None], g[None, :])
        m1, psi = wv.build_basis(WSPEC, 3, axis=0)
        m2, eta = wv.build_basis(WSPEC, 3, axis=1)
        psi = wv.eval_on_points(g, m1, psi[:, 2])
        eta = wv.eval_on_points(g, m2, eta[:, 5])
        quad = psi @ F @ eta / 1024 ** 2
        assert blocks[(3, 3)][2, 5] == pytest.approx(quad, abs=1e-9)


class TestThresholdingRules:

    def _field(self):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=128)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=1.0, sigma=0.5)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, noise,
                                       N=128, M=128, seed=3)
        cfg = es.EstimatorConfig.from_specs(ker, UNIFORM, UNIFORM, noise)
        return es.estimate_field(obs, UNIFORM, UNIFORM, ker, WSPEC, cfg), cfg

    def test_strict_inequality_and_scaling_block(self):
        field, cfg = self._field()
        s1, s2 = field.scaling_pair
        for (j1, j2), blk in field.blocks.items():
            if (j1, j2) == (s1, s2):
                assert np.all(blk.kept)
            else:
                assert np.array_equal(blk.kept,
                                      np.abs(blk.beta_hat) > blk.lam)

    def test_larger_gamma_keeps_fewer(self):
        field, cfg = self._field()
        kept_before = field.kept_count()
        import dataclasses
        bigger = dataclasses.replace(cfg, gamma=8.0)
        for blk in field.blocks.values():
            blk.lam = blk.lam * 2.0
        es.hard_threshold(field, bigger)
        assert field.kept_count() <= kept_before


class TestReconstruction:

    def test_reanalysis_roundtrip(self):
        """Synthesis followed by analysis returns the kept coefficients."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=64)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=1.0, sigma=0.3)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, noise,
                                       N=128, M=128, seed=9)
        cfg = es.EstimatorConfig.from_specs(ker, UNIFORM, UNIFORM, noise,
                                            J1=5, J2=5)
        field = es.estimate_field(obs, UNIFORM, UNIFORM, ker, WSPEC, cfg)
        recon = es.reconstruct(field, WSPEC, grid=512, which="kept")
        back = es.reanalyze(recon, WSPEC)
        for key, blk in field.blocks.items():
            kept_coeffs = np.where(blk.kept, blk.beta_hat, 0.0)
            assert np.allclose(back[key], kept_coeffs, atol=1e-10)

    def test_parseval_identity(self):
        """Grid energy of the reconstruction equals the coefficient energy."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=64)
        ker = md.identity_kernel()
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, SILENT,
                                       N=128, M=128, seed=2)
        cfg = es.EstimatorConfig.from_specs(ker, UNIFORM, UNIFORM, SILENT,
                                            J1=5, J2=5)
        field = es.estimate_field(obs, UNIFORM, UNIFORM, ker, WSPEC, cfg)
        recon = es.reconstruct(field, WSPEC, grid=512, which="all")
        coeff_energy = sum(np.sum(blk.beta_hat ** 2)
                           for blk in field.blocks.values())
        grid_energy = np.mean(recon.values ** 2)
        assert grid_energy == pytest.approx(coeff_energy, rel=1e-10)


class TestErrorsAndIO:

    def test_kernel_not_invertible(self):
        dead = md.KernelSpec(nu=1.0,
                             fourier=lambda m: np.where(
                                 np.abs(np.asarray(m)) == 7, 0.0, 1.0),
                             x_dependent=False, name="vanishing",
                             K1=1e-6, K2=1.0)
        with pytest.raises(es.KernelNotInvertibleError):
            es.compute_U(es.Index(3, 0, 3, 0), dead, WSPEC,
                         np.linspace(0.01, 0.99, 16),
                         np.linspace(0.01, 0.99, 16))

    def test_singular_design_point(self):
        d = md.DesignDensity(beta=0.5, x0=0.5)
        t = np.array([0.25, 0.5, 0.75])  # 0.5 sits on the singularity
        x = np.array([0.2, 0.4, 0.6])
        Y = np.zeros((3, 3))
        obs = md.ObservationGrid(N=3, M=3, t=t, x=x, Y=Y, seed=0)
        with pytest.raises(es.SingularDesignError):
            es.estimate_coefficient(es.Index(2, 0, 2, 0), obs, d, UNIFORM,
                                    md.identity_kernel(), WSPEC)

    def test_field_csv_roundtrip(self, tmp_path):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=64)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=1.0, sigma=0.5)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, noise,
                                       N=64, M=64, seed=4)
        cfg = es.EstimatorConfig.from_specs(ker, UNIFORM, UNIFORM, noise,
                                            J1=4, J2=4)
        truth = es.true_coefficients(f, WSPEC, 4, 4)
        field = es.estimate_field(obs, UNIFORM, UNIFORM, ker, WSPEC, cfg,
                                  beta_true=truth)
        path = tmp_path / "field.csv"
        es.save_field_csv(field, path)
        back = es.load_field_csv(path, WSPEC, 4, 4)
        for key, blk in field.blocks.items():
            assert np.allclose(back.blocks[key].beta_hat, blk.beta_hat)
            assert np.allclose(back.blocks[key].lam, blk.lam)
            assert np.array_equal(back.blocks[key].kept, blk.kept)
            assert np.allclose(back.blocks[key].beta_true, blk.beta_true)

    def test_pgm_export(self, tmp_path):
        values = np.linspace(0, 1, 64 * 64).reshape(64, 64)
        recon = es.Reconstruction(values=values, fourier=np.zeros((1, 1)),
                                  band1=0, band2=0, grid=64)
        path = tmp_path / "img.pgm"
        es.save_reconstruction_pgm(recon, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n64 64\n255\n")
        assert len(raw) == len(b"P5\n64 64\n255\n") + 64 * 64
