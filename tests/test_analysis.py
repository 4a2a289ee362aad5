import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afdeconv import analysis as an
from afdeconv import estimator as es
from afdeconv import model as md
from afdeconv import wavelets as wv

from reference import lrd_covariance

UNIFORM = md.DesignDensity(beta=0.0, x0=0.5)
SINGULAR = md.DesignDensity(beta=0.3, x0=0.5)


def _estimate(obs, cfg):
    """The level blocks of `obs` under the model and levels of `cfg`."""
    return es.estimate_field(es.FieldPlan(cfg, obs.t, obs.x), obs.Y)


def _lemma_config(kernel, d1, d2, noise=md.NoiseSpec(alpha=1.0, sigma=1.0)):
    """The config the lemma suites read: kernel and designs, and the noise
    law where it enters (lemma 2)."""
    return es.EstimatorConfig(kernel, d1, d2, noise)


def count_calls(monkeypatch, module, names):
    """Replace each named function of `module` by a wrapper that counts its
    calls; returns the live {name: count} dict."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestBesovParams:

    def test_derived_indices(self):
        bp = an.BesovParams(s1=1.0, s2=2.0, p=1.0)
        assert bp.p_prime == 1.0
        assert bp.s1_star == pytest.approx(0.5)
        assert bp.s1_prime == pytest.approx(0.5)
        assert bp.s_dprime(0.0) == pytest.approx(0.5)
        assert bp.s_dprime(0.5) == pytest.approx(1.0)

    def test_p_at_least_two_makes_prime_equal_plain(self):
        bp = an.BesovParams(s1=1.3, s2=0.9, p=3.0)
        assert bp.s1_prime == pytest.approx(bp.s1)
        assert bp.s2_prime == pytest.approx(bp.s2)

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(md.ParameterError):
            an.BesovParams(s1=0.3, s2=1.0, p=2.0)
        with pytest.raises(md.ParameterError):
            an.BesovParams(s1=0.8, s2=0.8, p=1.0)  # 1/p = 1 > s


class TestMise:

    def test_identical_surfaces(self):
        g = np.random.default_rng(0).standard_normal((64, 64))
        assert an.mise(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset(self):
        g = np.zeros((64, 64))
        assert an.mise(g + 0.1, g) == pytest.approx(0.01, abs=1e-6)

    def test_parseval_oracle(self):
        """Perturbing coefficients by delta changes MISE by sum delta^2."""
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=64)
        ker = md.identity_kernel()
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        obs = md.simulate_observations(f, ker, UNIFORM, UNIFORM, silent,
                                       N=128, M=128, seed=1)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, silent, J1=5, J2=5)
        field = _estimate(obs, cfg)
        for blk in field.values():
            blk.kept[:] = True
        base = es.reconstruct(field, cfg, grid=512)
        rng = np.random.default_rng(7)
        total = 0.0
        for blk in field.values():
            delta = 0.01 * rng.standard_normal(blk.beta_hat.shape)
            blk.beta_hat = blk.beta_hat + delta
            total += np.sum(delta ** 2)
        pert = es.reconstruct(field, cfg, grid=512)
        assert an.mise(pert, base) == pytest.approx(total, abs=1e-6)

    def test_dimension_error(self):
        with pytest.raises(md.ParameterError):
            an.mise(np.zeros((8, 8)), np.zeros((16, 16)))


class TestTheoreticalExponent:

    def test_worked_examples(self):
        r1 = an.theoretical_exponent(an.BesovParams(s1=4, s2=1, p=2), 1, 0, 0)
        assert (r1.regime, r1.d) == (1, pytest.approx(2 / 3))
        r2 = an.theoretical_exponent(an.BesovParams(s1=1, s2=1, p=2), 1, 0, 0)
        assert (r2.regime, r2.d) == (2, pytest.approx(0.4))
        r3 = an.theoretical_exponent(an.BesovParams(s1=1, s2=2, p=1), 1, 0, 0)
        assert (r3.regime, r3.d) == (3, pytest.approx(1 / 3))

    def test_xi_indicators(self):
        # s1 = s2 (2 nu + 1) boundary with p >= 2 sets xi1 = 1
        r = an.theoretical_exponent(an.BesovParams(s1=3, s2=1, p=2), 1, 0, 0)
        assert r.xi1 == 1

    def test_beta2_zero_limit_flagged(self):
        r = an.theoretical_exponent(an.BesovParams(s1=1, s2=1, p=2), 1, 0, 0)
        assert any("beta2 = 0" in note for note in r.notes)

    @given(s1=st.floats(0.6, 4.0), s2=st.floats(0.6, 4.0),
           nu=st.sampled_from([0.5, 1.0, 2.0]),
           beta=st.sampled_from([0.0, 0.3, 0.6]))
    @settings(max_examples=120, deadline=None)
    def test_min_formula_agreement_p2(self, s1, s2, nu, beta):
        """For p >= 2 the regime exponent equals the closed-form minimum."""
        r = an.theoretical_exponent(an.BesovParams(s1=s1, s2=s2, p=2.0),
                                    nu, beta, beta)
        assert r.agrees
        assert 0 < r.d < 1

    def test_exponent_in_unit_interval(self):
        for s1, s2, p in [(0.6, 4, 2), (4, 0.6, 2), (1.1, 1.1, 1.2)]:
            r = an.theoretical_exponent(an.BesovParams(s1=s1, s2=s2, p=p),
                                        1.0, 0.3, 0.3)
            assert 0 < r.d < 1


class TestFitRate:

    def test_exact_power_law(self):
        n = [100, 200, 400, 800]
        slope, se = an.fit_rate([(x, x ** -0.5) for x in n])
        assert slope == pytest.approx(-0.5, abs=1e-10)
        assert se == pytest.approx(0.0, abs=1e-10)

    def test_duplicate_n_rejected(self):
        with pytest.raises(md.ParameterError):
            an.fit_rate([(100, 1.0), (100, 0.9), (200, 0.8)])

    def test_too_few_points(self):
        with pytest.raises(md.ParameterError):
            an.fit_rate([(100, 1.0), (200, 0.5)])

    def test_noisy_power_law(self):
        rng = np.random.default_rng(42)
        n = np.logspace(2, 5, 12)
        v = 3.0 * n ** -0.7 * np.exp(0.02 * rng.standard_normal(12))
        slope, se = an.fit_rate(zip(n, v))
        assert slope == pytest.approx(-0.7, abs=0.05)


class TestLemmaSuites:

    def test_lemma1_constant_ratio_identity_kernel(self):
        """g = 1 and uniform design: the U^2 ratio is constant in k."""
        rep = an.verify_lemma1(_lemma_config(md.identity_kernel(), UNIFORM, UNIFORM),
                               levels1=[4], grid=4096)
        r2 = [e["ratio2"] for e in rep.entries]
        assert max(r2) / min(r2) == pytest.approx(1.0, abs=1e-8)

    def test_lemma1_uniform_spread(self):
        rep = an.verify_lemma1(_lemma_config(md.power_kernel(1.0), UNIFORM, UNIFORM),
                               levels1=[3, 4, 5, 6])
        assert rep.spread2 <= 4.0

    def test_lemma2_gaussian_kurtosis(self):
        noise = md.NoiseSpec(alpha=0.8, sigma=1.0)
        rep = an.verify_lemma2(_lemma_config(md.power_kernel(1.0), UNIFORM,
                                             UNIFORM, noise), (3, 2, 2, 1), M=64,
                               N_ladder=[64, 128, 256], replicates=2000,
                               seed=1)
        assert rep.kurtosis == pytest.approx(3.0, abs=0.3)

    def test_lemma3_threshold_doubling_non_increasing(self):
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=128)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=0.8, sigma=1.0)
        idx = [(3, 2, 2, 1)]
        freqs = []
        for gamma in (0.5, 1.0):
            cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise,
                                     gamma=gamma)
            rep = an.verify_lemma3(f, cfg, idx, M=64, N=64,
                                   replicates=400, seed=3)
            freqs.append(rep.max_frequency)
        assert freqs[1] <= freqs[0]

    def test_lemma3_one_noise_factor_per_index(self, monkeypatch):
        """The noise colouring w = sigma A_N^T V is built once per index and
        serves both the draws and the norm ||w||."""
        calls = count_calls(monkeypatch, md, ["_fgn_factor_product"])
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=128)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=0.8, sigma=1.0)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise)
        an.verify_lemma3(f, cfg, [(3, 2, 2, 1), (2, 0, 3, 4)],
                         M=64, N=64, replicates=50, seed=3)
        assert calls == {"_fgn_factor_product": 2}


def replicate_key(seed, i, r):
    """The noise key of replicate r of ladder point i of `rate_experiment`."""
    return np.random.SeedSequence(seed, spawn_key=(i, r))


def one_shot_deviations(V, noise, replicates, seed):
    """The reference: the whole (replicates, N*M) innovation matrix in one
    draw, then one product."""
    w = (noise.sigma * md._fgn_factor_product(V, noise.alpha)).ravel()
    rng = np.random.default_rng(seed)
    if noise.kind == "gaussian-fgn":
        Z = rng.standard_normal((replicates, w.size))
    else:
        Z = rng.integers(0, 2, size=(replicates, w.size)) * 2.0 - 1.0
    return w, Z @ w


class TestColoredDeviations:

    @pytest.mark.parametrize("kind", md.NOISE_KINDS)
    @pytest.mark.parametrize("N, M, replicates, budget", [
        (15, 7, 40, 1000),    # odd N*M; 9 rows a block, 40 not a multiple
        (15, 7, 5, 64),       # one row is larger than the block budget
        (15, 7, 1, 1000),     # a single replicate
        (32, 16, 300, None),  # the module's own budget, one block
    ])
    def test_blocked_draws_equal_one_draw(self, monkeypatch, kind, N, M,
                                          replicates, budget):
        """Row blocks from the one generator give the same innovations as
        one draw of the whole matrix: w is equal, and each deviation equals
        the one-shot product up to the rounding of one dot product."""
        if budget is not None:
            monkeypatch.setattr(an, "_BLOCK_INNOVATIONS", budget)
        V = np.random.default_rng(2).standard_normal((N, M))
        noise = md.NoiseSpec(alpha=0.6, kind=kind, sigma=0.7)
        w, dev = an._colored_deviations(V, noise, replicates, seed=11)
        w_ref, dev_ref = one_shot_deviations(V, noise, replicates, seed=11)
        assert np.array_equal(w, w_ref)
        assert dev.shape == (replicates,)
        np.testing.assert_allclose(dev, dev_ref, rtol=0,
                                   atol=1e-13 * np.abs(w).sum())

    @staticmethod
    def _traced_peak(kind: str) -> int:
        """Traced peak bytes of 400 replicates of an N*M = 65,536 linear
        form, drawn in row blocks of 16 MiB."""
        import tracemalloc
        V = np.random.default_rng(3).standard_normal((256, 256))
        noise = md.NoiseSpec(alpha=0.6, kind=kind, sigma=1.0)
        tracemalloc.start()
        try:
            an._colored_deviations(V, noise, 400, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", md.NOISE_KINDS)
    def test_peak_memory_is_bounded(self, kind):
        """The whole innovation matrix would be 200 MiB; the row blocks
        keep the traced peak under 48 MiB."""
        assert self._traced_peak(kind) <= 48 * 2 ** 20

    def test_rademacher_block_peaks_as_gaussian(self):
        """A Rademacher block turns its int64 draw into the +-1 values in
        place, so it peaks no higher than a Gaussian block (64 KiB of
        slack for the interpreter; a float64 copy would add 16 MiB), and
        its values are those of the draw's 2z - 1."""
        rad = "subgaussian-rademacher"
        assert (self._traced_peak(rad)
                <= self._traced_peak("gaussian-fgn") + 2 ** 16)
        z = np.random.default_rng(4).integers(0, 2, size=(3, 50))
        got = md._draw_innovations(np.random.default_rng(4), (3, 50), rad)
        assert got.dtype == np.float64
        assert np.array_equal(got, z * 2.0 - 1.0)

    def test_factor_product_peak_memory(self):
        """w = sigma A_N^T V takes O(N) memory on top of V and w: at
        N = 2048, M = 16 the traced peak stays under 8 MiB, where one dense
        N x N factor alone is 32 MiB."""
        import tracemalloc
        V = np.random.default_rng(3).standard_normal((2048, 16))
        noise = md.NoiseSpec(alpha=0.6, sigma=1.0)
        tracemalloc.start()
        try:
            an._colored_deviations(V, noise, 4, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("kind", md.NOISE_KINDS)
    def test_white_noise_form_is_sigma_v(self, kind):
        """At alpha = 1 the factor is the identity, and w is sigma V bit
        for bit."""
        V = np.random.default_rng(6).standard_normal((33, 5))
        noise = md.NoiseSpec(alpha=1.0, kind=kind, sigma=0.7)
        w, _ = an._colored_deviations(V, noise, 3, seed=1)
        assert np.array_equal(w, (0.7 * V).ravel())

    @pytest.mark.parametrize("kind", md.NOISE_KINDS)
    def test_lemma2_variance_matches_exact(self, kind):
        """The exact variance is sigma^2 sum_l V_l^T Sigma_N V_l, computed
        here from the covariance, not its Cholesky factor; the Monte Carlo
        variance lies within 5 standard errors, sqrt(2/(R-1)) relative, of
        it at every ladder point."""
        idx, ker = (3, 2, 2, 1), md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=0.6, kind=kind, sigma=0.7)
        M, ladder, replicates = 64, [64, 128, 256], 400
        cfg = _lemma_config(ker, SINGULAR, SINGULAR, noise)
        rep = an.verify_lemma2(cfg, idx, M=M, N_ladder=ladder,
                               replicates=replicates, seed=4)
        se = math.sqrt(2 / (replicates - 1))
        for N, var, exact in zip(ladder, rep.variances, rep.exact_variances):
            V = an._deviation_weights(cfg, idx, N, M)
            cov = lrd_covariance(N, noise.alpha)
            truth = noise.sigma ** 2 * float(np.sum(V * (cov @ V)))
            assert exact == pytest.approx(truth, rel=1e-9)
            assert abs(var / truth - 1) <= 5 * se
        assert rep.exact_slope == pytest.approx(
            an.fit_rate(zip(ladder, rep.exact_variances))[0], abs=1e-12)


class TestRateExperiment:

    def test_sigma_zero_flat_and_deterministic(self):
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=256)
        ker = md.identity_kernel()
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, silent)
        rep = an.rate_experiment(f, cfg,
                                 [(64, 64), (128, 128), (256, 256)],
                                 replicates=2, seed=0, grid=256)
        for p in rep.points:
            assert p["mise_se"] == pytest.approx(0.0, abs=1e-15)

    def test_threaded_equals_serial(self):
        """Uncoloured (alpha = 1) and coloured (alpha = 0.7) noise alike."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=256)
        ker = md.power_kernel(1.0)
        kw = dict(ladder=[(64, 64), (128, 128), (256, 256)], replicates=2,
                  seed=5, grid=256)
        for alpha in (1.0, 0.7):
            noise = md.NoiseSpec(alpha=alpha, sigma=0.2)
            cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise)
            serial = an.rate_experiment(f, cfg, threads=1, **kw)
            threaded = an.rate_experiment(f, cfg, threads=3, **kw)
            assert [p["mise_mean"] for p in serial.points] == \
                   [p["mise_mean"] for p in threaded.points]

    @pytest.mark.parametrize("kind, sigma", [("gaussian-fgn", 0.1),
                                             ("subgaussian-rademacher", 0.1),
                                             ("gaussian-fgn", 0.0)])
    def test_ladder_point_equals_independent_replicates(self, kind, sigma):
        """A ladder point builds its designs, clean signal, noise colouring
        and plan once; its MISE mean and standard error equal, bit for bit,
        those of replicates simulated and estimated one by one (replicate r
        of point i uses the key SeedSequence(seed, spawn_key=(i, r)))."""
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=256)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=0.7, kind=kind, sigma=sigma)
        cfg = es.EstimatorConfig(ker, SINGULAR, SINGULAR, noise)
        ladder, replicates, seed, grid = [(64, 64), (128, 64)], 3, 8, 128
        rep = an.rate_experiment(f, cfg, ladder,
                                 replicates=replicates, seed=seed, grid=grid)
        f_ref = f.grid(grid)
        for i, ((N, M), point) in enumerate(zip(ladder, rep.points)):
            values = []
            for r in range(replicates):
                obs = md.simulate_observations(f, ker, SINGULAR, SINGULAR,
                                               noise, N=N, M=M,
                                               seed=replicate_key(seed, i, r))
                fld = _estimate(obs, cfg)
                values.append(an.mise(es.reconstruct(fld, cfg, grid=grid),
                                      f_ref))
            values = np.array(values)
            assert point["mise_mean"] == float(values.mean())
            assert point["mise_se"] == float(values.std(ddof=1)
                                             / math.sqrt(replicates))

    def test_replicate_keys_do_not_collide(self):
        """Replicate 0 of point 0 of seed 5 is not the noise of the plain
        seed 5, and replicate 0 of point 7 of seed 2^32 + 5 is not
        replicate 7 of point 1 of seed 5; both pairs drew the same noise
        under the entropy keys [seed, i, r]."""
        spec = md.NoiseSpec(alpha=0.7)

        def draw(seed):
            return md.sample_errors(spec, 16, 4, seed)

        assert np.array_equal(draw([5, 0, 0]), draw(5))
        assert np.array_equal(draw([2 ** 32 + 5, 7, 0]), draw([5, 1, 7]))
        assert not np.array_equal(draw(replicate_key(5, 0, 0)), draw(5))
        assert not np.array_equal(draw(replicate_key(2 ** 32 + 5, 7, 0)),
                                  draw(replicate_key(5, 1, 7)))

    def test_seed_sequence_is_taken_as_given(self):
        """A SeedSequence seed draws what its entropy and key give, on
        every draw of the same object."""
        spec = md.NoiseSpec(alpha=0.7)
        key = replicate_key(9, 2, 1)
        first = md.sample_errors(spec, 16, 4, key)
        assert np.array_equal(md.sample_errors(spec, 16, 4, key), first)
        assert np.array_equal(md.sample_errors(spec, 16, 4, replicate_key(9, 2, 1)),
                              first)
        assert not np.array_equal(md.sample_errors(spec, 16, 4, 9), first)

    def test_adjacent_seeds_share_no_replicate(self, monkeypatch):
        """Runs with seeds s and s + 1 draw disjoint sets of replicates at
        every ladder point."""
        drawn = []  # per ladder point, its replicates' observations
        replicates = md.simulate_replicates

        def spy(*args):
            drawn.append([])
            for obs in replicates(*args):
                drawn[-1].append(obs.Y.copy())
                yield obs

        monkeypatch.setattr(md, "simulate_replicates", spy)
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=64)
        noise = md.NoiseSpec(alpha=0.7, sigma=0.2)
        cfg = es.EstimatorConfig(md.power_kernel(1.0), UNIFORM, UNIFORM, noise)
        runs = []
        for seed in (5, 6):
            drawn.clear()
            an.rate_experiment(f, cfg, [(32, 32), (64, 32)], replicates=5,
                               seed=seed, grid=64)
            runs.append(list(drawn))
        assert len(runs[0]) == len(runs[1]) == 2
        for first, second in zip(*runs):
            assert len(first) == len(second) == 5
            assert not any(np.array_equal(a, b) for a in first for b in second)

    def test_invariants_computed_once_per_point(self, monkeypatch):
        """One clean signal, one noise colouring and one basis of each
        level for the plan and one for the reconstructions per ladder
        point, not one per replicate: the plan's x-levels and every level
        of the reconstructions from eval_level, and no build_basis matrix
        at all (the plan pairs its t-levels by level_pairing)."""
        calls = count_calls(monkeypatch, md, ["convolved_signal", "_circulant_scale"])
        bases = count_calls(monkeypatch, wv, ["build_basis", "eval_level"])
        f = md.tensor_sinusoid(1.5, 1.5, max_freq=256)
        ker = md.power_kernel(1.0)
        noise = md.NoiseSpec(alpha=0.7, sigma=0.2)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, noise)
        ladder = [(64, 64), (128, 128), (256, 256)]
        an.rate_experiment(f, cfg, ladder, replicates=4, seed=5, grid=256)
        assert calls == {"convolved_signal": 3, "_circulant_scale": 3}
        t_levels = x_levels = 0
        for J1, J2 in (cfg.resolve_levels(M, N) for N, M in ladder):
            t_levels += len(wv.level_range(cfg.wavelet, J1, 0))
            x_levels += len(wv.level_range(cfg.wavelet, J2, 1))
        assert bases == {"build_basis": 0,
                         "eval_level": t_levels + 2 * x_levels}

    def test_empty_ladder_rejected(self):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=64)
        ker = md.identity_kernel()
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        cfg = es.EstimatorConfig(ker, UNIFORM, UNIFORM, silent)
        with pytest.raises(md.ParameterError):
            an.rate_experiment(f, cfg, ladder=[])


def test_rate_report_csv_matches_row_oracle(tmp_path):
    """rate_report.csv is the header, then N and M as %d and the other
    columns as one %.17g f-string each, one line per ladder point."""
    points = [{"N": 128, "M": 64, "n": 64 * 128 ** 0.5, "mise_mean": 0.1,
               "mise_se": 1.2345678901234567e-7, "chi": 3.0e-12},
              {"N": 1024, "M": 2048, "n": 2048 * 1024 ** 0.6, "mise_mean": 0.0,
               "mise_se": math.nan, "chi": 1.0 / 3.0}]
    report = an.RateReport(points=points, slope=-0.4, slope_se=0.01, regime=1,
                           d=0.4, xi1=0, xi2=0, alpha=0.5)
    path = tmp_path / "rate_report.csv"
    an.rate_report_csv(report, path)
    rows = "".join(f"{p['N']:d},{p['M']:d},{p['n']:.17g},{p['mise_mean']:.17g},"
                   f"{p['mise_se']:.17g},{p['chi']:.17g}\n" for p in points)
    assert path.read_bytes() == ("N,M,n,mise_mean,mise_se,chi\n" + rows).encode()
