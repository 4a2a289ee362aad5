import decimal
import functools
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from afdeconv import cli
from afdeconv import estimator as es
from afdeconv import model as md
from afdeconv import wavelets as wv

from atoms import single_atom
from reference import lrd_covariance, sample_errors_by_column

# power_kernel(1) scaled by (1 + x/2): a kernel whose coefficients vary in x
_POWER = md.power_kernel(1.0)
X_VARYING = md.KernelSpec(nu=1.0,
                          fourier=lambda m, x: _POWER.fourier(m)
                          * (1.0 + 0.5 * np.asarray(x)),
                          x_dependent=True)


class TestKernels:

    def test_power_kernel_decay(self):
        ker = md.power_kernel(1.0)
        m = np.array([0, 1, 10, -10])
        assert np.allclose(ker.coeff(m), [1.0, 0.5, 1 / 11, 1 / 11])

    def test_fractional_kernel_modulus(self):
        ker = md.fractional_kernel(0.5)
        m = np.array([4, -4])
        expected = (1 + (2 * np.pi * 4) ** 2) ** (-0.25)
        assert np.allclose(np.abs(ker.coeff(m)), expected)

    def test_hermitian_symmetry(self):
        """Fourier coefficients of a real kernel: g(-m) = conj(g(m))."""
        m = np.arange(1, 50)
        for ker in (md.power_kernel(1.0), md.fractional_kernel(1.0)):
            assert np.allclose(ker.coeff(-m), np.conj(ker.coeff(m)))

    def test_registry(self):
        assert md.make_kernel("identity").nu == 0.0
        with pytest.raises(md.ParameterError):
            md.make_kernel("no-such-kernel")


class TestDesignDensity:

    def test_normalization_constant(self):
        # c = (beta+1) / (x0^{beta+1} + (1-x0)^{beta+1})
        d = md.DesignDensity(beta=0.5, x0=0.5)
        assert d.c == pytest.approx(1.5 / (2 * 0.5 ** 1.5))

    def test_pdf_integrates_to_one(self):
        for beta, x0 in [(0.0, 0.5), (0.5, 0.3), (0.9, 0.7)]:
            d = md.DesignDensity(beta=beta, x0=x0)
            g = (np.arange(200000) + 0.5) / 200000
            assert np.mean(d.pdf(g)) == pytest.approx(1.0, abs=1e-6)

    def test_cdf_quantile_roundtrip_against_bisection(self):
        """Closed-form quantile vs independent bisection of the CDF."""
        d = md.DesignDensity(beta=0.5, x0=0.3)
        for u in (0.05, 0.25, 0.5, 0.9):
            lo, hi = 0.0, 1.0
            for _ in range(50):
                mid = (lo + hi) / 2
                if d.cdf(mid) < u:
                    lo = mid
                else:
                    hi = mid
            assert d.quantile(u) == pytest.approx((lo + hi) / 2, abs=1e-12)

    def test_quantile_worked_value(self):
        d = md.DesignDensity(beta=0.5, x0=0.5)
        assert d.quantile(0.25) == pytest.approx(0.5 - 0.5 * 0.5 ** (2 / 3),
                                                 abs=1e-12)

    def test_invalid_beta(self):
        with pytest.raises(md.ParameterError):
            md.DesignDensity(beta=1.0, x0=0.5)
        with pytest.raises(md.ParameterError):
            md.DesignDensity(beta=-0.1, x0=0.5)

    @given(beta=st.floats(0.0, 0.95), x0=st.floats(0.05, 0.95),
           u=st.floats(0.001, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_quantile_inverts_cdf(self, beta, x0, u):
        d = md.DesignDensity(beta=beta, x0=x0)
        t = float(d.quantile(u))
        assert 0.0 <= t <= 1.0
        assert d.cdf(t) == pytest.approx(u, abs=1e-9)

    def test_design_points_interior_and_sorted(self):
        d = md.DesignDensity(beta=0.5, x0=0.5)
        t = md.quantile_design(128, d)
        assert t.shape == (128,)
        assert np.all(np.diff(t) > 0)
        assert t[0] > 0 and t[-1] < 1
        assert np.all(d.pdf(t) > 0)

    @pytest.mark.parametrize("n", [96, 97, 192, 384, 1000, 1024])
    def test_uniform_design_is_the_midpoint_grid(self, n):
        """At beta = 0 the design is (i - 1/2)/n bit for bit, the points of
        wavelets.Grid(n, 1/2) that the clean signal is synthesized on; at
        odd n the midpoint x0 = 1/2 is kept, as the density does not
        vanish there."""
        t = md.quantile_design(n, md.DesignDensity(beta=0.0, x0=0.5))
        assert np.array_equal(t, np.asarray(wv.Grid(n, 0.5)))


class TestLongMemoryNoise:

    def test_covariance_is_fgn(self):
        """Autocovariance matches the fractional-Gaussian-noise formula
        with H = 1 - alpha/2."""
        alpha = 0.6
        H = 1 - alpha / 2
        S = lrd_covariance(16, alpha)
        k = np.arange(16)
        r = 0.5 * (np.abs(k + 1) ** (2 * H) - 2 * np.abs(k) ** (2 * H)
                   + np.abs(k - 1) ** (2 * H))
        assert np.allclose(S[0], r)
        assert np.allclose(S, S.T)

    @pytest.mark.parametrize("alpha", [0.4, 1.0])
    @pytest.mark.parametrize("N", [2, 3, 17, 256])
    def test_covariance_is_exact_toeplitz(self, N, alpha):
        """Every entry (i, j) is the lag-|i - j| autocovariance bit for
        bit, in a C-contiguous float64 array: the dense reference of the
        lemma suites' Cholesky factor depends on these exact bytes."""
        S = lrd_covariance(N, alpha, sigma=0.7)
        r = md._fgn_autocov(N, alpha, 0.7)
        reference = np.array([[r[abs(i - j)] for j in range(N)]
                              for i in range(N)])
        assert S.dtype == np.float64 and S.flags.c_contiguous
        assert np.array_equal(S, reference)

    def test_alpha_one_is_white(self):
        S = lrd_covariance(32, 1.0)
        assert np.allclose(S, np.eye(32))

    @pytest.mark.parametrize("alpha", [1e-6, 0.1, 0.5, 0.9])
    def test_autocovariance_keeps_its_digits(self, alpha):
        """r_k agrees to 1e-13 relative with the second difference of
        k^{2H} in 60-digit decimal arithmetic, at small lags and far out,
        where the float64 second difference cancels up to 9 digits."""
        two_h = decimal.Decimal(2 * (1.0 - alpha / 2.0))

        def power(k):
            return decimal.Decimal(abs(k)) ** two_h if k else decimal.Decimal(0)

        r = md._fgn_autocov(100000, alpha, 1.0)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for k in (0, 1, 2, 3, 4, 5, 17, 100, 1000, 4095, 31337, 99999):
                exact = (power(k + 1) - 2 * power(k) + power(k - 1)) / 2
                assert abs(decimal.Decimal(r[k]) - exact) <= decimal.Decimal(1e-13) * abs(exact)

    def test_near_white_embedding_is_positive(self):
        """At alpha = 1e-6 and N = 10000 the circulant embedding's smallest
        eigenvalue, about 8.5e-7, is not lost to rounding."""
        assert (md._circulant_scale(10000, 1e-6) ** 2).min() / 10000 > 8e-7

    def test_alpha_one_autocovariance_is_exactly_white(self):
        r = md._fgn_autocov(5000, 1.0, 0.7)
        assert r[0] == 0.7 ** 2 and not r[1:].any()

    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.3, 0.6, 0.9, 1.0])
    @pytest.mark.parametrize("N", [2, 17, 257, 2048, 4100])
    def test_factor_product_is_dense_cholesky(self, N, alpha):
        """The Schur recursion's A_N^T V equals the dense Cholesky factor's
        product to 1e-11 of its largest entry, from near-singular to white
        covariances."""
        V = np.random.default_rng(N).standard_normal((N, 3))
        reference = np.linalg.cholesky(lrd_covariance(N, alpha)).T @ V
        got = md._fgn_factor_product(V, alpha)
        assert np.abs(got - reference).max() <= 1e-11 * np.abs(reference).max()

    @pytest.mark.parametrize("N", [1, 2, 300])
    def test_factor_product_is_identity_when_white(self, N):
        V = np.random.default_rng(N).standard_normal((N, 4))
        assert np.array_equal(md._fgn_factor_product(V, 1.0), V)

    @pytest.mark.parametrize("alpha", [0.05, 0.6])
    def test_noise_factor_is_the_cholesky_factor(self, alpha):
        """noise_factor stacks the recursion's rows: lower triangular, and
        sigma times the dense Cholesky factor."""
        A = md.noise_factor(64, alpha, sigma=0.7)
        reference = 0.7 * np.linalg.cholesky(lrd_covariance(64, alpha))
        assert np.array_equal(A, np.tril(A))
        np.testing.assert_allclose(A, reference, rtol=0, atol=1e-13)

    def test_eigenvalue_growth(self):
        """Largest eigenvalue grows like N^{1-alpha}."""
        alpha = 0.5
        lams = []
        for N in (64, 256):
            S = lrd_covariance(N, alpha)
            lams.append(np.linalg.eigvalsh(S).max())
        observed = np.log(lams[1] / lams[0]) / np.log(4.0)
        assert observed == pytest.approx(1 - alpha, abs=0.05)

    def test_sample_statistics(self):
        spec = md.NoiseSpec(alpha=0.6, sigma=1.0)
        e = md.sample_errors(spec, N=64, M=4000, seed=9)
        assert e.shape == (64, 4000)
        S = lrd_covariance(64, 0.6)
        emp = e @ e.T / 4000
        assert np.max(np.abs(emp - S)) < 0.15

    def test_profiles_independent(self):
        spec = md.NoiseSpec(alpha=0.5, sigma=1.0)
        e = md.sample_errors(spec, N=2000, M=3, seed=2)
        c = np.corrcoef(e.T)
        off = c[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_large_draw_has_fgn_covariance(self):
        """A draw above N = 2048 has unit marginal variance and the fGn
        lag-1 autocovariance."""
        alpha = 0.7
        spec = md.NoiseSpec(alpha=alpha, sigma=1.0)
        big = md.sample_errors(spec, N=4096, M=8, seed=3)
        assert big.shape == (4096, 8)
        # variance of each marginal is 1
        assert np.var(big) == pytest.approx(1.0, abs=0.1)
        # lag-1 autocorrelation matches the formula
        H = 1 - alpha / 2
        r1 = 0.5 * (2 ** (2 * H) - 2)
        emp = np.mean(big[1:] * big[:-1])
        assert emp == pytest.approx(r1, abs=0.05)

    @pytest.mark.parametrize("N", [16, 257, 2048, 4100])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.6, 0.9])
    def test_colouring_is_an_exact_root(self, N, alpha):
        """The colouring applied to the 2N unit innovations gives the N x 2N
        matrix B, 512 columns at a time, and B B^T is the fGn covariance to
        rounding.  At alpha = 0.1 an embedding with 0 in place of r_N has
        negative eigenvalues."""
        scale = md._circulant_scale(N, alpha)
        gram = np.zeros((N, N))
        for lo in range(0, 2 * N, 512):
            columns = md._colour(scale, np.eye(min(512, 2 * N - lo), 2 * N, k=lo))
            gram += columns.T @ columns
        gram -= lrd_covariance(N, alpha)
        assert np.abs(gram).max() <= 1e-14

    def test_rademacher_unit_variance(self):
        spec = md.NoiseSpec(alpha=1.0, kind="subgaussian-rademacher",
                            sigma=1.0)
        e = md.sample_errors(spec, N=256, M=64, seed=4)
        assert np.allclose(np.abs(e), 1.0)  # alpha=1: plain Rademacher

    def test_determinism(self):
        spec = md.NoiseSpec(alpha=0.5, sigma=1.0)
        a = md.sample_errors(spec, N=128, M=4, seed=11)
        b = md.sample_errors(spec, N=128, M=4, seed=11)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha, kind, N, M", [
        (0.5, "gaussian-fgn", 96, 12),
        (0.7, "subgaussian-rademacher", 80, 9),
        (1.0, "gaussian-fgn", 40, 5),
        (0.7, "gaussian-fgn", 4100, 3),
        (0.7, "subgaussian-rademacher", 4100, 3),
        (0.5, "gaussian-fgn", 32, 70)])
    def test_columns_are_their_own_substreams(self, alpha, kind, N, M):
        """Column l is drawn from the generator of the l-th SeedSequence
        spawned from the seed, then coloured on its own: bitwise equal to
        this plain column-by-column reference for Gaussian and Rademacher
        innovations, above N = 2048, across a block of columns, and with no
        colouring at alpha = 1."""
        spec = md.NoiseSpec(alpha=alpha, kind=kind)
        E = sample_errors_by_column(spec, N, M, 21)
        assert np.array_equal(md.sample_errors(spec, N, M, seed=21), E)

    @pytest.mark.parametrize("seed", [
        np.random.SeedSequence(5, spawn_key=(3, 4)),  # a replicate's key
        2 ** 127 + 99,
        [7, 2 ** 40 + 3],
        np.random.SeedSequence(11, pool_size=8)],
        ids=["replicate-key", "int-128-bit", "list-wide-word", "pool-size-8"])
    @pytest.mark.parametrize("alpha", [1.0, 0.7])
    @pytest.mark.parametrize("kind", md.NOISE_KINDS)
    def test_seeds_of_the_package_draw_their_own_substreams(self, seed, alpha, kind):
        """The seeds the package passes, a replicate's key, wide entropy and
        a larger pool, draw bitwise what the column-by-column reference
        draws, for M of one column, and one or two past a colouring block."""
        spec = md.NoiseSpec(alpha=alpha, kind=kind)
        for M in (1, 65, 130):
            assert np.array_equal(md.sample_errors(spec, 24, M, seed),
                                  sample_errors_by_column(spec, 24, M, seed))

    @given(entropy=st.integers(0, 2 ** 160)
           | st.lists(st.integers(0, 2 ** 160), min_size=1, max_size=4),
           key=st.lists(st.integers(0, 2 ** 40), max_size=3),
           pool_size=st.integers(4, 8), M=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_spawn_states_are_numpys(self, entropy, key, pool_size, M):
        """Row l of ``_spawn_states`` is the PCG64 state numpy's
        SeedSequence gives the l-th child of the root."""
        root = np.random.SeedSequence(entropy, spawn_key=key, pool_size=pool_size)
        states = md._spawn_states(root, M)
        assert states.shape == (M, 4) and states.dtype == np.uint64
        for l in range(M):
            child = np.random.SeedSequence(entropy, spawn_key=(*key, l),
                                           pool_size=pool_size)
            assert np.array_equal(states[l], child.generate_state(4, np.uint64))

    def test_a_state_unlike_numpys_raises(self, monkeypatch):
        """A draw whose column 0 would not be numpy's child 0 raises instead
        of drawing other streams."""
        spawn_states = md._spawn_states

        def one_bit_off(root, M):
            states = spawn_states(root, M)
            states[0, 3] ^= 1
            return states

        monkeypatch.setattr(md, "_spawn_states", one_bit_off)
        for alpha in (1.0, 0.7):
            with pytest.raises(RuntimeError, match="SeedSequence"):
                md.sample_errors(md.NoiseSpec(alpha=alpha), 16, 3, 5)


class TestTestFunctions:

    def test_tensor_sinusoid_fourier_matches_eval(self):
        f = md.tensor_sinusoid(1.5, 1.0, max_freq=128)
        g = np.arange(512) / 512
        F = f.eval(g[:, None], g[None, :])
        # FFT along t of the evaluated surface vs the exact rule
        col = np.fft.fft(F, axis=0) / 512
        m = np.array([0, 1, 5, 17])
        exact = f.u_hat_at(m)[:, None] * f.v(g)[None, :]
        assert np.allclose(col[m], exact, atol=1e-8)

    def test_coefficient_decay_envelope(self):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=256)
        m = np.arange(1, 200)
        mags = np.abs(f.u_hat_at(m))
        # |u1_hat(m)| ~ (1+m)^{-1.5}
        ratio = mags * (1.0 + m) ** 1.5
        assert ratio.max() / ratio.min() == pytest.approx(1.0, abs=1e-6)

    def test_bump_ramp_fourier_matches_eval(self):
        f = md.bump_ramp()
        g = np.arange(1024) / 1024
        F = f.eval(g[:, None], g[None, :])
        col = np.fft.fft(F, axis=0) / 1024
        m = np.array([1, 3, 11])
        assert np.allclose(col[m], f.u_hat_at(m)[:, None] * f.v(g)[None, :],
                           atol=1e-3)

    def test_u_hat_band(self):
        """u_hat covers the declared band and is zero outside it."""
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=64)
        assert f.band == 64 and f.u_hat.shape == (129,)
        assert np.array_equal(f.u_hat_at(np.array([-65, 65, 1000])), np.zeros(3))
        assert f.u_hat_at(-5) == np.conj(f.u_hat_at(5))

    def test_registry(self):
        f = md.make_test_function("tensor-sinusoid", s1=2.0, s2=1.0)
        assert f.s1 == 2.0
        with pytest.raises(md.ParameterError):
            md.make_test_function("unknown")


class TestSimulation:

    def test_identity_kernel_passthrough(self):
        f = single_atom(3, 1, 3, 2, wv.WaveletSpec())
        d = md.DesignDensity(beta=0.0, x0=0.5)
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        obs = md.simulate_observations(f, md.identity_kernel(), d, d, silent,
                                       N=64, M=64, seed=0)
        direct = f.eval(obs.t[:, None], obs.x[None, :])
        assert np.allclose(obs.Y, direct, atol=1e-12)

    def test_convolution_is_fourier_product(self):
        """Observed signal spectrum equals uhat(m) v(x_l) g(m, x_l) in every
        column on a uniform grid, for a kernel constant in x and one that
        varies in x."""
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=64)
        d = md.DesignDensity(beta=0.0, x0=0.5)
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        m = np.arange(-20, 20)
        for ker in (md.power_kernel(1.0), X_VARYING):
            obs = md.simulate_observations(f, ker, d, d, silent, N=256, M=64,
                                           seed=0)
            # design t_i = (i - 1/2)/N: FFT plus per-frequency phase correction
            spec_obs = (np.fft.fft(obs.Y, axis=0)[m] / 256
                        * np.exp(-1j * np.pi * m / 256)[:, None])
            expected = (f.u_hat_at(m)[:, None] * f.v(obs.x)[None, :]
                        * ker.coeff(m[:, None], obs.x[None, :]))
            assert np.allclose(spec_obs, expected, atol=1e-6)

    @pytest.mark.parametrize("ker", [md.power_kernel(1.0), X_VARYING],
                             ids=["power", "x-varying"])
    def test_uniform_clean_signal_equals_dense_synthesis(self, ker):
        """The clean signal on uniform designs, synthesized on grids, equals
        the dense synthesis at the same points within 1e-13 of its largest
        value, for a kernel constant in x and one that varies in x."""
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=1024)
        d = md.DesignDensity(beta=0.0, x0=0.5)
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        obs = md.simulate_observations(f, ker, d, d, silent, N=96, M=40, seed=0)
        dense = md.convolved_signal(f, ker, obs.t, obs.x)
        assert np.max(np.abs(obs.Y - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_uniform_designs_form_no_cos_sin_block(self, monkeypatch):
        """simulate_replicates at beta = 0 and TestFunction.grid synthesize
        by the grid FFT: every _cos_sin call is a phase at one point (the
        grid's shift phase), none a block of points; a beta = 0.3 design
        still takes the dense block at its points."""
        sizes = []
        cos_sin = wv._cos_sin

        def spy(t, m, cos, sin):
            sizes.append(np.size(t))
            cos_sin(t, m, cos, sin)

        monkeypatch.setattr(wv, "_cos_sin", spy)
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=256)
        ker, silent = md.power_kernel(1.0), md.NoiseSpec(alpha=1.0, sigma=0.0)
        uniform, singular = md.DesignDensity(), md.DesignDensity(beta=0.3, x0=0.5)
        next(md.simulate_replicates(f, ker, uniform, uniform, silent, 48, 40, [0]))
        f.grid(64)
        assert sizes and max(sizes) == 1
        sizes.clear()
        next(md.simulate_replicates(f, ker, singular, uniform, silent, 48, 40, [0]))
        assert 48 in sizes

    def test_noise_scale(self):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=32)
        ker = md.identity_kernel()
        d = md.DesignDensity(beta=0.0, x0=0.5)
        noisy = md.NoiseSpec(alpha=1.0, sigma=2.0)
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        o1 = md.simulate_observations(f, ker, d, d, noisy, N=128, M=128, seed=5)
        o0 = md.simulate_observations(f, ker, d, d, silent, N=128, M=128, seed=5)
        resid = o1.Y - o0.Y
        assert np.std(resid) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("alpha, N, M", [(0.7, 64, 8), (1.0, 64, 8),
                                             (0.7, 4096, 4)])
    def test_replicates_equal_single_draws(self, alpha, N, M):
        """`simulate_replicates` computes the clean signal and the noise
        colouring once, yet yields, seed for seed, the grid of
        `simulate_observations` and of q + sigma * sample_errors(seed); the
        last case draws above N = 2048."""
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=32)
        ker = md.power_kernel(1.0)
        d = md.DesignDensity(beta=0.3, x0=0.5)
        noise = md.NoiseSpec(alpha=alpha, sigma=0.5)
        seeds = [3, 4, 11]
        grids = list(md.simulate_replicates(f, ker, d, d, noise, N, M, seeds))
        for seed, grid in zip(seeds, grids):
            one = md.simulate_observations(f, ker, d, d, noise, N=N, M=M,
                                           seed=seed)
            expected = (md.convolved_signal(f, ker, one.t, one.x)
                        + noise.sigma * md.sample_errors(noise, N, M, seed))
            for name in ("t", "x", "Y"):
                assert np.array_equal(getattr(grid, name), getattr(one, name))
            assert np.array_equal(grid.Y, expected)


class TestSerialization:

    @pytest.fixture()
    def obs(self):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=32)
        d = md.DesignDensity(beta=0.3, x0=0.4)
        noise = md.NoiseSpec(alpha=0.8, sigma=0.5)
        return md.simulate_observations(f, md.power_kernel(1.0), d, d, noise,
                                        N=32, M=16, seed=21)

    def test_csv_roundtrip(self, obs, tmp_path):
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        back = md.load_csv(path)
        assert back.N == obs.N and back.M == obs.M
        for name in ("t", "x", "Y"):
            assert np.array_equal(getattr(back, name), getattr(obs, name))

    def test_csv_dialect(self, obs, tmp_path):
        """The header line t/x and the M x values, then N lines of M + 1
        fields, LF newlines."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.split(b"\n")
        assert lines[0].split(b",", 1)[0] == b"t/x"
        assert len(lines) == obs.N + 2 and lines[-1] == b""
        assert {line.count(b",") for line in lines[:-1]} == {obs.M}

    def test_grid_is_t_x_and_y(self, obs):
        """N and M are read off Y, which must be t.size x x.size, and a NaN
        t fails the design check."""
        grid = md.ObservationGrid(t=obs.t, x=obs.x, Y=obs.Y)
        assert (grid.N, grid.M) == obs.Y.shape == (obs.t.size, obs.x.size)
        with pytest.raises(AttributeError):
            grid.N = obs.N + 1
        shape = re.escape("Y must have shape (t.size, x.size)")
        for t, x, Y in ((np.array([0.2, 0.5, 0.8]), np.array([0.3, 0.6]),
                         np.zeros((2, 2))),
                        (obs.t, obs.x, obs.Y[:, :-1]),
                        (obs.t, obs.x, obs.Y.ravel())):
            with pytest.raises(md.ParameterError, match=shape):
                md.ObservationGrid(t=t, x=x, Y=Y)
        with pytest.raises(md.ParameterError, match="strictly increasing"):
            md.ObservationGrid(t=np.where(np.arange(obs.N) == 0, np.nan, obs.t),
                               x=obs.x, Y=obs.Y)

    @staticmethod
    def _config(design) -> es.EstimatorConfig:
        """An estimator config with ``design`` on both axes."""
        return es.EstimatorConfig(md.power_kernel(1.0), design, design,
                                  md.NoiseSpec(alpha=0.8, sigma=0.5))

    def test_csv_rejects_deleted_row(self, obs, tmp_path):
        """Deleting the header line fails the load; deleting a data line
        loads N - 1 rows, whose t-design is not the quantile design of
        N - 1 points, so `estimate`'s design check rejects it."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        cfg = self._config(md.DesignDensity(beta=0.3, x0=0.4))
        for k in range(len(lines)):
            path.write_text("".join(lines[:k] + lines[k + 1:]))
            if k == 0:
                with pytest.raises(md.ParameterError, match="header t/x"):
                    md.load_csv(path)
                continue
            back = md.load_csv(path)
            assert np.array_equal(back.t, np.delete(obs.t, k - 1))
            with pytest.raises(cli.ConfigError, match="design.t: point"):
                cli._check_design(back, cfg)

    def test_csv_rejects_duplicated_row(self, obs, tmp_path):
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        # replace one line by a copy of the next: the line count stays N + 1
        lines[10] = lines[11]
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match="t: design points must be "
                                                    "strictly increasing"):
            md.load_csv(path)
        # an extra copy of a line
        path.write_text("".join(lines[:10] + lines[11:] + [lines[5]]))
        with pytest.raises(md.ParameterError, match="strictly increasing"):
            md.load_csv(path)

    def test_csv_rejects_out_of_range_index(self, obs, tmp_path):
        """A line's t is its key: a t of 0, outside the design's (0, 1),
        fails."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[7] = "0," + lines[7].split(",", 1)[1]
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match="inside"):
            md.load_csv(path)

    @pytest.mark.parametrize("N,M", [(32, 16), (1, 1), (1, 3), (3, 1)],
                             ids=["32x16", "1x1", "1x3", "3x1"])
    def test_csv_writer_matches_row_oracle(self, obs, tmp_path, N, M):
        """The writer's bytes equal one f-string per line, and the reader
        returns the grid, also for one line or one response per line, where
        numpy's savetxt and loadtxt would squeeze a dimension."""
        grid = md.ObservationGrid(t=obs.t[:N], x=obs.x[:M], Y=obs.Y[:N, :M])
        self._check_row_oracle(grid, tmp_path)

    def test_csv_writer_matches_row_oracle_on_awkward_values(self, obs,
                                                             tmp_path):
        """Signed zero, a subnormal, a huge value, a value with no short
        binary form and the smallest positive t are written as one
        f-string per line would write them, and read back bitwise."""
        obs.Y = obs.Y.copy()
        obs.Y[0, :4] = [-0.0, 1e-310, 1e300, 0.1]
        obs.Y[-1, -1] = -0.0
        obs.t = obs.t.copy()
        obs.t[0] = 5e-324
        self._check_row_oracle(obs, tmp_path)
        assert np.signbit(md.load_csv(tmp_path / "obs.csv").Y[-1, -1])

    @staticmethod
    def _check_row_oracle(obs, tmp_path):
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        oracle = "t/x" + "".join(f",{x:.17g}" for x in obs.x) + "\n" + "".join(
            f"{obs.t[i]:.17g}" + "".join(f",{y:.17g}" for y in obs.Y[i]) + "\n"
            for i in range(obs.N))
        assert path.read_bytes() == oracle.encode()
        back = md.load_csv(path)
        assert (back.N, back.M) == (obs.N, obs.M)
        for name in ("t", "x", "Y"):
            assert np.array_equal(getattr(back, name), getattr(obs, name))

    @pytest.mark.parametrize("field", ["abc", "", "0.5x", "1,2"])
    def test_csv_rejects_unreadable_field(self, obs, tmp_path, field):
        """A blank, non-numeric or split Y field fails naming its line; it
        never loads as NaN or shifts the row."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[10] = lines[10].rsplit(",", 1)[0] + f",{field}\n"
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match="data row 10 has"):
            md.load_csv(path)

    @pytest.mark.parametrize("text", ["1,2,0.5,0.6,abc\n",
                                      "1,2,0.5,0.6,0.25,7\n"])
    def test_csv_error_names_the_data_row(self, tmp_path, text):
        """A non-numeric field and an extra field in the second data line
        are both reported as data row 2, counted from the line below the
        header."""
        path = tmp_path / "obs.csv"
        path.write_text("t/x,0.2,0.4,0.6,0.8\n0.5,1,2,3,4\n" + text)
        with pytest.raises(md.ParameterError, match="data row 2 has"):
            md.load_csv(path)

    def test_csv_error_skips_empty_lines(self, tmp_path):
        """numpy's parser skips an empty line, so the error names the line
        that fails, not the empty one before it."""
        path = tmp_path / "obs.csv"
        path.write_text("t/x,0.2,0.4\n0.1,1,2\n\n0.3,1,2\n0.5,1,abc\n")
        with pytest.raises(md.ParameterError,
                           match="data row 4 has the field 'abc'"):
            md.load_csv(path)

    @pytest.mark.parametrize("column", [2, 3, 4])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_rejects_non_finite(self, obs, tmp_path, column, value):
        """A non-finite t (column 2), x (3) or Y (4) fails naming the entry,
        counted from 1."""
        line, field, named = {2: (10, 0, r"t\[10\]"), 3: (0, 3, r"x\[3\]"),
                              4: (10, 4, r"Y\[10, 4\]")}[column]
        path = self._edited_csv(obs, tmp_path, [(line, field, value)])
        with pytest.raises(md.ParameterError,
                           match=rf"{named} has a non-finite value"):
            md.load_csv(path)

    @pytest.mark.parametrize("text", ["", "i,l,t,x,Y\n", "i,l,t,x,Y",
                                      "i,l,t,x\n1,1,0.5,0.5\n",
                                      "i,l,t,x,Y\n1,1,0.5,0.5,0.25,7\n",
                                      "i,l,t,x,Y\n1,1,0.5,0.5,0.25",
                                      "t/x\n0.5\n", "t/x,0.5,\n0.5,1,2\n",
                                      "t/x,0.5\n", "t/x,0.5\n\n", "t/x,0.5",
                                      "t/x,0.5\n0.5,0.25,7\n",
                                      "t/x,0.5\n0.5,0.25"])
    def test_csv_rejects_empty_header_only_and_cut(self, tmp_path, text):
        """No data, a header in the old i,l,t,x,Y layout or without x
        values, rows longer than the header or a last line without its
        newline fail, and no warning escapes."""
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(md.ParameterError):
                md.load_csv(path)

    @pytest.mark.parametrize("column,axis", [(2, "i"), (3, "l")])
    def test_csv_rejects_conflicting_design_value(self, obs, tmp_path,
                                                  column, axis):
        """A t of some i (column 2) or an x of some l (column 3) moved by
        1e-9 still increases and loads, and `estimate`'s design check
        rejects it, naming the point."""
        line, field, name, index = {2: (10, 0, "t", 10), 3: (0, 4, "x", 4)}[column]
        value = getattr(obs, name)[index - 1] + 1e-9
        path = self._edited_csv(obs, tmp_path, [(line, field, f"{value:.17g}")])
        back = md.load_csv(path)
        assert getattr(back, name)[index - 1] == value
        with pytest.raises(cli.ConfigError,
                           match=rf"design.{name}: point {index} of"):
            cli._check_design(back, self._config(md.DesignDensity(beta=0.3,
                                                                  x0=0.4)))

    @staticmethod
    def _edited_csv(obs, tmp_path, edits) -> Path:
        """`obs` written as CSV, then each line k in `edits` (0 is the
        header, k > 0 data row k) with field `column` set to `text` (a
        column past the last appends a field)."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        for row, column, text in edits:
            fields = lines[row].rstrip("\n").split(",")
            fields[column:column + 1] = [text]
            lines[row] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        return path

    def test_blocks_parse_error_beats_earlier_non_finite(self, obs, tmp_path):
        """A non-numeric field in data row 17 is reported, not the NaN that
        data row 2 holds: the parse fails before any value is checked."""
        path = self._edited_csv(obs, tmp_path, [(2, 4, "nan"), (17, 4, "abc")])
        with pytest.raises(md.ParameterError,
                           match="data row 17 has the field 'abc', not a number"):
            md.load_csv(path)

    def test_blocks_field_count_change(self, obs, tmp_path):
        """Rows one field wider from data row 8 on are named at their
        first."""
        path = self._edited_csv(obs, tmp_path,
                                [(k, 17, "7") for k in range(8, 33)])
        with pytest.raises(md.ParameterError,
                           match="data row 8 has 18 fields for the 17 header "
                                 "columns"):
            md.load_csv(path)

    def test_blocks_duplicate_across_blocks(self, obs, tmp_path):
        """Data row 3 replaced by a copy of data row 20, 17 lines further
        down: the line count still fits the grid, and t no longer
        increases."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[20]
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError,
                           match="t: design points must be strictly increasing"):
            md.load_csv(path)

    @staticmethod
    def _traced_load(path):
        import tracemalloc
        tracemalloc.start()
        try:
            back = md.load_csv(path)
            return back, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_csv_peak_memory(self, tmp_path):
        """The traced peak of load_csv stays below twice the parsed table of
        N x (M + 1) values, whose columns t and Y the grid views, on a
        512 x 256 and a 256 x 256 grid: the loader never holds a second
        copy of the grid."""
        d = md.DesignDensity(beta=0.3, x0=0.4)
        for N, M in ((512, 256), (256, 256)):
            obs = md.simulate_observations(
                md.tensor_sinusoid(1.0, 1.0, max_freq=16), md.power_kernel(1.0),
                d, d, md.NoiseSpec(alpha=0.8, sigma=0.5), N=N, M=M, seed=1)
            path = tmp_path / f"obs{N}x{M}.csv"
            md.save_csv(obs, path)
            back, peak = self._traced_load(path)
            for name in ("t", "x", "Y"):
                assert np.array_equal(getattr(back, name), getattr(obs, name))
            assert peak < 2 * N * (M + 1) * 8

    def test_load_csv_grid_never_outgrows_the_file(self, tmp_path):
        """A header of 999 x values over 999 lines of one Y each: the first
        data row is named, and no 999 x 999 grid (7.6 MiB) is ever
        allocated."""
        import tracemalloc
        path = tmp_path / "obs.csv"
        path.write_text("t/x" + "".join(f",{l / 1000!r}" for l in range(1, 1000))
                        + "\n" + "".join(f"{i / 1000!r},0.5\n"
                                         for i in range(1, 1000)))
        tracemalloc.start()
        try:
            with pytest.raises(md.ParameterError,
                               match="data row 1 has 2 fields for the 1000 "
                                     "header columns"):
                md.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_load_csv_block_fits_the_file(self, tmp_path):
        """A 40 x 25 file loads with a traced peak under 0.5 MiB: the
        parser's buffer grows with the lines it reads."""
        path = tmp_path / "obs.csv"
        path.write_text("t/x" + "".join(f",{l / 26!r}" for l in range(1, 26))
                        + "\n" + "".join(f"{i / 41!r}" + "".join(
                            f",{i * l / 7!r}" for l in range(1, 26)) + "\n"
                            for i in range(1, 41)))
        obs, peak = self._traced_load(path)
        assert obs.Y.shape == (40, 25) and obs.Y[39, 24] == 40 * 25 / 7
        assert peak < 2 ** 19


# ----------------------------------------------------------------------
# The CSV loader against corrupted files
# ----------------------------------------------------------------------

# One inserted character from this set never turns a number into another
# number: no digits, sign, point, exponent, whitespace, comma or newline.
_NON_NUMERIC = "abcdfghjkmoqrsuvwxyz!?;:#\"'/_"


@functools.lru_cache(maxsize=1)
def _small_grid() -> md.ObservationGrid:
    d = md.DesignDensity(beta=0.3, x0=0.4)
    return md.simulate_observations(md.tensor_sinusoid(1.0, 1.0, max_freq=16),
                                    md.power_kernel(1.0), d, d,
                                    md.NoiseSpec(alpha=0.8, sigma=0.5),
                                    N=16, M=8, seed=5)


def _small_csv_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.csv"
        md.save_csv(_small_grid(), path)
        return path.read_text().splitlines(keepends=True)


@st.composite
def _corrupted_csv(draw) -> str:
    """The 16 x 8 observation file with one corruption applied."""
    lines = _small_csv_lines()
    kind = draw(st.sampled_from(["delete", "duplicate", "garble", "cut",
                                 "change t", "change x"]))
    if kind == "delete":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif kind == "duplicate":
        line = lines[draw(st.integers(0, len(lines) - 1))]
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif kind == "garble":
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].rstrip("\n").split(",")
        f = draw(st.integers(0, len(fields) - 1))
        if draw(st.booleans()):
            fields[f] = ""
        else:
            pos = draw(st.integers(0, len(fields[f])))
            fields[f] = (fields[f][:pos] + draw(st.sampled_from(_NON_NUMERIC))
                         + fields[f][pos:])
        lines[k] = ",".join(fields) + "\n"
    elif kind == "cut":
        text = "".join(lines)
        end = draw(st.integers(1, len(text) - 1)
                   .filter(lambda p: text[p - 1] != "\n"))
        return text[:end]
    else:  # a t in the first field of a data line, or an x in the header
        k = draw(st.integers(1, len(lines) - 1)) if kind == "change t" else 0
        f = 0 if kind == "change t" else draw(st.integers(1, 8))
        fields = lines[k].rstrip("\n").split(",")
        value = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                     .filter(lambda v: v != float(fields[f])))
        fields[f] = f"{value:.17g}"
        lines[k] = ",".join(fields) + "\n"
    return "".join(lines)


@given(text=_corrupted_csv())
@settings(max_examples=300, deadline=None)
def test_load_csv_rejects_or_recovers_corrupted_file(text):
    """A corrupted file raises ParameterError in load_csv, or loads a grid
    that `estimate`'s design check rejects, or loads the original grid:
    Y bitwise, and t and x to within the check's 1e-12.  It never raises
    anything else."""
    obs = _small_grid()
    d = md.DesignDensity(beta=0.3, x0=0.4)
    cfg = es.EstimatorConfig(md.power_kernel(1.0), d, d,
                             md.NoiseSpec(alpha=0.8, sigma=0.5))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.csv"
        path.write_text(text)
        try:
            back = md.load_csv(path)
        except md.ParameterError:
            return
    try:
        cli._check_design(back, cfg)
    except cli.ConfigError:
        return
    assert (back.N, back.M) == (obs.N, obs.M)
    assert np.array_equal(back.Y, obs.Y)
    for name in ("t", "x"):
        assert np.all(np.abs(getattr(back, name) - getattr(obs, name)) <= 1e-12)


def _percent_g(table) -> bytes:
    """The oracle of the CSV writer: one %.17g f-string per value, ``,``
    between values and ``\\n`` after each row."""
    return "".join(",".join(f"{x:.17g}" for x in row) + "\n"
                   for row in np.asarray(table, dtype=float).tolist()).encode()


def _neighbours(x: float, steps: int = 8) -> list[float]:
    """x and the `steps` floats on either side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[::-1] + above[1:]


class TestCsvWriter:
    """``model._csv_bytes`` and ``_write_csv`` write the bytes of one
    %.17g f-string per value."""

    @given(table=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                         max_side=12),
                            elements=st.floats(allow_nan=True, allow_infinity=True,
                                               allow_subnormal=True)))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_any_float(self, table):
        assert md._csv_bytes(table) == _percent_g(table)

    @given(values=st.lists(st.tuples(st.floats(1e-11, 1e15, exclude_min=True,
                                               exclude_max=True), st.booleans()),
                           min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_in_the_array_range(self, values):
        """Values 1e-11 < |x| < 1e15, which the array path formats."""
        row = np.array([[-x if neg else x for x, neg in values]])
        assert md._csv_bytes(row) == _percent_g(row)

    def test_matches_oracle_on_random_bit_patterns(self):
        """Every exponent (random bits) and the array range (log-uniform
        magnitudes), 100,000 values each."""
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False)
        magnitudes = 10.0 ** rng.uniform(-11, 15, 100_000)
        for values in (bits.view(np.float64), magnitudes * rng.choice([-1, 1], 100_000)):
            table = values.reshape(-1, 250)
            assert md._csv_bytes(table) == _percent_g(table)

    @pytest.mark.parametrize("values", [
        [100000000000000.125, 0.5, 2.5, 1.0000000000000002, 0.30000000000000004],
        _neighbours(9.9999999999999995e-5) + _neighbours(9.9999999999999991e-6),
        _neighbours(1e-4) + _neighbours(1e-5) + _neighbours(1e-11),
        _neighbours(1e15) + _neighbours(1e16) + _neighbours(1e17),
        [x for e in range(-12, 18) for x in _neighbours(10.0 ** e, 2)],
        [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 0.0, -0.0, np.inf, -np.inf, np.nan],
    ], ids=["ties", "below-a-power-of-ten", "fixed-to-exponent", "large",
            "powers-of-ten", "extremes"])
    def test_matches_oracle_on_edge_values(self, values):
        row = np.array([values])
        assert md._csv_bytes(row) == _percent_g(row)

    def test_tie_rounds_half_to_even(self):
        """100000000000000.125 is exact, and its 17th digit is a tie."""
        assert md._csv_bytes(np.array([[100000000000000.125]])) == b"100000000000000.12\n"

    def test_integer_columns_match_percent_d(self):
        """Integers below 2^53 are written as %d writes them."""
        ints = np.array([0, 1, -1, 9, 10, 255, 1023, 2048, 99999, 10 ** 15 - 1,
                         10 ** 15, 2 ** 53 - 1, -(2 ** 53 - 1)])
        assert md._csv_bytes(ints[:, None]) == "".join(f"{i:d}\n" for i in ints).encode()

    def test_table_spanning_several_blocks(self, tmp_path, monkeypatch):
        """A header line, then 1-D and 2-D columns side by side in blocks of
        7 values (two rows of 3 fields per block) write the oracle's bytes."""
        monkeypatch.setattr(md, "_CSV_BLOCK_VALUES", 7)
        rng = np.random.default_rng(3)
        first, rest = np.arange(11), rng.standard_normal((11, 2)) * 1e-3
        path = tmp_path / "table.csv"
        md._write_csv(path, "a,b,c", first, rest)
        expected = b"a,b,c\n" + _percent_g(np.column_stack((first, rest)))
        assert path.read_bytes() == expected
