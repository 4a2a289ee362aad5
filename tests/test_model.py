import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afdeconv import model as md
from afdeconv import wavelets as wv


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

    def test_envelope_bounds_measured(self):
        ker = md.power_kernel(2.0)
        m = np.arange(-2000, 2001)
        ratio = np.abs(ker.coeff(m)) * (1.0 + np.abs(m)) ** ker.nu
        assert ker.K1 <= ratio.min() + 1e-12
        assert ker.K2 >= ratio.max() - 1e-12

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


class TestLongMemoryNoise:

    def test_covariance_is_fgn(self):
        """Autocovariance matches the fractional-Gaussian-noise formula
        with H = 1 - alpha/2."""
        alpha = 0.6
        H = 1 - alpha / 2
        S = md.lrd_covariance(16, alpha)
        k = np.arange(16)
        r = 0.5 * (np.abs(k + 1) ** (2 * H) - 2 * np.abs(k) ** (2 * H)
                   + np.abs(k - 1) ** (2 * H))
        assert np.allclose(S[0], r)
        assert np.allclose(S, S.T)

    def test_alpha_one_is_white(self):
        S = md.lrd_covariance(32, 1.0)
        assert np.allclose(S, np.eye(32))

    def test_eigenvalue_growth(self):
        """Largest eigenvalue grows like N^{1-alpha}."""
        alpha = 0.5
        lams = []
        for N in (64, 256):
            S = md.lrd_covariance(N, alpha)
            lams.append(np.linalg.eigvalsh(S).max())
        observed = np.log(lams[1] / lams[0]) / np.log(4.0)
        assert observed == pytest.approx(1 - alpha, abs=0.05)

    def test_sample_statistics(self):
        spec = md.NoiseSpec(alpha=0.6, sigma=1.0)
        e = md.sample_errors(spec, N=64, M=4000, seed=9)
        assert e.shape == (64, 4000)
        S = md.lrd_covariance(64, 0.6)
        emp = e @ e.T / 4000
        assert np.max(np.abs(emp - S)) < 0.15

    def test_profiles_independent(self):
        spec = md.NoiseSpec(alpha=0.5, sigma=1.0)
        e = md.sample_errors(spec, N=2000, M=3, seed=2)
        c = np.corrcoef(e.T)
        off = c[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 0.1

    def test_davies_harte_matches_cholesky_distribution(self):
        """Both sampling paths produce the target covariance."""
        alpha = 0.7
        spec = md.NoiseSpec(alpha=alpha, sigma=1.0)
        big = md.sample_errors(spec, N=4096, M=8, seed=3)  # circulant path
        assert big.shape == (4096, 8)
        # variance of each marginal is 1
        assert np.var(big) == pytest.approx(1.0, abs=0.1)
        # lag-1 autocorrelation matches the formula
        H = 1 - alpha / 2
        r1 = 0.5 * (2 ** (2 * H) - 2)
        emp = np.mean(big[1:] * big[:-1])
        assert emp == pytest.approx(r1, abs=0.05)

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


class TestTestFunctions:

    def test_tensor_sinusoid_fourier_matches_eval(self):
        f = md.tensor_sinusoid(1.5, 1.0, max_freq=128)
        g = np.arange(512) / 512
        F = f.eval(g[:, None], g[None, :])
        # FFT along t of the evaluated surface vs the exact rule
        col = np.fft.fft(F, axis=0) / 512
        m = np.array([0, 1, 5, 17])
        exact = f.fourier_t(m, g)
        assert np.allclose(col[m], exact, atol=1e-8)

    def test_coefficient_decay_envelope(self):
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=256)
        m = np.arange(1, 200)
        mags = np.abs(f.fourier_t(m, np.array([0.3]))[:, 0])
        # |u1_hat(m)| ~ (1+m)^{-1.5} times the x-profile value
        ratio = mags * (1.0 + m) ** 1.5
        assert ratio.max() / ratio.min() == pytest.approx(1.0, abs=1e-6)

    def test_bump_ramp_fourier_matches_eval(self):
        f = md.bump_ramp()
        g = np.arange(1024) / 1024
        F = f.eval(g[:, None], g[None, :])
        col = np.fft.fft(F, axis=0) / 1024
        m = np.array([1, 3, 11])
        assert np.allclose(col[m], f.fourier_t(m, g)[:, :], atol=1e-3)

    def test_registry(self):
        f = md.make_test_function("tensor-sinusoid", s1=2.0, s2=1.0)
        assert f.s1 == 2.0
        with pytest.raises(md.ParameterError):
            md.make_test_function("unknown")


class TestSimulation:

    def test_identity_kernel_passthrough(self):
        f = md.single_atom(3, 1, 3, 2, wv.WaveletSpec())
        d = md.DesignDensity(beta=0.0, x0=0.5)
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        obs = md.simulate_observations(f, md.identity_kernel(), d, d, silent,
                                       N=64, M=64, seed=0)
        direct = f.eval(obs.t[:, None], obs.x[None, :])
        assert np.allclose(obs.Y, direct, atol=1e-12)

    def test_convolution_is_fourier_product(self):
        """Observed signal spectrum equals fhat * ghat on a uniform grid."""
        f = md.tensor_sinusoid(2.0, 2.0, max_freq=64)
        ker = md.power_kernel(1.0)
        d = md.DesignDensity(beta=0.0, x0=0.5)
        silent = md.NoiseSpec(alpha=1.0, sigma=0.0)
        obs = md.simulate_observations(f, ker, d, d, silent, N=256, M=64,
                                       seed=0)
        # design t_i = (i - 1/2)/N: FFT plus per-frequency phase correction
        m = np.arange(1, 20)
        spec_obs = np.fft.fft(obs.Y[:, 10])[m] / 256 * np.exp(-1j * np.pi * m / 256)
        expected = (f.fourier_t(m, obs.x[10:11])[:, 0] * ker.coeff(m))
        assert np.allclose(spec_obs, expected, atol=1e-6)

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
        assert np.allclose(back.t, obs.t)
        assert np.allclose(back.x, obs.x)
        assert np.allclose(back.Y, obs.Y)

    def test_csv_dialect(self, obs, tmp_path):
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        header = raw.split(b"\n", 1)[0]
        assert header == b"i,l,t,x,Y"
        assert raw.count(b"\n") == obs.N * obs.M + 1

    def test_binary_roundtrip(self, obs, tmp_path):
        path = tmp_path / "obs.afdc"
        md.save_binary(obs, path)
        back = md.load_binary(path)
        assert np.array_equal(back.Y, obs.Y)
        assert np.array_equal(back.t, obs.t)
        raw = path.read_bytes()
        assert raw[:4] == b"AFDC"
        # 16-byte header + three float64 payloads
        assert len(raw) == 16 + 8 * (obs.N + obs.M + obs.N * obs.M)

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.afdc"
        path.write_bytes(b"NOPE" + b"\0" * 12)
        with pytest.raises(md.ParameterError):
            md.load_binary(path)

    def test_csv_rejects_deleted_row(self, obs, tmp_path):
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        del lines[100]
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match="missing"):
            md.load_csv(path)

    def test_csv_rejects_duplicated_row(self, obs, tmp_path):
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        # replace one row by a copy of another: the row count stays N * M
        lines[100] = lines[101]
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match="duplicate"):
            md.load_csv(path)
        # an extra copy of a row
        path.write_text("".join(lines[:100] + lines[101:] + [lines[5]]))
        with pytest.raises(md.ParameterError, match="duplicated"):
            md.load_csv(path)

    def test_csv_rejects_out_of_range_index(self, obs, tmp_path):
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[7] = "0," + lines[7].split(",", 1)[1]
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match="invalid index"):
            md.load_csv(path)

    @pytest.mark.parametrize("keep", [10, 16 + 8 * 20, 16 + 8 * 40, -8])
    def test_binary_rejects_truncated(self, obs, tmp_path, keep):
        """Cut inside the header, t (N = 32), x (M = 16) and Y."""
        path = tmp_path / "obs.afdc"
        md.save_binary(obs, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(md.ParameterError, match="truncated"):
            md.load_binary(path)
