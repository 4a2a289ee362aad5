import functools
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afdeconv import model as md
from afdeconv import wavelets as wv

# power_kernel(1) scaled by (1 + x/2): a kernel whose coefficients vary in x
_POWER = md.power_kernel(1.0)
X_VARYING = md.KernelSpec(nu=1.0,
                          fourier=lambda m, x: _POWER.fourier(m)
                          * (1.0 + 0.5 * np.asarray(x)),
                          x_dependent=True, name="x-varying")


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
        f = md.single_atom(3, 1, 3, 2, wv.WaveletSpec())
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
        last case takes the Davies-Harte branch."""
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=32)
        ker = md.power_kernel(1.0)
        d = md.DesignDensity(beta=0.3, x0=0.5)
        noise = md.NoiseSpec(alpha=alpha, sigma=0.5)
        seeds = [3, 4, 11]
        grids = list(md.simulate_replicates(f, ker, d, d, noise, N, M, seeds))
        assert [g.seed for g in grids] == seeds
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

    @pytest.mark.parametrize("array, index", [("t", 0), ("x", 3),
                                              ("Y", (0, 0)), ("Y", (5, 2))])
    def test_binary_rejects_non_finite(self, obs, tmp_path, array, index):
        """NaN or infinity in t, x or Y fails the load naming the entry;
        NaN must not slip through the design check either."""
        for value in (np.nan, -np.inf):
            bad = md.ObservationGrid(N=obs.N, M=obs.M, t=obs.t.copy(),
                                     x=obs.x.copy(), Y=obs.Y.copy())
            getattr(bad, array)[index] = value
            path = tmp_path / "obs.afdc"
            md.save_binary(bad, path)
            with pytest.raises(md.ParameterError, match="non-finite"):
                md.load_binary(path)
        with pytest.raises(md.ParameterError, match="strictly increasing"):
            md.ObservationGrid(N=obs.N, M=obs.M,
                               t=np.where(np.arange(obs.N) == 0, np.nan, obs.t),
                               x=obs.x, Y=obs.Y)

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

    @pytest.mark.parametrize("block_rows", [7, 1 << 16])
    def test_csv_writer_matches_row_oracle(self, obs, tmp_path, monkeypatch,
                                           block_rows):
        """The block writer's bytes equal one f-string per row, also when a
        block ends inside a run of rows of one i."""
        monkeypatch.setattr(md, "_BLOCK_ROWS", block_rows)
        self._check_row_oracle(obs, tmp_path)

    def test_csv_writer_matches_row_oracle_on_awkward_values(self, obs,
                                                             tmp_path):
        """Signed zero, a subnormal, a huge value, a value with no short
        binary form and the smallest positive t are written as one
        f-string per row would write them, and read back bitwise."""
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
        oracle = "i,l,t,x,Y\n" + "".join(
            f"{i + 1},{l + 1},{obs.t[i]:.17g},{obs.x[l]:.17g},{obs.Y[i, l]:.17g}\n"
            for i in range(obs.N) for l in range(obs.M))
        assert path.read_bytes() == oracle.encode()
        back = md.load_csv(path)
        for name in ("t", "x", "Y"):
            assert np.array_equal(getattr(back, name), getattr(obs, name))

    @pytest.mark.parametrize("field", ["abc", "", "0.5x", "1,2"])
    def test_csv_rejects_unreadable_field(self, obs, tmp_path, field):
        """A blank, non-numeric or split Y field fails; it never loads as
        NaN or shifts the row."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[40] = lines[40].rsplit(",", 1)[0] + f",{field}\n"
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match="row"):
            md.load_csv(path)

    @pytest.mark.parametrize("text", ["1,2,0.5,0.6,abc\n",
                                      "1,2,0.5,0.6,0.25,7\n"])
    def test_csv_error_names_the_data_row(self, tmp_path, text):
        """A non-numeric field and an extra field in the second data row
        are both reported as data row 2, counted as load_csv counts."""
        path = tmp_path / "obs.csv"
        path.write_text("i,l,t,x,Y\n1,1,0.5,0.5,0.125\n" + text)
        with pytest.raises(md.ParameterError, match="data row 2 has"):
            md.load_csv(path)

    @pytest.mark.parametrize("column", [2, 3, 4])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_rejects_non_finite(self, obs, tmp_path, column, value):
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[40].rstrip("\n").split(",")
        fields[column] = value
        lines[40] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match="data row 40 has a non-finite"):
            md.load_csv(path)

    @pytest.mark.parametrize("text", ["", "i,l,t,x,Y\n", "i,l,t,x,Y",
                                      "i,l,t,x\n1,1,0.5,0.5\n",
                                      "i,l,t,x,Y\n1,1,0.5,0.5,0.25,7\n",
                                      "i,l,t,x,Y\n1,1,0.5,0.5,0.25"])
    def test_csv_rejects_empty_header_only_and_cut(self, tmp_path, text):
        """No data, no Y column, rows longer than the header or a last line
        without its newline fail, and no warning escapes."""
        path = tmp_path / "obs.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(md.ParameterError):
                md.load_csv(path)

    @pytest.mark.parametrize("column,axis", [(2, "i"), (3, "l")])
    def test_csv_rejects_conflicting_design_value(self, obs, tmp_path,
                                                  column, axis):
        """Two rows with the same i (l) but different t (x) fail, naming
        the first row whose value disagrees with the loaded one."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[50].rstrip("\n").split(",")
        fields[column] = f"{float(fields[column]) + 1e-9:.17g}"
        lines[50] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError, match=f"for {axis} = "):
            md.load_csv(path)

    # Blocks of 7 rows over the 32 x 16 grid: data row k lies in block
    # (k + 6) // 7, and the rows of i = 2 are data rows 17-32.
    @staticmethod
    def _edited_csv(obs, tmp_path, edits) -> Path:
        """`obs` written as CSV, then each data row k in `edits` with field
        `column` set to `text` (a column past the last appends a field)."""
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        for row, column, text in edits:
            fields = lines[row].rstrip("\n").split(",")
            fields[column:column + 1] = [text]
            lines[row] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        return path

    def test_blocks_parse_error_beats_earlier_non_finite(self, obs, tmp_path,
                                                         monkeypatch):
        """A non-numeric field in block 3 is reported, not the NaN that
        block 1 holds, as one parse of the whole file reports it."""
        monkeypatch.setattr(md, "_BLOCK_ROWS", 7)
        path = self._edited_csv(obs, tmp_path, [(2, 4, "nan"), (17, 4, "abc")])
        with pytest.raises(md.ParameterError,
                           match="data row 17 has the field 'abc', not a number"):
            md.load_csv(path)

    def test_blocks_field_count_change(self, obs, tmp_path, monkeypatch):
        """Rows one field wider from block 2 on are named at their first."""
        monkeypatch.setattr(md, "_BLOCK_ROWS", 7)
        path = self._edited_csv(obs, tmp_path,
                                [(k, 5, "7") for k in range(8, 513)])
        with pytest.raises(md.ParameterError,
                           match="data row 8 has 6 fields for the 5 header "
                                 "columns"):
            md.load_csv(path)

    def test_blocks_duplicate_across_blocks(self, obs, tmp_path, monkeypatch):
        """Data row 3 (block 1) replaced by a copy of data row 20 (block 3),
        (i, l) = (2, 4): the row count still fits the grid."""
        monkeypatch.setattr(md, "_BLOCK_ROWS", 7)
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[20]
        path.write_text("".join(lines))
        with pytest.raises(md.ParameterError,
                           match=r"data row 3 has \(i, l\) = \(2, 4\)"):
            md.load_csv(path)

    @pytest.mark.parametrize("column, edited, named, axis, index", [
        (2, 30, 30, "i", 2),    # t of a middle row of i = 2, block 5
        (2, 32, 32, "i", 2),    # t of the last row of i = 2, block 5
        (3, 36, 36, "l", 4),    # x of a middle row of l = 4, block 6
        (3, 500, 500, "l", 4),  # x of the last row of l = 4, block 72
    ])
    def test_blocks_conflict_across_blocks(self, obs, tmp_path, monkeypatch,
                                           column, edited, named, axis, index):
        """A t (x) conflict between rows in different blocks names the
        edited row: the first that disagrees with the l = 1 row of its i
        (the i = 1 row of its l)."""
        monkeypatch.setattr(md, "_BLOCK_ROWS", 7)
        name = "t" if axis == "i" else "x"
        value = getattr(obs, name)[index - 1] + 1e-9
        path = self._edited_csv(obs, tmp_path,
                                [(edited, column, f"{value:.17g}")])
        with pytest.raises(md.ParameterError,
                           match=rf"data row {named} gives {name} = \S+ for "
                                 rf"{axis} = {index}, another row of {axis} = "
                                 rf"{index} gives "):
            md.load_csv(path)

    @pytest.mark.parametrize("edits", [
        [],                 # loads
        [(100, 1, "5")],    # (7, 4) becomes a second (7, 5)
        [(50, 2, "0.5")],   # a t that differs from the t of its i
        [(7, 0, "999")],    # an index above the 512 rows
    ])
    def test_load_csv_reads_the_file_once(self, obs, tmp_path, monkeypatch,
                                          edits):
        """One pass over the blocks whether the file loads or fails."""
        calls = []
        blocks = md._csv_blocks

        def spy(*args):
            calls.append(args)
            return blocks(*args)

        monkeypatch.setattr(md, "_csv_blocks", spy)
        path = self._edited_csv(obs, tmp_path, edits)
        if edits:
            with pytest.raises(md.ParameterError):
                md.load_csv(path)
        else:
            assert np.array_equal(md.load_csv(path).Y, obs.Y)
        assert len(calls) == 1

    def test_load_csv_peak_memory(self, tmp_path, monkeypatch):
        """The traced peak of load_csv stays within 3.5 times the bytes of
        its output t, x and Y (the flat Y array, which grows to at most
        twice the grid, and t and x) plus four parsed tables of one block
        (the block, numpy's parse buffers and the block's index arrays);
        it is 1.4 times the output bytes here, and one parse of the whole
        file peaks at about 5.7 times."""
        import tracemalloc
        monkeypatch.setattr(md, "_BLOCK_ROWS", 4096)
        d = md.DesignDensity(beta=0.3, x0=0.4)
        obs = md.simulate_observations(md.tensor_sinusoid(1.0, 1.0, max_freq=16),
                                       md.power_kernel(1.0), d, d,
                                       md.NoiseSpec(alpha=0.8, sigma=0.5),
                                       N=512, M=256, seed=1)
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        tracemalloc.start()
        try:
            back = md.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = back.t.nbytes + back.x.nbytes + back.Y.nbytes
        assert peak <= 3.5 * output + 4 * (4096 * 5 * 8)
        assert np.array_equal(back.Y, obs.Y)

    def test_load_csv_peak_is_the_grid(self, tmp_path, monkeypatch):
        """Each block's Y goes straight into the grid, so the traced peak
        of load_csv stays within 1.6 times the bytes of the grid plus one
        parsed block; blocks of 1000 rows end inside a row of 256 and
        grow the grid many times."""
        import tracemalloc
        monkeypatch.setattr(md, "_BLOCK_ROWS", 1000)
        d = md.DesignDensity(beta=0.3, x0=0.4)
        obs = md.simulate_observations(md.tensor_sinusoid(1.0, 1.0, max_freq=16),
                                       md.power_kernel(1.0), d, d,
                                       md.NoiseSpec(alpha=0.8, sigma=0.5),
                                       N=256, M=256, seed=1)
        path = tmp_path / "obs.csv"
        md.save_csv(obs, path)
        tracemalloc.start()
        try:
            back = md.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * back.Y.nbytes + 1000 * 5 * 8
        for name in ("t", "x", "Y"):
            assert np.array_equal(getattr(back, name), getattr(obs, name))
        assert back.Y.flags.c_contiguous and back.Y.flags.owndata

    def test_load_csv_grid_never_outgrows_the_file(self, tmp_path, monkeypatch):
        """999 rows of l = 1 and one row (1, 999): the last row is out of
        place, and no 999 x 999 grid (7.6 MiB) of its indices is ever
        allocated.  Blocks of 4096 rows, since numpy's parser reserves a
        whole block (2.5 MiB at 2^16 rows) whatever the file holds."""
        import tracemalloc
        monkeypatch.setattr(md, "_BLOCK_ROWS", 4096)
        path = tmp_path / "obs.csv"
        path.write_text("i,l,t,x,Y\n"
                        + "".join(f"{i},1,{i / 1000!r},0.001,0.5\n"
                                  for i in range(1, 1000))
                        + "1,999,0.001,0.999,0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(md.ParameterError,
                               match=r"data row 1000 has \(i, l\) = \(1, 999\)"):
                md.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_load_csv_block_fits_the_file(self, tmp_path):
        """At the default block of 2^16 rows, a file of 1000 rows loads
        with a traced peak under 0.5 MiB: numpy's parser reserves a whole
        block of parsed values (2.5 MiB at 2^16 rows of 5 fields), so the
        block is capped at the rows the file can hold."""
        import tracemalloc
        path = tmp_path / "obs.csv"
        path.write_text("i,l,t,x,Y\n"
                        + "".join(f"{i},{l},{i / 41!r},{l / 26!r},{i * l / 7!r}\n"
                                  for i in range(1, 41) for l in range(1, 26)))
        tracemalloc.start()
        try:
            obs = md.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obs.Y.shape == (40, 25) and obs.Y[39, 24] == 40 * 25 / 7
        assert peak < 2 ** 19

    @pytest.mark.parametrize("keep", [10, 16 + 8 * 20, 16 + 8 * 40, -8])
    def test_binary_rejects_truncated(self, obs, tmp_path, keep):
        """Cut inside the header, t (N = 32), x (M = 16) and Y."""
        path = tmp_path / "obs.afdc"
        md.save_binary(obs, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(md.ParameterError, match="truncated"):
            md.load_binary(path)


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
                                 "change t"]))
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
    else:
        k = draw(st.integers(1, len(lines) - 1))
        fields = lines[k].split(",")
        t = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
                 .filter(lambda v: v != float(fields[2])))
        fields[2] = f"{t:.17g}"
        lines[k] = ",".join(fields)
    return "".join(lines)


@given(text=_corrupted_csv())
@settings(max_examples=300, deadline=None)
def test_load_csv_rejects_or_recovers_corrupted_file(text):
    """A corrupted file raises ParameterError or loads the original grid;
    it never raises anything else or loads a different grid."""
    obs = _small_grid()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.csv"
        path.write_text(text)
        try:
            back = md.load_csv(path)
        except md.ParameterError:
            return
    assert (back.N, back.M) == (obs.N, obs.M)
    for name in ("t", "x", "Y"):
        assert np.array_equal(getattr(back, name), getattr(obs, name))


@functools.lru_cache(maxsize=1)
def _small_afdc() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.afdc"
        md.save_binary(_small_grid(), path)
        return path.read_bytes()


@st.composite
def _corrupted_afdc(draw) -> bytes:
    """The 16 x 8 AFDC file cut short, or with a run of bytes overwritten
    (the header's N and M included)."""
    raw = _small_afdc()
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    start = draw(st.integers(0, len(raw) - 1))
    patch = draw(st.binary(min_size=1, max_size=16))
    return raw[:start] + patch + raw[start + len(patch):]


@given(raw=_corrupted_afdc())
@settings(max_examples=300, deadline=None)
def test_load_binary_rejects_or_loads_finite_grid(raw):
    """A cut or overwritten AFDC file raises ParameterError or loads a grid
    of its header's shape with every value finite; nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.afdc"
        path.write_bytes(raw)
        try:
            back = md.load_binary(path)
        except md.ParameterError:
            return
    N, M = struct.unpack("<II", raw[8:16])
    assert (back.N, back.M, back.t.shape, back.x.shape, back.Y.shape) == (
        N, M, (N,), (M,), (N, M))
    for values in (back.t, back.x, back.Y):
        assert np.all(np.isfinite(values))
