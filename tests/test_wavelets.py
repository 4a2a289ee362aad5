import numpy as np
import pytest

from afdeconv import wavelets as wv


@pytest.fixture(scope="module")
def meyer():
    return wv.WaveletSpec()


@pytest.fixture(scope="module")
def daub():
    return wv.WaveletSpec(family="daubechies", regularity=8)


FINE = 4096


def _fine_values(spec, level, grid=FINE):
    """(grid, shifts) values of every basis function of one level."""
    return wv.eval_on_points(np.arange(grid) / grid,
                             *wv.build_basis(spec, level, axis=0))


class TestBandStructure:

    def test_band_limit_formula(self):
        # ceil(2^{j+2}/3) + 1 for a few levels
        assert wv.band_limit(3) == 12
        assert wv.band_limit(4) == 23
        assert wv.band_limit(5) == 44

    def test_meyer_support_inside_band(self, meyer):
        for level in (3, 4, 5):
            m, vals = wv.base_table(meyer, level, axis=0)
            assert np.max(np.abs(m)) <= wv.band_limit(level)
            # spectrum vanishes well inside |m| < 2^j / 3
            inner = np.abs(m) < (2 ** level) / 3
            assert np.allclose(vals[inner], 0.0)

    def test_zero_dc_for_wavelets(self, meyer):
        for level in (3, 4, 5):
            m, vals = wv.base_table(meyer, level, axis=0)
            dc = vals[m == 0]
            assert np.allclose(dc, 0.0)

    def test_resolution_overflow(self):
        tiny = wv.WaveletSpec(grid_size=64)
        with pytest.raises(wv.ResolutionOverflowError):
            wv.base_table(tiny, 8, axis=0)


class TestOrthonormality:

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_within_level(self, meyer, level):
        V = _fine_values(meyer, level)
        G = V.T @ V / FINE
        assert V.shape[1] == wv.shift_count(meyer, level, 0)
        assert np.allclose(G, np.eye(V.shape[1]), atol=1e-10)

    def test_across_levels(self, meyer):
        V3 = _fine_values(meyer, 3)
        V4 = _fine_values(meyer, 4)
        assert np.allclose(V3.T @ V4 / FINE, 0.0, atol=1e-10)

    def test_scaling_against_wavelets(self, meyer):
        S = _fine_values(meyer, meyer.m10 - 1)
        V3 = _fine_values(meyer, 3)
        assert np.allclose(S.T @ S / FINE, np.eye(S.shape[1]), atol=1e-10)
        assert np.allclose(S.T @ V3 / FINE, 0.0, atol=1e-10)

    def test_parseval_sum(self, meyer):
        """Every column of a level matrix has unit norm (Parseval)."""
        for level in (meyer.m10 - 1, 3, 5):
            _, coeffs = wv.build_basis(meyer, level, axis=0)
            norms = np.sum(np.abs(coeffs) ** 2, axis=0)
            assert np.allclose(norms, 1.0, atol=1e-12)


class TestCompleteness:

    def test_levels_span_fine_scale_space(self, meyer):
        """Scaling block plus wavelet levels up to J-1 reproduce any
        band-limited function with spectrum inside the core of V_J."""
        J = 6
        levels = wv.level_range(meyer, J, axis=0)
        rng = np.random.default_rng(7)
        # target with spectrum within |m| <= 2^J/3 (fully inside the union)
        freqs = np.arange(1, 2 ** J // 3)
        coefs = rng.standard_normal(len(freqs))
        g = np.arange(FINE) / FINE
        target = sum(c * np.sqrt(2) * np.cos(2 * np.pi * k * g)
                     for c, k in zip(coefs, freqs))
        approx = np.zeros_like(target)
        for level in levels:
            V = _fine_values(meyer, level)
            approx += V @ (V.T @ target / FINE)
        assert np.max(np.abs(approx - target)) < 1e-10

    def test_level_range_and_counts(self, meyer):
        levels = wv.level_range(meyer, 6, axis=0)
        assert levels[0] == meyer.m10 - 1
        assert levels[-1] == 5
        # scaling pseudo-level carries 2^{m10} shifts
        assert wv.shift_count(meyer, meyer.m10 - 1, 0) == 2 ** meyer.m10
        assert wv.shift_count(meyer, 4, 0) == 16
        total = sum(wv.shift_count(meyer, j, 0) for j in levels)
        assert total == 2 ** 6


class TestDaubechies:

    def test_filter_is_orthonormal(self):
        h = wv.daubechies_filter(8)
        assert np.sum(h ** 2) == pytest.approx(1.0, abs=1e-10)
        assert np.sum(h) == pytest.approx(np.sqrt(2), abs=1e-10)
        # double-shift orthogonality
        for shift in (2, 4, 6):
            assert np.dot(h[shift:], h[:-shift]) == pytest.approx(0, abs=1e-9)

    def test_near_orthonormal_basis(self, daub):
        V = _fine_values(daub, 4)
        G = V.T @ V / FINE
        assert np.max(np.abs(G - np.eye(V.shape[1]))) < 1e-6


class TestEvaluation:

    def test_periodicity(self, meyer):
        m, coeffs = wv.build_basis(meyer, 3, axis=0)
        pts = np.array([0.12, 0.57, 0.93])
        assert np.allclose(wv.eval_on_points(pts, m, coeffs),
                           wv.eval_on_points(pts + 1.0, m, coeffs), atol=1e-12)

    def test_shift_relation(self, meyer):
        m, coeffs = wv.build_basis(meyer, 4, axis=0)
        pts = np.linspace(0, 1, 57, endpoint=False)
        v0 = wv.eval_on_points(pts - 3 / 16, m, coeffs[:, 0])
        v3 = wv.eval_on_points(pts, m, coeffs[:, 3])
        assert np.allclose(v0, v3, atol=1e-10)

    def test_level_matrix_matches_single_columns(self, meyer):
        """Evaluating a whole level equals evaluating each shift alone."""
        m, coeffs = wv.build_basis(meyer, 4, axis=0)
        pts = np.linspace(0, 1, 33, endpoint=False)
        V = wv.eval_on_points(pts, m, coeffs)
        for k in (0, 5, 15):
            assert np.allclose(V[:, k], wv.eval_on_points(pts, m, coeffs[:, k]),
                               atol=1e-12)
