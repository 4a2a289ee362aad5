import numpy as np
import pytest

from afdeconv import model as md
from afdeconv import wavelets as wv


@pytest.fixture(scope="module")
def meyer():
    return wv.WaveletSpec()


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

    @pytest.mark.parametrize("m0", [2, 3, 4])
    def test_folded_offsets_are_contiguous(self, m0):
        """The |m| of every level's band, scaling pseudo-level included,
        are one run lo..hi, which the residue sum of _shift_sums takes one
        slice of S consecutive offsets at a time."""
        spec = wv.WaveletSpec(m10=m0, m20=m0)
        for level in range(m0 - 1, wv.MAX_LEVEL + 1):
            half = np.unique(np.abs(wv.base_table(spec, level, 0)[0]))
            assert np.array_equal(half, np.arange(half[0], half[-1] + 1))

    def test_zero_dc_for_wavelets(self, meyer):
        for level in (3, 4, 5):
            m, vals = wv.base_table(meyer, level, axis=0)
            dc = vals[m == 0]
            assert np.allclose(dc, 0.0)

    def test_resolution_overflow(self, meyer):
        """Level 12 is the largest; level 13 and a range reaching it raise,
        and so does a scaling pseudo-level whose MRA level is above 12."""
        assert wv.base_table(meyer, wv.MAX_LEVEL, axis=0)[0].max() == 5461
        with pytest.raises(wv.ResolutionOverflowError, match="level 13"):
            wv.base_table(meyer, 13, axis=0)
        with pytest.raises(wv.ResolutionOverflowError, match="level 13"):
            wv.level_range(meyer, 14, axis=0)
        assert wv.level_range(meyer, 13, axis=0)[-1] == wv.MAX_LEVEL
        with pytest.raises(wv.ResolutionOverflowError):
            wv.base_table(wv.WaveletSpec(m20=13), 12, axis=1)


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
        """Evaluating a whole level equals evaluating each shift alone and
        one direct product, also for more points than one block of
        exponentials and for 2-D points (the result has the points' shape)."""
        m, coeffs = wv.build_basis(meyer, 4, axis=0)
        pts = np.linspace(0, 1, 33, endpoint=False)
        V = wv.eval_on_points(pts, m, coeffs)
        for k in (0, 5, 15):
            assert np.allclose(V[:, k], wv.eval_on_points(pts, m, coeffs[:, k]),
                               atol=1e-12)
        many = np.random.default_rng(0).random(2 * wv._BLOCK_EXPONENTIALS // m.size + 7)
        grid = pts.reshape(3, 11)
        for points in (pts, many, grid):
            direct = np.real(np.exp(2j * np.pi * points[..., None] * m) @ coeffs)
            V = wv.eval_on_points(points, m, coeffs)
            assert V.shape == points.shape + (coeffs.shape[1],)
            assert np.allclose(V, direct, atol=1e-12)
            assert np.allclose(wv.eval_on_points(points, m, coeffs[:, 3]),
                               direct[..., 3], atol=1e-12)

    @pytest.mark.parametrize("band", ["wavelet-level", "contiguous", "one-sided"])
    def test_fold_equals_plain_sum(self, meyer, band):
        """Folding each negative offset onto its positive twin leaves
        Re sum_m c_m e^{i 2 pi m t} over every offset unchanged, for
        coefficients that are not Hermitian, 1-D and 2-D, on a symmetric
        wavelet band with a hole around 0, a contiguous band and a band of
        positive offsets only."""
        rng = np.random.default_rng(7)
        if band == "wavelet-level":
            m = wv.build_basis(meyer, 5, axis=0)[0]
            assert 0 not in m and np.array_equal(np.sort(-m), m)
            n = 6
        elif band == "contiguous":
            m, n = np.arange(-40, 41), 1
        else:
            m, n = np.arange(1, 57), 3
        points = rng.random(97)
        for shape in ((m.size,), (m.size, n)):
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            plain = np.zeros((points.size,) + shape[1:])
            for mk, ck in zip(m, c):
                plain += np.real(np.multiply.outer(np.exp(2j * np.pi * mk * points), ck))
            V = wv.eval_on_points(points, m, c)
            assert V.shape == plain.shape
            assert np.max(np.abs(V - plain)) <= 1e-12 * np.max(np.abs(plain))


    def test_fold_in_slices_equals_one_slice(self, monkeypatch):
        """The fold gathers the band a slice at a time: slices of 7 values
        over shuffled offsets with and without a negative twin give the
        same bits as one slice."""
        rng = np.random.default_rng(13)
        m = rng.permutation(np.concatenate([np.arange(-30, 0), np.arange(0, 45)]))
        c = rng.standard_normal((m.size, 4)) + 1j * rng.standard_normal((m.size, 4))
        points = rng.random(40)
        whole = [wv.eval_on_points(points, m, block) for block in (c, c[:, 0])]
        monkeypatch.setattr(wv, "_BLOCK_FOLD", 7)
        for block, one_slice in zip((c, c[:, 0]), whole):
            assert np.array_equal(wv.eval_on_points(points, m, block), one_slice)

    def test_peak_memory_is_the_folded_rows(self):
        """A wide (band, n) block is folded in slices, so the traced peak
        of eval_on_points stays under 1.1 times its folded real rows
        [Re c'; -Im c'], 2 * 2049 x 512 floats or 16 MiB, at 8 points;
        gathering each sign of the band whole doubled it.  The values are
        the plain sum."""
        import tracemalloc
        rng = np.random.default_rng(17)
        m = np.arange(-2048, 2049)
        c = rng.standard_normal((m.size, 512)) + 1j * rng.standard_normal((m.size, 512))
        points = rng.random(8)
        tracemalloc.start()
        try:
            V = wv.eval_on_points(points, m, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * (2 * 2049 * 512 * 8)
        plain = np.real(np.exp(2j * np.pi * np.outer(points, m)) @ c)
        assert np.max(np.abs(V - plain)) <= 1e-12 * np.max(np.abs(plain))

    @pytest.mark.parametrize("offset", [1, -1])
    def test_repeated_offsets_rejected(self, offset):
        """A repeated offset would be assigned, not added, by the fold:
        [m, m] with coefficients [1, 2] must give 3 cos(2 pi m t), so
        eval_on_points refuses it and names the offset."""
        with pytest.raises(ValueError, match=f"offset {offset} is repeated"):
            wv.eval_on_points(np.array([0.1, 0.3]), np.array([offset, offset]),
                              np.array([1.0, 2.0]))


def _grid_sum(n, shift, m, c):
    """``Re sum_m c_m exp(i 2 pi m (a + s) / n)`` for a < n and s in {0, 1/2},
    the plain complex sum with each phase reduced exactly: m (2a + 2s) mod
    2n is an integer, so no product 2 pi m t rounds."""
    a = np.arange(n)
    r = np.mod(np.outer(2 * a + int(2 * shift), m), 2 * n)
    return np.real(np.exp(1j * np.pi * r / n) @ c)


class TestGridSynthesis:

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    @pytest.mark.parametrize("n", [7, 96, 512])
    @pytest.mark.parametrize("band", ["one-sided", "symmetric", "two-d"])
    def test_equals_plain_sum(self, shift, n, band):
        """On a Grid, eval_on_points by the residue FFT equals the plain
        complex sum at its points, also for n below the band, where the
        residues wrap, for non-Hermitian coefficients, 1-D and (band, n)."""
        rng = np.random.default_rng(23)
        m, shape = {"one-sided": (np.arange(1, 601), (600,)),
                    "symmetric": (np.arange(-300, 301), (601,)),
                    "two-d": (np.arange(-300, 301), (601, 4))}[band]
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        plain = _grid_sum(n, shift, m, c)
        V = wv.eval_on_points(wv.Grid(n, shift), m, c)
        assert V.shape == plain.shape == (n,) + shape[1:]
        assert np.max(np.abs(V - plain)) <= 1e-13 * np.max(np.abs(plain))

    def test_grid_is_its_points(self):
        """As an array a Grid is (a + s) / n, the midpoint grid bit for bit
        at s = 1/2, and the dense synthesis at those points agrees with
        the grid synthesis to rounding."""
        g = wv.Grid(96, 0.5)
        assert np.array_equal(np.asarray(g), (np.arange(1, 97) - 0.5) / 96)
        assert np.array_equal(np.asarray(wv.Grid(10)), np.arange(10) / 10)
        m, coeffs = wv.build_basis(wv.WaveletSpec(), 5, axis=0)
        dense = wv.eval_on_points(np.asarray(g), m, coeffs)
        assert np.max(np.abs(wv.eval_on_points(g, m, coeffs) - dense)) <= 1e-13

    def test_profiles_take_a_grid(self):
        """Closed-form profiles read a Grid as its points, and a synthesized
        profile takes the grid path: bump_ramp's u and v bit for bit,
        tensor_sinusoid's u to rounding."""
        g = wv.Grid(96, 0.5)
        t = np.asarray(g)
        f = md.bump_ramp()
        assert np.array_equal(f.u(g), f.u(t)) and np.array_equal(f.v(g), f.v(t))
        f = md.tensor_sinusoid(1.0, 1.0, max_freq=512)
        assert np.max(np.abs(f.u(g) - f.u(t))) <= 1e-13 * np.max(np.abs(f.u(t)))

    def test_column_blocks_equal_one_block(self, monkeypatch):
        """A wide (band, n) block is synthesized a few columns at a time:
        blocks of 3 columns give the same bits as one block."""
        rng = np.random.default_rng(29)
        m = np.arange(-300, 301)
        c = rng.standard_normal((m.size, 8)) + 1j * rng.standard_normal((m.size, 8))
        whole = wv.eval_on_points(wv.Grid(50, 0.5), m, c)
        monkeypatch.setattr(wv, "_BLOCK_EXPONENTIALS", 1000)
        assert np.array_equal(wv.eval_on_points(wv.Grid(50, 0.5), m, c), whole)

    @pytest.mark.parametrize("offsets, missing", [([1, 3], 2), ([-4, -2, 0, 1], 3),
                                                  ([0, 1, 2, 5, 7], 3)])
    def test_gap_in_the_band_rejected(self, offsets, missing):
        """The residue sum places the i-th folded term at h = lo + i, so a
        gap in the |m| would add terms into the wrong residues: the grid
        synthesis refuses it and names the first missing |m|."""
        m = np.array(offsets)
        with pytest.raises(ValueError, match=rf"\|m\| = {missing} is missing"):
            wv.eval_on_points(wv.Grid(8, 0.5), m, np.ones(m.size))


def _full_band(spec, level, axis, spectrum, divisor=1.0):
    """``Re sum_m psihat_{j,k}(m) W(m) / d(m)`` for every shift k of a
    level, (shift count, n): the plain complex sum over the whole signed
    band of ``psihat_{j,k}(m) = c_m exp(-2 pi i m k / S)``, with W(m) =
    ``spectrum(m)`` (band, n) at every signed offset, 256 shifts at a
    time."""
    m, base = wv.base_table(spec, level, axis)
    count = wv.shift_count(spec, level, axis)
    weighted = spectrum(m) * (base[:, None] / divisor)
    out = np.empty((count, weighted.shape[1]))
    for lo in range(0, count, 256):
        k = np.arange(lo, min(count, lo + 256))
        out[k] = np.real(np.exp(-2j * np.pi * np.outer(k / count, m)) @ weighted)
    return out


def _at_points(points):
    """W(m) = exp(2 pi i m t), one column per point t: the spectrum whose
    pairing with a level is its values at the points."""
    return lambda m: np.exp(2j * np.pi * np.outer(m, points))


def _hermitian(rng, n):
    """A random Hermitian spectrum, n columns, over every offset of the
    finest level: (W at offsets h >= 0, W at signed offsets m), with
    W(-m) = conj(W(m)) and W(0) real."""
    top = wv.band_limit(wv.MAX_LEVEL)
    W = rng.standard_normal((top + 1, n)) + 1j * rng.standard_normal((top + 1, n))
    W[0] = W[0].real
    return (lambda h: W[h],
            lambda m: np.where(m[:, None] < 0, np.conj(W[np.abs(m)]), W[np.abs(m)]))


class TestEvalLevel:
    """``eval_level`` equals the full-band complex sum of every shift."""

    SPEC = wv.WaveletSpec(m10=3, m20=4)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("points", ["singular", "coarse"])
    def test_equals_full_band_sum(self, axis, points):
        """The scaling pseudo-level and wavelet levels of both axes, at 300
        points of a beta = 0.3 design (more than one block at levels 7
        and 9) and on a 16-point grid, coarser than every band from
        level 4 on."""
        pts = (md.quantile_design(300, md.DesignDensity(beta=0.3, x0=0.5))
               if points == "singular" else np.arange(16) / 16)
        m0 = self.SPEC.lowest_level(axis)
        for level in (m0 - 1, m0, 5, 7, 9):
            V = wv.eval_level(self.SPEC, level, axis, pts)
            ref = _full_band(self.SPEC, level, axis, _at_points(pts)).T
            assert V.shape == (pts.size, wv.shift_count(self.SPEC, level, axis))
            assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_level_11_at_a_few_points(self):
        """The finest level the estimator builds (2048 shifts, band 2732),
        at a few points including the singularity's neighbourhood."""
        pts = np.array([0.0, 0.013, 0.4999, 0.5001, 0.77, 0.999])
        for axis in (0, 1):
            V = wv.eval_level(self.SPEC, 11, axis, pts)
            ref = _full_band(self.SPEC, 11, axis, _at_points(pts)).T
            assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_folds_each_level_once(self, monkeypatch):
        """eval_level folds the level's band once and pairs the fold with
        every block of points: level 7 at more than three blocks' worth of
        points makes one fold."""
        calls = {"_fold": 0, "_residue_fft": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(wv, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(wv, name, spy)
        count = wv.shift_count(self.SPEC, 7, 0)
        pts = np.random.default_rng(19).random(3 * (wv._BLOCK_LEVEL // count) + 1)
        V = wv.eval_level(self.SPEC, 7, 0, pts)
        assert V.shape == (pts.size, count)
        assert calls["_residue_fft"] >= 3
        assert calls["_fold"] == 1

    def test_band_wider_than_the_shift_count(self, monkeypatch):
        """Several offsets of one residue mod S add up: a random complex
        band over |m| <= 3S + 5, wider than any Meyer band, which has at
        most one coefficient per residue above rounding."""
        count = wv.shift_count(self.SPEC, 5, 0)
        m = np.arange(-3 * count - 5, 3 * count + 6)
        rng = np.random.default_rng(11)
        c = rng.standard_normal(m.size) + 1j * rng.standard_normal(m.size)
        monkeypatch.setattr(wv, "base_table", lambda spec, level, axis: (m, c))
        pts = rng.random(50)
        V = wv.eval_level(self.SPEC, 5, 0, pts)
        ref = _full_band(self.SPEC, 5, 0, _at_points(pts)).T
        assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))
        # and level_pairing, with a random spectrum and a (band, n) divisor
        half, signed = _hermitian(rng, 3)
        d = 1.5 + rng.standard_normal((m.size, 3)) + 1j * rng.standard_normal((m.size, 3))
        V = wv.level_pairing(self.SPEC, 5, 0, d)(half)
        ref = _full_band(self.SPEC, 5, 0, signed, d)
        assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))


    @pytest.mark.parametrize("offsets, missing", [([-9, -8, -6, 6, 8, 9], 7),
                                                  ([-5, -4, 4, 5, 7], 6)])
    def test_gap_in_a_level_band_rejected(self, monkeypatch, offsets, missing):
        """A level band whose |m| have a gap would add terms into the wrong
        residues: level_pairing and eval_level refuse it and name the first
        missing |m|."""
        m = np.array(offsets)
        monkeypatch.setattr(wv, "base_table", lambda spec, level, axis: (m, np.ones(m.size)))
        with pytest.raises(ValueError, match=rf"\|m\| = {missing} is missing"):
            wv.level_pairing(self.SPEC, 3, 0)
        with pytest.raises(ValueError, match=rf"\|m\| = {missing} is missing"):
            wv.eval_level(self.SPEC, 3, 0, np.array([0.1, 0.7]))

    def test_every_shift_sum_folds_once(self, monkeypatch):
        """Level syntheses, level pairings and grid syntheses are one
        primitive: each folds its band once, through _shift_sums, however
        many blocks of points or spectra it then pairs with the fold."""
        calls = []
        for name in ("_shift_sums", "_fold"):
            monkeypatch.setattr(wv, name, lambda *args, _name=name, _real=getattr(wv, name):
                                calls.append(_name) or _real(*args))
        count = wv.shift_count(self.SPEC, 7, 0)
        pts = np.random.default_rng(31).random(3 * (wv._BLOCK_LEVEL // count) + 1)
        wv.eval_level(self.SPEC, 7, 0, pts)
        assert calls == ["_shift_sums", "_fold"]
        calls.clear()
        pair = wv.level_pairing(self.SPEC, 6, 1)
        half, _ = _hermitian(np.random.default_rng(37), 2)
        for _ in range(3):
            pair(half)
        assert calls == ["_shift_sums", "_fold"]
        calls.clear()
        m, c = wv.build_basis(self.SPEC, 5, axis=0)
        wv.eval_on_points(wv.Grid(64, 0.5), m, c[:, :4])
        assert calls == ["_shift_sums", "_fold"]

class TestPairLevel:
    """``level_pairing`` equals the full-band complex sum of every shift,
    divided before the fold by a divisor that is not Hermitian."""

    SPEC = wv.WaveletSpec(m10=3, m20=4)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("columns", [1, 5], ids=["band-by-1", "band-by-n"])
    def test_equals_full_band_sum(self, axis, columns):
        """The scaling pseudo-level and wavelet levels of both axes, five
        random Hermitian spectra, and a random complex divisor d with
        d(-m) != conj(d(m)), one column for all spectra or one each.  One
        column also divides eval_level, at 300 points of a beta = 0.3
        design."""
        rng = np.random.default_rng(23)
        half, signed = _hermitian(rng, 5)
        pts = md.quantile_design(300, md.DesignDensity(beta=0.3, x0=0.5))
        m0 = self.SPEC.lowest_level(axis)
        for level in (m0 - 1, m0, 5, 8):
            m, _ = wv.base_table(self.SPEC, level, axis)
            d = (1.5 + rng.standard_normal((m.size, columns))
                 + 1j * rng.standard_normal((m.size, columns)))
            V = wv.level_pairing(self.SPEC, level, axis, d)(half)
            ref = _full_band(self.SPEC, level, axis, signed, d)
            assert V.shape == (wv.shift_count(self.SPEC, level, axis), 5)
            assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))
            if columns == 1:
                V = wv.eval_level(self.SPEC, level, axis, pts, d)
                ref = _full_band(self.SPEC, level, axis, _at_points(pts), d).T
                assert np.max(np.abs(V - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_divisor_shape_checked(self):
        """level_pairing takes a (band, 1) or (band, n) divisor and
        eval_level a (band, 1) one; a 1-D divisor, a wrong band or more
        columns at the points raise ValueError rather than broadcast into
        wrong values."""
        band = wv.base_table(self.SPEC, 4, 0)[0].size
        pts = np.array([0.1, 0.6])
        for d in (np.ones(band), np.ones((band + 1, 1)), np.ones((band, 1, 1))):
            with pytest.raises(ValueError, match="divisor of shape"):
                wv.level_pairing(self.SPEC, 4, 0, d)
            with pytest.raises(ValueError, match="divisor of shape"):
                wv.eval_level(self.SPEC, 4, 0, pts, d)
        with pytest.raises(ValueError, match="divisor of shape"):
            wv.eval_level(self.SPEC, 4, 0, pts, np.ones((band, 2)))
        assert wv.level_pairing(self.SPEC, 4, 0, np.ones((band, 2)))(
            lambda h: np.ones((h.size, 2))).shape == (16, 2)

