"""Adaptive wavelet hard-thresholding deconvolution estimator.

Pipeline: build deconvolving functions U from the wavelet tables and the
kernel coefficients, form weighted empirical coefficients from the
observations, select the highest resolution levels from the effective
sample size, threshold with location-dependent cutoffs, and synthesize the
kept coefficients on an evaluation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as md
from . import wavelets as wv
from .model import (DesignDensity, KernelSpec, NoiseSpec, ParameterError,
                    TestFunction)

__all__ = [
    "EstimatorConfig",
    "KernelNotInvertibleError",
    "SingularDesignError",
    "choose_levels",
    "threshold",
    "compute_U",
    "estimate_field",
    "true_coefficients",
    "reconstruct",
    "FieldPlan",
    "save_field_csv",
    "save_reconstruction_csv",
]


class KernelNotInvertibleError(RuntimeError):
    """Kernel coefficient vanishes somewhere on an active band."""


class SingularDesignError(RuntimeError):
    """A design point sits exactly on a density singularity."""


@dataclass
class EstimatorConfig:
    """The model the estimator assumes, plus its own basis and constants.

    kernel, d1 (the t-design), d2 (the x-design) and noise are the model
    objects the level rule and the thresholds read: the ill-posedness nu,
    the singularities (beta_i, x0_i) and the noise law (alpha, sigma,
    kind).  wavelet is the estimator's basis, whose coefficients are
    addressed by (j1, k1, j2, k2) tuples.  gamma and mu are the Gaussian
    and sub-Gaussian threshold constants; besov_radius is the radius A
    entering the level selection rule; J1 and J2, when given, override the
    chosen levels.
    """

    kernel: KernelSpec
    d1: DesignDensity
    d2: DesignDensity
    noise: NoiseSpec
    wavelet: wv.WaveletSpec = wv.WaveletSpec()
    gamma: float = 4.0
    mu: float = 4.0
    besov_radius: float = 1.0
    J1: int | None = None
    J2: int | None = None

    def __post_init__(self):
        if self.gamma <= 0 or self.mu <= 0:
            raise ParameterError("threshold constants must be positive")

    def resolve_levels(self, M: int, N: int) -> tuple[int, int]:
        J1, J2 = self.J1, self.J2
        if J1 is None or J2 is None:
            a1, a2 = choose_levels(M, N, self.noise.alpha, self.noise.sigma,
                                   self.besov_radius, self.kernel.nu)
            J1, J2 = a1 if J1 is None else J1, a2 if J2 is None else J2
        return max(J1, self.wavelet.m10), max(J2, self.wavelet.m20)


def choose_levels(M: int, N: int, alpha: float, sigma: float,
                  A: float = 1.0, nu: float = 1.0) -> tuple[int, int]:
    """Highest resolution levels from 2^{J1} = [A^2 M N^alpha / sigma^2]^{1/(2nu+1)}
    and 2^{J2} = A^2 M N^alpha / sigma^2, capped below the design Nyquist."""
    if M < 2 or N < 2 or A <= 0:
        raise ParameterError("M, N >= 2 and A > 0 required")
    cap1 = int(math.floor(math.log2(N))) - 1
    cap2 = int(math.floor(math.log2(M))) - 1
    if sigma == 0.0:
        return cap1, cap2
    log2_ratio = math.log2(A * A * M * N ** alpha / sigma ** 2)
    J1 = int(math.floor(log2_ratio / (2.0 * nu + 1.0)))
    J2 = int(math.floor(log2_ratio))
    return min(J1, cap1), min(J2, cap2)


def _singular_shift(count: int, x0: float) -> int:
    """k0 = round(x0 count): the shift of a level with `count` shifts
    (2^{m0} at the scaling pseudo-level m0 - 1) centred nearest x0."""
    return round(x0 * count)


def _shift_distance(count: int, k, x0: float):
    """max(1, |k - k0|): how far shift(s) `k` of a level with `count`
    shifts sit from the shift k0 at the design singularity x0."""
    return np.maximum(1.0, np.abs(k - _singular_shift(count, x0)))


def _variance_order(cfg: EstimatorConfig, p: int, j1: int, k1, j2: int, k2):
    """Lemma 1's order of int U^p / (h1 h2)^{p-1} at shifts k1, k2 (arrays
    broadcast) of levels j1, j2: for r = p - 1,
    2^{j1 (p nu + r beta1) + j2 (r beta2 + p/2 - 1)} / (dist1^{r beta1}
    dist2^{r beta2}).  p = 2 is the variance order of every estimate."""
    d1, d2, r = cfg.d1, cfg.d2, p - 1
    level_factor = 2.0 ** (j1 * (p * cfg.kernel.nu + r * d1.beta)
                           + j2 * (r * d2.beta + p / 2 - 1))
    dist1 = _shift_distance(wv.shift_count(cfg.wavelet, j1, 0), k1, d1.x0)
    dist2 = _shift_distance(wv.shift_count(cfg.wavelet, j2, 1), k2, d2.x0)
    return level_factor / (dist1 ** (r * d1.beta) * dist2 ** (r * d2.beta))


def threshold(cfg: EstimatorConfig, M: int, N: int, j1: int, k1, j2: int, k2):
    """Location-dependent hard-threshold cutoff lambda at shifts k1, k2
    (arrays broadcast, so one call covers a whole level block) of levels
    j1, j2."""
    noise = cfg.noise
    n_eff = M * N ** noise.alpha
    if noise.kind == "gaussian-fgn":
        log_factor = cfg.gamma ** 2 * math.log(n_eff)
    else:
        log_factor = 1.0 + cfg.mu ** 2 * math.log(n_eff)
    order = _variance_order(cfg, 2, j1, k1, j2, k2)
    return np.sqrt(noise.sigma ** 2 * order * log_factor / n_eff)


# ----------------------------------------------------------------------
# Deconvolving functions U
# ----------------------------------------------------------------------

def _conj_kernel(kernel: KernelSpec, m: np.ndarray, x, level: int) -> np.ndarray:
    """conj(g(m, x)) over the band of a t-level: shape (band, 1) for an
    x-independent kernel, (band, len(x)) for an x-dependent one.

    Dividing the wavelet coefficients by conj(g(m, x)) = g(-m, x) makes the
    design-weighted sum against the convolved signal (Fourier coefficients
    fhat * ghat) reproduce the plain wavelet coefficient of f.
    """
    g = kernel.coeff(m[:, None], None if x is None else np.asarray(x)[None, :])
    if np.any(np.abs(g) == 0.0):
        raise KernelNotInvertibleError(
            f"kernel not invertible on band of level {level}")
    return np.conj(g)


def _u_t_factor(cfg: EstimatorConfig, j1: int, k1, t, x=None) -> np.ndarray:
    """U's t-factor sum_m psihat_{j1,k}(m) / conj(g(m, x)) e^{2 pi i m t}
    at the points t, one column per shift k in the list k1: shape
    (len(t), len(k1)), or (len(t), len(x)) for one shift of an
    x-dependent kernel, which needs x."""
    m1, psi = wv.build_basis(cfg.wavelet, j1, axis=0)
    return wv.eval_on_points(t, m1, psi[:, k1] / _conj_kernel(cfg.kernel, m1, x, j1))


def compute_U(cfg: EstimatorConfig, index, t_points, x_points) -> np.ndarray:
    """U of index (j1, k1, j2, k2) on the grid (t_points x x_points), shape
    (N, M): the per-index reference that ``FieldPlan`` is tested against."""
    j1, k1, j2, k2 = index
    x = np.asarray(x_points, dtype=float)
    u_tx = _u_t_factor(cfg, j1, [k1], t_points, x)
    m2, eta = wv.build_basis(cfg.wavelet, j2, axis=1)
    return u_tx * wv.eval_on_points(x, m2, eta[:, k2])[None, :]


def _design_weights(cfg: EstimatorConfig, t, x) -> tuple[np.ndarray, np.ndarray]:
    """(1/h1(t_i), 1/h2(x_l)): the weights of the design points in every
    estimate; SingularDesignError naming the axis and the first point
    (counted from 1) where a density vanishes."""
    h1, h2 = cfg.d1.pdf(t), cfg.d2.pdf(x)
    for axis, points, h, d in (("t", t, h1, cfg.d1), ("x", x, h2, cfg.d2)):
        i = np.flatnonzero(h == 0.0)[:1]
        if i.size:
            raise SingularDesignError(
                f"singular design point: the {axis}-design density vanishes "
                f"at point {i[0] + 1} of {points.size}, {axis} = "
                f"{points[i[0]]:.17g}, its singularity x0 = {d.x0:.17g}")
    return 1.0 / h1, 1.0 / h2


# ----------------------------------------------------------------------
# Coefficient fields
# ----------------------------------------------------------------------

@dataclass
class LevelBlock:
    """The estimates, thresholds lambda and kept flags of one level pair,
    each indexed [k1, k2]; a field is a dict of them keyed by (j1, j2)."""

    beta_hat: np.ndarray
    lam: np.ndarray
    kept: np.ndarray


# Columns of Y per block of FieldPlan.estimate: the t-transform of one
# block is 2 (b + 1) x 128 float64, 0.3 MiB at the t-band b = 170 of J1 = 8.
_BLOCK_COLUMNS = 128


class FieldPlan:
    """Design-dependent matrices that estimate every coefficient at once.

    The estimate of index (j1, k1; j2, k2) is
    ``(NM)^{-1} sum_{i,l} U(t_i, x_l) Y_il / (h1(t_i) h2(x_l))``.  Writing U
    through its Fourier coefficients ``psihat_{j1,k1}(m) / conj(g(m, x_l))``
    splits the sum into products: the t-transform
    ``What[m, l] = sum_i e^{i 2 pi m t_i} Y_il / (h1(t_i) h2(x_l))`` over
    the union t-band, then per t-level ``Z = Re sum_m psihat_{j1,k}(m)
    What[m] / conj(G(m))`` by ``wavelets.level_pairing``, the shift sums of
    the level (one residue sum and one FFT), then ``Z @ eta / (NM)`` with
    eta from ``wavelets.eval_level``; an x-independent G folds each t-level
    once per plan.
    The weight is never formed as an N x M matrix: 1/h1 is folded into the
    cos and sin rows of the transform and 1/h2 scales its columns.  Y is
    real, so What is Hermitian and only m = 0..b is transformed, for
    ``_BLOCK_COLUMNS`` columns of Y at a time.  The kernel enters as
    ``G = g(m, x)``, a band x 1 column for an x-independent kernel and a
    band x M block otherwise, so both kinds take this one path.  Reused
    across replicates that share the design, kernel and basis; equal for
    every index, up to rounding, to the per-index quadrature with
    ``compute_U``.  Kernel, designs, basis and levels are those of ``cfg``.
    """

    def __init__(self, cfg: EstimatorConfig, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        self.cfg = cfg
        self.N, self.M = t.size, x.size
        self.J1, self.J2 = cfg.resolve_levels(self.M, self.N)
        inv_h1, self.inv_h2 = _design_weights(cfg, t, x)
        # eta_{j2,k2}(x_l), one (M, count) matrix per x-level
        self.eta = {j2: wv.eval_level(cfg.wavelet, j2, 1, x)
                    for j2 in wv.level_range(cfg.wavelet, self.J2, axis=1)}
        # conj(g) over the signed band of each t-level
        bands = {j1: wv.base_table(cfg.wavelet, j1, 0)[0]
                 for j1 in wv.level_range(cfg.wavelet, self.J1, axis=0)}
        self.conj_g = {j1: _conj_kernel(cfg.kernel, m, x, j1) for j1, m in bands.items()}
        # an x-independent kernel's t-levels are folded once, here; an
        # x-dependent one divides each block of columns by its own conj(g)
        self.pairings = {j1: wv.level_pairing(cfg.wavelet, j1, 0, g)
                         for j1, g in self.conj_g.items() if g.shape[1] == 1}
        band = max(m.max() for m in bands.values())
        # cos and sin rows of e^{i 2 pi m t_i} / h1(t_i), m = 0..b, stacked,
        # so the t-transform of the real Y is one real product
        self.phase = np.empty((2 * (band + 1), self.N))
        wv._cos_sin(t, np.arange(band + 1), self.phase[:band + 1].T, self.phase[band + 1:].T)
        self.phase *= inv_h1

    def estimate(self, Y: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        if Y.shape != (self.N, self.M):
            raise ParameterError("observation shape mismatch")
        half = self.phase.shape[0] // 2
        spec = self.cfg.wavelet
        Z = {j1: np.empty((wv.shift_count(spec, j1, 0), self.M)) for j1 in self.conj_g}
        for a in range(0, self.M, _BLOCK_COLUMNS):
            cols = slice(a, a + _BLOCK_COLUMNS)
            CS = self.phase @ Y[:, cols]
            CS *= self.inv_h2[cols]
            What = CS[:half] + 1j * CS[half:]
            for j1, conj_g in self.conj_g.items():
                pair = (self.pairings.get(j1)
                        or wv.level_pairing(spec, j1, 0, conj_g[:, cols]))
                Z[j1][:, cols] = pair(lambda h: What[h])
        scale = 1.0 / (self.N * self.M)
        return {(j1, j2): scale * (Z[j1] @ self.eta[j2])
                for j1 in Z for j2 in self.eta}


def estimate_field(plan: FieldPlan, Y: np.ndarray) -> dict[tuple[int, int], LevelBlock]:
    """The hard-thresholded level blocks of the observations Y on the
    design, model and levels of ``plan``.

    Each level block is built whole: the estimates, their thresholds
    lambda, and kept iff |beta_hat| strictly exceeds lambda.  The scaling
    block, the smallest key, keeps every coefficient: its risk is
    controlled by variance, not bias.
    """
    blocks = {}
    for (j1, j2), beta_hat in plan.estimate(Y).items():
        k1, k2 = np.indices(beta_hat.shape, sparse=True)
        lam = threshold(plan.cfg, plan.M, plan.N, j1, k1, j2, k2)
        blocks[(j1, j2)] = LevelBlock(beta_hat, lam, np.abs(beta_hat) > lam)
    blocks[min(blocks)].kept[:] = True
    return blocks


# ----------------------------------------------------------------------
# True coefficients and reconstruction
# ----------------------------------------------------------------------

def true_coefficients(f: TestFunction, cfg: EstimatorConfig,
                      J1: int, J2: int) -> dict[tuple[int, int], np.ndarray]:
    """Tensor quadrature of f = u(t) v(x) against the basis, per level pair.

    Each block is the outer product of the exact t-coefficients
    ``<u, psi_{j1,k1}>`` and ``<v, eta_{j2,k2}>`` from an FFT of v on a fine
    x-grid, each level paired with conj(uhat) or conj(vhat) by
    ``wavelets.level_pairing``, the level's shift sums.  So the only
    discretization is the x-grid: per x-level, the smallest power of two of
    at least 4096 points that holds the band, 2 b + 1 frequencies (a finer
    grid on every level moved the lower blocks by up to 8.4e-6, the
    aliasing of v).
    """
    spec = cfg.wavelet
    along_t = {j1: wv.level_pairing(spec, j1, 0)(lambda h: np.conj(f.u_hat_at(h))[:, None])[:, 0]
               for j1 in wv.level_range(spec, J1, 0)}
    grid = {j2: max(4096, 1 << (2 * int(wv.base_table(spec, j2, 1)[0].max())).bit_length())
            for j2 in wv.level_range(spec, J2, 1)}
    vhat = {g: np.fft.fft(f.v(np.arange(g) / g)) / g   # indexed by m2 mod g
            for g in set(grid.values())}
    along_x = {j2: wv.level_pairing(spec, j2, 1)(lambda h: np.conj(vhat[g][h % g])[:, None])[:, 0]
               for j2, g in grid.items()}
    return {(j1, j2): np.outer(a, b) for j1, a in along_t.items() for j2, b in along_x.items()}


def reconstruct(field: dict[tuple[int, int], LevelBlock], cfg: EstimatorConfig,
                grid: int = 512, bases=None) -> np.ndarray:
    """Tensor synthesis of the kept coefficients on the uniform (grid, grid)
    periodic grid: f_hat(t_a, x_b) at t_a = a / grid, x_b = b / grid.

    Per t-level j1 it adds ``Psi_{j1} sum_{j2} C_{j1 j2} Eta_{j2}^T``, with
    C the kept coefficients of a level pair (0 elsewhere) and Psi, Eta
    every shift of a level at the grid points (``wavelets.eval_level``):
    point values, so a band wider than the grid needs no folding.  Level
    pairs that keep no coefficient are skipped.  ``bases``, a pair of
    dicts (t, x) of those matrices keyed by level, holding at least the
    levels of the other pairs, lets fields on one plan share them; when it
    is None only those are built.
    """
    field = {key: blk for key, blk in field.items() if blk.kept.any()}
    if bases is None:
        points = np.arange(grid) / grid
        bases = tuple({j: wv.eval_level(cfg.wavelet, j, axis, points)
                       for j in {key[axis] for key in field}} for axis in (0, 1))
    psi, eta = bases
    out = np.zeros((grid, grid))
    for j1 in sorted({j1 for j1, _ in field}):
        out += psi[j1] @ sum(np.where(blk.kept, blk.beta_hat, 0.0) @ eta[j2].T
                             for (i1, j2), blk in field.items() if i1 == j1)
    return out


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

_FIELD_COLUMNS = ("j1", "k1", "j2", "k2", "beta_hat", "lambda", "kept")


def save_field_csv(field: dict[tuple[int, int], LevelBlock], path,
                   truth: dict[tuple[int, int], np.ndarray] | None = None) -> None:
    """Columns j1,k1,j2,k2,beta_hat,lambda,kept[,beta_true]; one row per
    index, level blocks in (j1, j2) order and k1, k2 row-major inside.
    beta_true comes from ``truth``, blocks of ``true_coefficients``.  Every
    value is written as %.17g writes it (the integers as %d), one level
    block at a time, by ``model._write_rows``."""
    header = ",".join(_FIELD_COLUMNS + (() if truth is None else ("beta_true",)))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for (j1, j2), blk in sorted(field.items()):
            k1, k2 = np.indices(blk.beta_hat.shape)
            columns = [np.full(k1.size, j1), k1.ravel(), np.full(k1.size, j2), k2.ravel(),
                       blk.beta_hat.ravel(), blk.lam.ravel(), blk.kept.ravel()]
            if truth is not None:
                columns.append(truth[(j1, j2)].ravel())
            md._write_rows(fh, *columns)


def save_reconstruction_csv(values: np.ndarray, path) -> None:
    """The grid of ``reconstruct`` as plain CSV rows, every value %.17g."""
    md._write_csv(path, None, values)
