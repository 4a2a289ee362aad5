"""Adaptive wavelet hard-thresholding deconvolution estimator.

Pipeline: build deconvolving functions U from the wavelet tables and the
kernel coefficients, form weighted empirical coefficients from the
observations, select the highest resolution levels from the effective
sample size, threshold with location-dependent cutoffs, and synthesize the
kept coefficients on an evaluation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import wavelets as wv
from .model import (DesignDensity, KernelSpec, NoiseSpec, ObservationGrid,
                    ParameterError, TestFunction)

__all__ = [
    "Index",
    "EstimatorConfig",
    "CoefficientField",
    "Reconstruction",
    "KernelNotInvertibleError",
    "SingularDesignError",
    "choose_levels",
    "threshold",
    "compute_U",
    "estimate_coefficient",
    "estimate_field",
    "true_coefficients",
    "hard_threshold",
    "reconstruct",
    "reanalyze",
    "FieldPlan",
    "save_field_csv",
    "load_field_csv",
    "save_reconstruction_csv",
    "save_reconstruction_pgm",
]


class KernelNotInvertibleError(RuntimeError):
    """Kernel coefficient vanishes somewhere on an active band."""


class SingularDesignError(RuntimeError):
    """A design point sits exactly on a density singularity."""


@dataclass(frozen=True)
class Index:
    """Coefficient address (j1, k1; j2, k2) on the anisotropic grid."""

    j1: int
    k1: int
    j2: int
    k2: int

    def astuple(self):
        return (self.j1, self.k1, self.j2, self.k2)


@dataclass
class EstimatorConfig:
    """Resolved estimator parameters.

    gamma and mu are the Gaussian and sub-Gaussian threshold constants;
    besov_radius is the radius A entering the level selection rule.  The
    direction-specific quantities (nu, beta_i, singularity locations) are
    copied from the kernel and design densities by ``from_specs``.
    """

    gamma: float = 4.0
    mu: float = 4.0
    noise_kind: str = "gaussian-fgn"
    sigma: float = 1.0
    alpha: float = 1.0
    besov_radius: float = 1.0
    nu: float = 1.0
    beta1: float = 0.0
    beta2: float = 0.0
    t0: float = 0.5
    x0: float = 0.5
    J1: int | None = None
    J2: int | None = None

    def __post_init__(self):
        if self.gamma <= 0 or self.mu <= 0:
            raise ParameterError("threshold constants must be positive")

    @classmethod
    def from_specs(cls, kernel: KernelSpec, d1: DesignDensity,
                   d2: DesignDensity, noise: NoiseSpec,
                   besov_radius: float = 1.0, gamma: float = 4.0,
                   mu: float = 4.0, J1: int | None = None,
                   J2: int | None = None) -> "EstimatorConfig":
        return cls(gamma=gamma, mu=mu, noise_kind=noise.kind,
                   sigma=noise.sigma, alpha=noise.alpha,
                   besov_radius=besov_radius, nu=kernel.nu,
                   beta1=d1.beta, beta2=d2.beta, t0=d1.x0, x0=d2.x0,
                   J1=J1, J2=J2)

    def resolve_levels(self, M: int, N: int, wspec: wv.WaveletSpec) -> tuple[int, int]:
        J1, J2 = self.J1, self.J2
        if J1 is None or J2 is None:
            a1, a2 = choose_levels(M, N, self.alpha, self.sigma,
                                   self.besov_radius, self.nu)
            J1 = a1 if J1 is None else J1
            J2 = a2 if J2 is None else J2
        J1 = max(J1, wspec.m10)
        J2 = max(J2, wspec.m20)
        return J1, J2


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


def _shift_distance_factor(level: int, count: int, beta: float,
                           singularity: float) -> np.ndarray:
    """max(1, |k - k0|)^beta for all shifts, k0 = round(x0 2^j)."""
    if beta == 0.0:
        return np.ones(count)
    k0 = round(singularity * 2 ** level)
    k = np.arange(count)
    return np.maximum(1.0, np.abs(k - k0)) ** beta


def _threshold_block(cfg: EstimatorConfig, M: int, N: int, j1: int, j2: int,
                     count1: int, count2: int) -> np.ndarray:
    n_eff = M * N ** cfg.alpha
    level_factor = 2.0 ** ((2.0 * cfg.nu + cfg.beta1) * j1 + cfg.beta2 * j2)
    if cfg.noise_kind == "gaussian-fgn":
        log_factor = cfg.gamma ** 2 * math.log(n_eff)
    else:
        log_factor = 1.0 + cfg.mu ** 2 * math.log(n_eff)
    base = cfg.sigma ** 2 * level_factor * log_factor / n_eff
    d1 = _shift_distance_factor(j1, count1, cfg.beta1, cfg.t0)
    d2 = _shift_distance_factor(j2, count2, cfg.beta2, cfg.x0)
    return np.sqrt(base / (d1[:, None] * d2[None, :]))


def threshold(index: Index, cfg: EstimatorConfig, M: int, N: int) -> float:
    """Location-dependent hard-threshold cutoff lambda(omega)."""
    block = _threshold_block(cfg, M, N, index.j1, index.j2,
                             index.k1 + 1, index.k2 + 1)
    return float(block[index.k1, index.k2])


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


def compute_U(index: Index, kernel: KernelSpec, wspec: wv.WaveletSpec,
              t_points, x_points) -> np.ndarray:
    """U_omega evaluated on the grid (t_points x x_points); shape (N, M)."""
    x = np.asarray(x_points, dtype=float)
    m1, psi = wv.build_basis(wspec, index.j1, axis=0)
    m2, eta = wv.build_basis(wspec, index.j2, axis=1)
    a = psi[:, index.k1, None] / _conj_kernel(kernel, m1, x, index.j1)
    u_tx = wv.eval_on_points(t_points, m1, a)
    return u_tx * wv.eval_on_points(x, m2, eta[:, index.k2])[None, :]


def _reciprocal_weights(t: np.ndarray, x: np.ndarray,
                        d1: DesignDensity, d2: DesignDensity) -> np.ndarray:
    h1 = d1.pdf(t)
    h2 = d2.pdf(x)
    if np.any(h1 == 0.0) or np.any(h2 == 0.0):
        raise SingularDesignError("singular design point: density vanishes "
                                  "at a design location")
    return 1.0 / np.outer(h1, h2)


def estimate_coefficient(index: Index, obs: ObservationGrid,
                         d1: DesignDensity, d2: DesignDensity,
                         kernel: KernelSpec, wspec: wv.WaveletSpec) -> float:
    """Weighted empirical coefficient
    (MN)^{-1} sum_{i,l} U_omega(t_i, x_l) Y(t_i, x_l) / (h1(t_i) h2(x_l))."""
    U = compute_U(index, kernel, wspec, obs.t, obs.x)
    W = obs.Y * _reciprocal_weights(obs.t, obs.x, d1, d2)
    return float(np.sum(U * W) / (obs.N * obs.M))


# ----------------------------------------------------------------------
# Coefficient fields
# ----------------------------------------------------------------------

@dataclass
class LevelBlock:
    j1: int
    j2: int
    beta_hat: np.ndarray | None = None
    lam: np.ndarray | None = None
    kept: np.ndarray | None = None
    beta_true: np.ndarray | None = None


@dataclass
class CoefficientField:
    """Per-level-pair blocks of coefficient data over Omega(J1, J2)."""

    levels1: list[int]
    levels2: list[int]
    counts1: dict[int, int]
    counts2: dict[int, int]
    blocks: dict[tuple[int, int], LevelBlock] = dc_field(default_factory=dict)

    @classmethod
    def empty(cls, wspec: wv.WaveletSpec, J1: int, J2: int) -> "CoefficientField":
        levels1 = wv.level_range(wspec, J1, axis=0)
        levels2 = wv.level_range(wspec, J2, axis=1)
        counts1 = {j: wv.shift_count(wspec, j, 0) for j in levels1}
        counts2 = {j: wv.shift_count(wspec, j, 1) for j in levels2}
        fieldobj = cls(levels1, levels2, counts1, counts2)
        for j1 in levels1:
            for j2 in levels2:
                fieldobj.blocks[(j1, j2)] = LevelBlock(j1=j1, j2=j2)
        return fieldobj

    @property
    def scaling_pair(self) -> tuple[int, int]:
        return self.levels1[0], self.levels2[0]

    def indices(self):
        for (j1, j2), _ in sorted(self.blocks.items()):
            for k1 in range(self.counts1[j1]):
                for k2 in range(self.counts2[j2]):
                    yield Index(j1, k1, j2, k2)

    def record(self, index: Index) -> dict:
        blk = self.blocks[(index.j1, index.j2)]
        out = {}
        for name in ("beta_hat", "lam", "kept", "beta_true"):
            arr = getattr(blk, name)
            out[name] = None if arr is None else arr[index.k1, index.k2]
        return out

    def kept_count(self) -> int:
        return int(sum(blk.kept.sum() for blk in self.blocks.values()
                       if blk.kept is not None))


class FieldPlan:
    """Design-dependent matrices that estimate every coefficient at once.

    With W = Y / (h1 h2), the estimate of index (j1, k1; j2, k2) is
    ``(NM)^{-1} sum_{i,l} U(t_i, x_l) W_il``.  Writing U through its Fourier
    coefficients ``psihat_{j1,k1}(m) / conj(g(m, x_l))`` splits the sum into
    products: the t-transform ``What[m, l] = sum_i e^{i 2 pi m t_i} W_il``
    over the union t-band, then per t-level
    ``Z = Re(psi^T (What[band] / conj(G)))`` with psi the level matrix of
    ``wavelets.build_basis``, then ``Z @ eta / (NM)`` per x-level.  The
    kernel enters as ``G = g(m, x)``, a band x 1 column for an x-independent
    kernel and a band x M block otherwise, so both kinds take this one path.
    Reused across replicates that share the design, kernel and basis; equal
    to ``estimate_coefficient`` for every index up to rounding.
    """

    def __init__(self, t, x, d1: DesignDensity, d2: DesignDensity,
                 kernel: KernelSpec, wspec: wv.WaveletSpec,
                 J1: int, J2: int):
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=float)
        self.N, self.M = self.t.size, self.x.size
        self.J1, self.J2 = J1, J2
        self.weights = _reciprocal_weights(self.t, self.x, d1, d2)
        self.levels1 = wv.level_range(wspec, J1, axis=0)
        self.levels2 = wv.level_range(wspec, J2, axis=1)
        # eta_{j2,k2}(x_l), one (M, count) matrix per x-level
        self.eta = {j2: wv.eval_on_points(self.x, *wv.build_basis(wspec, j2, axis=1))
                    for j2 in self.levels2}
        # per t-level: rows of the union band, psi matrix, conj(g) on the band
        basis1 = _bases(wspec, self.levels1, axis=0)
        band = _band(basis1)
        self.t_basis = {j1: (m + band, psi, _conj_kernel(kernel, m, self.x, j1))
                        for j1, (m, psi) in basis1.items()}
        # cos and sin rows of e^{i 2 pi m t_i} stacked, so the t-transform
        # of the real W is one real product
        arg = 2.0 * np.pi * np.outer(np.arange(-band, band + 1), self.t)
        self.phase = np.vstack([np.cos(arg), np.sin(arg)])

    def estimate(self, Y: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        if Y.shape != (self.N, self.M):
            raise ParameterError("observation shape mismatch")
        CS = self.phase @ (Y * self.weights)
        half = CS.shape[0] // 2
        What = CS[:half] + 1j * CS[half:]
        scale = 1.0 / (self.N * self.M)
        blocks = {}
        for j1, (rows, psi, conj_g) in self.t_basis.items():
            Z = np.real(psi.T @ (What[rows] / conj_g))
            for j2 in self.levels2:
                blocks[(j1, j2)] = scale * (Z @ self.eta[j2])
        return blocks


def estimate_field(obs: ObservationGrid, d1: DesignDensity, d2: DesignDensity,
                   kernel: KernelSpec, wspec: wv.WaveletSpec,
                   cfg: EstimatorConfig,
                   beta_true: dict[tuple[int, int], np.ndarray] | None = None,
                   plan: FieldPlan | None = None) -> CoefficientField:
    """Estimate, threshold-annotate and flag the full coefficient field."""
    J1, J2 = cfg.resolve_levels(obs.M, obs.N, wspec)
    if plan is None:
        plan = FieldPlan(obs.t, obs.x, d1, d2, kernel, wspec, J1, J2)
    blocks = plan.estimate(obs.Y)
    fieldobj = CoefficientField.empty(wspec, J1, J2)
    for (j1, j2), blk in fieldobj.blocks.items():
        blk.beta_hat = blocks[(j1, j2)]
        blk.lam = _threshold_block(cfg, obs.M, obs.N, j1, j2,
                                   fieldobj.counts1[j1], fieldobj.counts2[j2])
        if beta_true is not None:
            blk.beta_true = beta_true.get((j1, j2))
    hard_threshold(fieldobj, cfg)
    return fieldobj


def hard_threshold(fieldobj: CoefficientField,
                   cfg: EstimatorConfig) -> CoefficientField:
    """kept iff |beta_hat| strictly exceeds lambda; the pure scaling block
    bypasses thresholding (its risk is controlled by variance, not bias)."""
    for (j1, j2), blk in fieldobj.blocks.items():
        blk.kept = np.abs(blk.beta_hat) > blk.lam
    s1, s2 = fieldobj.scaling_pair
    fieldobj.blocks[(s1, s2)].kept[:] = True
    return fieldobj


# ----------------------------------------------------------------------
# True coefficients and reconstruction
# ----------------------------------------------------------------------

def _bases(wspec: wv.WaveletSpec, levels, axis: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """``wavelets.build_basis`` of each level, keyed by level."""
    return {j: wv.build_basis(wspec, j, axis) for j in levels}


def _band(bases: dict[int, tuple[np.ndarray, np.ndarray]]) -> int:
    """Largest |m| over the bands of the given levels."""
    return max(m.max() for m, _ in bases.values())


def true_coefficients(f: TestFunction, wspec: wv.WaveletSpec,
                      J1: int, J2: int,
                      grid: int = 4096) -> dict[tuple[int, int], np.ndarray]:
    """Tensor quadrature of f against the basis, per level-pair block.

    Uses the exact t-Fourier rule of f on a fine x-grid and an FFT across x,
    so the only discretization is the x-grid (trapezoid at `grid` points).
    """
    basis1 = _bases(wspec, wv.level_range(wspec, J1, axis=0), 0)
    basis2 = _bases(wspec, wv.level_range(wspec, J2, axis=1), 1)
    b1, b2 = _band(basis1), _band(basis2)
    if 2 * b2 >= grid:
        raise wv.ResolutionOverflowError("x-grid too small for requested levels")
    xg = np.arange(grid) / grid
    m1 = np.arange(-b1, b1 + 1)
    F1 = f.fourier_t(m1, xg)                     # (2 b1 + 1, grid)
    F2 = np.fft.fft(F1, axis=1) / grid           # columns indexed by m2 mod grid
    out = {}
    for j1, (off1, psi) in basis1.items():
        rows = F2[off1 + b1, :]
        for j2, (off2, etam) in basis2.items():
            sub = rows[:, np.mod(off2, grid)]
            out[(j1, j2)] = np.real(np.conj(psi).T @ sub @ np.conj(etam))
    return out


@dataclass
class Reconstruction:
    """Synthesized surface plus its exact Fourier coefficients on the band."""

    values: np.ndarray
    fourier: np.ndarray           # (2 b1 + 1, 2 b2 + 1), index m + b
    band1: int
    band2: int
    grid: int
    field: CoefficientField | None = None


def reconstruct(fieldobj: CoefficientField, wspec: wv.WaveletSpec,
                grid: int = 512, which: str = "kept") -> Reconstruction:
    """Tensor synthesis of the selected coefficients on a uniform grid.

    which: "kept" (post-threshold), "all" (ignore flags), or "true"
    (synthesize beta_true blocks instead).
    """
    basis1 = _bases(wspec, fieldobj.levels1, 0)
    basis2 = _bases(wspec, fieldobj.levels2, 1)
    b1, b2 = _band(basis1), _band(basis2)
    F = np.zeros((2 * b1 + 1, 2 * b2 + 1), dtype=complex)
    for (j1, j2), blk in fieldobj.blocks.items():
        if which == "true":
            C = blk.beta_true
        else:
            C = blk.beta_hat
            if C is not None and which == "kept":
                C = np.where(blk.kept, C, 0.0)
        if C is None:
            continue
        off1, psi = basis1[j1]
        off2, etam = basis2[j2]
        F[np.ix_(off1 + b1, off2 + b2)] += psi @ C @ etam.T
    folded = np.zeros((grid, grid), dtype=complex)
    np.add.at(folded,
              (np.mod(np.arange(-b1, b1 + 1), grid)[:, None],
               np.mod(np.arange(-b2, b2 + 1), grid)[None, :]), F)
    values = np.real(np.fft.ifft2(folded) * grid * grid)
    return Reconstruction(values=values, fourier=F, band1=b1, band2=b2,
                          grid=grid, field=fieldobj)


def reanalyze(recon: Reconstruction, wspec: wv.WaveletSpec) -> dict[tuple[int, int], np.ndarray]:
    """Exact coefficient blocks of a reconstruction (biorthogonality check)."""
    fieldobj = recon.field
    basis1 = _bases(wspec, fieldobj.levels1, 0)
    basis2 = _bases(wspec, fieldobj.levels2, 1)
    out = {}
    for (j1, j2) in fieldobj.blocks:
        off1, psi = basis1[j1]
        off2, etam = basis2[j2]
        sub = recon.fourier[np.ix_(off1 + recon.band1, off2 + recon.band2)]
        out[(j1, j2)] = np.real(np.conj(psi).T @ sub @ np.conj(etam))
    return out


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def save_field_csv(fieldobj: CoefficientField, path) -> None:
    """Columns j1,k1,j2,k2,beta_hat,lambda,kept[,beta_true]."""
    has_true = any(blk.beta_true is not None for blk in fieldobj.blocks.values())
    header = "j1,k1,j2,k2,beta_hat,lambda,kept"
    if has_true:
        header += ",beta_true"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for idx in fieldobj.indices():
            rec = fieldobj.record(idx)
            row = (f"{idx.j1},{idx.k1},{idx.j2},{idx.k2},"
                   f"{rec['beta_hat']:.17g},{rec['lam']:.17g},"
                   f"{int(rec['kept'])}")
            if has_true:
                bt = rec["beta_true"]
                row += f",{0.0 if bt is None else bt:.17g}"
            fh.write(row + "\n")


def load_field_csv(path, wspec: wv.WaveletSpec, J1: int, J2: int) -> CoefficientField:
    fieldobj = CoefficientField.empty(wspec, J1, J2)
    for (j1, j2), blk in fieldobj.blocks.items():
        shape = (fieldobj.counts1[j1], fieldobj.counts2[j2])
        blk.beta_hat = np.zeros(shape)
        blk.lam = np.zeros(shape)
        blk.kept = np.zeros(shape, dtype=bool)
    data = np.genfromtxt(path, delimiter=",", names=True)
    has_true = "beta_true" in (data.dtype.names or ())
    if has_true:
        for blk in fieldobj.blocks.values():
            blk.beta_true = np.zeros((fieldobj.counts1[blk.j1],
                                      fieldobj.counts2[blk.j2]))
    for row in np.atleast_1d(data):
        j1, k1, j2, k2 = (int(row["j1"]), int(row["k1"]),
                          int(row["j2"]), int(row["k2"]))
        blk = fieldobj.blocks[(j1, j2)]
        blk.beta_hat[k1, k2] = row["beta_hat"]
        blk.lam[k1, k2] = row["lambda"]
        blk.kept[k1, k2] = bool(row["kept"])
        if has_true:
            blk.beta_true[k1, k2] = row["beta_true"]
    return fieldobj


def save_reconstruction_csv(recon: Reconstruction, path) -> None:
    np.savetxt(path, recon.values, delimiter=",", fmt="%.17g", newline="\n")


def save_reconstruction_pgm(recon: Reconstruction, path) -> None:
    """8-bit binary PGM, linearly rescaled to [0, 255]."""
    v = recon.values
    lo, hi = float(v.min()), float(v.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    img = np.round((v - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(img.tobytes())
