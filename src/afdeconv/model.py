"""Synthetic data generation: irregular designs, convolution kernels,
long-memory errors and observation grids.

The observation model is
``Y(t_i, x_l) = (g * f)(t_i, x_l) + sigma * eps_{i,l}`` with design points
that are quantiles of known densities in each direction, errors that are
long-memory within a profile ``x_l`` and independent across profiles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import toeplitz

__all__ = [
    "ParameterError",
    "KernelSpec",
    "DesignDensity",
    "NoiseSpec",
    "NOISE_KINDS",
    "ObservationGrid",
    "TestFunction",
    "normalize_density",
    "quantile_design",
    "lrd_covariance",
    "noise_factor",
    "sample_errors",
    "simulate_observations",
    "power_kernel",
    "fractional_kernel",
    "identity_kernel",
    "tensor_sinusoid",
    "bump_ramp",
    "make_test_function",
    "make_kernel",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
    "BINARY_MAGIC",
]


class ParameterError(ValueError):
    """A model parameter is outside its admissible range."""


# ----------------------------------------------------------------------
# Convolution kernels
# ----------------------------------------------------------------------

@dataclass
class KernelSpec:
    """Convolution kernel given by its functional Fourier coefficients.

    ``fourier(m)`` (or ``fourier(m, x)`` when ``x_dependent``) returns the
    coefficient g(m, x) of ``exp(i 2 pi m t)``.  ``nu`` is the degree of
    ill-posedness; the squared modulus must stay within
    ``[K1, K2] * (|m|+1)^{-2 nu}`` over the active band.
    """

    nu: float
    fourier: Callable[..., np.ndarray]
    x_dependent: bool = False
    name: str = "custom"
    K1: float = field(default=0.0)
    K2: float = field(default=0.0)

    def __post_init__(self):
        if self.nu < 0:
            raise ParameterError("nu must be >= 0")
        if self.K1 == 0.0 and self.K2 == 0.0:
            self.K1, self.K2 = self.measure_bounds()
        if self.K1 <= 0:
            raise ParameterError("kernel vanishes on the probe band "
                                 "(not invertible)")

    def coeff(self, m, x=None) -> np.ndarray:
        """g(m, x); an x-independent kernel ignores x, so ``coeff(m[:, None],
        x[None, :])`` broadcasts as band x 1 or band x len(x) alike."""
        m = np.asarray(m)
        if self.x_dependent:
            if x is None:
                raise ParameterError("x-dependent kernel requires x")
            return np.asarray(self.fourier(m, x), dtype=complex)
        return np.asarray(self.fourier(m), dtype=complex)

    def measure_bounds(self, max_m: int = 4096, xs=None) -> tuple[float, float]:
        """Measured envelope constants of |g(m,x)|^2 (|m|+1)^{2 nu}."""
        m = np.arange(-max_m, max_m + 1)
        if self.x_dependent:
            xs = np.linspace(0.05, 0.95, 19) if xs is None else np.asarray(xs)
            g = self.coeff(m[:, None], xs[None, :])
        else:
            g = self.coeff(m)
        ratio = np.abs(g) ** 2 * (np.abs(m) + 1.0).reshape(-1, *([1] * (g.ndim - 1))) ** (2 * self.nu)
        return float(ratio.min()), float(ratio.max())


def power_kernel(nu: float = 1.0) -> KernelSpec:
    """Real symmetric coefficients g(m) = (1 + |m|)^{-nu}."""
    return KernelSpec(nu=nu, name="regular-smooth",
                      fourier=lambda m: (1.0 + np.abs(m)) ** (-nu) + 0.0j)


def fractional_kernel(nu: float = 1.0) -> KernelSpec:
    """Complex coefficients g(m) = (1 + i 2 pi m)^{-nu} (causal smoothing)."""
    return KernelSpec(nu=nu, name="complex-smooth",
                      fourier=lambda m: (1.0 + 2j * np.pi * m) ** (-nu))


def identity_kernel() -> KernelSpec:
    """g(m) = 1: no blurring (nu = 0)."""
    return KernelSpec(nu=0.0, name="identity",
                      fourier=lambda m: np.ones_like(np.asarray(m, dtype=float)) + 0.0j)


_KERNELS = {
    "regular-smooth": lambda nu: power_kernel(nu),
    "complex-smooth": lambda nu: fractional_kernel(nu),
    "identity": lambda nu: identity_kernel(),
}


def make_kernel(name: str, nu: float = 1.0) -> KernelSpec:
    if name not in _KERNELS:
        raise ParameterError(f"unknown kernel {name!r}; choose from {sorted(_KERNELS)}")
    return _KERNELS[name](nu)


# ----------------------------------------------------------------------
# Singular design densities
# ----------------------------------------------------------------------

def normalize_density(beta: float, x0: float) -> float:
    """Normalization constant of h(x) = c |x - x0|^beta on [0, 1]."""
    if not 0.0 <= beta < 1.0:
        raise ParameterError("non-integrable reciprocal: beta must be in [0, 1)")
    if not 0.0 < x0 < 1.0:
        raise ParameterError("x0 must be interior to (0, 1)")
    return (beta + 1.0) / (x0 ** (beta + 1.0) + (1.0 - x0) ** (beta + 1.0))


@dataclass(frozen=True)
class DesignDensity:
    """h(x) = c |x - x0|^beta with closed-form CDF and quantile map."""

    beta: float = 0.0
    x0: float = 0.5

    def __post_init__(self):
        normalize_density(self.beta, self.x0)  # validates

    @property
    def c(self) -> float:
        return normalize_density(self.beta, self.x0)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.c * np.abs(x - self.x0) ** self.beta

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        b1 = self.beta + 1.0
        signed = np.sign(x - self.x0) * np.abs(x - self.x0) ** b1
        return self.c / b1 * (self.x0 ** b1 + signed)

    def quantile(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        b1 = self.beta + 1.0
        u_mid = self.c / b1 * self.x0 ** b1
        lo = self.x0 - np.maximum(self.x0 ** b1 - b1 * u / self.c, 0.0) ** (1.0 / b1)
        hi = self.x0 + np.maximum(b1 * (u - u_mid) / self.c, 0.0) ** (1.0 / b1)
        return np.where(u <= u_mid, lo, hi)


def quantile_design(n: int, density: DesignDensity) -> np.ndarray:
    """Design points t_i with H(t_i) = (i - 1/2) / n, strictly increasing.

    The interior grid keeps every point strictly inside (0, 1).  A point
    landing exactly on the density singularity is nudged by one ulp so the
    reciprocal weights stay finite.
    """
    if n < 2:
        raise ParameterError("need at least two design points")
    u = (np.arange(1, n + 1) - 0.5) / n
    t = density.quantile(u)
    at_sing = t == density.x0
    if np.any(at_sing):
        t[at_sing] = np.nextafter(density.x0, 1.0)
    return t


# ----------------------------------------------------------------------
# Long-memory errors
# ----------------------------------------------------------------------

_EXACT_FACTOR_LIMIT = 2048


def _fgn_autocov(N: int, alpha: float, sigma: float) -> np.ndarray:
    H = 1.0 - alpha / 2.0
    k = np.arange(N, dtype=float)
    return 0.5 * sigma ** 2 * (np.abs(k + 1) ** (2 * H)
                               - 2 * np.abs(k) ** (2 * H)
                               + np.abs(k - 1) ** (2 * H))


def lrd_covariance(N: int, alpha: float, sigma: float = 1.0) -> np.ndarray:
    """Fractional Gaussian noise covariance with Hurst H = 1 - alpha/2.

    The N x N Toeplitz matrix has lambda_max of order N^{1-alpha}, and its
    lambda_min decreases in N to lambda_inf = 2*pi*f(pi) > 0, where f is the
    unit-variance fGn spectral density (lambda_inf = 1 at alpha = 1).
    """
    if N < 2:
        raise ParameterError("N must be >= 2")
    if not 0.0 < alpha <= 1.0:
        raise ParameterError("alpha must be in (0, 1]")
    return toeplitz(_fgn_autocov(N, alpha, sigma))


def noise_factor(N: int, alpha: float, sigma: float = 1.0) -> np.ndarray:
    """Lower-triangular A_N with A_N A_N^T = Sigma_N (exact Cholesky)."""
    try:
        return np.linalg.cholesky(lrd_covariance(N, alpha, sigma))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - valid alpha is SPD
        raise ParameterError("covariance not positive definite") from exc


NOISE_KINDS = ("gaussian-fgn", "subgaussian-rademacher")


@dataclass(frozen=True)
class NoiseSpec:
    """Long-memory error law within each profile."""

    alpha: float = 1.0
    kind: str = "gaussian-fgn"
    sigma: float = 1.0
    sub_gaussian_norm: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterError("alpha must be in (0, 1]")
        if self.kind not in NOISE_KINDS:
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ParameterError("sigma must be >= 0")


def _draw_innovations(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "gaussian-fgn":
        return rng.standard_normal(n)
    # Rademacher +-1: unit variance, psi_2 norm bounded by 1.
    return rng.integers(0, 2, size=n) * 2.0 - 1.0


def _davies_harte_embedding(N: int, alpha: float) -> np.ndarray:
    r = _fgn_autocov(N, alpha, 1.0)
    circ = np.concatenate([r, [0.0], r[-1:0:-1]])
    lam = np.real(np.fft.fft(circ))
    if lam.min() < -1e-10:
        raise ParameterError("covariance not positive definite "
                             "(circulant embedding failed)")
    return np.sqrt(np.maximum(lam, 0.0))


def sample_errors(spec: NoiseSpec, N: int, M: int, seed) -> np.ndarray:
    """M independent unit-scale long-memory N-vectors, one per column.

    Column l uses the substream spawned from (seed, l), so profiles are
    reproducible and independent.  The returned errors have covariance
    ``lrd_covariance(N, alpha, sigma=1)`` per column; the observation noise
    scale sigma is applied by the caller (``Y = q + sigma * eps``).
    """
    streams = np.random.SeedSequence(seed).spawn(M)
    eta = np.empty((N, M))
    if spec.alpha == 1.0 or N <= _EXACT_FACTOR_LIMIT:
        for l, ss in enumerate(streams):
            eta[:, l] = _draw_innovations(np.random.default_rng(ss), N, spec.kind)
        if spec.alpha == 1.0:
            return eta
        return noise_factor(N, spec.alpha, 1.0) @ eta
    # Large N: circulant-embedding spectral sampling (Gaussian only; the
    # embedding mixes innovations, so the Rademacher kind keeps the exact
    # factor path and is capped at the exact-factor size).
    if spec.kind != "gaussian-fgn":
        raise ParameterError(
            f"subgaussian-rademacher noise requires N <= {_EXACT_FACTOR_LIMIT}")
    sq = _davies_harte_embedding(N, spec.alpha)
    two_n = sq.size
    out = np.empty((N, M))
    for l, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        z = rng.standard_normal(two_n) + 1j * rng.standard_normal(two_n)
        # Re sum a_k z_k e^{-i..} has variance sum a_k^2 = 2N r(0), and
        # covariance 2N r(|j-j'|); dividing by sqrt(2N) restores r exactly.
        out[:, l] = np.real(np.fft.fft(sq * z))[:N] / np.sqrt(two_n)
    return out


# ----------------------------------------------------------------------
# Test functions
# ----------------------------------------------------------------------

@dataclass
class TestFunction:
    """Ground-truth surface, 1-periodic in t, with known t-Fourier rule.

    ``fourier_t(m, x)`` returns the coefficients of exp(i 2 pi m t) of
    f(., x) as an array of shape (len(m), len(x)).
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fourier_t: Callable[[np.ndarray, np.ndarray], np.ndarray]
    s1: float = 1.0
    s2: float = 1.0
    p: float = 2.0
    q: float = 2.0
    radius: float = 1.0

    def grid(self, size: int) -> np.ndarray:
        g = np.arange(size) / size
        return self.eval(g[:, None], g[None, :])


def _harmonic_profile(s: float, max_freq: int):
    """1-D profile with |u^(m)| = c (1+|m|)^{-(s+1/2)} and scrambled phases.

    The quadratic irrational phase spreads energy evenly across shifts, so
    each wavelet level carries ~2^{-2js} energy split over all positions
    (the dense configuration of a Besov ball of smoothness s).  Unit L2 norm.
    """
    m = np.arange(1, max_freq + 1)
    mag = (1.0 + m) ** (-(s + 0.5))
    phase = 2.0 * np.pi * np.mod(0.6180339887498949 * m * m, 1.0)
    coeff = mag * np.exp(1j * phase)
    dc = 0.5
    norm = np.sqrt(dc ** 2 + 2.0 * np.sum(mag ** 2))
    coeff = coeff / norm
    dc = dc / norm

    def u_hat(mm):
        mm = np.asarray(mm)
        out = np.zeros(mm.shape, dtype=complex)
        pos = (mm > 0) & (mm <= max_freq)
        neg = (mm < 0) & (mm >= -max_freq)
        out[pos] = coeff[mm[pos] - 1]
        out[neg] = np.conj(coeff[-mm[neg] - 1])
        out[mm == 0] = dc
        return out

    def u_eval(t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        vals = np.full(flat.shape, dc, dtype=float)
        # chunk the band to bound memory on large grids
        step = 2048
        for lo in range(0, max_freq, step):
            mm = np.arange(lo + 1, min(lo + step, max_freq) + 1)
            vals += 2.0 * np.real(np.exp(2j * np.pi * np.outer(flat, mm)) @ coeff[mm - 1])
        return vals.reshape(t.shape)

    return u_eval, u_hat


def tensor_sinusoid(s1: float = 1.0, s2: float = 1.0,
                    max_freq: int = 4096) -> TestFunction:
    """Smooth tensor product of harmonic series with Besov smoothness (s1, s2)."""
    u_eval, u_hat = _harmonic_profile(s1, max_freq)
    v_eval, _ = _harmonic_profile(s2, max_freq)

    def f_eval(t, x):
        return u_eval(t) * v_eval(x)

    def f_fourier(m, x):
        return u_hat(np.asarray(m))[:, None] * v_eval(np.asarray(x))[None, :]

    return TestFunction(name="tensor-sinusoid", eval=f_eval, fourier_t=f_fourier,
                        s1=s1, s2=s2, p=2.0, q=2.0, radius=1.0)


def bump_ramp(center: float = 0.45, width: float = 0.15) -> TestFunction:
    """Triangular bump in t times a centred sawtooth ramp in x.

    Spatially inhomogeneous: a kink in t, a jump in x (sparse regimes).
    """

    def u_eval(t):
        t = np.asarray(t, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(np.mod(t - center + 0.5, 1.0) - 0.5) / width)

    def u_hat(m):
        m = np.asarray(m, dtype=float)
        arg = np.pi * m * width
        core = np.ones_like(arg)
        nz = arg != 0
        core[nz] = (np.sin(arg[nz]) / arg[nz]) ** 2
        return width * core * np.exp(-2j * np.pi * m * center)

    def v_eval(x):
        x = np.asarray(x, dtype=float)
        return np.mod(x, 1.0) - 0.5

    def f_eval(t, x):
        return u_eval(t) * v_eval(x)

    def f_fourier(m, x):
        return u_hat(np.asarray(m))[:, None] * v_eval(np.asarray(x))[None, :]

    return TestFunction(name="bump-ramp", eval=f_eval, fourier_t=f_fourier,
                        s1=1.5, s2=0.5, p=2.0, q=2.0, radius=1.0)


def single_atom(j1: int, k1: int, j2: int, k2: int, wspec) -> TestFunction:
    """f equal to one tensor basis atom (testing aid)."""
    from . import wavelets as wv

    m1, psi = wv.build_basis(wspec, j1, axis=0)
    m2, eta = wv.build_basis(wspec, j2, axis=1)
    psi, eta = psi[:, k1], eta[:, k2]

    def along(points, offsets, coeffs):
        points = np.asarray(points)
        return wv.eval_on_points(points.reshape(-1), offsets, coeffs).reshape(points.shape)

    def f_eval(t, x):
        return along(t, m1, psi) * along(x, m2, eta)

    def f_fourier(m, x):
        m = np.asarray(m)
        vals = np.zeros(m.shape, dtype=complex)
        hit = np.isin(m, m1)
        vals[hit] = psi[np.searchsorted(m1, m[hit])]
        return vals[:, None] * along(x, m2, eta).reshape(-1)[None, :]

    return TestFunction(name=f"atom-{j1}.{k1}.{j2}.{k2}", eval=f_eval,
                        fourier_t=f_fourier)


_TEST_FUNCTIONS = {
    "tensor-sinusoid": tensor_sinusoid,
    "bump-ramp": bump_ramp,
}


def make_test_function(name: str, **kwargs) -> TestFunction:
    if name not in _TEST_FUNCTIONS:
        raise ParameterError(
            f"unknown test function {name!r}; choose from {sorted(_TEST_FUNCTIONS)}")
    return _TEST_FUNCTIONS[name](**kwargs)


# ----------------------------------------------------------------------
# Observation grids
# ----------------------------------------------------------------------

@dataclass
class ObservationGrid:
    """Design points plus responses; Y[i, l] observed at (t[i], x[l])."""

    N: int
    M: int
    t: np.ndarray
    x: np.ndarray
    Y: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        if self.Y.shape != (self.N, self.M):
            raise ParameterError("Y must have shape (N, M)")
        for pts in (self.t, self.x):
            if np.any(pts <= 0.0) or np.any(pts >= 1.0) or np.any(np.diff(pts) <= 0):
                raise ParameterError("design points must be strictly "
                                     "increasing inside (0, 1)")


def convolved_signal(f: TestFunction, kernel: KernelSpec,
                     t: np.ndarray, x: np.ndarray,
                     band: int = 8192) -> np.ndarray:
    """Clean signal q(t_i, x_l) = sum_m fhat(m, x_l) g(m, x_l) e^{i2pi m t_i}."""
    q = np.zeros((t.size, x.size))
    step = 2048
    for lo in range(-band, band + 1, step):
        m = np.arange(lo, min(lo + step, band + 1))
        fh = f.fourier_t(m, x)
        g = kernel.coeff(m[:, None], x[None, :])
        q += np.real(np.exp(2j * np.pi * np.outer(t, m)) @ (fh * g))
    return q


def simulate_observations(f: TestFunction, kernel: KernelSpec,
                          d1: DesignDensity, d2: DesignDensity,
                          noise: NoiseSpec, N: int, M: int, seed,
                          band: int = 8192) -> ObservationGrid:
    """Draw one observation grid from the model."""
    t = quantile_design(N, d1)
    x = quantile_design(M, d2)
    q = convolved_signal(f, kernel, t, x, band=band)
    if noise.sigma > 0:
        q = q + noise.sigma * sample_errors(noise, N, M, seed)
    return ObservationGrid(N=N, M=M, t=t, x=x, Y=q, seed=seed)


# ----------------------------------------------------------------------
# Serialization (CSV and "AFDC" binary container)
# ----------------------------------------------------------------------

BINARY_MAGIC = b"AFDC"
_BINARY_VERSION = 1


def save_csv(obs: ObservationGrid, path) -> None:
    """Columns i,l,t,x,Y; one row per observation; LF newlines."""
    with open(path, "w", newline="\n") as fh:
        fh.write("i,l,t,x,Y\n")
        for i in range(obs.N):
            ti = obs.t[i]
            for l in range(obs.M):
                fh.write(f"{i + 1},{l + 1},{ti:.17g},{obs.x[l]:.17g},"
                         f"{obs.Y[i, l]:.17g}\n")


def load_csv(path) -> ObservationGrid:
    """Read a ``save_csv`` file; every (i, l) of the N x M grid must appear
    exactly once, with N and M the largest indices."""
    try:
        data = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    except (ValueError, IndexError) as exc:  # ragged rows; an empty file
        raise ParameterError(f"{path}: not an i,l,t,x,Y table: {exc}") from exc
    if data.dtype.names is None or not {"i", "l", "t", "x", "Y"} <= set(data.dtype.names) \
            or data.size == 0:
        raise ParameterError(f"{path}: expected a header i,l,t,x,Y and data rows")
    i, l = data["i"], data["l"]
    valid = ((i >= 1) & (l >= 1) & (i <= i.size) & (l <= l.size)
             & (i == np.round(i)) & (l == np.round(l)))
    if not np.all(valid):
        row = int(np.argmin(valid))
        raise ParameterError(f"{path}: data row {row + 1} has an invalid "
                             f"index (i, l) = ({i[row]}, {l[row]})")
    i, l = i.astype(int) - 1, l.astype(int) - 1
    N, M = int(i.max()) + 1, int(l.max()) + 1
    if N * M != i.size:
        raise ParameterError(f"{path}: {i.size} data rows for the {N} x {M} "
                             "grid of its largest indices: rows are missing, "
                             "duplicated or out of range")
    counts = np.bincount(i * M + l, minlength=N * M)
    if counts.max() > 1:
        bad = int(np.argmax(counts))
        raise ParameterError(f"{path}: duplicate row for (i, l) = "
                             f"({bad // M + 1}, {bad % M + 1})")
    t = np.empty(N)
    x = np.empty(M)
    Y = np.empty((N, M))
    t[i] = data["t"]
    x[l] = data["x"]
    Y[i, l] = data["Y"]
    return ObservationGrid(N=N, M=M, t=t, x=x, Y=Y)


def save_binary(obs: ObservationGrid, path) -> None:
    """16-byte header (magic, u32 version, u32 N, u32 M, little-endian)
    followed by float64 t[N], x[M], Y[N*M] row-major."""
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<III", _BINARY_VERSION, obs.N, obs.M))
        obs.t.astype("<f8").tofile(fh)
        obs.x.astype("<f8").tofile(fh)
        np.ascontiguousarray(obs.Y, dtype="<f8").tofile(fh)


def load_binary(path) -> ObservationGrid:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise ParameterError(f"not an AFDC container: magic {magic!r}")
        header = fh.read(12)
        if len(header) < 12:
            raise ParameterError(f"{path}: truncated AFDC header")
        version, N, M = struct.unpack("<III", header)
        if version != _BINARY_VERSION:
            raise ParameterError(f"unsupported container version {version}")
        t = np.fromfile(fh, dtype="<f8", count=N)
        x = np.fromfile(fh, dtype="<f8", count=M)
        Y = np.fromfile(fh, dtype="<f8", count=N * M)
    if (t.size, x.size, Y.size) != (N, M, N * M):
        raise ParameterError(
            f"{path}: truncated AFDC container: read {t.size + x.size + Y.size} "
            f"of {N + M + N * M} values for N={N}, M={M}")
    return ObservationGrid(N=N, M=M, t=t, x=x, Y=Y.reshape(N, M))
