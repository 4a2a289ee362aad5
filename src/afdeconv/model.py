"""Synthetic data generation: irregular designs, convolution kernels,
long-memory errors, test functions and observation grids.

The observation model is
``Y(t_i, x_l) = int g(t_i - s, x_l) f(s, x_l) ds + sigma * eps_{i,l}`` with
design points that are quantiles of known densities in each direction,
errors that are long-memory within a profile ``x_l`` and independent across
profiles.  The kernel convolves in t only, and every test function is a
tensor product ``f(t, x) = u(t) v(x)`` that carries the t-Fourier
coefficients of u over its own band, so the clean signal is one
band-limited synthesis in t (``wavelets.eval_on_points``) times v(x).
``simulate_replicates`` computes the designs, q and the noise colouring
once and yields one grid per seed; ``simulate_observations`` is its
one-seed case.  A uniform design (beta = 0) is the midpoint grid
(i - 1/2)/n exactly, so q is synthesized on it as a ``wavelets.Grid``,
by one FFT; a singular design takes the dense synthesis at its points.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import wavelets as wv

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
    "noise_factor",
    "sample_errors",
    "convolved_signal",
    "simulate_observations",
    "simulate_replicates",
    "power_kernel",
    "fractional_kernel",
    "identity_kernel",
    "tensor_sinusoid",
    "bump_ramp",
    "make_test_function",
    "make_kernel",
    "save_csv",
    "load_csv",
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
    ill-posedness, |g(m, x)| ~ (|m|+1)^{-nu}; the estimator rejects a
    kernel that vanishes on an active band.
    """

    nu: float
    fourier: Callable[..., np.ndarray]
    x_dependent: bool = False

    def __post_init__(self):
        if self.nu < 0:
            raise ParameterError("nu must be >= 0")

    def coeff(self, m, x=None) -> np.ndarray:
        """g(m, x); an x-independent kernel ignores x, so ``coeff(m[:, None],
        x[None, :])`` broadcasts as band x 1 or band x len(x) alike."""
        m = np.asarray(m)
        if self.x_dependent:
            if x is None:
                raise ParameterError("x-dependent kernel requires x")
            return np.asarray(self.fourier(m, x), dtype=complex)
        return np.asarray(self.fourier(m), dtype=complex)


def power_kernel(nu: float = 1.0) -> KernelSpec:
    """Real symmetric coefficients g(m) = (1 + |m|)^{-nu}."""
    return KernelSpec(nu=nu, fourier=lambda m: (1.0 + np.abs(m)) ** (-nu) + 0.0j)


def fractional_kernel(nu: float = 1.0) -> KernelSpec:
    """Complex coefficients g(m) = (1 + i 2 pi m)^{-nu} (causal smoothing)."""
    return KernelSpec(nu=nu, fourier=lambda m: (1.0 + 2j * np.pi * m) ** (-nu))


def identity_kernel() -> KernelSpec:
    """g(m) = 1: no blurring (nu = 0)."""
    return KernelSpec(nu=0.0,
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
        if self.beta == 0.0:
            return u  # H is the identity; the closed form is an ulp off it
        b1 = self.beta + 1.0
        u_mid = self.c / b1 * self.x0 ** b1
        lo = self.x0 - np.maximum(self.x0 ** b1 - b1 * u / self.c, 0.0) ** (1.0 / b1)
        hi = self.x0 + np.maximum(b1 * (u - u_mid) / self.c, 0.0) ** (1.0 / b1)
        return np.where(u <= u_mid, lo, hi)


def quantile_design(n: int, density: DesignDensity) -> np.ndarray:
    """Design points t_i with H(t_i) = (i - 1/2) / n, strictly increasing.

    The interior grid keeps every point strictly inside (0, 1), and at
    beta = 0 it is the midpoint grid ``wavelets.Grid(n, 0.5)`` exactly.  A
    point landing exactly on the density singularity (beta > 0) is nudged
    by one ulp so the reciprocal weights stay finite.
    """
    if n < 2:
        raise ParameterError("need at least two design points")
    u = (np.arange(1, n + 1) - 0.5) / n
    t = density.quantile(u)
    at_sing = (t == density.x0) & (density.beta > 0.0)
    if np.any(at_sing):
        t[at_sing] = np.nextafter(density.x0, 1.0)
    return t


# ----------------------------------------------------------------------
# Long-memory errors
# ----------------------------------------------------------------------

def _fgn_autocov(N: int, alpha: float, sigma: float) -> np.ndarray:
    """r_k = sigma^2 / 2 ((k+1)^{2H} - 2 k^{2H} + |k-1|^{2H}), k < N, H = 1 - alpha/2, as
    written at k <= 2: further out the difference cancels digits (1.2e-9 relative at
    alpha = 0.5, lag 4095), so r_k = sigma^2 k^{2H} sum_{n >= 1} C(2H, 2n) k^{-2n}, 20
    terms by Horner in k^{-2} (at k = 3 the n-th is below 9^{1-n} of the first).  Each
    C(2H, 2n) has the factor 2H - 1, so r_k = 0 exactly at alpha = 1."""
    H = 1.0 - alpha / 2.0
    k = np.arange(N, dtype=float)
    head = 0.5 * (np.abs(k[:3] + 1) ** (2 * H) - 2 * k[:3] ** (2 * H)
                  + np.abs(k[:3] - 1) ** (2 * H))
    coeffs = [H * (2 * H - 1)]  # C(2H, 2n), n = 1..20
    for n in range(1, 20):
        coeffs.append(coeffs[-1] * (2 * H - 2 * n) * (2 * H - 2 * n - 1)
                      / ((2 * n + 1) * (2 * n + 2)))
    x, tail = k[3:] ** -2.0, 0.0
    for c in reversed(coeffs):
        tail = (tail + c) * x
    return sigma ** 2 * np.concatenate([head, tail * k[3:] ** (2 * H)])


def _check_fgn(N: int, alpha: float) -> None:
    if N < 2:
        raise ParameterError("N must be >= 2")
    if not 0.0 < alpha <= 1.0:
        raise ParameterError("alpha must be in (0, 1]")


def _schur_rows(N: int, alpha: float) -> Iterator[np.ndarray]:
    """Row k of A_N^T from its diagonal on, k = 0..N-1, where A_N is the Cholesky
    factor of the fGn covariance Sigma_N, in O(N) memory and O(N^2) time.

    Schur's recursion on the generators of Sigma_N - Z Sigma_N Z^T = g0 g0^T - g1 g1^T
    (Z the down shift): g0 = r / sqrt(r_0), g1 = g0 with g1[0] = 0.  Row k is g0[k:];
    then g0 shifts down by one and (g0, g1) turns by the hyperbolic rotation of
    rho = g1[k+1] / g0[k+1], in the mixed form that Bojanczyk, Brent, de Hoog and
    Sweet (SIMAX 1995) show to be as stable as Cholesky.  Each row is a view that
    the next step overwrites."""
    g0 = _fgn_autocov(N, alpha, 1.0)
    g0 /= np.sqrt(g0[0])
    g1 = g0.copy()
    g1[0] = 0.0
    for k in range(N):
        yield g0[:N - k]  # g0 is kept unshifted: g0[i] is entry k + i
        if k + 1 < N:
            a, b = g0[:N - k - 1], g1[k + 1:]
            rho = b[0] / a[0]
            root = np.sqrt((1.0 - rho) * (1.0 + rho))
            a -= rho * b
            a /= root
            b *= root
            b -= rho * a


def _fgn_factor_product(V: np.ndarray, alpha: float) -> np.ndarray:
    """A_N^T V for the Cholesky factor A_N of the fGn covariance Sigma_N, N =
    len(V): one product per row of ``_schur_rows``, with no N x N matrix."""
    out = np.empty(V.shape)
    for k, row in enumerate(_schur_rows(len(V), alpha)):
        out[k] = row @ V[k:]
    return out


def noise_factor(N: int, alpha: float, sigma: float = 1.0) -> np.ndarray:
    """Lower-triangular A_N with A_N A_N^T = Sigma_N (the Cholesky factor),
    column k from row k of ``_schur_rows``.  The lemma suites apply it to
    their linear forms by ``_fgn_factor_product``, with no N x N matrix."""
    _check_fgn(N, alpha)
    A = np.zeros((N, N))
    for k, row in enumerate(_schur_rows(N, alpha)):
        A[k:, k] = sigma * row
    return A


NOISE_KINDS = ("gaussian-fgn", "subgaussian-rademacher")


@dataclass(frozen=True)
class NoiseSpec:
    """Long-memory error law within each profile."""

    alpha: float = 1.0
    kind: str = "gaussian-fgn"
    sigma: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ParameterError("alpha must be in (0, 1]")
        if self.kind not in NOISE_KINDS:
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ParameterError("sigma must be >= 0")


def _draw_innovations(rng: np.random.Generator, shape, kind: str) -> np.ndarray:
    """Unit-variance innovations of the noise law `kind`, of shape `shape`."""
    if kind == "gaussian-fgn":
        return rng.standard_normal(shape)
    # Rademacher +-1: unit variance, psi_2 norm bounded by 1.  -1.0 and
    # +1.0 differ only in the sign bit, so the int64 draw z in {0, 1}
    # becomes the float64 result 2z - 1 in its own buffer, with no copy.
    bits = rng.integers(0, 2, size=shape).view(np.uint64)
    bits ^= 1
    bits <<= 63
    bits |= np.float64(1.0).view(np.uint64)
    return bits.view(np.float64)


_COLOUR_BLOCK = 64  # columns that _error_sampler colours at once


def _circulant_scale(N: int, alpha: float) -> np.ndarray:
    """sqrt(N lam_k), k = 0..N, and sqrt(2N lam_k) at k = 0 and N, for the eigenvalues lam
    of the 2N circulant embedding [r_0, ..., r_{N-1}, r_N, r_{N-1}, ..., r_1] of fGn's r."""
    r = _fgn_autocov(N + 1, alpha, 1.0)
    lam = np.fft.rfft(np.concatenate([r, r[-2:0:-1]])).real
    if lam.min() < -1e-10:
        raise ParameterError("circulant embedding not positive definite")
    lam = np.maximum(lam, 0.0) * N
    lam[[0, N]] *= 2.0
    return np.sqrt(lam)


def _colour(scale: np.ndarray, r: np.ndarray) -> np.ndarray:
    """B r for each row r of 2N unit innovations, where B = Q Lambda^{1/2}, the first N rows
    of the circulant embedding's real eigenbasis times the roots of its eigenvalues, has
    B B^T = Sigma_N.  r fills X_0 = r_0, X_k = r_{2k-1} + i r_{2k} (0 < k < N), X_N = r_{2N-1}:
    the first N values of the real inverse FFT of the scaled X are B r."""
    N = scale.size - 1
    spec = np.zeros((len(r), N + 1), dtype=complex)
    flat = spec.view(np.float64)  # Re X_0, Im X_0, Re X_1, ..., Re X_N, Im X_N
    flat[:, 0] = r[:, 0]
    flat[:, 2:-1] = r[:, 1:]
    spec *= scale
    return np.fft.irfft(spec, 2 * N)[:, :N]


# numpy's SeedSequence hash: the constants and multipliers of its entropy
# mixing (A), of generate_state (B) and of its mix of two words (L, R)
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(start: int, mult: int, steps: int, count: int) -> np.ndarray:
    """The hash constant start * mult^k mod 2^32 for k = steps .. steps + count."""
    c = [start * pow(mult, steps, 1 << 32) % (1 << 32)]
    for _ in range(count):
        c.append(c[-1] * mult % (1 << 32))
    return np.array(c, dtype=np.uint32)


def _hashmix(words: np.ndarray, c: np.ndarray) -> np.ndarray:
    """numpy's hashmix of words[..., k] by the constant c[k], advanced to c[k + 1]."""
    v = (words ^ c[:-1]) * c[1:]
    return v ^ (v >> 16)


def _uint32_words(entropy) -> int:
    """How many uint32 words a SeedSequence makes of an int or a nest of ints."""
    if isinstance(entropy, (int, np.integer)):
        return max(1, (int(entropy).bit_length() + 31) // 32)
    return sum(_uint32_words(v) for v in entropy)


def _spawn_states(root: np.random.SeedSequence, M: int) -> np.ndarray:
    """(M, 4) uint64: row l is ``SeedSequence(root.entropy, spawn_key=(*root.spawn_key, l),
    pool_size=root.pool_size).generate_state(4, np.uint64)``, the PCG64 seed of column l.
    Child l assembles the root's words (its entropy padded with zeros to the pool size,
    then its key) and one more word l, so its pool is ``root.pool`` with l mixed into every
    word by the hash constant that the root's n words left after their n * pool_size
    hashes; the state is numpy's 8-word hash of that pool."""
    p = root.pool_size
    n = max(_uint32_words(root.entropy), p) + _uint32_words(root.spawn_key)
    word = _hashmix(np.arange(M, dtype=np.uint32)[:, None],
                    _hash_constants(_HASH_A, _MULT_A, n * p, p))
    pool = _MIX_L * root.pool - _MIX_R * word
    pool ^= pool >> 16
    state = _hashmix(pool[:, np.arange(8) % p], _hash_constants(_HASH_B, _MULT_B, 0, 8))
    # little-endian word pairs, as numpy's generate_state pairs them
    return np.ascontiguousarray(state, "<u4").view("<u8").astype(np.uint64)


class _SpawnedSeed(np.random.bit_generator.ISeedSequence):
    """The seed sequence of one column: hands PCG64 the state ``_spawn_states`` derived."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, np.dtype(dtype)) != (len(self.state), self.state.dtype):
            raise ValueError("a spawned seed holds exactly one PCG64 state")
        return self.state


def _column_rng(state: np.ndarray) -> np.random.Generator:
    """``default_rng`` of the child whose PCG64 state is ``state``, a row of ``_spawn_states``."""
    return np.random.Generator(np.random.PCG64(_SpawnedSeed(state)))


def _error_sampler(spec: NoiseSpec, N: int, M: int) -> Callable[..., np.ndarray]:
    """``draw(seed)``, the errors of ``sample_errors``: column l takes N
    innovations from the l-th substream of the seed at alpha = 1, else 2N
    that ``_colour`` colours, ``_COLOUR_BLOCK`` columns at a time, for every
    N and both kinds.  The lemma suites' Cholesky factor, applied by
    ``_fgn_factor_product``, gives the same law for Gaussian innovations,
    another of the same covariance for Rademacher.  A ``SeedSequence`` seed
    is taken as given, and its l-th child is built from its key, so a
    repeated draw of one seed gives the same errors.  Column l's generator
    is ``default_rng`` of that child: ``_spawn_states`` derives the PCG64
    states of all M children at once, the states numpy's own
    ``SeedSequence`` gives, so every draw is that of the child itself.
    Each draw checks column 0's state against numpy's and raises
    RuntimeError if they differ."""
    scale = None if spec.alpha == 1.0 else _circulant_scale(N, spec.alpha)

    def draw(seed) -> np.ndarray:
        root = (seed if isinstance(seed, np.random.SeedSequence)
                else np.random.SeedSequence(seed))
        states = _spawn_states(root, M)
        first = np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, 0),
                                       pool_size=root.pool_size)
        if M and not np.array_equal(states[0], first.generate_state(4, np.uint64)):
            raise RuntimeError("numpy's SeedSequence no longer hashes as _spawn_states does")
        if scale is None:  # row l of the buffer is column l of the errors
            eps = np.empty((M, N))
            for l, state in enumerate(states):
                eps[l] = _draw_innovations(_column_rng(state), N, spec.kind)
            return eps.T
        eps = np.empty((N, M))  # C order, as q is, so Y = q + sigma eps adds like layouts
        for lo in range(0, M, _COLOUR_BLOCK):
            r = np.array([_draw_innovations(_column_rng(state), 2 * N, spec.kind)
                          for state in states[lo:lo + _COLOUR_BLOCK]])
            eps[:, lo:lo + len(r)] = _colour(scale, r).T
        return eps

    return draw


def sample_errors(spec: NoiseSpec, N: int, M: int, seed) -> np.ndarray:
    """M independent unit-scale long-memory N-vectors, one per column, each
    of covariance Sigma_N, the unit-scale fGn Toeplitz matrix: fractional
    Gaussian noise for Gaussian innovations, a sub-Gaussian process of that
    covariance for Rademacher ones; the lemma suites' linear forms use the
    Cholesky factor of the same covariance (``_fgn_factor_product``).
    Column l uses the substream spawned from (seed, l), so profiles are
    reproducible and independent; the seed is an int or a list of ints,
    ``SeedSequence`` entropy, or a ``SeedSequence``.  The generators of all
    M substreams are seeded at once with the states numpy's ``spawn``
    gives them, so every draw is that of ``default_rng`` of the child
    itself.  The caller applies sigma (``Y = q + sigma * eps``)."""
    return _error_sampler(spec, N, M)(seed)


# ----------------------------------------------------------------------
# Test functions
# ----------------------------------------------------------------------

@dataclass
class TestFunction:
    """Ground-truth surface f(t, x) = u(t) v(x), 1-periodic in t.

    Every test function is such a tensor product.  ``u`` and ``v`` evaluate
    the two profiles at points of any shape, and ``u_hat[m + band]`` holds
    the coefficients of exp(i 2 pi m t) in u for |m| <= band, the band over
    which u is synthesized (u is zero or truncated beyond it).
    """

    u: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    u_hat: np.ndarray
    s1: float = 1.0
    s2: float = 1.0
    p: float = 2.0

    @property
    def band(self) -> int:
        return (self.u_hat.size - 1) // 2

    def u_hat_at(self, m) -> np.ndarray:
        """Coefficients of u at the frequencies m; zero outside the band."""
        m = np.asarray(m)
        inside = np.abs(m) <= self.band
        return np.where(inside, self.u_hat[np.where(inside, m + self.band, 0)], 0.0)

    def eval(self, t, x) -> np.ndarray:
        return self.u(t) * self.v(x)

    def grid(self, size: int) -> np.ndarray:
        """f at (a/size, b/size) for a, b < size, u and v on a ``wavelets.Grid``."""
        g = wv.Grid(size)
        return np.multiply.outer(self.u(g), self.v(g))


def _harmonic_profile(s: float, max_freq: int):
    """1-D profile with |u^(m)| = c (1+|m|)^{-(s+1/2)} and scrambled phases.

    The quadratic irrational phase spreads energy evenly across shifts, so
    each wavelet level carries ~2^{-2js} energy split over all positions
    (the dense configuration of a Besov ball of smoothness s).  Unit L2 norm.
    Returns the evaluator, c_0 + 2 Re sum_{0 < m <= max_freq} c_m e^{i 2 pi m t}
    (half the band of the symmetric sum), and the coefficients c_m for
    |m| <= max_freq.
    """
    m = np.arange(1, max_freq + 1)
    mag = (1.0 + m) ** (-(s + 0.5))
    phase = 2.0 * np.pi * np.mod(0.6180339887498949 * m * m, 1.0)
    norm = np.sqrt(0.25 + 2.0 * np.sum(mag ** 2))
    coeff = mag * np.exp(1j * phase) / norm
    dc = 0.5 / norm

    def profile(t):
        return dc + wv.eval_on_points(t, m, 2.0 * coeff)

    return profile, np.concatenate([np.conj(coeff[::-1]), [dc], coeff])


def tensor_sinusoid(s1: float = 1.0, s2: float = 1.0,
                    max_freq: int = 4096) -> TestFunction:
    """Smooth tensor product of harmonic series with Besov smoothness (s1, s2)."""
    for key, s in (("s1", s1), ("s2", s2)):
        if not s > 0:
            raise ParameterError(f"{key}: must be > 0, got {s!r}")
    if not max_freq >= 1:
        raise ParameterError(f"max_freq: must be >= 1, got {max_freq!r}")
    u, u_hat = _harmonic_profile(s1, max_freq)
    v, _ = _harmonic_profile(s2, max_freq)
    return TestFunction(u=u, v=v, u_hat=u_hat, s1=s1, s2=s2, p=2.0)


def bump_ramp(center: float = 0.45, width: float = 0.15) -> TestFunction:
    """Triangular bump in t times a centred sawtooth ramp in x.

    Spatially inhomogeneous: a kink in t, a jump in x (sparse regimes).  The
    bump's sinc^2 coefficients are kept for |m| <= 8192, where they have
    fallen below 1e-8.
    """
    if not 0.0 < width <= 0.5:
        raise ParameterError(f"width: must lie in (0, 0.5], got {width!r}")
    if not 0.0 <= center < 1.0:
        raise ParameterError(f"center: must lie in [0, 1), got {center!r}")

    def u(t):
        t = np.asarray(t, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(np.mod(t - center + 0.5, 1.0) - 0.5) / width)

    def v(x):
        return np.mod(np.asarray(x, dtype=float), 1.0) - 0.5

    m = np.arange(-8192, 8193)
    u_hat = width * np.sinc(m * width) ** 2 * np.exp(-2j * np.pi * m * center)
    return TestFunction(u=u, v=v, u_hat=u_hat, s1=1.5, s2=0.5, p=2.0)


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
    """Design points plus responses; Y[i, l] observed at (t[i], x[l]), and
    (N, M) is the shape of Y."""

    t: np.ndarray
    x: np.ndarray
    Y: np.ndarray

    @property
    def N(self) -> int:
        return self.Y.shape[0]

    @property
    def M(self) -> int:
        return self.Y.shape[1]

    def __post_init__(self):
        if self.Y.shape != (self.t.size, self.x.size):
            raise ParameterError(f"Y must have shape (t.size, x.size) = "
                                 f"({self.t.size}, {self.x.size}), got {self.Y.shape}")
        for name, pts in (("t", self.t), ("x", self.x)):
            # positive form, so that NaN fails it too
            if not (np.all((pts > 0.0) & (pts < 1.0)) and np.all(np.diff(pts) > 0)):
                raise ParameterError(f"{name}: design points must be strictly "
                                     "increasing inside (0, 1)")


def convolved_signal(f: TestFunction, kernel: KernelSpec,
                     t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Clean signal q(t_i, x_l) = v(x_l) sum_m uhat(m) g(m, x_l) e^{i2pi m t_i}.

    The kernel convolves in t only, so q is one synthesis over the band of
    u: its coefficient block uhat * g is band x 1 for an x-independent
    kernel and band x len(x) for an x-dependent one.  t and x are arrays or
    ``wavelets.Grid`` points, which both syntheses, in t and of v, take.
    """
    m = np.arange(-f.band, f.band + 1)
    coeffs = f.u_hat[:, None] * kernel.coeff(m[:, None], np.asarray(x)[None, :])
    return wv.eval_on_points(t, m, coeffs) * f.v(x)[None, :]


def simulate_replicates(f: TestFunction, kernel: KernelSpec,
                        d1: DesignDensity, d2: DesignDensity,
                        noise: NoiseSpec, N: int, M: int,
                        seeds) -> Iterator[ObservationGrid]:
    """Yield one observation grid per seed, Y = q + sigma * eps(seed).

    The designs, the clean signal q and the noise colouring do not depend
    on the seed and are computed once; each grid then costs one innovation
    draw.  Grids are yielded one at a time and share t, x (and, at
    sigma = 0, Y = q), so callers must not modify them in place.
    """
    t = quantile_design(N, d1)
    x = quantile_design(M, d2)
    draw = _error_sampler(noise, N, M) if noise.sigma > 0 else None
    # a uniform design is the midpoint grid, synthesized by one FFT
    q = convolved_signal(f, kernel, *(wv.Grid(p.size, 0.5) if d.beta == 0.0 else p
                                      for p, d in ((t, d1), (x, d2))))
    for seed in seeds:
        if draw is None:
            Y = q
        else:
            Y = draw(seed)
            Y *= noise.sigma
            Y += q
        yield ObservationGrid(t=t, x=x, Y=Y)


def simulate_observations(f: TestFunction, kernel: KernelSpec,
                          d1: DesignDensity, d2: DesignDensity,
                          noise: NoiseSpec, N: int, M: int,
                          seed) -> ObservationGrid:
    """Draw one observation grid from the model."""
    return next(simulate_replicates(f, kernel, d1, d2, noise, N, M, [seed]))


# ----------------------------------------------------------------------
# Serialization (CSV)
# ----------------------------------------------------------------------

def _bad_row(path, width: int, exc: ValueError) -> str:
    """Name the first data row, counted from 1, that numpy's parser cannot
    read: its field count differs from the header's ``width``, or a field
    is not a number; numpy's own message when no row is found."""
    with open(path, encoding="latin-1") as fh:
        fh.readline()
        for row, line in enumerate(fh, 1):
            if line == "\n":
                continue  # the parser skips empty lines
            fields = line.rstrip("\n").split(",")
            if len(fields) != width:
                return (f"data row {row} has {len(fields)} fields for the "
                        f"{width} header columns")
            for text in fields:
                try:
                    float(text.replace("_", "x"))  # numpy rejects 1_0
                except ValueError:
                    return f"data row {row} has the field {text!r}, not a number"
    return f"unreadable data: {exc}"


def _csv_header(path) -> str:
    """The first line of a CSV file, without its newline."""
    with open(path, "rb") as fh:
        return fh.readline().decode("latin-1").rstrip("\n")


def _csv_table(path, width: int) -> np.ndarray:
    """The data rows below the header line of a numeric CSV table of
    ``width`` fields per row, parsed by one call of numpy's C reader.

    A last line without its newline (the file was cut), a field that is
    not a number or a row of another field count (naming the first such
    row of the file), or no data rows raise ``ParameterError``.
    """
    with open(path, "rb") as fh:
        fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
        if fh.read(1) != b"\n":
            raise ParameterError(f"{path}: the last line has no newline; "
                                 "the file is cut short")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data
            table = np.loadtxt(path, delimiter=",", comments=None,
                               skiprows=1, ndmin=2)
        if len(table) and table.shape[1] != width:
            raise ValueError(f"{table.shape[1]} fields per row")
    except ValueError as exc:
        raise ParameterError(f"{path}: {_bad_row(path, width, exc)}") from exc
    if not len(table):
        raise ParameterError(f"{path}: no data rows below the header")
    return table


def _read_csv(path, names) -> dict[str, np.ndarray]:
    """The named columns of a whole numeric CSV table with one header line,
    read and checked by ``_csv_table``."""
    header = [name.strip() for name in _csv_header(path).split(",")]
    missing = [name for name in names if name not in header]
    if missing:
        raise ParameterError(f"{path}: expected a header with the columns "
                             f"{','.join(names)}; {','.join(missing)} missing")
    table = _csv_table(path, len(header))
    return {name: table[:, header.index(name)] for name in names}


# Values per block of _write_rows: one block of _csv_bytes peaks at about
# 11 MiB traced
_CSV_BLOCK_VALUES = 1 << 16

# 5^s for the decimal scalings 10^s = 5^s 2^s, s = 2..27, in 32-bit halves
_POW5 = np.array([5 ** s for s in range(28)], dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> np.uint64(32), _POW5 & np.uint64(0xFFFFFFFF)

# Bytes per value in _csv_bytes's slot table, its separator included:
# sign, "0.000" before a value below 1e-4, 17 digits and a point, the
# exponent "e-XX", and the separator
_SLOTS = 29


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a 10^(16 - k)) as uint64, and whether round-half-even rounds
    it up, exactly, for 1e-11 < a < 1e15 and -11 <= k <= 14.

    With a = m 2^(E - 53) from ``np.frexp`` (m < 2^53) and s = 16 - k,
    a 10^s = m 5^s / 2^r with 5^s < 2^63 and 1 <= r <= 63: the 116-bit
    product m 5^s is formed from 32-bit halves as hi 2^64 + lo, shifted
    right by r, and the r bits shifted out are compared with one half.
    """
    U = np.uint64
    f, E = np.frexp(a)
    f *= 2.0 ** 53
    m = f.astype(U)
    s = 16 - k
    p_hi, p_lo = _POW5_HI[s], _POW5_LO[s]
    m_hi = m >> U(32)
    m_lo = m & U(0xFFFFFFFF)
    low = m_lo * p_lo
    mid = m_hi * p_lo
    mid += m_lo * p_hi
    lo = mid << U(32)
    lo += low
    hi = m_hi * p_hi
    hi += lo < low  # the carry out of lo
    hi += mid >> U(32)
    r = (53 - s - E).astype(U)
    floor = hi << (U(64) - r)
    floor |= lo >> r
    lo <<= U(64) - r  # the remainder, scaled so that one half is 2^63
    up = lo > U(1 << 63)
    up |= (lo == U(1 << 63)) & (floor & U(1)).astype(bool)
    return floor, up


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k) with 10^16 <= D < 10^17 and a rounded to 17 significant
    digits equal to D 10^(k - 16), for 1e-11 < a < 1e15.

    k starts from log10 a and moves by one where the scaled floor falls
    outside [10^16, 10^17).  Rounding never carries D to 10^17: no double
    of the range lies within half a unit of the 17th digit below a power
    of ten (the nearest lies over 1e-17 relative away).
    """
    k = np.floor(np.log10(a)).astype(np.int64)
    np.clip(k, -11, 14, out=k)
    D, up = _scaled(a, k)
    while True:
        high = D >= np.uint64(10 ** 17)
        off = high | (D < np.uint64(10 ** 16))
        if not off.any():
            break
        k[off] += np.where(high[off], 1, -1)
        D[off], up[off] = _scaled(a[off], k[off])
    D += up
    return D, k


def _csv_bytes(table: np.ndarray) -> bytes:
    """The rows of a 2-D table exactly as one ``'%.17g' % value`` per value,
    ``,`` between values and ``\\n`` after each row, would write them.

    Every value 1e-11 < |x| < 1e15 and every zero is formatted in array
    operations: ``_decimal`` gives its 17 correctly rounded digits, the
    trailing zeros are dropped, and %g's layout (fixed notation for
    exponents -4 <= k < 17, ``d.ddde-XX`` below) fills one row of
    ``_SLOTS`` bytes, NUL where it writes nothing; the rows are joined and
    the NULs deleted.  Any other value (a subnormal, an extreme value,
    inf, nan) takes ``'%.17g' % value``.
    """
    U8 = np.uint8
    table = np.asarray(table, dtype=np.float64)
    width = table.shape[1]
    v = table.ravel()
    n = v.size
    a = np.abs(v)
    zero = a == 0.0
    other = np.flatnonzero(~(zero | ((a > 1e-11) & (a < 1e15))))
    a[zero] = 1.0
    a[other] = 1.0
    D, k = _decimal(a)
    # chars[1 + i] is digit i; rows 0 and 18 are NUL
    chars = np.zeros((19, n), U8)
    upper = D // np.uint64(10 ** 8)
    digits = (D - upper * np.uint64(10 ** 8)).astype(np.uint32)
    for i in range(17, 0, -1):
        if i == 9:
            digits = upper.astype(np.uint32)
        rest = digits // np.uint32(10)
        digits -= rest * np.uint32(10)
        digits += np.uint32(ord("0"))
        chars[i] = digits
        digits = rest
    chars[1, zero] = ord("0")
    shown = ((chars[1:18] != ord("0")) * np.arange(1, 18, dtype=U8)[:, None]).max(axis=0)
    shown[zero] = 1  # significant digits
    k = k.astype(np.int8)
    fixed = k >= -4
    small = fixed & (k < 0)  # 0.000ddd
    whole = np.where(fixed, np.maximum(k + 1, 0), 1).astype(np.int8)  # digits before the point
    chars[1:18] *= np.arange(17, dtype=np.int8)[:, None] < np.maximum(shown, whole)
    point = np.where(fixed, k, 0).astype(np.int8)  # the digit before the point
    point[(shown <= whole) | small] = 17  # no point among the digits
    slots = np.zeros((_SLOTS, n), U8)
    slots[0] = np.signbit(v) * U8(ord("-"))
    slots[1] = small * U8(ord("0"))
    slots[2] = small * U8(ord("."))
    for j in range(3):
        slots[3 + j] = (small & (-k - 1 > j)) * U8(ord("0"))
    # body slot c holds digit c up to the digit before the point, the
    # point next, then digit c - 1: in bytes mod 256,
    # (digit c - 1) + (digit c - digit c - 1) [c <= point], and the point
    body = slots[6:24]
    np.subtract(chars[1:19], chars[0:18], out=body)
    body *= np.arange(18, dtype=np.int8)[:, None] <= point
    body += chars[0:18]
    at = np.flatnonzero(point < 17)
    body.reshape(-1)[(point[at] + 1).astype(np.intp) * n + at] = ord(".")
    e = np.flatnonzero(~fixed)
    exponent = -k[e]  # 5 to 11
    slots[24, e] = ord("e")
    slots[25, e] = ord("-")
    slots[26, e] = ord("0") + exponent // 10
    slots[27, e] = ord("0") + exponent % 10
    slots[28] = ord(",")
    slots[28, width - 1::width] = ord("\n")
    rows = np.ascontiguousarray(slots.T)
    if other.size:
        text = b"".join((b"%.17g" % x).ljust(_SLOTS - 1, b"\0") for x in v[other].tolist())
        rows[other, :-1] = np.frombuffer(text, U8).reshape(-1, _SLOTS - 1)
    return rows.tobytes().translate(None, b"\0")


def _write_rows(fh, *columns) -> None:
    """Write to the binary file ``fh`` the rows of ``columns`` side by side,
    through ``_csv_bytes`` in blocks of about ``_CSV_BLOCK_VALUES``
    values (at least one row).  Each column is a 1-D array of one field
    per row or a 2-D array of several; all have the same row count."""
    width = sum(np.shape(c)[1] if np.ndim(c) == 2 else 1 for c in columns)
    step = max(1, _CSV_BLOCK_VALUES // width)
    for a in range(0, len(columns[0]), step):
        fh.write(_csv_bytes(np.column_stack([c[a:a + step] for c in columns])))


def _write_csv(path, header: str | None, *columns) -> None:
    """A CSV file of the line ``header`` (none when None), then the rows
    of ``columns`` as ``_write_rows`` writes them."""
    with open(path, "wb") as fh:
        if header is not None:
            fh.write(header.encode() + b"\n")
        _write_rows(fh, *columns)


def _loaded_grid(path, t, x, Y) -> ObservationGrid:
    """The grid of a loaded file; ``ParameterError`` naming the file and the
    first non-finite t[i], x[l] or Y[i, l] (counted from 1), or a design
    that ``ObservationGrid`` rejects."""
    for name, values in (("t", t), ("x", x), ("Y", Y)):
        finite = np.isfinite(values)
        if not np.all(finite):
            at = np.unravel_index(np.argmin(finite), values.shape)
            where = ", ".join(str(k + 1) for k in at)
            raise ParameterError(f"{path}: {name}[{where}] has a non-finite "
                                 f"value {values[at]}")
    try:
        return ObservationGrid(t=t, x=x, Y=Y)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None


def save_csv(obs: ObservationGrid, path) -> None:
    """The N x M grid: a header line ``t/x`` followed by the M x values,
    then one line per i, t_i followed by its M responses; every value
    %.17g, LF newlines, written by ``_write_rows``."""
    with open(path, "wb") as fh:
        fh.write(b"t/x,")
        _write_rows(fh, obs.x[None, :])
        _write_rows(fh, obs.t, obs.Y)


def load_csv(path) -> ObservationGrid:
    """Read a ``save_csv`` file: the header ``t/x,x_1,...,x_M``, then the
    lines ``t_i,Y_i1,...,Y_iM``.  Every t, x and Y must be finite, and the
    designs strictly increasing inside (0, 1).  The lines are parsed once,
    into one table whose columns are t and Y.
    """
    label, _, xs = _csv_header(path).partition(",")
    try:
        if label.strip() != "t/x":
            raise ValueError(f"its first field is {label[:20]!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data
            x = np.loadtxt([xs], delimiter=",", comments=None, ndmin=1)
        if not x.size:
            raise ValueError("it has no x values")
    except ValueError as exc:
        raise ParameterError(f"{path}: expected a header t/x followed by the "
                             f"M x values; {exc}") from None
    table = _csv_table(path, x.size + 1)
    return _loaded_grid(path, table[:, 0], x, table[:, 1:])
