"""Periodized band-limited wavelet bases on [0, 1].

A basis level is one matrix of Fourier coefficients.  For a periodized
wavelet ``psi_{j,k}(t) = sum_n 2^{j/2} psi(2^j (t+n) - k)``,
``build_basis`` returns the band offsets ``m`` and the matrix
``psihat_{j,k}(m) = int_0^1 psi_{j,k}(t) exp(-i 2 pi m t) dt`` with one
column per shift k, and ``eval_on_points`` evaluates one column or the
whole level at arbitrary points in one product.  All downstream
quadratures, inner products and deconvolution sums reduce to finite sums
over this band.  This module is the only place that knows the shift phase
``exp(-i 2 pi m k / 2^j)``.

The Meyer family is band-limited by construction, so the tables are exact.
The Daubechies family is compactly supported in time, hence not band-limited;
its tables are truncated at ``|m| <= grid_size/2`` (see ``WaveletSpec``),
which is the documented truncation error of that option.

Level indexing convention: a basis in one direction is indexed by levels
``j = m0-1, m0, m0+1, ...`` where ``m0`` is the lowest wavelet level.  The
pseudo-level ``m0-1`` denotes the scaling family spanning ``V_{m0}`` and
therefore carries ``2^{m0}`` shifts; true wavelet levels ``j >= m0`` carry
``2^j`` shifts.  With this convention the union of levels ``m0-1 .. J-1``
spans exactly ``V_J`` (no detail space is skipped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResolutionOverflowError",
    "WaveletSpec",
    "build_basis",
    "eval_on_points",
    "shift_count",
    "level_range",
    "band_limit",
    "meyer_scaling_fourier",
    "meyer_wavelet_fourier",
    "daubechies_filter",
]


class ResolutionOverflowError(RuntimeError):
    """Requested level does not fit on the configured fine grid."""


# ----------------------------------------------------------------------
# Meyer family (exact, band-limited)
# ----------------------------------------------------------------------

def _meyer_aux(x: np.ndarray) -> np.ndarray:
    """Polynomial transition profile: 0 at 0, 1 at 1, C^3 junctions."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def meyer_scaling_fourier(xi):
    """Fourier transform of the Meyer scaling function at frequency xi (cycles)."""
    xi = np.asarray(xi, dtype=float)
    a = np.abs(xi)
    out = np.zeros_like(a)
    out[a <= 1.0 / 3.0] = 1.0
    mid = (a > 1.0 / 3.0) & (a <= 2.0 / 3.0)
    out[mid] = np.cos(0.5 * np.pi * _meyer_aux(3.0 * a[mid] - 1.0))
    return out


def meyer_wavelet_fourier(xi):
    """Fourier transform of the Meyer wavelet at frequency xi (cycles).

    Supported on 1/3 <= |xi| <= 4/3; the phase factor exp(i pi xi) centres
    the wavelet at t = 1/2.
    """
    xi = np.asarray(xi, dtype=float)
    a = np.abs(xi)
    out = np.zeros_like(a)
    lo = (a >= 1.0 / 3.0) & (a <= 2.0 / 3.0)
    hi = (a > 2.0 / 3.0) & (a <= 4.0 / 3.0)
    out[lo] = np.sin(0.5 * np.pi * _meyer_aux(3.0 * a[lo] - 1.0))
    out[hi] = np.cos(0.5 * np.pi * _meyer_aux(1.5 * a[hi] - 1.0))
    return np.exp(1j * np.pi * xi) * out


# ----------------------------------------------------------------------
# Daubechies family (spectral factorization, band-truncated)
# ----------------------------------------------------------------------

def daubechies_filter(vanishing_moments: int) -> np.ndarray:
    """Minimum-phase Daubechies low-pass filter with the given number of
    vanishing moments (2p taps), normalized so the taps sum to sqrt(2)."""
    p = int(vanishing_moments)
    if p < 1:
        raise ValueError("vanishing_moments must be >= 1")
    # Daubechies polynomial P(y) = sum_k C(p-1+k, k) y^k, y = sin^2(pi xi).
    from math import comb

    coeffs = np.array([comb(p - 1 + k, k) for k in range(p)], dtype=float)
    # In z = exp(-i 2 pi xi): y = (2 - z - 1/z) / 4.  Build the Laurent
    # polynomial z^{p-1} P(y(z)) and take the roots inside the unit circle.
    poly = np.zeros(2 * p - 1)
    poly[p - 1] = coeffs[0]
    base = np.array([-0.25, 0.5, -0.25])  # y(z) as Laurent coeffs of z
    term = np.array([1.0])
    for k in range(1, p):
        term = np.convolve(term, base)
        lo = p - 1 - k
        poly[lo:lo + 2 * k + 1] += coeffs[k] * term
    roots = np.roots(poly[::-1])
    inside = roots[np.abs(roots) < 1.0]
    # Spectral factor from the inside roots times the (1+z)^p factor.
    h = np.array([1.0 + 0j])
    for r in inside:
        h = np.convolve(h, np.array([1.0, -r]))
    for _ in range(p):
        h = np.convolve(h, np.array([0.5, 0.5]))
    h = np.real(h)
    return h * (np.sqrt(2.0) / h.sum())


def _daubechies_scaling_fourier(xi: np.ndarray, h: np.ndarray, iters: int = 28) -> np.ndarray:
    """phihat(xi) = prod_{k>=1} m0(xi / 2^k) via truncated cascade."""
    n = np.arange(len(h))
    out = np.ones_like(xi, dtype=complex)
    cur = np.asarray(xi, dtype=float)
    for _ in range(iters):
        cur = cur / 2.0
        out = out * (np.exp(-2j * np.pi * np.outer(cur, n)) @ h) / np.sqrt(2.0)
    return out


def _daubechies_wavelet_fourier(xi: np.ndarray, h: np.ndarray) -> np.ndarray:
    """psihat(xi) = m1(xi/2) phihat(xi/2), m1(xi) = -e^{-i2pi xi} conj(m0(xi + 1/2))."""
    n = np.arange(len(h))
    half = np.asarray(xi, dtype=float) / 2.0
    m0_shift = (np.exp(-2j * np.pi * np.outer(half + 0.5, n)) @ h) / np.sqrt(2.0)
    m1 = -np.exp(-2j * np.pi * half) * np.conj(m0_shift)
    return m1 * _daubechies_scaling_fourier(half, h)


# ----------------------------------------------------------------------
# Spec and tables
# ----------------------------------------------------------------------

_FAMILIES = ("meyer", "daubechies")


@dataclass(frozen=True)
class WaveletSpec:
    """Configuration of the two periodized bases.

    regularity: smoothness order s0 of the mother wavelet; for the Daubechies
    family this is the number of vanishing moments.  Must exceed both the
    kernel ill-posedness and its secondary differentiability order for the
    deconvolution sums to behave (checked by the consumer, not here).
    """

    family: str = "meyer"
    regularity: int = 8
    m10: int = 3
    m20: int = 3
    grid_size: int = 1 << 14

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown wavelet family {self.family!r}")
        if self.m10 < 2 or self.m20 < 2:
            raise ValueError("lowest levels m10, m20 must be >= 2")
        g = self.grid_size
        if g < 16 or (g & (g - 1)) != 0:
            raise ValueError("grid_size must be a power of two >= 16")
        if self.regularity < 1:
            raise ValueError("regularity must be >= 1")

    def lowest_level(self, axis: int) -> int:
        return self.m10 if axis == 0 else self.m20


def band_limit(level: int) -> int:
    """Largest |m| with a nonzero Meyer coefficient at the given MRA level."""
    return int(np.ceil(2 ** (level + 2) / 3.0)) + 1


_BASE_CACHE: dict = {}


def _mother_fourier(spec: WaveletSpec, mra_level: int, kind: str):
    """Offsets and shift-0 coefficients at a true MRA level.

    kind is "wavelet" or "scaling".  Cached per (family, regularity,
    grid_size, level, kind).
    """
    key = (spec.family, spec.regularity, spec.grid_size, mra_level, kind)
    cached = _BASE_CACHE.get(key)
    if cached is not None:
        return cached
    scale = 2 ** mra_level
    if spec.family == "meyer":
        b = band_limit(mra_level)
        m = np.arange(-b, b + 1)
        if kind == "wavelet":
            vals = meyer_wavelet_fourier(m / scale).astype(complex)
        else:
            vals = meyer_scaling_fourier(m / scale).astype(complex)
    else:
        b = spec.grid_size // 2
        m = np.arange(-b, b + 1)
        h = daubechies_filter(spec.regularity)
        if kind == "wavelet":
            vals = _daubechies_wavelet_fourier(m / scale, h)
        else:
            vals = _daubechies_scaling_fourier(m / scale, h)
    vals = vals / np.sqrt(scale)
    keep = np.abs(vals) > 0.0
    m, vals = m[keep], vals[keep]
    _BASE_CACHE[key] = (m, vals)
    return m, vals


def shift_count(spec: WaveletSpec, level: int, axis: int = 0) -> int:
    """Number of shifts k at an Omega level (scaling pseudo-level has 2^{m0})."""
    m0 = spec.lowest_level(axis)
    if level == m0 - 1:
        return 2 ** m0
    return 2 ** level


def level_range(spec: WaveletSpec, J: int, axis: int = 0) -> list[int]:
    """Omega levels m0-1 .. J-1 for one direction."""
    m0 = spec.lowest_level(axis)
    if J < m0:
        raise ValueError(f"J={J} below lowest level m0={m0}")
    return list(range(m0 - 1, J))


def _resolve_level(spec: WaveletSpec, level: int, axis: int) -> tuple[int, str]:
    m0 = spec.lowest_level(axis)
    if level < m0 - 1:
        raise ValueError(f"level {level} below scaling pseudo-level {m0 - 1}")
    if level == m0 - 1:
        return m0, "scaling"
    return level, "wavelet"


def base_table(spec: WaveletSpec, level: int, axis: int = 0):
    """(offsets, shift-0 values) for an Omega level, with capacity checks."""
    mra_level, kind = _resolve_level(spec, level, axis)
    if 2 ** mra_level > spec.grid_size // 4:
        raise ResolutionOverflowError(
            f"resolution overflow: level {level} needs 2^j <= grid_size/4 "
            f"({spec.grid_size // 4})")
    m, vals = _mother_fourier(spec, mra_level, kind)
    if m[-1] > spec.grid_size // 2:
        raise ResolutionOverflowError(
            f"resolution overflow: band of level {level} exceeds grid Nyquist")
    return m, vals


def build_basis(spec: WaveletSpec, level: int, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(offsets m, coefficient matrix) of one Omega level.

    Column k of the (band, shift_count) matrix holds ``psihat_{j,k}(m)``:
    the shift-0 coefficients modulated by ``exp(-i 2 pi m k / 2^j)`` with j
    the underlying MRA level, which is the exact Fourier image of the
    circular shift by ``k 2^{-j}``.
    """
    m, base = base_table(spec, level, axis)
    mra_level, _ = _resolve_level(spec, level, axis)
    shifts = np.arange(shift_count(spec, level, axis))
    return m, base[:, None] * np.exp(-2j * np.pi * np.outer(m, shifts / 2 ** mra_level))


def eval_on_points(points, offsets: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``Re sum_m coeffs[m] exp(i 2 pi m t)`` at every point t.

    A 1-D ``coeffs`` (one basis function) gives shape (len(points),); a 2-D
    one (band, n), such as a whole level from ``build_basis``, gives
    (len(points), n).
    """
    t = np.atleast_1d(np.asarray(points, dtype=float))
    return np.real(np.exp(2j * np.pi * np.outer(t, offsets)) @ coeffs)
