"""Periodized band-limited wavelet bases on [0, 1].

A basis level is one band of Fourier coefficients: for a periodized
wavelet ``psi_{j,k}(t) = sum_n 2^{j/2} psi(2^j (t+n) - k)`` with S shifts,
``base_table`` gives the offsets ``m`` and ``psihat_{j,0}(m)``, and shift k
multiplies them by ``exp(-i 2 pi m k / S)``.  Every shift of a band is one
primitive, ``_shift_sums``: one fold onto |m|, one residue sum over h mod
S and one FFT.  ``level_pairing`` folds a level once and pairs every shift
with Hermitian spectra, ``eval_level`` pairs it with ``exp(i 2 pi h t)``
to evaluate every shift at points, and ``eval_on_points`` on a ``Grid``,
the uniform points (a + s)/n, synthesizes any band by the same sums with
count n.  On other points ``eval_on_points`` forms the dense
[cos | sin] block of any (band, n) block: the simulator's synthesis on
singular designs and the per-index reference.  ``_fold`` is the one fold
onto |m| and ``_cos_sin`` the one phase, also of the estimator's
t-transform: this module alone forms Fourier phases.

The basis is the periodized Meyer basis, band-limited by construction, so
the tables are exact.  Levels run up to ``MAX_LEVEL``.

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
    "base_table",
    "eval_on_points",
    "Grid",
    "level_pairing",
    "eval_level",
    "shift_count",
    "level_range",
    "band_limit",
    "meyer_scaling_fourier",
    "meyer_wavelet_fourier",
    "MAX_LEVEL",
]


class ResolutionOverflowError(RuntimeError):
    """Requested level is above ``MAX_LEVEL``."""


# Largest MRA level j.  Only the reference ``build_basis`` forms a level's
# (band, S) matrix, (8192, 4096) complex or 512 MiB at level 12.
MAX_LEVEL = 12


# ----------------------------------------------------------------------
# Meyer basis (exact, band-limited)
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
# Spec and tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WaveletSpec:
    """Lowest wavelet levels of the two periodized Meyer bases."""

    m10: int = 3
    m20: int = 3

    def __post_init__(self):
        if self.m10 < 2 or self.m20 < 2:
            raise ValueError("lowest levels m10, m20 must be >= 2")

    def lowest_level(self, axis: int) -> int:
        return self.m10 if axis == 0 else self.m20


def band_limit(level: int) -> int:
    """Largest |m| with a nonzero Meyer coefficient at the given MRA level."""
    return int(np.ceil(2 ** (level + 2) / 3.0)) + 1


_BASE_CACHE: dict = {}


def _mother_fourier(mra_level: int, kind: str):
    """Offsets and shift-0 coefficients at a true MRA level.

    kind is "wavelet" or "scaling".  Cached per (level, kind).
    """
    key = (mra_level, kind)
    cached = _BASE_CACHE.get(key)
    if cached is not None:
        return cached
    scale = 2 ** mra_level
    b = band_limit(mra_level)
    m = np.arange(-b, b + 1)
    if kind == "wavelet":
        vals = meyer_wavelet_fourier(m / scale).astype(complex)
    else:
        vals = meyer_scaling_fourier(m / scale).astype(complex)
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
    """Omega levels m0-1 .. J-1 for one direction.

    A top level above ``MAX_LEVEL`` raises here, before any level is built.
    """
    m0 = spec.lowest_level(axis)
    if J < m0:
        raise ValueError(f"J={J} below lowest level m0={m0}")
    _resolve_level(spec, J - 1, axis)
    return list(range(m0 - 1, J))


def _resolve_level(spec: WaveletSpec, level: int, axis: int) -> tuple[int, str]:
    """(MRA level, kind) of an Omega level, checked against ``MAX_LEVEL``."""
    m0 = spec.lowest_level(axis)
    if level < m0 - 1:
        raise ValueError(f"level {level} below scaling pseudo-level {m0 - 1}")
    mra_level, kind = (m0, "scaling") if level == m0 - 1 else (level, "wavelet")
    if mra_level > MAX_LEVEL:
        raise ResolutionOverflowError(
            f"resolution overflow: level {level} needs 2^j <= 2^{MAX_LEVEL}")
    return mra_level, kind


def base_table(spec: WaveletSpec, level: int, axis: int = 0):
    """(offsets, shift-0 values) for an Omega level."""
    return _mother_fourier(*_resolve_level(spec, level, axis))


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


# 16 MiB of cos and sin values per block, computed in place; blocks of 2^21
# exponentials raised the peak resident memory of the lemma suite by 20 MiB.
_BLOCK_EXPONENTIALS = 1 << 20
# Values per slice of ``_fold``, 0.25 MiB: the slices are its only
# temporaries; gathering each sign of a wide band whole doubled its peak.
_BLOCK_FOLD = 1 << 15


def _fold(offsets: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct h = |m| of distinct offsets m, and the rows [Re c'; -Im c']
    of the fold ``c'_h = c_h + conj(c_{-h})``, which leaves every
    ``Re sum_m c_m e^{i 2 pi m t}`` unchanged.  A repeated offset raises
    ValueError: the fold would keep one of its terms."""
    ordered = np.sort(offsets)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise ValueError(f"offset {repeated[0]} is repeated; offsets must be distinct")
    half, where = np.unique(np.abs(offsets), return_inverse=True)
    h = half.size
    rows = np.zeros((2 * h,) + coeffs.shape[1:])
    re, im = np.real(coeffs), np.imag(coeffs)
    step = max(1, _BLOCK_FOLD // max(1, rows[:1].size))  # offsets per slice
    pos, neg = np.flatnonzero(offsets >= 0), np.flatnonzero(offsets < 0)
    for i in (pos[a:a + step] for a in range(0, pos.size, step)):
        rows[where[i]] = re[i]
        rows[h + where[i]] = -im[i]
    for i in (neg[a:a + step] for a in range(0, neg.size, step)):
        rows[where[i]] += re[i]
        rows[h + where[i]] += im[i]
    return half, rows


def _cos_sin(t: np.ndarray, m: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """Fill the caller's (len(t), len(m)) arrays with cos and sin(2 pi t m)."""
    arg = np.multiply.outer(t, m, out=sin)
    arg *= 2.0 * np.pi
    np.cos(arg, out=cos)
    np.sin(arg, out=arg)


@dataclass(frozen=True)
class Grid:
    """The n uniform points t_a = (a + shift) / n, a < n, as points of
    ``eval_on_points``, which synthesizes on them by one FFT.  As an array
    (``np.asarray``) they are those points, so a profile written for
    arrays takes a Grid unchanged."""

    n: int
    shift: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a grid needs at least one point, got n = {self.n}")

    def __array__(self, dtype=None, copy=None):
        return ((np.arange(self.n) + self.shift) / self.n).astype(dtype or float, copy=False)


def eval_on_points(points, offsets: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``Re sum_m coeffs[m] exp(i 2 pi m t)`` at every point t.

    The result has shape ``points.shape + coeffs.shape[1:]``: a 1-D
    ``coeffs`` (one basis function, one profile) gives one value per point,
    a 2-D one (band, n) gives n; a whole level of shifts is ``eval_level``'s.
    The sum is the [cos | sin] block of the distinct |m| times the rows of
    ``_fold``: a symmetric band costs half the cos and sin values and half
    the product.  Blocks of about 2^20 points times |m| bound the memory.

    On the points (a + s) / n of a ``Grid`` the sum is exact by one FFT:
    ``Re sum_h c'_h e^{i 2 pi h (a + s) / n}`` equals
    ``Re sum_h conj(c'_h) e^{-i 2 pi h s / n} e^{-i 2 pi h a / n}``, the
    shift sums (``_shift_sums``) of conj(coeffs) with count n paired with
    the shift phase, for any n against the band, a block of columns at a
    time.
    """
    if isinstance(points, Grid):
        n = points.n
        c = coeffs.reshape(coeffs.shape[0], -1)
        out = np.empty((n, c.shape[1]))
        # columns per block: the terms are about max |m| long and the sums n
        step = max(1, _BLOCK_EXPONENTIALS // max(np.abs(offsets).max() + 1, n))
        for a in range(0, c.shape[1], step):
            half, pair = _shift_sums(offsets, np.conj(c[:, a:a + step]), n)
            phase = np.empty(half.size, dtype=complex)  # e^{i 2 pi h s / n}, h s mod n
            _cos_sin(np.array(1.0 / n), np.mod(half * points.shift, n), phase.real, phase.imag)
            out[:, a:a + step] = pair(np.conj(phase)[:, None])
        return out.reshape((n,) + coeffs.shape[1:])
    t = np.asarray(points, dtype=float).reshape(-1)
    half, rows = _fold(offsets, coeffs)
    h = half.size
    out = np.empty(t.shape + coeffs.shape[1:])
    step = max(1, _BLOCK_EXPONENTIALS // max(1, h))
    cos_sin = np.empty((min(step, t.size), 2 * h))  # reused: a new one per step raised peak RSS
    for lo in range(0, t.size, step):
        block = cos_sin[:t[lo:lo + step].size]
        _cos_sin(t[lo:lo + step], half, block[:, :h], block[:, h:])
        out[lo:lo + step] = block @ rows
    return out.reshape(np.shape(points) + coeffs.shape[1:])


def _residue_fft(terms: np.ndarray, lo: int, count: int) -> np.ndarray:
    """``Re sum_h terms[h - lo] exp(-i 2 pi h k / count)`` for k < count,
    the terms c'_h W(h) of a folded band over h = lo, lo + 1, ..."""
    hi = lo + terms.shape[0] - 1
    # row r of A sums the h = r mod count, one slice per count consecutive h
    A = np.zeros_like(terms, shape=(count, terms.shape[1]))  # the terms' memory order
    for start in range(lo - lo % count, hi + 1, count):
        u, v = max(start, lo), min(start + count, hi + 1)
        A[u - start:v - start] += terms[u - lo:v - lo]
    np.fft.fft(A, axis=0, out=A)
    return A.real


def _shift_sums(offsets: np.ndarray, coeffs: np.ndarray, count: int):
    """(h, pair): the distinct h = |m| of the band and the function
    ``pair(W) = Re sum_h c'_h W(h) exp(-i 2 pi h k / count)``, (count, n)
    for k < count, of the fold c'_h = c_h + conj(c_{-h}) of the (band, n)
    ``coeffs`` and any W (len(h), n) or (len(h), 1).

    Every shift of a band, paired or synthesized, is this one sum: the
    shift phase depends on h mod count only, so the terms add by residue
    and one length-count FFT gives every k.  The residue sum places the
    i-th term at h = lo + i, so a gap in the |m| raises ValueError naming
    the first missing |m|; the |m| of every Meyer band are contiguous
    (both axes, levels 2..12).  ``pair`` writes into no W it is given.
    """
    half, rows = _fold(offsets, coeffs)
    gap = np.flatnonzero(np.diff(half) > 1)[:1]
    if gap.size:
        raise ValueError(f"|m| = {half[gap[0]] + 1} is missing: a shift sum "
                         "needs contiguous |m|")
    folded = rows[:half.size].astype(complex)
    np.negative(rows[half.size:], out=folded.imag)
    return half, lambda W: _residue_fft(W * folded, int(half[0]), count)


def level_pairing(spec: WaveletSpec, level: int, axis: int, divisor=None):
    """The function of ``spectrum`` that returns the (shift_count, n)
    values ``Re sum_m psihat_{j,k}(m) W(m) / d(m)`` of every shift k of
    one Omega level against n Hermitian spectra W, the level folded once
    for every spectrum it is paired with.

    ``spectrum(h)`` gives W at the offsets h >= 0 only, (len(h), n), as
    W(-m) = conj(W(m)).  The divisor d, (band, 1) or (band, n) over the
    signed band of ``base_table``, divides the shift-0 band before the fold,
    so any d stays exact; the rest is ``_shift_sums``.
    """
    m, c = base_table(spec, level, axis)
    half, pair = _shift_sums(m, c[:, None] if divisor is None else c[:, None] / divisor,
                             shift_count(spec, level, axis))
    return lambda spectrum: pair(spectrum(half))


# Complex values per block of ``eval_level``, 0.5 MiB: the x-levels up to 9
# at 2048 points took 64 ms for blocks of 2^13 to 2^18, and traced 16.5,
# 17.7 and 28.2 MiB at peak for 2^13, 2^15 and 2^18.
_BLOCK_LEVEL = 1 << 15


def eval_level(spec: WaveletSpec, level: int, axis: int, points) -> np.ndarray:
    """The (len(points), shift_count) values ``psi_{j,k}(t)`` of every shift
    k of one Omega level at every point t: ``level_pairing`` with W(h) =
    ``exp(i 2 pi h t)``, on blocks of about ``_BLOCK_LEVEL`` complex values,
    all paired with one fold of the level."""
    t = np.asarray(points, dtype=float).reshape(-1)
    count = shift_count(spec, level, axis)
    pair = level_pairing(spec, level, axis)
    m = base_table(spec, level, axis)[0]
    out = np.empty((t.size, count))
    step = max(1, _BLOCK_LEVEL // max(m.size // 2, count))
    # e^{i 2 pi h t} point by point over the |m|, contiguous as level_pairing checked
    h = np.abs(m)
    phase = np.empty((min(step, t.size), h.max() - h.min() + 1), dtype=complex)
    for a in range(0, t.size, step):
        block = t[a:a + step]
        W = phase[:block.size]

        def at_points(half):
            _cos_sin(block, half, W.real, W.imag)
            return W.T
        out[a:a + step] = pair(at_points).T
    return out
