"""Reference computations the output checks compare the program against.

Everything here is written from the closed forms of the model, apart from
the `afdeconv` package, so a fault in the package cannot hide in its own
reference: the Meyer wavelet's Fourier transform, the singular design
density c|x - x0|^beta, the level rule, the rate exponent and a
least-squares slope.  Only numpy is used.
"""

from __future__ import annotations

import math

import numpy as np


def meyer_transition(x):
    """nu(x) = x^4 (35 - 84x + 70x^2 - 20x^3) on [0, 1], clipped outside."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 4 * (35.0 - 84.0 * x + 70.0 * x ** 2 - 20.0 * x ** 3)


def meyer_phi_hat(xi):
    """Fourier transform of the Meyer scaling function (frequency in cycles)."""
    a = np.abs(np.asarray(xi, dtype=float))
    return np.where(a <= 1.0 / 3.0, 1.0,
                    np.where(a <= 2.0 / 3.0,
                             np.cos(0.5 * np.pi * meyer_transition(3.0 * a - 1.0)),
                             0.0))


def meyer_psi_hat(xi):
    """Fourier transform of the Meyer wavelet, centred at t = 1/2."""
    xi = np.asarray(xi, dtype=float)
    a = np.abs(xi)
    mag = np.where((a >= 1.0 / 3.0) & (a <= 2.0 / 3.0),
                   np.sin(0.5 * np.pi * meyer_transition(3.0 * a - 1.0)),
                   np.where((a > 2.0 / 3.0) & (a <= 4.0 / 3.0),
                            np.cos(0.5 * np.pi * meyer_transition(1.5 * a - 1.0)),
                            0.0))
    return np.exp(1j * np.pi * xi) * mag


def level_shifts(level: int, m0: int = 3) -> int:
    """Shifts at an index level; the pseudo-level m0 - 1 is the scaling block."""
    return 2 ** m0 if level == m0 - 1 else 2 ** level


def level_table(level: int, m0: int = 3):
    """(m, psihat_{level,0}(m)) of the periodized Meyer function at a level.

    The pseudo-level m0 - 1 holds the scaling function at resolution m0;
    level j >= m0 holds the wavelet at resolution j.  Returns the resolution
    too, since shift k moves the function by k 2^{-resolution}.
    """
    res = m0 if level == m0 - 1 else level
    scale = 2.0 ** res
    band = int(math.ceil(4.0 * scale / 3.0)) + 1
    m = np.arange(-band, band + 1)
    hat = meyer_phi_hat(m / scale) if level == m0 - 1 else meyer_psi_hat(m / scale)
    keep = np.abs(hat) > 0.0
    return m[keep], hat[keep] / math.sqrt(scale), res


class ShiftEvaluator:
    """Values sum_m c(m) e^{-2 pi i m k / 2^res} e^{2 pi i m p} at fixed points.

    c(m) is the level's Fourier table divided by `divisor(m)` (the kernel
    symbol for the deconvolving side, 1 for the plain wavelet side).  The
    phase matrix of a level is built once and reused for every shift.
    """

    def __init__(self, points, divisor=None, m0: int = 3):
        self.points = np.asarray(points, dtype=float)
        self.divisor = divisor
        self.m0 = m0
        self._levels = {}

    def __call__(self, level: int, k: int) -> np.ndarray:
        if level not in self._levels:
            m, hat, res = level_table(level, self.m0)
            if self.divisor is not None:
                hat = hat / np.conj(self.divisor(m))
            phase = np.exp(2j * np.pi * np.outer(self.points, m))
            self._levels[level] = (m, hat, res, phase)
        m, hat, res, phase = self._levels[level]
        coeff = hat * np.exp(-2j * np.pi * m * (k / 2.0 ** res))
        return np.real(phase @ coeff)


def power_symbol(nu: float):
    """Kernel symbol g(m) = (1 + |m|)^{-nu} of the regular-smooth kernel."""
    return lambda m: (1.0 + np.abs(m)) ** (-nu) + 0.0j


def design_density(points, beta: float, x0: float) -> np.ndarray:
    """h(x) = c |x - x0|^beta with c making h a density on [0, 1]."""
    c = (beta + 1.0) / (x0 ** (beta + 1.0) + (1.0 - x0) ** (beta + 1.0))
    return c * np.abs(np.asarray(points, dtype=float) - x0) ** beta


def level_rule(M: int, N: int, alpha: float, sigma: float, nu: float,
               radius: float = 1.0, m0: int = 3) -> tuple[int, int]:
    """Highest levels: 2^{J1} ~ (A^2 M N^alpha / sigma^2)^{1/(2 nu + 1)},
    2^{J2} ~ A^2 M N^alpha / sigma^2, each below the design Nyquist
    (log2 of the sample count minus one) and at least the lowest level."""
    log2_n = math.log2(radius ** 2 * M * N ** alpha / sigma ** 2)
    J1 = min(math.floor(log2_n / (2.0 * nu + 1.0)), math.floor(math.log2(N)) - 1)
    J2 = min(math.floor(log2_n), math.floor(math.log2(M)) - 1)
    return max(J1, m0), max(J2, m0)


def rate_exponent(s1: float, nu: float) -> float:
    """d = 2 s1 / (2 s1 + 2 nu + 1), the MISE exponent of the dense regime."""
    return 2.0 * s1 / (2.0 * s1 + 2.0 * nu + 1.0)


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
