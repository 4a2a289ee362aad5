"""Dense references that the package no longer builds, for the tests only."""

import numpy as np

from afdeconv import model as md


def lrd_covariance(N: int, alpha: float, sigma: float = 1.0) -> np.ndarray:
    """Fractional Gaussian noise covariance Sigma_N with Hurst H = 1 - alpha/2.

    The N x N Toeplitz matrix has lambda_max of order N^{1-alpha}, and its
    lambda_min decreases in N to lambda_inf = 2*pi*f(pi) > 0, where f is the
    unit-variance fGn spectral density (lambda_inf = 1 at alpha = 1).
    """
    md._check_fgn(N, alpha)
    # Row i of the symmetric Toeplitz matrix is the window of
    # [r_{N-1}, ..., r_1, r_0, r_1, ..., r_{N-1}] that starts at N-1-i:
    # strided views of one 2N-1 vector, copied once, with no N x N index.
    r = md._fgn_autocov(N, alpha, sigma)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([r[:0:-1], r]), N)
    return windows[::-1].copy()
