"""Dense references that the package no longer builds, for the tests only."""

import numpy as np

from afdeconv import model as md
from afdeconv import wavelets as wv


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


def sample_errors_by_column(spec: md.NoiseSpec, N: int, M: int, seed) -> np.ndarray:
    """``sample_errors`` one column at a time: column l takes its innovations
    from ``default_rng`` of the l-th child of the seed, built from the key
    as numpy's ``spawn`` builds it, and is coloured on its own."""
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    E = np.empty((N, M))
    width = N if spec.alpha == 1.0 else 2 * N
    for l in range(M):
        rng = np.random.default_rng(np.random.SeedSequence(
            root.entropy, spawn_key=(*root.spawn_key, l), pool_size=root.pool_size))
        if spec.kind == "gaussian-fgn":
            r = rng.standard_normal(width)
        else:
            r = 2.0 * rng.integers(0, 2, size=width) - 1.0
        if spec.alpha < 1.0:
            # Hermitian spectrum r_0, r_1 + i r_2, ..., r_{2N-1}, scaled
            X = np.zeros(N + 1, dtype=complex)
            X[0], X[N] = r[0], r[-1]
            X[1:N] = r[1:-1:2] + 1j * r[2:-1:2]
            r = np.fft.irfft(md._circulant_scale(N, spec.alpha) * X, 2 * N)[:N]
        E[:, l] = r
    return E


def dense_U(cfg, index, t, x) -> np.ndarray:
    """U of index (j1, k1, j2, k2) on the grid (t x x), shape (N, M), by
    the dense synthesis: column k1 of ``build_basis``'s (band, S) matrix,
    divided by conj(g(m, x)) and summed at every point t by
    ``eval_on_points``, times column k2 of the x-level summed at x."""
    j1, k1, j2, k2 = index
    x = np.asarray(x, dtype=float)
    m1, psi = wv.build_basis(cfg.wavelet, j1, axis=0)
    conj_g = np.conj(cfg.kernel.coeff(m1[:, None], x[None, :]))
    u_tx = wv.eval_on_points(t, m1, psi[:, [k1]] / conj_g)
    m2, eta = wv.build_basis(cfg.wavelet, j2, axis=1)
    return u_tx * wv.eval_on_points(x, m2, eta[:, k2])[None, :]
