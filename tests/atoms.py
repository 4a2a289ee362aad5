"""Test functions made of one tensor basis atom, for the tests only."""

import numpy as np

from afdeconv import model as md
from afdeconv import wavelets as wv


def single_atom(j1: int, k1: int, j2: int, k2: int, wspec) -> md.TestFunction:
    """f equal to one tensor basis atom psi_{j1,k1}(t) eta_{j2,k2}(x)."""
    m1, psi = wv.build_basis(wspec, j1, axis=0)
    m2, eta = wv.build_basis(wspec, j2, axis=1)
    psi, eta = psi[:, k1], eta[:, k2]
    band = np.abs(m1).max()
    u_hat = np.zeros(2 * band + 1, dtype=complex)
    u_hat[m1 + band] = psi
    return md.TestFunction(u=lambda t: wv.eval_on_points(t, m1, psi),
                           v=lambda x: wv.eval_on_points(x, m2, eta), u_hat=u_hat)
