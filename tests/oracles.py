"""Independent reference implementations that only the tests use.

Element-by-element displacement-operator formula, ladder matrices and the
lab-frame amplitude equations of the closed problem; the library's
vectorized and interaction-frame routines are checked against these.
"""

from __future__ import annotations

import math

import numpy as np

from catforge.closed import SinglePhotonState
from catforge.fock import _check_cutoff
from catforge.model import SystemParams


def destroy(n_max: int) -> np.ndarray:
    """Annihilation operator b on the truncated ladder: b|n> = sqrt(n)|n-1>."""
    n_max = _check_cutoff(n_max)
    return np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), k=1).astype(complex)


def number_op(n_max: int) -> np.ndarray:
    """Number operator b^dag b on the truncated ladder."""
    n_max = _check_cutoff(n_max)
    return np.diag(np.arange(n_max + 1, dtype=float)).astype(complex)


def _laguerre_value(k: int, a: int, x: float) -> float:
    # associated Laguerre L_k^a(x) by the three-term recurrence in the degree
    if k == 0:
        return 1.0
    lm1, l = 1.0, 1.0 + a - x
    for j in range(1, k):
        lm1, l = l, ((2 * j + 1 + a - x) * l - (j + a) * lm1) / (j + 1)
    return l


def displacement_matrix_element(m: int, n: int, eta: complex) -> complex:
    """Matrix element <m| D(eta) |n> of the displacement operator.

    D(eta) = exp(eta b^dag - eta* b).  Two-branch associated-Laguerre form:

        n >= m:  sqrt(m!/n!) e^{-|eta|^2/2} (-eta*)^{n-m} L_m^{n-m}(|eta|^2)
        m >  n:  sqrt(n!/m!) e^{-|eta|^2/2} (eta)^{m-n}  L_n^{m-n}(|eta|^2)

    The factorial ratio and the power are accumulated together as a product of
    eta/sqrt(k) factors to avoid overflow.
    """
    if m < 0 or n < 0:
        raise ValueError("Fock indices must be non-negative")
    x = abs(eta) ** 2
    if n >= m:
        k, d, z = m, n - m, -np.conj(eta)
    else:
        k, d, z = n, m - n, complex(eta)
    pref = math.exp(-0.5 * x)
    val = complex(pref)
    for j in range(k + 1, k + d + 1):
        val *= z / math.sqrt(j)
    return val * _laguerre_value(k, d, x)


def rhs_closed(state: SinglePhotonState, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Lab-frame time derivative (dA/dt, dB/dt) of the amplitude equations."""
    a, b, t = state.a, state.b, state.t
    n = a.size - 1
    m = np.arange(n + 1)
    s = np.sqrt(np.arange(1.0, n + 1))
    drive = params.xi * params.omega_0 * math.cos(params.omega_0 * t)
    phase = -1j * (params.omega_c + m * params.omega_m)

    da = phase * a + 1j * drive * b
    db = phase * b + 1j * drive * a
    rp = np.zeros_like(b)
    rp[:-1] += s * b[1:]  # sqrt(m+1) B_{m+1}
    rp[1:] += s * b[:-1]  # sqrt(m)   B_{m-1}
    db += 1j * params.g0 * rp
    return da, db
