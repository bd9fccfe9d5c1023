"""Truncated harmonic-oscillator Fock-space primitives.

Coherent-state expansion coefficients, displacement-operator matrices and
oscillator eigenfunctions, all on a ladder truncated at n_max (dimension
n_max+1).  Everything is computed by stable recurrences; no factorials are
ever formed explicitly, so the routines stay finite well past n ~ 85 where
factorial-based formulas overflow.

No solver or tomography path builds displacement matrices:
``analysis.wigner_numeric`` sums the same Laguerre form one Fock diagonal at
a time.  ``displacement_matrices`` stays as the tests' reference for that
kernel and as the ``analysis`` name that ``perfbench/spans.py`` times.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "coherent_cutoff",
    "coherent_coeffs",
    "displacement_matrix",
    "displacement_matrices",
    "oscillator_eigenfunction",
    "oscillator_eigenfunctions",
    "tail_population",
]


def _check_cutoff(n_max: int) -> int:
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"Fock cutoff must be >= 1, got {n_max}")
    return n_max


def coherent_cutoff(beta_abs: float, floor: int = 20) -> int:
    """Fock cutoff adequate for coherent amplitudes up to |beta| = beta_abs.

    Poisson-tail bound: keeping nbar + 8*sqrt(nbar+1) levels (nbar = |beta|^2)
    leaves less than ~1e-8 of the population above the cutoff.
    """
    nbar = float(beta_abs) ** 2
    return max(int(floor), math.ceil(nbar + 8.0 * math.sqrt(nbar + 1.0)))


def coherent_coeffs(beta: complex, n_max: int) -> np.ndarray:
    """Fock expansion coefficients c_n = exp(-|beta|^2/2) beta^n / sqrt(n!).

    Computed as the running product of c_0 = exp(-|beta|^2/2) and the factors
    beta / sqrt(n), i.e. the recurrence c_{n} = c_{n-1} * beta / sqrt(n); it
    starts from c_0, so it cannot overflow for |beta|^2 in float range.
    """
    n_max = _check_cutoff(n_max)
    factors = np.empty(n_max + 1, dtype=complex)
    factors[0] = math.exp(-0.5 * abs(beta) ** 2)
    factors[1:] = beta / np.sqrt(np.arange(1.0, n_max + 1))
    return np.cumprod(factors)


def displacement_matrices(etas: np.ndarray, n_max: int) -> np.ndarray:
    """Displacement matrices D(eta) for a batch of amplitudes.

    Returns an array of shape (len(etas), n_max+1, n_max+1).  The Laguerre
    recurrence runs vectorized over the batch axis.
    """
    n_max = _check_cutoff(n_max)
    etas = np.asarray(etas, dtype=complex).ravel()
    dim = n_max + 1
    nb = etas.size
    x = np.abs(etas) ** 2

    # lag[k, a, :] = L_k^a(x); recurrence in k, vectorized over (a, batch)
    lag = np.empty((dim, dim, nb), dtype=float)
    a = np.arange(dim, dtype=float)[:, None]
    lag[0] = 1.0
    lag[1] = 1.0 + a - x[None, :]
    for k in range(1, dim - 1):
        lag[k + 1] = ((2 * k + 1 + a - x[None, :]) * lag[k] - (k + a) * lag[k - 1]) / (k + 1)

    # pref[m, n, :] = prod_{j=min+1}^{max} z/sqrt(j), z = -eta* above / eta below
    pref = np.zeros((dim, dim, nb), dtype=complex)
    pref[np.arange(dim), np.arange(dim)] = 1.0
    zu = -np.conj(etas)
    zl = etas
    for n in range(1, dim):
        pref[:n, n] = pref[:n, n - 1] * (zu / math.sqrt(n))
        pref[n, :n] = pref[n - 1, :n] * (zl / math.sqrt(n))

    mm, nn = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    kk = np.minimum(mm, nn)
    aa = np.abs(mm - nn)
    d = np.exp(-0.5 * x)[None, None, :] * pref * lag[kk, aa]
    return np.ascontiguousarray(np.moveaxis(d, 2, 0))


def displacement_matrix(eta: complex, n_max: int) -> np.ndarray:
    """Full displacement operator D(eta) on the truncated ladder."""
    return displacement_matrices(np.array([eta]), n_max)[0]


def oscillator_eigenfunction(n: int, x) -> np.ndarray | float:
    """Position-space oscillator eigenfunction psi_n(x).

    psi_n(x) = (pi^{1/2} 2^n n!)^{-1/2} H_n(x) exp(-x^2/2), evaluated through
    the normalized recurrence psi_{n+1} = x sqrt(2/(n+1)) psi_n
    - sqrt(n/(n+1)) psi_{n-1}.
    """
    if n < 0:
        raise ValueError("Fock index must be non-negative")
    x = np.asarray(x, dtype=float)
    psi_prev = np.zeros_like(x)
    psi = math.pi ** -0.25 * np.exp(-0.5 * x**2)
    for k in range(n):
        psi_prev, psi = psi, x * math.sqrt(2.0 / (k + 1)) * psi - math.sqrt(k / (k + 1.0)) * psi_prev
    return psi if psi.ndim else float(psi)


def oscillator_eigenfunctions(n_max: int, x) -> np.ndarray:
    """All eigenfunctions psi_0..psi_{n_max} on a grid; shape (n_max+1, len(x))."""
    n_max = _check_cutoff(n_max)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size), dtype=float)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x**2)
    out[1] = x * math.sqrt(2.0) * out[0]
    for k in range(1, n_max):
        out[k + 1] = x * math.sqrt(2.0 / (k + 1)) * out[k] - math.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


def tail_population(*vectors: np.ndarray) -> float:
    """Population in the top two Fock levels; the truncation-adequacy gauge."""
    return float(sum(np.sum(np.abs(v[-2:]) ** 2) for v in vectors))
