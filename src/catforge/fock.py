"""Truncated harmonic-oscillator Fock-space primitives.

Coherent-state expansion coefficients, batches of displacement-operator
matrices, the table of oscillator eigenfunctions on a grid and the
truncation-tail gauge, all on a ladder truncated at n_max (dimension
n_max+1).  Everything is computed by stable recurrences; no factorials are
ever formed explicitly, so the routines stay finite well past n ~ 85 where
factorial-based formulas overflow.

No solver or tomography path builds displacement matrices:
``analysis.wigner_numeric`` sums the same Laguerre form one Fock diagonal at
a time.  ``displacement_matrices`` stays as the tests' reference for that
kernel and as the ``analysis`` name that ``perfbench/spans.py`` times.  The
single-matrix and single-eigenfunction forms that only the tests use live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "coherent_cutoff",
    "coherent_coeffs",
    "displacement_matrices",
    "oscillator_eigenfunctions",
    "tail_population",
]


def _check_cutoff(n_max: int) -> int:
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"Fock cutoff must be >= 1, got {n_max}")
    return n_max


def coherent_cutoff(beta_abs: float) -> int:
    """Fock cutoff adequate for coherent amplitudes up to |beta| = beta_abs, and at least 20.

    Poisson-tail bound: keeping nbar + 8*sqrt(nbar+1) levels (nbar = |beta|^2)
    leaves less than ~1e-8 of the population above the cutoff.
    """
    if not abs(beta_abs) < 1e150:  # nbar would overflow, or beta_abs is NaN
        raise ValueError(f"no Fock cutoff covers |beta| = {beta_abs:g}")
    nbar = float(beta_abs) ** 2
    return max(20, math.ceil(nbar + 8.0 * math.sqrt(nbar + 1.0)))


def coherent_coeffs(beta, n_max: int) -> np.ndarray:
    """Fock expansion coefficients c_n = exp(-|beta|^2/2) beta^n / sqrt(n!).

    beta is an amplitude or an array of them; the coefficients run along a
    new last axis, shape beta.shape + (n_max+1,).  Computed as the running
    product of c_0 = exp(-|beta|^2/2) and the factors beta / sqrt(n), i.e.
    the recurrence c_{n} = c_{n-1} * beta / sqrt(n); it starts from c_0, so
    it cannot overflow for |beta|^2 in float range.  c_0 takes one math.exp
    per amplitude: np.exp differs from it in the last bit for some arguments.
    """
    n_max = _check_cutoff(n_max)
    beta = np.asarray(beta)  # a real beta keeps its real division
    factors = np.empty(beta.shape + (n_max + 1,), dtype=complex)
    factors[..., 0] = np.reshape([math.exp(-0.5 * abs(b) ** 2) for b in beta.ravel().tolist()], beta.shape)
    factors[..., 1:] = beta[..., None] / np.sqrt(np.arange(1.0, n_max + 1))
    return np.cumprod(factors, axis=-1)


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
