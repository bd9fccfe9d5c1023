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


# Past this mean occupation exp(-nbar) underflows, and no cutoff is computed.
_MAX_NBAR = 700.0


def coherent_cutoff(beta_abs: float, n_thermal: float, budget: float, n_limit: int, floor: int = 20) -> int:
    """The smallest Fock cutoff, at least floor and looked for up to n_limit,
    past the mean occupation at which a coherent state |beta| = beta_abs,
    broadened by the thermal occupation n_thermal, holds at most budget in
    its top two levels.  Raises ValueError when |beta|^2 + n_thermal is past
    700 or no cutoff up to n_limit fits the budget.

    That state is D(beta) rho_th(n_thermal) D(beta)^dag, whose populations are
    p_n = q^n L_n(-y) exp(-|beta|^2/(1+n_T))/(1+n_T), with q = n_T/(1+n_T) and
    y = |beta|^2/(n_T(1+n_T)); at n_thermal = 0 they are the Poisson ones.  They
    run up the three-term Laguerre recurrence, which is stable forward: at a
    negative argument L_n is positive and grows.  The tail falls geometrically,
    by q per level, once n_thermal dominates.  The search stops at n_limit
    because a budget of 0 or in the subnormal floats is never met: the
    populations stall there instead of reaching 0.  closed.default_n_max sets
    the budget and the limit.
    """
    nbar_coherent, n_thermal = float(beta_abs) * float(beta_abs), float(n_thermal)  # inf, not OverflowError
    nbar = nbar_coherent + n_thermal
    if not nbar <= _MAX_NBAR:  # NaN fails this too
        raise ValueError(
            f"no Fock cutoff covers |beta|^2 + n_thermal = {nbar_coherent:.4g} + {n_thermal:.4g}:"
            f" the sum is past {_MAX_NBAR:g}"
        )
    q = n_thermal / (1.0 + n_thermal)
    c = nbar_coherent / (1.0 + n_thermal) ** 2
    # p_n = p_0 r_n with r_n = q^n L_n(-y): n r_n = ((2n-1) q + c) r_{n-1} - (n-1) q^2 r_{n-2}
    prev, p = 0.0, math.exp(-nbar_coherent / (1.0 + n_thermal)) / (1.0 + n_thermal)
    for n in range(1, n_limit + 1):
        prev, p = p, (((2 * n - 1) * q + c) * p - (n - 1) * q * q * prev) / n
        if n > nbar and prev + p <= budget:
            return max(floor, n)
    raise ValueError(
        f"no Fock cutoff covers |beta| = {abs(beta_abs):.4g} at n_thermal = {n_thermal:.4g} within"
        f" {budget:.3g}: it is past {n_limit}"
    )


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
