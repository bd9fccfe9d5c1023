"""Independent reference implementations that only the tests use.

Element-by-element displacement-operator formula, ladder matrices, the
lab-frame amplitude equations of the closed problem and the lab-frame
Lindblad generator on the full three-sector density matrix, built from dense
operators and sharing no kernel with the library; the library's vectorized,
interaction-frame, hopping-frame and live-block routines are checked against
these.  Also the scalar and single-item forms of library routines (one
displacement matrix, one eigenfunction, one CSV cell, the fidelities of a
kept open state) and the estimates and figures of merit that only the tests
evaluate (photon survival, fringe visibility).
"""

from __future__ import annotations

import math

import numpy as np

from catforge.closed import P_FLOOR, SinglePhotonState
from catforge.fock import _check_cutoff, displacement_matrices
from catforge.model import DerivedModulation, SystemParams, target_states
from catforge.open_system import PhotonSector, SystemDensityMatrix


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


def format_float(x) -> str:
    """One CSV cell: shortest round-trip decimal form; empty cell for missing values."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def fringe_visibility(x: np.ndarray, p: np.ndarray, half_width: float = 1.5) -> float:
    """(max-min)/(max+min) of a distribution within |x| <= half_width."""
    mask = np.abs(np.asarray(x)) <= half_width
    seg = np.asarray(p)[mask]
    hi, lo = float(np.max(seg)), float(np.min(seg))
    return (hi - lo) / (hi + lo)


def success_probability_estimate(params: SystemParams) -> float:
    """Photon-survival estimate exp(-4 pi gamma_c / g0) at delta = g."""
    return math.exp(-4.0 * math.pi * params.gamma_c / params.g0)


def fidelity_open(
    rho: SystemDensityMatrix, params: SystemParams, d: DerivedModulation
) -> tuple[float, float]:
    """Fidelities <phi_s|rho_M^(s)|phi_s> of the reduced states against the
    targets; NaN for a sector whose probability is at most P_FLOOR."""
    out = []
    for sector, phi in zip((PhotonSector.L, PhotonSector.R), target_states(params, d, rho.t)):
        blk = rho.block(sector)
        p = float(np.sum(np.diagonal(blk).real))
        if p > P_FLOOR:
            v = phi.fock_vector(rho.n_max)
            out.append(float(np.real(np.vdot(v, blk @ v)) / p))
        else:
            out.append(math.nan)
    return out[0], out[1]


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


def lindblad_generator(params: SystemParams, n_max: int):
    """Lab-frame generator rhs(rho, t) = d rho/dt of the full sector-major density matrix.

    Dense operators on {L, R, V} (x) phonon ladder, one per term of the
    master equation: the free energies, the hopping swap
    -xi omega_0 cos(omega_0 t)(|L><R| + |R><L|), the radiation pressure
    -g0 |R><R| (x) (b + b^dag) on the R rows and columns of the commutator,
    photon loss |V><L|, |V><R| at gamma_c, and the thermal phonon bath.  The
    anticommutators enter through H - (i/2) sum rate c^dag c; that of
    D[b^dag] takes b b^dag = n + 1 on every level, as the element-wise
    equations do.
    """
    d = n_max + 1
    b = destroy(n_max)
    num = number_op(n_max)
    eye = np.eye(d)

    def photon(i, j):
        m = np.zeros((3, 3))
        m[i, j] = 1.0
        return m

    def phonon(op):
        return np.kron(np.eye(3), op)

    g_c, g_m, nth = params.gamma_c, params.gamma_m, params.n_th
    # (rate, jump operator, c^dag c in the anticommutator)
    terms = [(g_c, np.kron(photon(2, s), eye), np.kron(photon(s, s), eye)) for s in (0, 1)]
    terms.append((g_m * (nth + 1.0), phonon(b), phonon(num)))
    terms.append((g_m * nth, phonon(b.conj().T), phonon(num + eye)))
    h_static = (
        params.omega_c * np.kron(photon(0, 0) + photon(1, 1), eye)
        + params.omega_m * phonon(num)
        - params.g0 * np.kron(photon(1, 1), b + b.conj().T)
        - 0.5j * sum(rate * cdc for rate, _, cdc in terms)
    )
    swap = np.kron(photon(0, 1) + photon(1, 0), eye)
    jumps = [(rate, c, c.conj().T) for rate, c, _ in terms if rate]

    def rhs(rho: np.ndarray, t: float) -> np.ndarray:
        h = h_static - params.xi * params.omega_0 * math.cos(params.omega_0 * t) * swap
        out = -1j * (h @ rho - rho @ h.conj().T)
        for rate, c, c_dag in jumps:
            out += rate * (c @ rho @ c_dag)
        return out

    return rhs


def rhs_lindblad(rho: np.ndarray, t: float, params: SystemParams) -> np.ndarray:
    """Lab-frame time derivative of the full sector-major density matrix rho at t."""
    return lindblad_generator(params, rho.shape[0] // 3 - 1)(rho, t)


def sign_change_times(f, lo: float, hi: float, n: int) -> np.ndarray:
    """Midpoints of the cells of an n-cell grid on [lo, hi] across which f changes sign."""
    t = np.linspace(lo, hi, n + 1)
    positive = f(t) > 0.0
    cells = np.nonzero(positive[:-1] != positive[1:])[0]
    return 0.5 * (t[cells] + t[cells + 1])
