"""State tomography and figure-data generation.

Wigner functions and rotated-quadrature distributions of the mechanical
states, both from the analytic cat-state closed forms and from numeric
density matrices, plus the peak-displacement sweep and the detection-time
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (
    displacement_matrices,  # unused here; perfbench/spans.py wraps this module-level name
    oscillator_eigenfunctions,
)
from .model import CatState, DerivedModulation, SystemParams, beta_of_t, coupling

__all__ = [
    "PhaseSpaceGrid",
    "QuadratureAxis",
    "wigner_analytic",
    "wigner_numeric",
    "quadrature_analytic",
    "quadrature_numeric",
    "sweep_beta_max",
    "detection_time_candidates",
    "default_theta",
]


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular grid for eta = eta_r + i eta_i."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    n_re: int
    n_im: int

    def __post_init__(self):
        if self.n_re < 2 or self.n_im < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.re_max <= self.re_min or self.im_max <= self.im_min:
            raise ValueError("grid bounds must be ordered")

    @classmethod
    def square(cls, extent: float, step: float) -> "PhaseSpaceGrid":
        if not (step > 0 and math.isfinite(extent)):
            raise ValueError("grid step must be positive and grid extent finite")
        n = int(round(2 * extent / step)) + 1
        return cls(-extent, extent, -extent, extent, n, n)

    @property
    def re_axis(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.n_re)

    @property
    def im_axis(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.n_im)

    def mesh(self) -> np.ndarray:
        """Complex eta values, shape (n_im, n_re)."""
        return self.re_axis[None, :] + 1j * self.im_axis[:, None]

    def integrate(self, w: np.ndarray) -> float:
        """Trapezoid integral of a field over the grid."""
        return float(np.trapezoid(np.trapezoid(w, self.re_axis, axis=1), self.im_axis))


@dataclass(frozen=True)
class QuadratureAxis:
    """Rotation angle theta and the X(theta) evaluation grid."""

    theta: float
    x_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x_values", np.asarray(self.x_values, dtype=float))
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if self.x_values.ndim != 1 or self.x_values.size < 2:
            raise ValueError("x_values must be a 1-D grid")
        if np.any(np.diff(self.x_values) <= 0):
            raise ValueError("x_values must be strictly increasing")

    @staticmethod
    def half_width(beta_abs: float) -> float:
        """Half-width of the around_cat axis: the lobes sit at +-sqrt(2)|beta|,
        and 6 units of margin bury the Gaussian tails."""
        return math.sqrt(2.0) * beta_abs + 6.0

    @classmethod
    def around_cat(cls, theta: float, beta_abs: float, step: float = 0.01) -> "QuadratureAxis":
        if not step > 0:
            raise ValueError("x step must be positive")
        half = cls.half_width(beta_abs)
        n = int(round(2 * half / step)) + 1
        return cls(theta, np.linspace(-half, half, n))

    def integrate(self, p: np.ndarray) -> float:
        return float(np.trapezoid(p, self.x_values))


def default_theta(beta: complex) -> float:
    """Fringe-maximizing angle: perpendicular to the +-beta link line."""
    return float(np.angle(beta) - math.pi / 2.0)


def wigner_analytic(state: CatState, grid: PhaseSpaceGrid) -> np.ndarray:
    """Closed-form Wigner function of a two-component cat state.

    W = (2/pi N^2) [ |w+|^2 e^{-2|eta-b|^2} + |w-|^2 e^{-2|eta+b|^2}
                     + 2 e^{-2|eta|^2} Re(w+ w-* e^{-4i Im(eta b*)}) ]

    with N^2 the exact cat norm.  For equal Yurke-Stoler weights the cross
    term reduces to -e^{-2|eta|^2} sin(mu) sin(4 Im(eta b*)).
    """
    eta = grid.mesh()
    b = state.beta
    wp, wm = state.weight_plus, state.weight_minus
    gauss_p = np.exp(-2.0 * np.abs(eta - b) ** 2)
    gauss_m = np.exp(-2.0 * np.abs(eta + b) ** 2)
    cross = 2.0 * np.exp(-2.0 * np.abs(eta) ** 2) * np.real(
        wp * np.conj(wm) * np.exp(-4j * np.imag(eta * np.conj(b)))
    )
    return (2.0 / math.pi / state.norm_sq()) * (
        abs(wp) ** 2 * gauss_p + abs(wm) ** 2 * gauss_m + cross
    )


def wigner_numeric(rho_m: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """Displaced-parity Wigner function of a mechanical density matrix.

    W(eta) = (2/pi) Tr[D^dag(eta) rho D(eta) (-1)^n].  The displaced parity
    collapses to D(2 eta) (-1)^n, so the trace needs only displacement matrix
    elements between retained Fock states; truncating a product of matrices
    would instead leak badly wherever |eta| pushes the state past the cutoff.

    With z = 2 eta, x = |z|^2 and the Laguerre form of <k|D(z)|k+a>, the trace
    is summed one Fock diagonal a at a time over the whole grid:

        W = (2/pi) e^{-x/2} sum_a Re[ q_a sum_k (-1)^k c_ka lam_k^a(x) ]

    q_a = z^a / sqrt(a!); c_ka = rho_{k,k+a} + conj(rho_{k+a,k}) (rho_kk on
    the main diagonal), so any matrix gives the full-trace value; and
    lam_k^a = sqrt(k! a! / (k+a)!) L_k^a(x) by its normalized three-term
    recurrence in k.  No displacement matrix and no factorial is formed.
    The recurrence runs once per distinct radius x (a symmetric grid repeats
    each several times) and s_a is gathered back to the grid points.
    """
    rho_m = np.asarray(rho_m, dtype=complex)
    dim = rho_m.shape[0]
    z = 2.0 * grid.mesh().ravel()
    x, at = np.unique(np.abs(z) ** 2, return_inverse=True)
    parity = np.where(np.arange(dim) % 2, -1.0, 1.0)
    total = np.zeros(z.size)
    q = np.ones(z.size, dtype=complex)
    lam, lam_prev, lam_next = np.empty((3, x.size))
    s_re, s_im, tmp = np.empty((3, x.size))
    g_re, g_im = np.empty((2, z.size))
    for a in range(dim):
        if a:
            q *= z
            q *= 1.0 / math.sqrt(a)
            c = np.diagonal(rho_m, a) + np.conj(np.diagonal(rho_m, -a))
        else:
            c = np.diagonal(rho_m).copy()
        c *= parity[: dim - a]
        lam.fill(1.0)
        s_re.fill(c[0].real)
        s_im.fill(c[0].imag)
        for k in range(dim - a - 1):
            # lam_{k+1} = [(2k+1+a-x) lam_k - sqrt(k(k+a)) lam_{k-1}] / sqrt((k+1)(k+1+a))
            np.subtract(2 * k + 1 + a, x, out=lam_next)
            lam_next *= lam
            if k:
                np.multiply(lam_prev, math.sqrt(k * (k + a)), out=tmp)
                lam_next -= tmp
            lam_next *= 1.0 / math.sqrt((k + 1) * (k + 1 + a))
            lam_prev, lam, lam_next = lam, lam_next, lam_prev
            np.multiply(lam, c[k + 1].real, out=tmp)
            s_re += tmp
            np.multiply(lam, c[k + 1].imag, out=tmp)
            s_im += tmp
        # Re[q_a s_a]
        np.take(s_re, at, out=g_re)
        g_re *= q.real
        np.take(s_im, at, out=g_im)
        g_im *= q.imag
        total += g_re
        total -= g_im
    total *= np.exp(-0.5 * x)[at]
    total *= 2.0 / math.pi
    return total.reshape(grid.n_im, grid.n_re)


def quadrature_analytic(state: CatState, axis: QuadratureAxis, n_max: int) -> np.ndarray:
    """Distribution P[X(theta)] of a pure cat state along a rotated quadrature."""
    v = state.fock_vector(n_max)
    psi = oscillator_eigenfunctions(n_max, axis.x_values)
    phases = np.exp(-1j * axis.theta * np.arange(n_max + 1))
    amp = (v * phases) @ psi
    return np.abs(amp) ** 2


def quadrature_numeric(rho_m: np.ndarray, axis: QuadratureAxis) -> np.ndarray:
    """Distribution P[X(theta)] = sum_pq rho_pq psi_p psi_q e^{i theta (q-p)}.

    The result is real up to Hermiticity roundoff; tiny negatives are kept
    (file writers clamp them, tests see them).
    """
    rho_m = np.asarray(rho_m, dtype=complex)
    n_max = rho_m.shape[0] - 1
    psi = oscillator_eigenfunctions(n_max, axis.x_values)
    c = psi * np.exp(1j * axis.theta * np.arange(n_max + 1))[:, None]
    return np.real(np.einsum("px,pq,qx->x", c.conj(), rho_m, c))


def sweep_beta_max(xi_list, delta_grid, n0: int = 1, g0: float = 1.0) -> list[tuple[float, float, float]]:
    """Peak displacement |beta|_max = g0 J_{2 n0}(2 xi) / delta over a sweep.

    Returns rows (xi, delta, beta_max); delta values must be positive.
    """
    rows = []
    for xi in xi_list:
        two_g = 2.0 * coupling(g0, xi, n0)
        for delta in delta_grid:
            if delta <= 0:
                raise ValueError("delta grid must be positive")
            rows.append((float(xi), float(delta), two_g / delta))
    return rows


def detection_time_candidates(
    params: SystemParams,
    d: DerivedModulation,
    window_center: float,
    half_width: float | None = None,
) -> list[tuple[float, float]]:
    """Times near the window center where the cat weights are equal.

    Solves tan(mu(t)/2) = +-1, i.e. 2 xi sin(omega_0 t) = L for each level
    L = +-(k + 1/2) pi, in closed form: omega_0 t = asin(L/2xi) or
    pi - asin(L/2xi), modulo 2 pi.  The levels within reach are those up to
    |2 xi|, for xi of either sign.  Returns (t, |beta(t)|) pairs sorted in
    time; empty when 2|xi| < pi/2 (equal weights unreachable).
    """
    if half_width is None:
        half_width = math.pi / params.omega_0
    lo, hi = max(window_center - half_width, 0.0), window_center + half_width
    w0, two_pi = params.omega_0, 2.0 * math.pi

    two_xi = 2.0 * params.xi
    phases = set()  # omega_0 t modulo 2 pi; a level at an extremum has one phase
    k = 0
    while (k + 0.5) * math.pi <= abs(two_xi):
        for level in ((k + 0.5) * math.pi, -(k + 0.5) * math.pi):
            a = math.asin(level / two_xi)
            phases.update((a % two_pi, (math.pi - a) % two_pi))
        k += 1

    out = []
    for phase in phases:
        first = math.ceil((w0 * lo - phase) / two_pi)
        last = math.floor((w0 * hi - phase) / two_pi)
        for m in range(first, last + 1):
            t = (phase + two_pi * m) / w0
            out.append((t, abs(beta_of_t(d, params.omega_m, t))))
    out.sort()
    return out
