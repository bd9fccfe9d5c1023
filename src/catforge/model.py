"""Physical parameter set and the analytic ingredients of the modulated
two-mode optomechanical model.

A sinusoidally modulated photon-hopping rate between two cavities turns the
bare radiation-pressure coupling g0 into an effective near-resonant drive on
the mechanical mode, with coupling g = g0 J_{2 n0}(2 xi)/2 and detuning
delta = omega_m - 2 n0 omega_0.  A single photon then displaces the resonator
by up to |beta|_max = 2g/|delta| and the conditional mechanical states are
Yurke-Stoler-like superpositions of |beta(t)> and |-beta(t)>.

All rates are expressed in units of g0 unless stated otherwise; time is in
units of 1/g0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .fock import coherent_coeffs

__all__ = [
    "SystemParams",
    "DerivedModulation",
    "CatState",
    "XI_MAX",
    "bessel_j",
    "coupling",
    "derive",
    "beta_of_t",
    "mu_of_t",
    "hopping_unitary",
    "target_states",
]


@dataclass(frozen=True)
class SystemParams:
    """Physical rates of the two-mode optomechanical system.

    omega_c  cavity frequency (identical for both cavities)
    omega_m  mechanical frequency
    g0       single-photon optomechanical coupling (the frequency scale)
    xi       dimensionless photon-hopping modulation amplitude
    n0       sideband index selecting the near-resonant modulation harmonic
    omega_0  photon-hopping modulation frequency
    gamma_c  cavity-field decay rate (both cavities)
    gamma_m  mechanical decay rate
    n_th     mean thermal phonon occupation of the mechanical bath
    """

    omega_m: float
    xi: float
    omega_0: float
    g0: float = 1.0
    omega_c: float = 0.0
    n0: int = 1
    gamma_c: float = 0.0
    gamma_m: float = 0.0
    n_th: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.omega_m <= 0:
            raise ValueError("omega_m must be positive")
        if self.g0 <= 0:
            raise ValueError("g0 must be positive")
        if self.omega_0 <= 0:
            raise ValueError("omega_0 must be positive")
        if self.n0 < 1:
            raise ValueError("n0 must be a positive integer")
        if self.gamma_c < 0 or self.gamma_m < 0:
            raise ValueError("decay rates must be non-negative")
        if self.n_th < 0:
            raise ValueError("n_th must be non-negative")
        if abs(self.xi) > XI_MAX:
            raise ValueError(f"|xi| must be <= {XI_MAX:g}: the coupling evaluates bessel_j at 2 xi")

    @classmethod
    def with_detuning(cls, omega_m: float, xi: float, delta: float, n0: int = 1, **kw) -> "SystemParams":
        """Build params from a target detuning: omega_0 = (omega_m - delta)/(2 n0)."""
        return cls(omega_m=omega_m, xi=xi, omega_0=(omega_m - delta) / (2 * n0), n0=n0, **kw)

    @property
    def rwa_regime_ok(self) -> bool:
        """Diagnostic flag: |delta| and g0/2 both below omega_0/5 and omega_m/5."""
        d = abs(self.omega_m - 2 * self.n0 * self.omega_0)
        bound = min(self.omega_0, self.omega_m) / 5.0
        return d < bound and self.g0 / 2.0 < bound


@dataclass(frozen=True)
class DerivedModulation:
    """Modulation-derived quantities: g = g0 J_{2n0}(2 xi)/2, delta, 2g/|delta|."""

    g: float
    delta: float
    beta_max: float


# The largest |xi| a model takes: bessel_j is accurate for |z| <= 50, and the
# coupling evaluates it at 2 xi
XI_MAX = 25.0


def bessel_j(order: int, z: float) -> float:
    """Bessel function of the first kind J_n(z) for integer n >= 0.

    Downward Miller recurrence normalized with J_0 + 2 sum_k J_{2k} = 1.
    Accurate to ~1e-12 for n <= 60, |z| <= 2 XI_MAX = 50; a larger |z| (whose
    recurrence runs O(|z|) steps) raises ValueError.
    """
    n = int(order)
    if n < 0:
        raise ValueError("order must be >= 0")
    z = float(z)
    if not abs(z) <= 2 * XI_MAX:
        raise ValueError(f"|z| = {abs(z):g} is past bessel_j's range |z| <= {2 * XI_MAX:g}")
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    sign = 1.0
    if z < 0.0:
        z = -z
        sign = -1.0 if n % 2 else 1.0

    top = max(n, int(math.ceil(z))) + 50
    if top % 2:
        top += 1
    jp, j = 0.0, 1e-300
    total = 0.0  # accumulates J_0 + 2 sum J_{2k} before normalization
    out = 0.0
    for k in range(top, 0, -1):
        jp, j = j, (2.0 * k / z) * j - jp
        if abs(j) > 1e250:  # rescale to dodge overflow; ratios are unaffected
            j *= 1e-250
            jp *= 1e-250
            total *= 1e-250
            out *= 1e-250
        km1 = k - 1
        if km1 == n:
            out = j
        if km1 % 2 == 0:
            total += j if km1 == 0 else 2.0 * j
    return sign * out / total


def coupling(g0: float, xi: float, n0: int) -> float:
    """Effective coupling g = g0 J_{2 n0}(2 xi)/2 of the modulated hopping."""
    return g0 * bessel_j(2 * n0, 2.0 * xi) / 2.0


def derive(params: SystemParams) -> DerivedModulation:
    """Effective coupling g, detuning delta, and peak displacement 2g/|delta|."""
    g = coupling(params.g0, params.xi, params.n0)
    delta = params.omega_m - 2.0 * params.n0 * params.omega_0
    beta_max = math.inf if delta == 0.0 else 2.0 * g / abs(delta)
    return DerivedModulation(g=g, delta=delta, beta_max=beta_max)


def beta_of_t(d: DerivedModulation, omega_m: float, t: float) -> complex:
    """Coherent displacement beta(t) = -(2ig/delta) sin(delta t/2) e^{-i(omega_m-delta/2)t}.

    At delta = 0 the resonant limit -i g t e^{-i omega_m t} is returned.
    """
    if d.delta == 0.0:
        return -1j * d.g * t * cmath.exp(-1j * omega_m * t)
    return (
        (-2j * d.g / d.delta)
        * math.sin(d.delta * t / 2.0)
        * cmath.exp(-1j * (omega_m - d.delta / 2.0) * t)
    )


def mu_of_t(params: SystemParams, t):
    """Accumulated hopping angle mu(t) = 2 xi sin(omega_0 t), at a time or an array of times."""
    return 2.0 * params.xi * np.sin(params.omega_0 * t)


def hopping_unitary(params: SystemParams, t) -> np.ndarray:
    """The hopping frame U_h(t) = exp(i (mu/2) sigma_x) on the photon pair (L, R).

    The modulated hopping xi omega_0 cos(omega_0 t)(|L><R| + h.c.) commutes
    with itself at all times, so both solvers remove it exactly by stepping
    phi = U_h^dag psi.  U_h = cos(mu/2) I + i sin(mu/2) sigma_x; for an array
    of times each entry is an array of t's shape, so the result has shape
    (2, 2) + t.shape.
    """
    half = mu_of_t(params, t) / 2.0
    c, s = np.cos(half), 1j * np.sin(half)
    return np.array([[c, s], [s, c]])


@dataclass(frozen=True)
class CatState:
    """Superposition w_plus |beta> + w_minus |-beta> of two coherent states.

    Weights are stored unnormalized; the norm uses the exact coherent overlap
    <beta|-beta> = exp(-2|beta|^2).
    """

    beta: complex
    weight_plus: complex
    weight_minus: complex

    def norm_sq(self) -> float:
        overlap = math.exp(-2.0 * abs(self.beta) ** 2)
        n2 = (
            abs(self.weight_plus) ** 2
            + abs(self.weight_minus) ** 2
            + 2.0 * overlap * (np.conj(self.weight_plus) * self.weight_minus).real
        )
        if n2 <= 0.0:
            raise ValueError("cat state has non-positive norm")
        return float(n2)

    def fock_vector(self, n_max: int) -> np.ndarray:
        """Normalized Fock-space expansion on the truncated ladder."""
        c = coherent_coeffs(self.beta, n_max)
        # the expansion of -beta: c_n changes sign with odd n
        cm = c.copy()
        cm[1::2] = -c[1::2]
        return (self.weight_plus * c + self.weight_minus * cm) / math.sqrt(self.norm_sq())


def target_states(params: SystemParams, d: DerivedModulation, t: float) -> tuple[CatState, CatState]:
    """Target mechanical states conditioned on detecting the photon left/right.

    phi_L = cos(mu/2)|beta> + i sin(mu/2)|-beta>, whose weights are the first
    row of hopping_unitary; phi_R is the beta <-> -beta swap.  At equal weights
    (tan(mu/2) = +-1) these are Yurke-Stoler states.
    """
    beta = beta_of_t(d, params.omega_m, t)
    wp, wm = hopping_unitary(params, t)[0]
    return CatState(beta, wp, wm), CatState(-beta, wp, wm)
