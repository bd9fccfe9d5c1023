"""Closed-system dynamics in the single-photon subspace.

The state is |Psi(t)> = sum_m [A_m |1>_L |0>_R + B_m |0>_L |1>_R] |m>_M and
evolves under the full time-dependent Hamiltonian.  The probability
amplitudes obey

    dA_m/dt = -i(omega_c + m omega_m) A_m + i xi omega_0 cos(omega_0 t) B_m
    dB_m/dt = -i(omega_c + m omega_m) B_m + i xi omega_0 cos(omega_0 t) A_m
              + i g0 [sqrt(m+1) B_{m+1} + sqrt(m) B_{m-1}]

with hard truncation at m = n_max.  Propagation is fixed-step RK4 in the
interaction picture of the free Hamiltonian (amplitudes A_m e^{i m omega_m t}),
where the solution varies on the slow coupling scales; the fast e^{-i m
omega_m t} phases are restored exactly at record times.  The cavity frequency
omega_c contributes only a global phase and is gauged to zero inside the
solver.

The solver steps one stacked vector y = [A; B] of length 2d (d = n_max + 1)
with a preallocated 2d x 2d generator.  Its 4d - 2 nonzeros have three
disjoint supports (the sector swap, B-lowering and B-raising); their time
dependence is evaluated elementwise for a chunk of steps at a time and
written into the matrix before each stage's matrix-vector product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import coherent_cutoff, tail_population
from .model import DerivedModulation, SystemParams, derive, target_states
from .trajectory import TrajectoryRecord

__all__ = [
    "SinglePhotonState",
    "SolverConfig",
    "SolverAbort",
    "ClosedRun",
    "default_dt",
    "default_n_max",
    "initial_state",
    "evolve_closed",
    "observables",
    "fidelity_total",
    "conditional_states",
    "fidelity_conditional",
]

CLOSED_COLUMNS = ("t", "nL", "nR", "x_over_x0", "nb", "P_L", "P_R", "F", "F_L", "F_R")

NORM_ABORT = 1e-6
TAIL_ABORT = 1e-6


class SolverAbort(RuntimeError):
    """Raised when a conservation or truncation guard trips mid-run."""


@dataclass
class SinglePhotonState:
    """Amplitudes over the phonon ladder for the two one-photon sectors."""

    a: np.ndarray  # A_m, photon in the left cavity
    b: np.ndarray  # B_m, photon in the right cavity
    t: float = 0.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.b = np.asarray(self.b, dtype=complex)
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("a and b must be 1-D arrays of equal length")

    @property
    def n_max(self) -> int:
        return self.a.size - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.a) ** 2 + np.abs(self.b) ** 2))

    def tail_population(self) -> float:
        return tail_population(self.a, self.b)


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step RK4 configuration.

    The step must resolve the fastest retained oscillation: dt <= T/40 with
    T = 2 pi / max(omega_m, omega_0 (2 n0 + 2)).  t_mark forces a step and a
    record to land exactly on the detection time.
    """

    dt: float
    t_end: float
    record_stride: int = 1
    t_mark: float | None = None
    method: str = "rk4"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.method != "rk4":
            raise ValueError("only fixed-step rk4 is available")
        if self.t_mark is not None and not 0.0 < self.t_mark <= self.t_end:
            raise ValueError("t_mark must lie in (0, t_end]")

    def validate(self, params: SystemParams):
        w_max = max(params.omega_m, params.omega_0 * (2 * params.n0 + 2))
        limit = (2.0 * math.pi / w_max) / 40.0
        if self.dt > limit * (1 + 1e-12):
            raise ValueError(
                f"dt={self.dt:g} too coarse: the fastest retained oscillation "
                f"(omega={w_max:g}) needs dt <= {limit:g}"
            )


def default_dt(params: SystemParams, points_per_period: int = 256) -> float:
    """Step size resolving the fastest retained oscillation.

    256 points per period keeps the RK4 norm drift of a detection-time-scale
    run below 1e-8 (the conservation guard), comfortably past the 40-point
    resolution floor.
    """
    w_max = max(params.omega_m, params.omega_0 * (2 * params.n0 + 2))
    return (2.0 * math.pi / w_max) / points_per_period


def default_n_max(params: SystemParams, d: DerivedModulation | None = None) -> int:
    """Phonon cutoff covering the peak coherent displacement."""
    d = derive(params) if d is None else d
    beta = d.beta_max if math.isfinite(d.beta_max) else 4.0
    return coherent_cutoff(beta)


def initial_state(kind: str, n_max: int) -> SinglePhotonState:
    """Initial photon configurations: 'left', 'right', or the Bell state."""
    a = np.zeros(n_max + 1, dtype=complex)
    b = np.zeros(n_max + 1, dtype=complex)
    if kind == "left":
        a[0] = 1.0
    elif kind == "right":
        b[0] = 1.0
    elif kind == "bell":
        a[0] = b[0] = 1.0 / math.sqrt(2.0)
    else:
        raise ValueError(f"unknown initial state {kind!r}")
    return SinglePhotonState(a, b, 0.0)


# Steps whose generator coefficients are evaluated together.  Their table holds
# 3 stage times per step, so at n_max = 22 it takes 3 * 128 * 90 * 16 B = 0.55 MB.
_CHUNK = 128


def _generator_pattern(d: int) -> np.ndarray:
    """Flat indices of the generator's nonzeros in the 2d x 2d matrix acting on [A; B].

    In order: the sector swap (A_m <- B_m, then B_m <- A_m), B-lowering
    (B_m <- B_{m+1}) and B-raising (B_{m+1} <- B_m); the supports are disjoint.
    """
    n = 2 * d
    m = np.arange(d)
    swap = np.concatenate([m * n + d + m, (d + m) * n + m])
    lowering = (d + m[:-1]) * n + d + m[:-1] + 1
    raising = (d + m[1:]) * n + d + m[:-1]
    return np.concatenate([swap, lowering, raising])


def _generator_coefficients(params: SystemParams, n_max: int, times: np.ndarray) -> np.ndarray:
    """Generator nonzeros at each time, one row per time, in _generator_pattern order.

    The swap entries carry i xi omega_0 cos(omega_0 t); B-lowering carries
    i g0 sqrt(m+1) e^{-i omega_m t} and B-raising its e^{+i omega_m t} partner.
    """
    d = n_max + 1
    out = np.empty((times.size, 4 * d - 2), dtype=complex)
    hop = 1j * params.g0 * np.sqrt(np.arange(1.0, d))
    ph = np.exp(-1j * params.omega_m * times)[:, None]
    xw = params.xi * params.omega_0
    out[:, : 2 * d] = (1j * xw * np.cos(params.omega_0 * times))[:, None]
    np.multiply(ph, hop, out=out[:, 2 * d : 3 * d - 1])
    np.multiply(ph.conj(), hop, out=out[:, 3 * d - 1 :])
    return out


def _interaction_rhs(params: SystemParams, n_max: int):
    """Stage callable f(coef, y, out) for the frame-rotated amplitudes y = [A; B].

    f writes one row of _generator_coefficients into a preallocated 2d x 2d
    generator and stores its product with y in out, which it returns.  The
    layout depends on n_max alone; params stays in the signature because the
    benchmark tracer (perfbench/spans.py) wraps this factory by it.
    """
    d = n_max + 1
    gen = np.zeros((2 * d, 2 * d), dtype=complex)
    flat = gen.reshape(-1)
    nz = _generator_pattern(d)

    def f(coef: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        flat[nz] = coef
        return np.matmul(gen, y, out=out)

    return f


def _segment_steps(dt_target: float, t0: float, t1: float) -> tuple[int, float]:
    span = t1 - t0
    n = max(1, math.ceil(span / dt_target - 1e-12))
    return n, span / n


def observables(state: SinglePhotonState) -> dict:
    """Photon populations, dimensionless displacement <x>/x0 and phonon number."""
    a, b = state.a, state.b
    s = np.sqrt(np.arange(1.0, a.size))
    x = 2.0 * np.sum(s * (np.conj(a[:-1]) * a[1:] + np.conj(b[:-1]) * b[1:])).real
    m = np.arange(a.size)
    return {
        "nL": float(np.sum(np.abs(a) ** 2)),
        "nR": float(np.sum(np.abs(b) ** 2)),
        "x_over_x0": float(x),
        "nb": float(np.sum(m * (np.abs(a) ** 2 + np.abs(b) ** 2))),
    }


def fidelity_total(state: SinglePhotonState, params: SystemParams, d: DerivedModulation) -> float:
    """Overlap fidelity |<Psi(t)|psi_RWA(t)>|^2 against the analytic entangled state.

    Defined for the Bell-photon initial condition, for which the analytic
    state is (1/sqrt2)[|10> phi_L + |01> phi_R] up to a global phase.
    """
    phi_l, phi_r = target_states(params, d, state.t)
    vl = phi_l.fock_vector(state.n_max)
    vr = phi_r.fock_vector(state.n_max)
    amp = (np.vdot(state.a, vl) + np.vdot(state.b, vr)) / math.sqrt(2.0)
    return float(abs(amp) ** 2)


def conditional_states(state: SinglePhotonState, p_floor: float = 1e-12):
    """Collapsed mechanical states and probabilities for left/right detection."""
    p_l = float(np.sum(np.abs(state.a) ** 2))
    p_r = float(np.sum(np.abs(state.b) ** 2))
    psi_l = state.a / math.sqrt(p_l) if p_l > p_floor else None
    psi_r = state.b / math.sqrt(p_r) if p_r > p_floor else None
    return psi_l, p_l, psi_r, p_r


def fidelity_conditional(
    state: SinglePhotonState, params: SystemParams, d: DerivedModulation
) -> tuple[float, float]:
    """Fidelities of the collapsed states against the cat-state targets."""
    phi_l, phi_r = target_states(params, d, state.t)
    psi_l, p_l, psi_r, p_r = conditional_states(state)
    f_l = abs(np.vdot(psi_l, phi_l.fock_vector(state.n_max))) ** 2 if psi_l is not None else math.nan
    f_r = abs(np.vdot(psi_r, phi_r.fock_vector(state.n_max))) ** 2 if psi_r is not None else math.nan
    return float(f_l), float(f_r)


@dataclass
class ClosedRun:
    record: TrajectoryRecord
    final: SinglePhotonState
    marked: SinglePhotonState | None
    norm_drift: float
    tail_max: float
    states: list[SinglePhotonState] | None = None


def evolve_closed(
    initial: SinglePhotonState,
    params: SystemParams,
    cfg: SolverConfig,
    compute_fidelities: bool | None = None,
    keep_states: bool = False,
) -> ClosedRun:
    """Propagate the amplitude equations and record observables.

    Fidelity columns are filled only for the Bell-photon initial state (the
    analytic target exists for that preparation); pass compute_fidelities to
    override the auto-detection.  Aborts when the norm drifts by more than
    1e-6 or the top-two-level phonon population exceeds 1e-6.
    """
    cfg.validate(params)
    norm0 = initial.norm_sq()
    if abs(norm0 - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    if compute_fidelities is None:
        open_l = abs(initial.a[0] - 1 / math.sqrt(2)) < 1e-12 and np.all(initial.a[1:] == 0)
        open_r = abs(initial.b[0] - 1 / math.sqrt(2)) < 1e-12 and np.all(initial.b[1:] == 0)
        compute_fidelities = bool(open_l and open_r)

    d = derive(params)
    n_max = initial.n_max
    rhs = _interaction_rhs(params, n_max)
    m = np.arange(n_max + 1)

    record = TrajectoryRecord(CLOSED_COLUMNS)
    drift_max = 0.0
    tail_max = 0.0
    marked = None
    states: list[SinglePhotonState] = []

    def lab_state(t, a, b) -> SinglePhotonState:
        ph = np.exp(-1j * m * params.omega_m * t)
        return SinglePhotonState(a * ph, b * ph, t)

    def emit(t, a, b):
        nonlocal drift_max, tail_max, marked
        st = lab_state(t, a, b)
        drift = abs(st.norm_sq() - norm0)
        drift_max = max(drift_max, drift)
        tail = st.tail_population()
        tail_max = max(tail_max, tail)
        if drift > NORM_ABORT:
            raise SolverAbort(
                f"norm drift {drift:.3e} at t={t:g} exceeds {NORM_ABORT:g}; reduce dt "
                f"(current {cfg.dt:g})"
            )
        if tail > TAIL_ABORT:
            raise SolverAbort(
                f"phonon tail population {tail:.3e} at t={t:g}; increase n_max "
                f"(current {st.n_max})"
            )
        obs = observables(st)
        row = dict(t=t, **obs, P_L=obs["nL"], P_R=obs["nR"])
        if compute_fidelities:
            row["F"] = fidelity_total(st, params, d)
            f_l, f_r = fidelity_conditional(st, params, d)
            row["F_L"], row["F_R"] = f_l, f_r
        record.append(**row)
        if keep_states:
            states.append(st)
        if cfg.t_mark is not None and abs(t - cfg.t_mark) < 1e-12:
            marked = st
        return st

    y = np.concatenate([initial.a, initial.b])
    a, b = y[: n_max + 1], y[n_max + 1 :]  # views of the live state
    t = 0.0
    emit(t, a, b)

    bounds = [0.0]
    if cfg.t_mark is not None and cfg.t_mark < cfg.t_end:
        bounds.append(cfg.t_mark)
    bounds.append(cfg.t_end)

    # Every BLAS call stays a single 2d x 2d matrix-vector product: OpenBLAS
    # runs larger products on all cores for no wall-time gain at this size.
    k1, k2, k3, k4, v = (np.empty_like(y) for _ in range(5))
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        n_steps, dt = _segment_steps(cfg.dt, t0, t1)
        for c0 in range(0, n_steps, _CHUNK):
            ts = t0 + np.arange(c0, min(c0 + _CHUNK, n_steps)) * dt
            stage_t = np.stack([ts, ts + dt / 2, ts + dt], axis=1).reshape(-1)
            coef = _generator_coefficients(params, n_max, stage_t).reshape(ts.size, 3, -1)
            for i, (c_start, c_mid, c_end) in enumerate(coef, start=c0):
                rhs(c_start, y, k1)
                np.multiply(k1, dt / 2, out=v)
                v += y
                rhs(c_mid, v, k2)
                np.multiply(k2, dt / 2, out=v)
                v += y
                rhs(c_mid, v, k3)
                np.multiply(k3, dt, out=v)
                v += y
                rhs(c_end, v, k4)
                # y += dt/6 (k1 + 2 k2 + 2 k3 + k4)
                k2 += k3
                k2 *= 2
                k1 += k2
                k1 += k4
                k1 *= dt / 6
                y += k1
                t = t0 + (i + 1) * dt if i + 1 < n_steps else t1
                if (i + 1) % cfg.record_stride == 0 or i + 1 == n_steps:
                    emit(t, a, b)

    final = lab_state(cfg.t_end, a, b)
    if cfg.t_mark is not None and cfg.t_mark == cfg.t_end:
        marked = final
    return ClosedRun(
        record=record,
        final=final,
        marked=marked,
        norm_drift=drift_max,
        tail_max=tail_max,
        states=states if keep_states else None,
    )
