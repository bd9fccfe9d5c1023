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

The solver steps one stacked vector y = [A; B] of length 2d (d = n_max + 1).
The generator's 4d - 2 nonzeros have three disjoint supports (the sector
swap, B-lowering and B-raising); their time dependence is evaluated
elementwise for a chunk of steps at a time, already scaled by each RK4
stage's step fraction.  One store per step writes the four pre-scaled stage
generators into a preallocated (4, 2d, 2d) array, so a step is that store,
four stage products, one weighted combine of the stages and four adds.
Records are read off the interaction-frame vector: populations, phonon
number and the truncation tail from |y|^2, which the frame phases leave
unchanged, and <x> with one global phase; a lab-frame state is built only
for fidelities, kept states, the marked state and the final state.
"""

from __future__ import annotations

import cmath
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

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
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


# Steps whose stage coefficients are tabulated together.  Their table holds the
# 4 pre-scaled stage generators of each step, 4 (4d - 2) entries, so at
# n_max = 22 it takes 128 * 4 * 90 * 16 B = 0.74 MB.
_CHUNK = 128

# RK4 stage times and step fractions, in units of the step h.  With the stages
# pre-scaled to a1 = h/2 k1, a2 = h/2 k2, a3 = h k3 and a4 = h/6 k4, the update
# h/6 (k1 + 2 k2 + 2 k3 + k4) is _RK4_WEIGHTS . [a1; a2; a3; a4].
_STAGE_TIMES = np.array([0.0, 0.5, 0.5, 1.0])
_STAGE_SCALES = np.array([1 / 2, 1 / 2, 1.0, 1 / 6])
_RK4_WEIGHTS = np.array([1 / 3, 2 / 3, 1 / 3, 1.0], dtype=complex)


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


def _stage_coefficients(params: SystemParams, n_max: int, ts: np.ndarray, h: float) -> np.ndarray:
    """Pre-scaled stage-generator nonzeros for RK4 steps of size h starting at ts.

    One row per step: [h/2 c(t), h/2 c(t + h/2), h c(t + h/2), h/6 c(t + h)]
    with c the _generator_coefficients row, 4 (4d - 2) entries.
    """
    c = _generator_coefficients(params, n_max, (ts[:, None] + h * _STAGE_TIMES).reshape(-1))
    c = c.reshape(ts.size, 4, -1)
    c *= (h * _STAGE_SCALES)[:, None]
    return c.reshape(ts.size, -1)


def _interaction_rhs(params: SystemParams, n_max: int):
    """RK4 step kernel step(row, y, out) for the frame-rotated amplitudes y = [A; B].

    One store writes a row of _stage_coefficients into four preallocated
    2d x 2d stage generators G1..G4; the stages are a1 = G1 y,
    a2 = G2 (y + a1), a3 = G3 (y + a2), a4 = G4 (y + a3), and out receives
    y + w . [a1; a2; a3; a4] (_RK4_WEIGHTS) and is returned.  out must not
    alias y.  The layout depends on n_max alone; the name and the params
    argument stay because the benchmark tracer (perfbench/spans.py) wraps
    this factory by them and counts the kernel's calls.
    """
    d = n_max + 1
    n = 2 * d
    gens = np.zeros((4, n, n), dtype=complex)
    gflat = gens.reshape(-1)
    gidx = (_generator_pattern(d) + n * n * np.arange(4)[:, None]).reshape(-1)
    g1, g2, g3, g4 = gens
    stages = np.empty((4, n), dtype=complex)
    a1, a2, a3, a4 = stages
    v = np.empty(n, dtype=complex)

    # np.dot(..., out=) is the cheapest 2d x 2d product call (np.matmul costs
    # about 30% more at 2d = 46, where every call is overhead-bound)
    def step(row: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        gflat[gidx] = row
        np.dot(g1, y, out=a1)
        np.add(y, a1, out=v)
        np.dot(g2, v, out=a2)
        np.add(y, a2, out=v)
        np.dot(g3, v, out=a3)
        np.add(y, a3, out=v)
        np.dot(g4, v, out=a4)
        np.dot(_RK4_WEIGHTS, stages, out=out)
        out += y
        return out

    return step


def _segment_steps(dt_target: float, t0: float, t1: float) -> tuple[int, float]:
    span = t1 - t0
    n = max(1, math.ceil(span / dt_target - 1e-12))
    return n, span / n


def observables(state: SinglePhotonState) -> dict:
    """Photon populations, dimensionless displacement <x>/x0 and phonon number.

    The reference for the record columns, which evolve_closed reads off the
    interaction-frame vector without building the lab-frame state.
    """
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


def _target_vectors(
    params: SystemParams, d: DerivedModulation, t: float, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fock vectors of the cat-state targets phi_L, phi_R at time t."""
    phi_l, phi_r = target_states(params, d, t)
    return phi_l.fock_vector(n_max), phi_r.fock_vector(n_max)


def _total_fidelity(state: SinglePhotonState, vl: np.ndarray, vr: np.ndarray) -> float:
    amp = (np.vdot(state.a, vl) + np.vdot(state.b, vr)) / math.sqrt(2.0)
    return float(abs(amp) ** 2)


def _conditional_fidelities(
    state: SinglePhotonState, vl: np.ndarray, vr: np.ndarray
) -> tuple[float, float]:
    psi_l, _, psi_r, _ = conditional_states(state)
    f_l = abs(np.vdot(psi_l, vl)) ** 2 if psi_l is not None else math.nan
    f_r = abs(np.vdot(psi_r, vr)) ** 2 if psi_r is not None else math.nan
    return float(f_l), float(f_r)


def fidelity_total(state: SinglePhotonState, params: SystemParams, d: DerivedModulation) -> float:
    """Overlap fidelity |<Psi(t)|psi_RWA(t)>|^2 against the analytic entangled state.

    Defined for the Bell-photon initial condition, for which the analytic
    state is (1/sqrt2)[|10> phi_L + |01> phi_R] up to a global phase.
    """
    return _total_fidelity(state, *_target_vectors(params, d, state.t, state.n_max))


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
    return _conditional_fidelities(state, *_target_vectors(params, d, state.t, state.n_max))


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
    step = _interaction_rhs(params, n_max)
    m = np.arange(n_max + 1)
    # record weights on p = |y|^2 and on the products conj(y_k) y_{k+1}; the
    # frame phases e^{-i m omega_m t} drop out of |y|^2 and leave one global
    # phase e^{-i omega_m t} on the ladder products (none across A_{n_max}, B_0)
    n_weight = np.concatenate([m, m]).astype(float)
    top = np.array([n_max - 1, n_max, 2 * n_max, 2 * n_max + 1])
    sq = np.sqrt(np.arange(1.0, n_max + 1))
    x_weight = np.concatenate([sq, [0.0], sq])

    record = TrajectoryRecord(CLOSED_COLUMNS)
    drift_max = 0.0
    tail_max = 0.0
    marked = None
    states: list[SinglePhotonState] = []

    def lab_state(t, y) -> SinglePhotonState:
        ph = np.exp(-1j * m * params.omega_m * t)
        return SinglePhotonState(y[: n_max + 1] * ph, y[n_max + 1 :] * ph, t)

    def emit(t, y):
        nonlocal drift_max, tail_max, marked
        p = np.abs(y) ** 2
        n_l = float(p[: n_max + 1].sum())
        n_r = float(p[n_max + 1 :].sum())
        drift = abs(n_l + n_r - norm0)
        drift_max = max(drift_max, drift)
        tail = float(p[top].sum())
        tail_max = max(tail_max, tail)
        if drift > NORM_ABORT:
            raise SolverAbort(
                f"norm drift {drift:.3e} at t={t:g} exceeds {NORM_ABORT:g}; reduce dt "
                f"(current {cfg.dt:g})"
            )
        if tail > TAIL_ABORT:
            raise SolverAbort(
                f"phonon tail population {tail:.3e} at t={t:g}; increase n_max "
                f"(current {n_max})"
            )
        x = 2.0 * (np.vdot(y[:-1] * x_weight, y[1:]) * cmath.exp(-1j * params.omega_m * t)).real
        row = dict(t=t, nL=n_l, nR=n_r, x_over_x0=x, nb=float(n_weight @ p), P_L=n_l, P_R=n_r)
        is_mark = cfg.t_mark is not None and abs(t - cfg.t_mark) < 1e-12
        if compute_fidelities or keep_states or is_mark:
            st = lab_state(t, y)
            if compute_fidelities:
                vl, vr = _target_vectors(params, d, t, n_max)
                row["F"] = _total_fidelity(st, vl, vr)
                row["F_L"], row["F_R"] = _conditional_fidelities(st, vl, vr)
            if keep_states:
                states.append(st)
            if is_mark:
                marked = st
        record.append(**row)

    y = np.concatenate([initial.a, initial.b])
    y_next = np.empty_like(y)
    emit(0.0, y)

    bounds = [0.0]
    if cfg.t_mark is not None and cfg.t_mark < cfg.t_end:
        bounds.append(cfg.t_mark)
    bounds.append(cfg.t_end)

    # No BLAS call is larger than one 2d x 2d product: OpenBLAS runs larger
    # products on all cores for no wall-time gain at this size.
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        n_steps, dt = _segment_steps(cfg.dt, t0, t1)
        for c0 in range(0, n_steps, _CHUNK):
            ts = t0 + np.arange(c0, min(c0 + _CHUNK, n_steps)) * dt
            for i, coef in enumerate(_stage_coefficients(params, n_max, ts, dt), start=c0):
                y, y_next = step(coef, y, y_next), y
                if (i + 1) % cfg.record_stride == 0 or i + 1 == n_steps:
                    emit(t0 + (i + 1) * dt if i + 1 < n_steps else t1, y)

    final = lab_state(cfg.t_end, y)
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
