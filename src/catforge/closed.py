"""Closed-system dynamics in the single-photon subspace.

The state is |Psi(t)> = sum_m [A_m |1>_L |0>_R + B_m |0>_L |1>_R] |m>_M and
evolves under the full time-dependent Hamiltonian.  The probability
amplitudes obey

    dA_m/dt = -i(omega_c + m omega_m) A_m + i xi omega_0 cos(omega_0 t) B_m
    dB_m/dt = -i(omega_c + m omega_m) B_m + i xi omega_0 cos(omega_0 t) A_m
              + i g0 [sqrt(m+1) B_{m+1} + sqrt(m) B_{m-1}]

with hard truncation at m = n_max.  Propagation is fixed-step RK4 in a frame
that removes the two fastest terms exactly: the interaction picture of the
phonon energy (amplitudes A_m e^{i m omega_m t}) and the hopping frame
phi = U_h^dag psi with U_h(t) = exp(i xi sin(omega_0 t) sigma_x) on the
photon pair.  The modulated hopping xi omega_0 cos(omega_0 t)(|L><R| + h.c.),
the largest term (about 15 at fig2), commutes with itself at all times, so
the frame removes it and leaves the generator

    d phi/dt = i g0 |r'><r'| (x) X(t) phi,
    |r'> = U_h^dag |R> = (-i sin alpha, cos alpha),  alpha = xi sin(omega_0 t),
    X(t) = e^{-i omega_m t} b + e^{i omega_m t} b^dag,

which varies on the slow coupling scales.  The cavity frequency omega_c
contributes only a global phase and is gauged to zero inside the solver.

The generator is rank-1 in photon space, so each RK4 stage is r'_k (x) x_k
with a phonon vector x_k of length d = n_max + 1, and a step works on
d-element operands.  The state y = [phi_L; phi_R] and the stages x1..x4 are
the rows of one (6, d) buffer.  The stage matrices, projections and combine
weights are evaluated for a chunk of steps at a time, already scaled by each
RK4 stage's step fraction; one store per step writes a step's row into the
kernel's memory, and the step is then four projections, four d x d products
and one combine into the other buffer: ten numpy calls.  Records are read
off the frame state: the norm, the truncation tail, the phonon number and
<x> are traces over the photon pair, unchanged by either frame (<x> up to one
global phase); nL and nR rotate the 2 x 2 photon trace, and the fidelities
take the targets into the frame.  A lab-frame state is built only for kept
states, the marked state and the final state.
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
    "integrate",
    "evolve_closed",
    "observables",
    "fidelity_total",
    "conditional_states",
    "fidelity_conditional",
]

CLOSED_COLUMNS = ("t", "nL", "nR", "x_over_x0", "nb", "P_L", "P_R", "F", "F_L", "F_R")

NORM_ABORT = 1e-6
P_FLOOR = 1e-12
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


def default_dt(params: SystemParams, points_per_period: int = 128) -> float:
    """Step size resolving the fastest retained oscillation.

    Both solvers step in the hopping frame, where the modulated hopping is
    removed exactly, and both defaults are comfortably past the 40-point
    resolution floor.  Closed runs take 128 points per period (the default):
    a Bell solve to the detection time is within 2.5e-10 (omega_m = 20) and
    5e-11 (omega_m = 100) of a 2048-point one, and the norm drift stays far
    below the conservation guard.  Open runs take 64 (the CLI passes it),
    which puts a fig2 solve to t = 2 within about 2e-10 of a 1024-point one.
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


# Steps whose stage tables are built together.  A step's row holds the four
# stage matrices' 8 (d - 1) ladder entries and 18 photon coefficients, so at
# n_max = 22 a chunk's table takes 128 * 194 * 16 B = 0.40 MB.
_CHUNK = 128

# RK4 stage times and step fractions, in units of the step h.  With the stages
# pre-scaled to a1 = h/2 k1, a2 = h/2 k2, a3 = h k3 and a4 = h/6 k4, the update
# h/6 (k1 + 2 k2 + 2 k3 + k4) is _RK4_WEIGHTS . [a1; a2; a3; a4].
_STAGE_TIMES = np.array([0.0, 0.5, 0.5, 1.0])
_STAGE_SCALES = np.array([1 / 2, 1 / 2, 1.0, 1 / 6])
_RK4_WEIGHTS = np.array([1 / 3, 2 / 3, 1 / 3, 1.0])


def _hopping_angle(params: SystemParams, t):
    """alpha(t) = xi sin(omega_0 t), with U_h(t) = exp(i alpha sigma_x)."""
    return params.xi * np.sin(params.omega_0 * t)


def _kernel_layout(d: int) -> np.ndarray:
    """Flat indices of a stage-table row's entries in the kernel's memory.

    The memory holds the four d x d stage matrices, the projection rows
    p1..p4 (lengths 2..5, over the buffer rows y_L, y_R, x1, x2, x3) and the
    2 x 6 combine matrix.  A row fills, stage by stage, the lowering (m, m+1)
    and raising (m+1, m) entries; then the L entries of p1..p4, their R
    entries, the overlaps (last entries of p2 and p4), and the stage columns
    of the combine's L row and R row.  The other entries are constant zeros
    and ones.
    """
    m = np.arange(d - 1)
    ladder = np.concatenate([m * d + m + 1, (m + 1) * d + m])
    base = 4 * d * d
    return np.concatenate([
        (ladder + d * d * np.arange(4)[:, None]).reshape(-1),
        base + np.array([0, 2, 5, 9, 1, 3, 6, 10, 4, 13]),
        base + 14 + np.array([2, 3, 4, 5, 8, 9, 10, 11]),
    ])


def _stage_table(params: SystemParams, n_max: int, ts: np.ndarray, h: float) -> np.ndarray:
    """Stage-table rows, in _kernel_layout order, for RK4 steps of size h starting at ts.

    At the stage times t_k = t + c_k h, with alpha_k the hopping angle and
    |r'_k> = (-i sin alpha_k, cos alpha_k), a row holds: the stage matrices
    s_k h i g0 X(t_k) (lowering entries i g0 sqrt(m+1) e^{-i omega_m t_k},
    raising entries their e^{+i omega_m t_k} partners, times the step
    fraction s_k h); the projections <r'_k| = (i sin alpha_k, cos alpha_k)
    with the overlaps <r'_2|r'_1> = cos(alpha_2 - alpha_1) and
    <r'_4|r'_3> = cos(alpha_4 - alpha_3) (<r'_3|r'_2> = 1); and the combine
    columns w_k r'_k.  8 (d - 1) + 18 entries.
    """
    d = n_max + 1
    k = 8 * (d - 1)
    t = ts[:, None] + h * _STAGE_TIMES
    out = np.empty((ts.size, k + 18), dtype=complex)
    low = np.exp(-1j * params.omega_m * t) * (1j * params.g0 * h * _STAGE_SCALES)
    rungs = np.stack([low, -low.conj()], axis=2)[..., None]
    np.multiply(rungs, np.sqrt(np.arange(1.0, d)), out=out[:, :k].reshape(ts.size, 4, 2, d - 1))
    alpha = _hopping_angle(params, t)
    proj = out[:, k:]
    np.multiply(1j, np.sin(alpha), out=proj[:, 0:4])
    proj[:, 4:8] = np.cos(alpha)
    proj[:, 8:10] = np.cos(alpha[:, 1::2] - alpha[:, ::2])
    np.multiply(proj[:, 0:4], -_RK4_WEIGHTS, out=proj[:, 10:14])
    np.multiply(proj[:, 4:8], _RK4_WEIGHTS, out=proj[:, 14:18])
    return out


def _row_views(buf: np.ndarray) -> tuple:
    """The views of a (6, d) step buffer [y_L; y_R; x1; x2; x3; x4] that the
    kernel reads and writes: its leading 2, 3, 4, 5 and 6 rows, then x1..x4."""
    return (buf[:2], buf[:3], buf[:4], buf[:5], buf, buf[2], buf[3], buf[4], buf[5])


def _interaction_rhs(params: SystemParams, n_max: int):
    """RK4 step kernel step(row, a, b) for the hopping-frame amplitudes.

    a and b are the _row_views of two (6, d) buffers; the state y = [phi_L;
    phi_R] is their first two rows.  The generator i g0 |r'><r'| (x) X(t) is
    rank-1 in photon space, so stage k is r'_k (x) x_k with
    x_k = s_k h i g0 X(t_k) u_k and u_k = <r'_k|y + <r'_k|r'_{k-1}> x_{k-1}.
    One store writes a _stage_table row into the kernel's memory; then each
    stage is a projection u_k = p_k . [y; x1..x_{k-1}] and a d x d product into
    a's row x_k, and one (2 x 6) . (6 x d) combine writes
    y + sum_k w_k r'_k (x) x_k into b's first two rows.  b is returned.  The
    name and the params argument stay because the benchmark tracer
    (perfbench/spans.py) wraps this factory by them and counts the kernel's
    calls.
    """
    d = n_max + 1
    mem = np.zeros(4 * d * d + 26, dtype=complex)
    m1, m2, m3, m4 = mem[: 4 * d * d].reshape(4, d, d)
    p1, p2, p3, p4, comb = np.split(mem[4 * d * d :], [2, 5, 9, 14])
    comb = comb.reshape(2, 6)
    p3[3] = comb[0, 0] = comb[1, 1] = 1.0
    idx = _kernel_layout(d)
    u = np.empty(d, dtype=complex)

    # ndarray.dot(..., out=) is the cheapest product call: at these sizes every
    # call is overhead-bound, and np.dot's dispatch costs more than the product
    def step(row: np.ndarray, a: tuple, b: tuple) -> tuple:
        mem[idx] = row
        y2, y3, y4, y5, y6, x1, x2, x3, x4 = a
        p1.dot(y2, out=u)
        m1.dot(u, out=x1)
        p2.dot(y3, out=u)
        m2.dot(u, out=x2)
        p3.dot(y4, out=u)
        m3.dot(u, out=x3)
        p4.dot(y5, out=u)
        m4.dot(u, out=x4)
        comb.dot(y6, out=b[0])
        return b

    return step


def _segment_steps(dt_target: float, t0: float, t1: float) -> tuple[int, float]:
    span = t1 - t0
    n = max(1, math.ceil(span / dt_target - 1e-12))
    return n, span / n


def integrate(y: np.ndarray, cfg: SolverConfig, advance, emit) -> np.ndarray:
    """Fixed-step driver over [0, cfg.t_end]; returns the last state.

    The run is split at t_mark so a step lands on it.  advance(y, t0, dt, n)
    is a generator yielding the state after each of a segment's n steps of
    size dt from t0.  emit(t, y, is_mark) records the initial state, every
    record_stride-th state of a segment and the segment's last, whose time is
    the segment end itself; is_mark flags the record at t_mark.
    """
    emit(0.0, y, False)
    bounds = [0.0]
    if cfg.t_mark is not None and cfg.t_mark < cfg.t_end:
        bounds.append(cfg.t_mark)
    bounds.append(cfg.t_end)
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        n, dt = _segment_steps(cfg.dt, t0, t1)
        for i, y in enumerate(advance(y, t0, dt, n), start=1):
            if i % cfg.record_stride == 0 or i == n:
                t = t0 + i * dt if i < n else t1
                emit(t, y, cfg.t_mark is not None and abs(t - cfg.t_mark) < 1e-12)
    return y


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
    """Fock vectors of the cat-state targets phi_L, phi_R at time t.

    phi_R is phi_L with beta -> -beta, so its expansion is phi_L's with the
    odd entries negated: one expansion serves both.
    """
    v_l = target_states(params, d, t)[0].fock_vector(n_max)
    v_r = v_l.copy()
    v_r[1::2] = -v_l[1::2]
    return v_l, v_r


def fidelity_total(state: SinglePhotonState, params: SystemParams, d: DerivedModulation) -> float:
    """Overlap fidelity |<Psi(t)|psi_RWA(t)>|^2 against the analytic entangled state.

    Defined for the Bell-photon initial condition, for which the analytic
    state is (1/sqrt2)[|10> phi_L + |01> phi_R] up to a global phase.
    """
    vl, vr = _target_vectors(params, d, state.t, state.n_max)
    amp = (np.vdot(state.a, vl) + np.vdot(state.b, vr)) / math.sqrt(2.0)
    return float(abs(amp) ** 2)


def conditional_states(state: SinglePhotonState, p_floor: float = P_FLOOR):
    """Collapsed mechanical states and probabilities for left/right detection."""
    p_l = float(np.sum(np.abs(state.a) ** 2))
    p_r = float(np.sum(np.abs(state.b) ** 2))
    psi_l = state.a / math.sqrt(p_l) if p_l > p_floor else None
    psi_r = state.b / math.sqrt(p_r) if p_r > p_floor else None
    return psi_l, p_l, psi_r, p_r


def fidelity_conditional(
    state: SinglePhotonState, params: SystemParams, d: DerivedModulation
) -> tuple[float, float]:
    """Fidelities of the collapsed states against the cat-state targets; NaN
    for a sector whose probability is at most P_FLOOR."""
    vl, vr = _target_vectors(params, d, state.t, state.n_max)
    psi_l, _, psi_r, _ = conditional_states(state)
    f_l = abs(np.vdot(psi_l, vl)) ** 2 if psi_l is not None else math.nan
    f_r = abs(np.vdot(psi_r, vr)) ** 2 if psi_r is not None else math.nan
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
    step = _interaction_rhs(params, n_max)
    m = np.arange(n_max + 1)
    # record weights on the flattened state [phi_L; phi_R]: the norm, the tail,
    # nb and <x> are traces over the photon pair, which neither U_h nor the
    # phonon phases change, except one global phase e^{-i omega_m t} on the
    # ladder products conj(y_k) y_{k+1} (none across phi_L[n_max], phi_R[0])
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
        # psi = U_h phi, then the phonon phases e^{-i m omega_m t}
        alpha = _hopping_angle(params, t)
        c, s = math.cos(alpha), math.sin(alpha)
        ph = np.exp(-1j * m * params.omega_m * t)
        return SinglePhotonState((c * y[0] + 1j * s * y[1]) * ph, (1j * s * y[0] + c * y[1]) * ph, t)

    def emit(t, y, is_mark):
        nonlocal drift_max, tail_max, marked
        flat = y.reshape(-1)
        p = np.abs(flat) ** 2
        p_l = float(p[: n_max + 1].sum())
        p_r = float(p[n_max + 1 :].sum())
        drift = abs(p_l + p_r - norm0)
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
        # photon populations: U_h tau U_h^dag with tau the 2 x 2 phonon trace of phi
        alpha = _hopping_angle(params, t)
        c, s = math.cos(alpha), math.sin(alpha)
        mix = 2.0 * c * s * float(np.vdot(y[0], y[1]).imag)
        n_l = c * c * p_l + s * s * p_r - mix
        n_r = s * s * p_l + c * c * p_r + mix
        x = 2.0 * (np.vdot(flat[:-1] * x_weight, flat[1:]) * cmath.exp(-1j * params.omega_m * t)).real
        row = dict(t=t, nL=n_l, nR=n_r, x_over_x0=x, nb=float(n_weight @ p), P_L=n_l, P_R=n_r)
        if compute_fidelities:
            # <v_s|psi_s> with psi = P U_h phi, P the phonon phases: o[s, p] = <P^dag v_s|phi_p>
            w = np.stack(_target_vectors(params, d, t, n_max)) * np.exp(1j * params.omega_m * t * m)
            o = np.dot(w.conj(), y.T)
            amp_l = c * o[0, 0] + 1j * s * o[0, 1]
            amp_r = 1j * s * o[1, 0] + c * o[1, 1]
            row["F"] = abs(amp_l + amp_r) ** 2 / 2.0
            row["F_L"] = abs(amp_l) ** 2 / n_l if n_l > P_FLOOR else math.nan
            row["F_R"] = abs(amp_r) ** 2 / n_r if n_r > P_FLOOR else math.nan
        if keep_states or is_mark:
            st = lab_state(t, y)
            if keep_states:
                states.append(st)
            if is_mark:
                marked = st
        record.append(**row)

    # No BLAS call is larger than one d x d product: OpenBLAS runs larger
    # products on all cores for no wall-time gain at this size.
    def advance(y, t0, dt, n):
        bufs = np.empty((2, 6, n_max + 1), dtype=complex)
        bufs[0, :2] = y
        a, b = _row_views(bufs[0]), _row_views(bufs[1])
        for c0 in range(0, n, _CHUNK):
            ts = t0 + np.arange(c0, min(c0 + _CHUNK, n)) * dt
            for row in _stage_table(params, n_max, ts, dt):
                a, b = step(row, a, b), a
                yield a[0]

    # at t = 0 the hopping and phonon frames coincide with the lab frame
    y = integrate(np.stack([initial.a, initial.b]), cfg, advance, emit)
    return ClosedRun(
        record=record,
        final=lab_state(cfg.t_end, y),
        marked=marked,
        norm_drift=drift_max,
        tail_max=tail_max,
        states=states if keep_states else None,
    )
