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
phi = U_h^dag psi of model.hopping_unitary, which removes the modulated
hopping xi omega_0 cos(omega_0 t)(|L><R| + h.c.), the largest term (about 15
at fig2).  That leaves the generator

    d phi/dt = i g0 |r'><r'| (x) X(t) phi,
    |r'> = U_h^dag |R>,  X(t) = e^{-i omega_m t} b + e^{i omega_m t} b^dag,

which varies on the slow coupling scales.  The cavity frequency omega_c
contributes only a global phase and is gauged to zero inside the solver.

The generator is rank-1 in photon space, so each of a step's s stages
(_TABLEAU, RK4) is r'_k (x) x_k with a phonon vector x_k of length
d = n_max + 1, and a step works on d-element operands.  The state
y = [phi_L; phi_R] and the stages x_1..x_s are the rows of one (s + 2, d)
buffer.  Both solvers step over one stream, _stage_stream: per chunk of
_CHUNK steps, a segment's stage times and their rows <R|U_h(t_k)>, built
when the chunk is reached, so neither solver holds more of a segment than
one chunk.  From a chunk this solver builds a stage table, the stage
matrices and the varying entries of the photon block of projections and
combine weights; one store per step writes a step's row into the kernel's
memory, and the step is then s projections, s d x d products and one
combine into the other buffer.  The tables' rows are chained into one
stream; between two records the steps run over an islice of it.

At each record only the guards run (norm drift and truncation tail) and the
frame state is kept; the record columns are computed once after the solve,
over the stack of kept frame states.  The norm, the tail, the phonon number
and <x> are traces over the photon pair, unchanged by either frame (<x> up
to one global phase).  nL = P_L, nR = P_R and the fidelities come from
_detection_columns, shared with the open solver, with the targets of all
record times taken into the frame at once.  A lab-frame state is built
only for the marked state and the final state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fock import coherent_coeffs, coherent_cutoff
from .fock import tail_population  # unused here; perfbench/spans.py wraps this module-level name
from .model import DerivedModulation, SystemParams, beta_of_t, derive, hopping_unitary, mu_of_t, target_states
from .trajectory import TrajectoryRecord

__all__ = [
    "SinglePhotonState",
    "SolverConfig",
    "SolverAbort",
    "Run",
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
# invariants.truncation_estimate is tail_max times this: at each preset's
# default cutoff a closed solve's worst record-cell error against n_max + 20
# measured 0.2 to 5.4 times its tail_max
TAIL_TO_ERROR = 6.0


class SolverAbort(RuntimeError):
    """Raised when a conservation or truncation guard trips mid-run."""


class _Guards:
    """The invariants a solve guards, keyed by their manifest names.

    Each entry is (label, bound, sign, advice): sign +1 makes the bound a
    ceiling, -1 a floor.  check(t, **values) keeps each invariant's worst
    value, from the first record on, in worst, and raises SolverAbort at the
    first value past its bound or not a number.
    """

    def __init__(self, **limits):
        self.limits = limits
        self.worst: dict[str, float] = {}

    def check(self, t: float, **values: float):
        for name, value in values.items():
            label, bound, sign, advice = self.limits[name]
            if name not in self.worst or sign * value > sign * self.worst[name]:
                self.worst[name] = value
            if not sign * value <= sign * bound:
                side = "exceeds" if sign > 0 else "below"
                raise SolverAbort(f"{label} {value:.3e} at t={t:g} {side} {bound:g}; {advice}")


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


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step configuration of both solvers, which step with _TABLEAU (RK4).

    The step must resolve the fastest retained oscillation: dt <= T/40 with
    T = 2 pi / max(omega_m, omega_0 (2 n0 + 2)).  t_mark forces a step and a
    record to land exactly on the detection time.
    """

    dt: float
    t_end: float
    record_stride: int = 1
    t_mark: float | None = None

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 < self.t_end < math.inf:
            raise ValueError("t_end must be positive and finite")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.t_mark is not None and not 0.0 < self.t_mark <= self.t_end:
            raise ValueError("t_mark must lie in (0, t_end]")

    def validate(self, params: SystemParams):
        limit = default_dt(params, 40)
        if self.dt > limit * (1 + 1e-12):
            raise ValueError(
                f"dt={self.dt:g} too coarse: the fastest retained oscillation needs dt <= {limit:g}"
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


# The phonon cutoff's error target, and the constants default_n_max fits to
# it: TAIL_BUDGET is the population the top two levels of each displaced
# thermal state may hold.
TRUNCATION_TARGET = 2e-11
TAIL_BUDGET = 7.5e-11
_NON_RWA = 1.1
_FLIP_WEIGHT = 2e-4
# The rule at a time reached mid-run: _EXCURSION g0/omega_m stands in for the
# cutoff's floor of 20, and the open solver steps CUTOFF_LEAD levels above it.
_EXCURSION = 2.0
CUTOFF_LEAD = 2
# The largest cutoff a run takes, default or given; figS4's delta/g = 0.5
# resolves 55.
MAX_N_MAX = 500


def default_n_max(
    d: DerivedModulation, params: SystemParams | None = None, t_end: float = 0.0, reached: bool = False
) -> int:
    """The phonon cutoff both solvers default to.  Pass an open run's params
    and t_end; a closed run has no phonon bath, and d alone sets its cutoff.

    Target: every record column within TRUNCATION_TARGET = 2e-11 of the same
    solve at a much larger cutoff, a tenth of the default RK4 step error
    (default_dt).  F_L and F_R divide their numerators' error by P_L and P_R,
    so at records where a sector holds almost nothing they can miss it: an
    open fig2 run from initial = left reads 5e-11 where P_R = 3e-6.

    The cutoff is the larger fock.coherent_cutoff of two displaced thermal
    states, both with the occupation the bath adds,
    n_T = n_th (1 - exp(-gamma_m t_end)):
    - the cat, at 1.1 |beta|_max: at omega_m = 20 the non-RWA terms widen the
      Poisson tail of the RWA amplitude |beta|_max as a 10% larger one would;
    - on open runs, the weight W = 2e-4 gamma_m (2 n_th + 1) tau, with
      tau = (1 - exp(-gamma_c t_end))/gamma_c the photon's mean presence,
      that phonon jumps in the photon's presence move onto the opposite
      branch's loop.  By t_end it reaches
      R = |beta|_max max(1, 1 - cos(min(delta t_end, 2 pi)/2)): |beta|_max up
      to t_d = pi/delta, 2 |beta|_max at 2 pi/delta.  Its budget is
      TAIL_BUDGET / W.
    The amplitude factor and the budget are fitted to truncation errors
    measured at omega_m = 20, 40 and 100 (closed) and at omega_m = 20,
    gamma_c = 0.2 and t_end up to 2 pi/delta (open); W's coefficient is twice
    its fit, which covers gamma_c = 0.05 too.  Past 2 pi/delta a hot bath
    widens the conditional states' tail faster than this: gamma_m = 1e-3,
    n_th = 10 to 3 pi/delta needs 57 levels, and the rule gives 55.

    With reached, the same rule gives the cutoff an open run needs by the
    time t_end, from the displacement it has reached then
    (Bose, Jacobs & Knight, PRA 59, 3204 (1999)): the cat term takes
    |beta|_max s with s = sin(min(|delta| t_end, pi)/2) in place of
    |beta|_max, and R becomes |beta|_max max(s, 1 - cos(min(|delta| t_end,
    2 pi)/2)), which is the R above from t_d on.  The floor of 20 gives way
    to a margin for the non-RWA excursion: each amplitude is 1.1 times its
    reach plus 2 g0/omega_m.  evolve_open steps on this plus CUTOFF_LEAD
    levels, up to the run's cutoff: with no lead F_L at t_d was 1.0e-10 off
    a fixed-cutoff solve, with one level 4.2e-11 at 2 pi/delta.  At delta = 0
    s is 1.

    At |beta|_max = 2 the rule gives 27 on closed runs and on open runs at
    fig2's rates up to t_d, and 40 for fig2 to 2 pi/delta.  At delta = 0
    |beta|_max is unbounded: 0 stands in when g = 0 (nothing is driven), 4
    otherwise.  Raises ValueError when no cutoff up to MAX_N_MAX meets the
    budget.
    """
    beta = d.beta_max if math.isfinite(d.beta_max) else (0.0 if d.g == 0.0 else 4.0)
    share, margin, floor = 1.0, 0.0, 20
    if reached:
        share = math.sin(min(abs(d.delta) * t_end, math.pi) / 2.0) if d.delta else 1.0
        margin, floor = _EXCURSION * params.g0 / params.omega_m, 0
    n_thermal, weight = 0.0, 0.0
    if params is not None:
        n_thermal = params.n_th * -math.expm1(-params.gamma_m * t_end)
        tau = -math.expm1(-params.gamma_c * t_end) / params.gamma_c if params.gamma_c else t_end
        weight = _FLIP_WEIGHT * params.gamma_m * (2.0 * params.n_th + 1.0) * tau
    n_max = coherent_cutoff(_NON_RWA * beta * share + margin, n_thermal, TAIL_BUDGET, MAX_N_MAX, floor)
    if weight > 0.0:
        reach = beta * max(share, 1.0 - math.cos(min(abs(d.delta) * t_end, 2.0 * math.pi) / 2.0))
        budget = TAIL_BUDGET / weight
        n_max = max(n_max, coherent_cutoff(_NON_RWA * reach + margin, n_thermal, budget, MAX_N_MAX, floor))
    return n_max


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


# The classical RK4 as the Butcher tableau (c, A, b) both solvers step with
# (Hairer, Norsett & Wanner, Solving ODEs I, section II.1): stage k of a step h
# from t is f_k = f(t + c_k h, y + h sum_j A_kj f_j), and the step returns
# y + h sum_k b_k f_k.  A is strictly lower-triangular.  METHOD names it in
# every manifest's solver block.
METHOD = "rk4"
_TABLEAU = (
    np.array([0.0, 0.5, 0.5, 1.0]),
    np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]),
    np.array([1.0, 2.0, 2.0, 1.0]) / 6.0,
)

# Steps per chunk of _stage_stream, which bounds what either solver holds of a
# segment's grid, however long the segment: at the default n_max = 27 a closed
# chunk's RK4 stage table takes 256 * 235 * 16 B = 0.96 MB, and an open
# chunk's stage times and rows as Python lists about 0.21 MB.  A longer chunk
# means fewer numpy calls per solve.
_CHUNK = 256


def _stage_stream(params: SystemParams, t0: float, h: float, n: int):
    """The stage times and hopping rows of n steps of size h from t0, which
    both solvers step over: per chunk of up to _CHUNK steps it yields t, the
    stage times t0 + i h + c_k h of shape (steps, s), and r = <R|U_h(t)>, the
    R row of model.hopping_unitary, of shape (2, steps, s).  c is read from
    _TABLEAU on each call."""
    c = _TABLEAU[0]
    for i in range(0, n, _CHUNK):
        t = (t0 + np.arange(i, min(i + _CHUNK, n)) * h)[:, None] + h * c
        yield t, hopping_unitary(params, t)[1]


def _kernel_layout(d: int) -> np.ndarray:
    """Flat indices of a stage-table row's entries in the kernel's memory:
    the s stage matrices' lowering (m, m+1) and raising (m+1, m) entries,
    stage by stage, then the entries of the (s + 2) x (s + 2) photon block
    that follows the matrices which vary from step to step: the projection
    rows' columns y_L and y_R, their entries at the non-zero A_kj and the
    combine rows' stage columns.  The other entries are constant (the
    combine rows' 2 x 2 identity, zeros) and _interaction_rhs writes them
    once."""
    _, a, _ = _TABLEAU
    s, w = len(a), len(a) + 2
    m = np.arange(d - 1)
    ladder = np.concatenate([m * d + m + 1, (m + 1) * d + m])
    stages = (ladder + d * d * np.arange(s)[:, None]).reshape(-1)
    i, j = np.nonzero(a)
    rows = np.arange(w)[:, None] * w
    block = [(rows[:s] + [0, 1]).reshape(-1), i * w + j + 2, (rows[s:] + 2 + np.arange(s)).reshape(-1)]
    return np.concatenate([stages, *(s * d * d + x for x in block)])


def _stage_table(params: SystemParams, n_max: int, h: float, t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Stage-table rows, in _kernel_layout order, for a _stage_stream chunk
    (t, r) of steps of size h.

    For a step whose stage times t_k are a row of t, a row holds the stage
    matrices h i g0 X(t_k) (lowering entries i g0 sqrt(m+1) e^{-i omega_m t_k} h,
    raising entries their e^{+i omega_m t_k} partners) and the varying
    entries of the photon block over the buffer rows [y_L, y_R, x_1..x_s]:
    its row k projects u_k = <r'_k|y + sum_j A_kj <r'_k|r'_j> x_j, with
    <r'_k| = <R|U_h(t_k) from r, and its last two rows combine
    y + sum_k b_k |r'_k> (x) x_k.
    """
    _, a, b = _TABLEAU
    (steps, s), d = t.shape, n_max + 1
    i, j = np.nonzero(a)
    k, p = 2 * s * (d - 1), 2 * s + i.size
    out = np.empty((steps, k + p + 2 * s), dtype=complex)
    low = np.exp(-1j * params.omega_m * t) * (1j * params.g0 * h)
    rungs = np.stack([low, -low.conj()], axis=2)[..., None]
    np.multiply(rungs, np.sqrt(np.arange(1.0, d)), out=out[:, :k].reshape(steps, s, 2, d - 1))
    projections = out[:, k : k + 2 * s].reshape(steps, s, 2)
    projections[..., 0], projections[..., 1] = r  # <r'_k|
    # the overlaps <r'_k|r'_j> = <R|U_h(t_k) U_h(t_j)^dag|R> = cos((mu_k - mu_j)/2)
    half = mu_of_t(params, t) / 2.0
    out[:, k + 2 * s : k + p] = a[i, j] * np.cos(half[:, i] - half[:, j])
    out[:, k + p :].reshape(steps, 2, s)[...] = np.moveaxis(r.conj(), 0, 1) * b
    return out


def _row_views(buf: np.ndarray) -> tuple:
    """The views of an (s + 2, d) step buffer [y_L; y_R; x_1..x_s] that the
    kernel reads and writes: the state rows, the whole buffer and the stage
    rows x_1..x_s."""
    return buf[:2], buf, list(buf[2:])


def _interaction_rhs(n_max: int):
    """Step kernel step(row, a, b) for the hopping-frame amplitudes.

    a and b are the _row_views of two (s + 2, d) buffers, which must hold
    finite numbers (a projection's zero weights still multiply the rows of
    later stages); the state y = [phi_L; phi_R] is their first two rows.  h
    times stage k's derivative is r'_k (x) x_k with x_k = h i g0 X(t_k) u_k.
    One store writes a _stage_table row into the kernel's memory; then each
    stage is a projection u_k = (photon block row k) . a and a d x d product
    into a's row x_k, and the block's last two rows combine a into b's first
    two.  b is returned.  The block's constant entries are written here,
    once.  The benchmark tracer (perfbench/spans.py) wraps this factory by
    its name.
    """
    s, d = len(_TABLEAU[0]), n_max + 1
    mem = np.zeros(s * d * d + (s + 2) ** 2, dtype=complex)
    block = mem[s * d * d :].reshape(s + 2, s + 2)
    block[s:, :2] = np.eye(2)
    stages = [(p.dot, m.dot) for p, m in zip(block[:s], mem[: s * d * d].reshape(s, d, d))]
    combine = block[s:].dot
    idx = _kernel_layout(d)
    u = np.empty(d, dtype=complex)

    # bound ndarray.dot methods with out= are the cheapest product call: at these
    # sizes every call is overhead-bound, and np.dot's dispatch costs more than the product
    def step(row: np.ndarray, a: tuple, b: tuple) -> tuple:
        mem[idx] = row
        _, buf, xs = a
        for (project, multiply), x in zip(stages, xs):
            multiply(project(buf, out=u), out=x)
        combine(buf, out=b[0])
        return b

    return step


def _segment_steps(dt_target: float, t0: float, t1: float) -> tuple[int, float]:
    span = t1 - t0
    n = max(1, math.ceil(span / dt_target - 1e-12))
    return n, span / n


def integrate(y: np.ndarray, cfg: SolverConfig, advance, emit, lab_state):
    """Fixed-step driver over [0, cfg.t_end]; returns the lab-frame (final, marked).

    The run is split at t_mark so a step lands on it.  A segment of n steps
    of size dt from t0 records every record_stride-th state and its last,
    whose time is the segment end itself: advance(y, t0, dt, gaps) is a
    generator that runs gaps[0] steps, yields the state, runs gaps[1] steps,
    yields, and so on, with gaps the step counts between the segment's
    records (summing to n).  emit(t, y) takes the initial state and each
    yielded one.  lab_state(t, y) builds a lab-frame state: for the record
    at t_mark (marked, else None) and for the last state (final).
    """
    bounds = [0.0]
    if cfg.t_mark is not None and cfg.t_mark < cfg.t_end:
        bounds.append(cfg.t_mark)
    bounds.append(cfg.t_end)
    stride = cfg.record_stride

    def records(y):
        yield 0.0, y
        for t0, t1 in zip(bounds[:-1], bounds[1:]):
            n, dt = _segment_steps(cfg.dt, t0, t1)
            gaps = [stride] * (n // stride) + ([n % stride] if n % stride else [])
            for i, y in zip(itertools.accumulate(gaps), advance(y, t0, dt, gaps)):
                yield (t0 + i * dt if i < n else t1), y

    marked = None
    for t, y in records(y):
        emit(t, y)
        if cfg.t_mark is not None and abs(t - cfg.t_mark) < 1e-12:
            marked = lab_state(t, y)
    return lab_state(cfg.t_end, y), marked


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


def _frame_targets(
    params: SystemParams, d: DerivedModulation, t, n_max: int, u_h: np.ndarray
) -> np.ndarray:
    """The targets in the solvers' frame at a time or an array of times t,
    with u_h = hopping_unitary(params, t): w_s = U_h^dag |s> (x) e^{i omega_m t n} v_s
    for s = L, R, in an array of shape t.shape + (2, 2d).  For a frame state
    phi with lab state psi, <v_s|psi_s> = <w_s|phi>.  evolve_closed builds
    the targets of all its record times in one call, evolve_open those of
    one record per call.

    v_L is target_states' phi_L = w_+ |beta> + w_- |-beta>, with the weights
    (w_+, w_-) row 0 of u_h and the coherent coefficients of every beta(t)
    from one coherent_coeffs call; v_R is v_L with its odd entries negated
    (_target_vectors).  w_+ is real and w_- imaginary, so the cat norm has
    no overlap term.
    """
    t = np.asarray(t, dtype=float)
    beta = [beta_of_t(d, params.omega_m, s) for s in t.reshape(-1).tolist()]
    n = np.arange(n_max + 1)
    c = coherent_coeffs(np.reshape(beta, t.shape), n_max)

    def flip(v):  # the expansion of -beta from that of beta
        out = v.copy()
        out[..., 1::2] = -v[..., 1::2]
        return out

    w_plus, w_minus = u_h[0][..., None]
    v_l = (w_plus * c + w_minus * flip(c)) / np.sqrt(abs(w_plus) ** 2 + abs(w_minus) ** 2)
    x = np.stack([v_l, flip(v_l)], axis=-2) * np.exp(1j * params.omega_m * t[..., None, None] * n)
    u = np.moveaxis(u_h, (0, 1), (-2, -1))
    return (u.conj()[..., None] * x[..., None, :]).reshape(t.shape + (2, 2 * n_max + 2))


def _detection_columns(u_h: np.ndarray, tau: np.ndarray, num: np.ndarray | None) -> dict:
    """P_L, P_R and, given num, F_L, F_R of R records, for both solvers: u_h
    (R, 2, 2) holds the records' hopping unitaries, tau (R, 2, 2) the 2 x 2
    photon traces of their frame states and num (R, 2) the numerators
    <w_s|phi|w_s> with the _frame_targets w_s.  P_s is the diagonal of
    U_h tau U_h^dag and F_s = num_s / P_s, NaN where P_s <= P_FLOOR."""
    p = (u_h @ tau @ u_h.conj().swapaxes(1, 2)).diagonal(axis1=1, axis2=2).real
    columns = {"P_L": p[:, 0], "P_R": p[:, 1]}
    if num is not None:
        f = np.divide(num, p, out=np.full(p.shape, math.nan), where=p > P_FLOOR)
        columns.update(F_L=f[:, 0], F_R=f[:, 1])
    return columns


def fidelity_total(state: SinglePhotonState, params: SystemParams, d: DerivedModulation) -> float:
    """Overlap fidelity |<Psi(t)|psi_RWA(t)>|^2 against the analytic entangled state.

    Defined for the Bell-photon initial condition, for which the analytic
    state is (1/sqrt2)[|10> phi_L + |01> phi_R] up to a global phase.
    """
    vl, vr = _target_vectors(params, d, state.t, state.n_max)
    amp = (np.vdot(state.a, vl) + np.vdot(state.b, vr)) / math.sqrt(2.0)
    return float(abs(amp) ** 2)


def conditional_states(state: SinglePhotonState):
    """Collapsed mechanical states and probabilities for left/right detection;
    None for a sector whose probability is at most P_FLOOR."""
    p_l = float(np.sum(np.abs(state.a) ** 2))
    p_r = float(np.sum(np.abs(state.b) ** 2))
    psi_l = state.a / math.sqrt(p_l) if p_l > P_FLOOR else None
    psi_r = state.b / math.sqrt(p_r) if p_r > P_FLOOR else None
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
class Run:
    """A solve: its records, the lab-frame final and marked (at t_mark) states,
    the worst value of each guarded invariant by manifest name and the
    cutoffs it stepped on, as (t, n_max) from t on: one entry for a fixed
    cutoff."""

    record: TrajectoryRecord
    final: object
    marked: object | None
    invariants: dict[str, float]
    cutoff_schedule: list[tuple[float, int]]


def evolve_closed(
    initial: SinglePhotonState,
    params: SystemParams,
    cfg: SolverConfig,
    compute_fidelities: bool | None = None,
) -> Run:
    """Propagate the amplitude equations and record observables.

    Fidelity columns are filled only for the Bell-photon initial state (the
    analytic target exists for that preparation); pass compute_fidelities to
    override the auto-detection.  Aborts when the norm drifts by more than
    1e-6 or the top-two-level phonon population exceeds 1e-6; the Run's
    invariants hold the worst norm_drift and tail_max, and the
    truncation_estimate TAIL_TO_ERROR * tail_max.
    """
    cfg.validate(params)
    norm0 = initial.norm_sq()
    if not abs(norm0 - 1.0) <= 1e-9:  # a NaN amplitude fails this too
        raise ValueError("initial state must be normalized")
    if compute_fidelities is None:
        open_l = abs(initial.a[0] - 1 / math.sqrt(2)) < 1e-12 and np.all(initial.a[1:] == 0)
        open_r = abs(initial.b[0] - 1 / math.sqrt(2)) < 1e-12 and np.all(initial.b[1:] == 0)
        compute_fidelities = bool(open_l and open_r)

    d = derive(params)
    n_max = initial.n_max
    step = _interaction_rhs(n_max)
    m = np.arange(n_max + 1)
    # record weights on the flattened state [phi_L; phi_R]: the norm, the tail,
    # nb and <x> are traces over the photon pair, which neither U_h nor the
    # phonon phases change, except one global phase e^{-i omega_m t} on the
    # ladder products conj(y_k) y_{k+1} (none across phi_L[n_max], phi_R[0])
    n_weight = np.concatenate([m, m]).astype(float)
    top = np.array([n_max - 1, n_max, 2 * n_max, 2 * n_max + 1])
    sq = np.sqrt(np.arange(1.0, n_max + 1))
    x_weight = np.concatenate([sq, [0.0], sq])

    guards = _Guards(
        norm_drift=("norm drift", NORM_ABORT, 1, f"reduce dt (current {cfg.dt:g})"),
        tail_max=("phonon tail population", TAIL_ABORT, 1, f"increase n_max (current {n_max})"),
    )
    times, frames = [], []

    def lab_state(t, y) -> SinglePhotonState:
        # psi = U_h phi, then the phonon phases e^{-i m omega_m t}
        psi = (hopping_unitary(params, t) @ y) * np.exp(-1j * m * params.omega_m * t)
        return SinglePhotonState(psi[0], psi[1], t)

    def emit(t, y):
        # only the guards run per record; the columns are computed after the solve
        p = np.abs(y.reshape(-1)) ** 2
        guards.check(t, norm_drift=abs(float(p.sum()) - norm0), tail_max=float(p[top].sum()))
        times.append(t)
        frames.append(y.copy())

    # No BLAS call is larger than one d x d product: OpenBLAS runs larger
    # products on all cores for no wall-time gain at this size.
    def advance(y, t0, dt, gaps):
        bufs = np.zeros((2, len(_TABLEAU[0]) + 2, n_max + 1), dtype=complex)
        bufs[0, :2] = y
        a, b = _row_views(bufs[0]), _row_views(bufs[1])
        chunks = _stage_stream(params, t0, dt, sum(gaps))
        rows = itertools.chain.from_iterable(_stage_table(params, n_max, dt, *chunk) for chunk in chunks)
        for gap in gaps:
            for row in itertools.islice(rows, gap):
                a, b = step(row, a, b), a
            yield a[0]

    # at t = 0 the hopping and phonon frames coincide with the lab frame
    y = np.stack([initial.a, initial.b])
    final, marked = integrate(y, cfg, advance, emit, lab_state)

    # every column at once, over the (R, 2, d) stack of the records' frame states
    ts, ys = np.array(times), np.stack(frames)
    flat = ys.reshape(ts.size, -1)
    u_h = hopping_unitary(params, ts)
    tau = ys @ ys.conj().swapaxes(1, 2)  # tau = y y^dag, the 2 x 2 photon trace of phi
    ladder = np.sum((flat[:, :-1] * x_weight).conj() * flat[:, 1:], axis=1)
    x = 2.0 * (ladder * np.exp(-1j * params.omega_m * ts)).real
    columns = dict(t=ts, x_over_x0=x, nb=(np.abs(flat) ** 2) @ n_weight)
    num = None
    if compute_fidelities:
        amps = np.einsum("rsk,rk->sr", _frame_targets(params, d, ts, n_max, u_h).conj(), flat)
        columns["F"] = abs(amps[0] + amps[1]) ** 2 / 2.0
        num = abs(amps.T) ** 2
    columns.update(_detection_columns(np.moveaxis(u_h, -1, 0), tau, num))
    record = TrajectoryRecord(CLOSED_COLUMNS, nL=columns["P_L"], nR=columns["P_R"], **columns)
    invariants = dict(guards.worst, truncation_estimate=TAIL_TO_ERROR * guards.worst["tail_max"])
    return Run(record, final, marked, invariants, [(0.0, n_max)])
