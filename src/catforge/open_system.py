"""Lindblad master-equation evolution in the restricted photon space.

With a single photon initially loaded and vacuum optical baths, the cavity
state never leaves the span of |1>_L|0>_R, |0>_L|1>_R and |0>_L|0>_R.  The
density matrix therefore lives on three photon sectors tensored with the
truncated phonon ladder, and the master equation

    drho/dt = i[rho, H(t)] + gamma_c D[a_L] + gamma_c D[a_R]
              + gamma_m (n_th+1) D[b] + gamma_m n_th D[b^dag]

is applied through sector-block operators (photon loss maps the one-photon
sectors into the vacuum sector).  Photon loss only feeds one-photon
populations into the vacuum, so the one-photon/vacuum coherences start at
zero and are never generated: a SystemDensityMatrix holds, and the solver
evolves, only the one-photon block {L,R}x{L,R} and the vacuum block VxV, so
such a coherence cannot be represented.

Propagation is fixed-step RK4 in a frame that removes the two fastest terms
exactly.  Both blocks are in the phonon interaction picture, and the
one-photon block is also in the hopping frame phi = U_h^dag rho U_h of
model.hopping_unitary.  The modulated hopping it removes also commutes with
every dissipator (photon loss is a uniform damping plus a feed from the
photon partial trace, the phonon bath acts on the phonon alone), so the
frame changes nothing else; the vacuum block is untouched.  What remains
varies on the slow coupling scales: at the open default of 64 points per
period of the fastest retained oscillation (closed.default_dt) a fig2 solve
to t = 2 is within about 2e-10 of a 1024-point one.  The steps take
closed._TABLEAU's method over closed._stage_stream, the stream of stage
times and <R|U_h(t_k)> rows the closed solver steps over too, one chunk at
a time.  Records read the trace, the phonon number, the truncation tail
and the spectrum straight off the frame blocks, where they are unchanged;
P_L, P_R and the fidelities rotate a 2 x 2 trace and the target vectors;
only the marked and final states are rotated back to the lab frame.
omega_c multiplies only the dropped coherences, so it does not enter the
solver.

The phonon ladder's default cutoff is closed.default_n_max's with the
bath's terms: phonon jumps widen the tail as a run goes on, most of all past
t_d, so an open run's cutoff grows with gamma_m, n_th and t_end.  A step
costs about (n_max + 1)^2, and early on the state is a mixture of displaced
thermal states that have reached only |beta|_max sin(delta t/2), so a run at
the default cutoff steps on the levels it has reached: before each record
gap the solver takes the same rule at the gap's end time with the
displacement reached by then (default_n_max with reached), plus
closed.CUTOFF_LEAD levels, and zero-pads the state and rebuilds the
generator and the stage buffers when that is more than it steps on.  The
ladder grows up to the run's cutoff and never shrinks; the time grid, the
steps and the records are those of a fixed cutoff, records are read on the
ladder of the moment, and the marked and final states are padded to the
run's cutoff.  The run's cutoff_schedule lists (t, n_max) from t on.  A
cutoff other than the rule's, an initial state with weight above the phonon
ground level, and a run with grow = False (the CLI's for a given n_max) are
stepped on as they are, so the schedule never starts below the initial
state's own support.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import closed
from .closed import (
    P_FLOOR, TAIL_ABORT, Run, SolverConfig, _detection_columns, _frame_targets, _Guards, _stage_stream,
    initial_state, integrate,
)
from .model import SystemParams, derive, hopping_unitary
from .model import target_states  # unused here; perfbench/spans.py wraps this module-level name
from .trajectory import TrajectoryRecord

__all__ = [
    "PhotonSector",
    "SystemDensityMatrix",
    "initial_density",
    "evolve_open",
    "reduce_mechanical",
    "mean_phonon_number",
    "write_snapshot",
    "read_snapshot",
]

OPEN_COLUMNS = ("t", "P_L", "P_R", "P_V", "nb", "F_L", "F_R", "trace_err", "min_eig")

TRACE_ABORT = 1e-6
EIG_ABORT = -1e-6
# invariants.truncation_estimate is tail_max times this.  tail_max reads the
# top two levels of the ladder stepped on, which grows with the run (see the
# module docstring).  At the default cutoff, an open solve's worst
# record-cell error against a fixed n_max + 20 measured 2.9 (fig2 to t_d) to
# 85 (fig2 and fig3b's n_th = 1, to 2 pi/delta) times its tail_max; a fixed
# cutoff read up to 27.  The early, narrow ladder adds error that the late
# tail does not show, and the fidelities late in a run, divided by a sector
# probability of a few 1e-3, give the large ratios.  Runs that end before
# the ladder reaches the run's cutoff read errors at rounding level (6e-16).
TAIL_TO_ERROR = 100.0


class PhotonSector(Enum):
    """Photon configurations retained in the single-photon problem."""

    L = 0  # |1>_L |0>_R
    R = 1  # |0>_L |1>_R
    V = 2  # |0>_L |0>_R


@dataclass
class SystemDensityMatrix:
    """Density matrix over {L,R,V} x phonon ladder with no one-photon/vacuum
    coherence, held as its two diagonal blocks: the one-photon block
    {L,R}x{L,R} (2d x 2d, sector-major) and the vacuum block VxV (d x d)."""

    one: np.ndarray
    vac: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.one = np.asarray(self.one, dtype=complex)
        self.vac = np.asarray(self.vac, dtype=complex)
        d = self.vac.shape[0] if self.vac.ndim == 2 else -1
        if self.vac.shape != (d, d) or self.one.shape != (2 * d, 2 * d):
            raise ValueError("blocks must be 2d x 2d (one photon) and d x d (vacuum)")

    @classmethod
    def from_full(cls, rho, t: float = 0.0) -> SystemDensityMatrix:
        """Split a sector-major 3d x 3d matrix; its one-photon/vacuum coherences must be zero."""
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] % 3:
            raise ValueError("rho must be square, of dimension 3*(n_max+1)")
        k = 2 * (rho.shape[0] // 3)
        if np.any(rho[:k, k:]) or np.any(rho[k:, :k]):
            raise ValueError("density matrix has a non-zero one-photon/vacuum coherence")
        return cls(rho[:k, :k], rho[k:, k:], t)

    @property
    def rho(self) -> np.ndarray:
        """The full sector-major 3d x 3d matrix, assembled anew on each access."""
        zero = np.zeros((self.one.shape[0], self.vac.shape[0]))
        return np.block([[self.one, zero], [zero.T, self.vac]])

    @property
    def n_max(self) -> int:
        return self.vac.shape[0] - 1

    def block(self, sector: PhotonSector) -> np.ndarray:
        """The diagonal block of a sector."""
        if sector is PhotonSector.V:
            return self.vac
        d = self.n_max + 1
        rows = slice(sector.value * d, (sector.value + 1) * d)
        return self.one[rows, rows]

    def diagonal(self) -> np.ndarray:
        """The diagonal of the full matrix: L, R, then V."""
        return np.concatenate([np.diagonal(self.one), np.diagonal(self.vac)])

    def trace_error(self) -> float:
        tr = np.sum(self.diagonal())
        return float(abs(tr.real - 1.0) + abs(tr.imag))

    def hermiticity_error(self) -> float:
        return float(max(np.max(np.abs(b - b.conj().T)) for b in (self.one, self.vac)))

    def min_eigenvalue(self) -> float:
        # a block-diagonal Hermitian matrix has the union of its blocks' spectra
        return float(min(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0] for b in (self.one, self.vac)))


def initial_density(kind: str, n_max: int) -> SystemDensityMatrix:
    """The pure state closed.initial_state(kind, n_max) as a density matrix:
    a photon 'left', 'right' or in the Bell state, with the phonon ground state."""
    psi = initial_state(kind, n_max)
    amp = np.concatenate([psi.a, psi.b])
    vac = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    return SystemDensityMatrix(np.outer(amp, amp.conj()), vac, 0.0)


def _damping(params: SystemParams, d: int, chi: tuple[float, ...]) -> np.ndarray:
    """Elementwise damping of a sector view whose sectors hold chi photons:
    the photon and phonon anticommutator terms of every dissipator."""
    c = np.repeat(chi, d)
    n_ph = np.tile(np.arange(d, dtype=float), len(chi))
    g_c, g_m, nth = params.gamma_c, params.gamma_m, params.n_th
    return -0.5 * (
        g_c * (c[:, None] + c[None, :])
        + g_m * ((2 * nth + 1) * (n_ph[:, None] + n_ph[None, :]) + 2 * nth)
    )


class _Generators:
    """Lindblad generator on the packed live blocks in the hopping frame.

    The packed state is the one-photon block phi (2d x 2d, sector-major)
    followed by the vacuum block (d x d), each flattened row-major, in the
    frame of the module docstring.  What is left of the Hamiltonian there is
    the radiation pressure seen from the rotated right cavity, the rank-1
    photon operator |r'><r'| with |r'> = U_h^dag |R>.

    apply writes scale times the time derivative: evolve_open builds one
    generator per segment with scale h, so each stage comes out as h f_k, the
    form the tableau's weights multiply, and the generator's own weights are
    scaled once per segment.  The phonon jumps act through shifted contiguous
    slices of the flat blocks, which is several times faster than dense
    matrix products or strided views at these dimensions.  tests/oracles.py holds an independent dense lab-frame
    generator that pins these kernels.

    For a Hermitian one-photon block rho every term of the generator is a
    half plus its adjoint: D o rho - i[H, rho] + J(rho) = Z + Z^H with
    Z = (D/2) o rho - i H rho + J(rho)/2.  apply builds that block as Z + Z^H,
    which needs only the row-side Hamiltonian product and leaves the block
    exactly Hermitian; the damping and jump weights are halved once here.
    """

    def __init__(self, params: SystemParams, n_max: int, scale: float = 1.0):
        d = n_max + 1
        self.d = d
        self.params = params
        self.scale = scale
        # complex weights: a float operand would be cast to complex on every call
        self.half_damp_one = (0.5 * scale * _damping(params, d, (1.0, 1.0))).ravel().astype(complex)
        self.damp_vac = (scale * _damping(params, d, (0.0,))).ravel().astype(complex)
        off, w_down, w_up = self.jump_weights(2)
        self.half_jumps_one = (off, 0.5 * w_down, 0.5 * w_up)
        self.jumps_vac = self.jump_weights(1)
        # b u and b^dag u on a (d, 2d) phonon-row matrix u, held in rows 1..d of
        # u_pad so that both shifts read zero rows past the ladder's ends:
        # (b u)[p] = sqrt(p+1) u[p+1] and (b^dag u)[p] = sqrt(p) u[p-1]; the
        # weights fill whole rows, since row-broadcast products cost twice as much
        self.lower = np.repeat(np.sqrt(np.arange(1.0, d + 1))[:, None], 2 * d, axis=1).astype(complex)
        self.raise_ = np.repeat(np.sqrt(np.arange(float(d)))[:, None], 2 * d, axis=1).astype(complex)
        self.u_pad = np.zeros((d + 2, 2 * d), dtype=complex)
        self.u = self.u_pad[1:-1]
        self.bu = np.empty((d, 2 * d), dtype=complex)
        self.tmp = np.empty((d, 2 * d), dtype=complex)
        self.tmp2 = np.empty((2, d, 2 * d), dtype=complex)
        self.rows = np.empty((2, 1, 1), dtype=complex)
        self.z = np.empty((2 * d, 2 * d), dtype=complex)  # Z of the one-photon block
        self.z_flat = self.z.reshape(-1)
        self.z_rows = self.z.reshape(2, d, 2 * d)

    def jump_weights(self, sectors: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Flat-index offset and scaled weights of the phonon jump terms on an S-sector matrix.

        gamma_m (n_th+1) b rho b^dag and gamma_m n_th b^dag rho b shift rho by
        one row and one column, which is S d + 1 in the row-major flat index;
        the weights vanish where the shift would cross a sector edge.  They are
        stored complex, so the products need no per-call cast.
        """
        p = self.params
        s = np.sqrt(np.arange(1.0, self.d))
        lower = np.tile(np.append(s, 0.0), sectors)  # <p|b|p+1>, zero on the top rung
        raise_ = np.tile(np.append(0.0, s), sectors)  # <p|b^dag|p-1>, zero on the ground rung
        off = sectors * self.d + 1
        rate = self.scale * p.gamma_m
        w_down = (rate * (p.n_th + 1.0) * (lower[:, None] * lower[None, :])).ravel()[:-off]
        w_up = (rate * p.n_th * (raise_[:, None] * raise_[None, :])).ravel()[off:]
        return off, w_down.astype(complex), w_up.astype(complex)

    def left_product(self, t: float, hop, r: np.ndarray, out: np.ndarray):
        """out += -i H'(t) r on the (2, d, 2d) row view of the one-photon block, with

        H' = |r'><r'| (x) (z b + conj(z) b^dag),  z = -g0 e^{-i omega_m t},

        through u = <r'| r once, its two ladder rungs, and r'_s B(u) added to both
        rows; hop = <r'| = <R|U_h(t).
        """
        p = self.params
        r_l, r_r = hop
        z = -self.scale * p.g0 * cmath.exp(-1j * p.omega_m * t)
        u, bu, tmp = self.u, self.bu, self.tmp
        np.multiply(r[1], r_r, out=u)
        np.multiply(r[0], r_l, out=tmp)
        u += tmp
        np.multiply(self.lower, self.u_pad[2:], out=bu)  # bu = z b u + conj(z) b^dag u
        bu *= z
        np.multiply(self.raise_, self.u_pad[:-2], out=tmp)
        tmp *= z.conjugate()
        bu += tmp
        self.rows[:, 0, 0] = -1j * r_l.conjugate(), -1j * r_r.conjugate()  # -i |r'>
        np.multiply(self.rows, bu, out=self.tmp2)
        out += self.tmp2

    def phonon_jumps(self, jumps: tuple[int, np.ndarray, np.ndarray], r: np.ndarray, out: np.ndarray):
        """out += gamma_m (n_th+1) b r b^dag + gamma_m n_th b^dag r b on a flat
        S-sector matrix, with jumps = jump_weights(S)."""
        if self.params.gamma_m:
            off, w_down, w_up = jumps
            out[:-off] += w_down * r[off:]
            if self.params.n_th:
                out[off:] += w_up * r[:-off]

    def photon_feed(self, r: np.ndarray, out_vac: np.ndarray):
        """out_vac += gamma_c (rho_LL + rho_RR): photon loss into the vacuum block."""
        if self.params.gamma_c:
            out_vac += (self.scale * self.params.gamma_c) * (r[0, :, 0] + r[1, :, 1])

    def apply(self, t: float, hop, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write scale times the hopping-frame time derivative of the packed
        state y at t into out and return out.  hop is <R|U_h(t), the R row of
        model.hopping_unitary(params, t), which evolve_open takes from
        closed._stage_stream.  y's one-photon block must be Hermitian."""
        d = self.d
        k = 4 * d * d
        one, vac, out_vac = y[:k], y[k:], out[k:]
        np.multiply(self.half_damp_one, one, out=self.z_flat)
        self.left_product(t, hop, one.reshape(2, d, 2 * d), self.z_rows)
        self.phonon_jumps(self.half_jumps_one, one, self.z_flat)
        out_one = out[:k].reshape(2 * d, 2 * d)
        np.conjugate(self.z.T, out=out_one)
        out_one += self.z
        np.multiply(self.damp_vac, vac, out=out_vac)
        self.phonon_jumps(self.jumps_vac, vac, out_vac)
        self.photon_feed(one.reshape(2, d, 2, d), out_vac.reshape(d, d))
        return out


def mean_phonon_number(rho: SystemDensityMatrix) -> float:
    d = rho.n_max + 1
    diag = np.real(rho.diagonal())
    return float(np.sum(np.tile(np.arange(d), 3) * diag))


def reduce_mechanical(rho: SystemDensityMatrix, sector: PhotonSector) -> tuple[np.ndarray, float]:
    """Normalized reduced mechanical state and detection probability for a sector."""
    blk = rho.block(sector)
    p = float(np.trace(blk).real)
    if p < P_FLOOR:
        raise ValueError(f"sector {sector.name} probability {p:.3e} below {P_FLOOR:g}")
    return blk / p, p


def _blocks(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one-photon block, as a (2, d, 2, d) view, and the (d, d) vacuum
    block of a packed state; d is read off the state's size, 5 d^2."""
    d = math.isqrt(y.size // 5)
    return y[: 4 * d * d].reshape(2, d, 2, d), y[4 * d * d :].reshape(d, d)


def _resized(y: np.ndarray, n_max: int) -> np.ndarray:
    """A packed state on the ladder 0..n_max: zero-padded, or cut to it."""
    out = np.zeros(5 * (n_max + 1) ** 2, dtype=complex)
    (one, vac), (big_one, big_vac) = _blocks(y), _blocks(out)
    d = min(vac.shape[0], n_max + 1)
    big_one[:, :d, :, :d] = one[:, :d, :, :d]
    big_vac[:d, :d] = vac[:d, :d]
    return out


def evolve_open(
    initial: SystemDensityMatrix,
    params: SystemParams,
    cfg: SolverConfig,
    grow: bool = True,
) -> Run:
    """Propagate the master equation, recording probabilities and fidelities.

    The one-photon and vacuum blocks are evolved in the hopping frame (see
    the module docstring), each replaced by its Hermitian part.  Aborts when
    the trace drifts by more than 1e-6, an eigenvalue dips below -1e-6 or the
    population of the top two levels of the cutoff stepped on exceeds 1e-6
    (all checked at record times; positivity is an O(dim^3) solve per
    block); the Run's invariants hold the worst trace_err_max, min_eig_min
    and tail_max, and the truncation_estimate TAIL_TO_ERROR * tail_max.

    With grow, the ladder grows with the run (see the module docstring) when
    the initial state is the rule's start: its cutoff is
    closed.default_n_max's for the run and its phonon is in the ground
    state.  Any other initial state, and every one without grow, is stepped
    on its own cutoff throughout.  The marked and final states are on the
    initial state's ladder either way.
    """
    cfg.validate(params)
    # written as not (error <= bound) so that a NaN entry is refused too
    if not initial.trace_error() <= 1e-8:
        raise ValueError("initial density matrix must have unit trace")
    if not initial.hermiticity_error() <= 1e-10:
        raise ValueError("initial density matrix must be Hermitian")

    d = derive(params)
    n_run = initial.n_max
    gathered = []  # per record: t, U_h, tau, the two fidelity numerators, P_V, nb, trace_err, min_eig
    guards = _Guards(
        trace_err_max=("trace drift", TRACE_ABORT, 1, "reduce dt"),
        min_eig_min=("negative eigenvalue", EIG_ABORT, -1, "reduce dt or increase n_max"),
        tail_max=("phonon tail population", TAIL_ABORT, 1, f"increase n_max (current {n_run})"),
    )

    def lab_state(t: float, y: np.ndarray) -> SystemDensityMatrix:
        # rho = U_h phi U_h^dag, then the phonon phases e^{-i omega_m t (p - q)}; einsum
        # loops in C, where a 2d x 2d matrix product would wake every BLAS thread
        one, vac = _blocks(_resized(y, n_run))
        u_h = hopping_unitary(params, t)
        one = np.einsum("ab,bpcq,dc->apdq", u_h, one, u_h.conj())
        ph = np.exp(-1j * params.omega_m * t * np.arange(n_run + 1))
        one = ph[None, :, None, None] * one * ph.conj()[None, None, None, :]
        vac = ph[:, None] * vac * ph.conj()[None, :]
        return SystemDensityMatrix(one.reshape(2 * n_run + 2, 2 * n_run + 2), vac, t)

    def emit(t: float, y: np.ndarray):
        # the trace, the phonon diagonal summed over photon sectors and the
        # spectrum are the same in the frame and in the lab, so the guards and
        # nb read the frame blocks; P_L, P_R and the fidelities rotate, from what
        # is gathered here as Python numbers (small arrays cost more) after the solve
        one, vac = _blocks(y)
        n = vac.shape[0]
        k = 2 * n
        one = one.reshape(k, k)
        frame = SystemDensityMatrix(one, vac, t)
        tr_err = frame.trace_error()
        guards.check(t, trace_err_max=tr_err)  # first: eigvalsh raises on a non-finite state
        mineig = frame.min_eigenvalue()
        diag = np.real(frame.diagonal())
        # fock.tail_population's gauge: population of the top two phonon levels of the
        # ladder stepped on now, all sectors
        tail = float(np.sum(diag.reshape(3, n)[:, -2:]))
        guards.check(t, min_eig_min=mineig, tail_max=tail)
        # tau is the 2 x 2 photon trace of phi; <v_s| rho_ss |v_s> = <w_s| phi |w_s>
        u_h = hopping_unitary(params, t)
        tau = np.trace(one.reshape(2, n, 2, n), axis1=1, axis2=3)
        num = [float(np.real(np.vdot(w, one @ w))) for w in _frame_targets(params, d, t, n - 1, u_h)]
        p_v = float(np.sum(diag[k:]))
        gathered.append((t, u_h.tolist(), tau.tolist(), num, p_v, mean_phonon_number(frame), tr_err, mineig))

    # apply's one-photon block Z + Z^H is the generator only on Hermitian input;
    # at t = 0 the hopping frame coincides with the lab frame
    y = np.concatenate([(0.5 * (b + b.conj().T)).ravel() for b in (initial.one, initial.vac)])
    one, vac = _blocks(y)
    ground = not (one[:, 1:].any() or vac[1:].any())  # y is Hermitian: rows suffice
    try:
        grows = grow and ground and n_run == closed.default_n_max(d, params, cfg.t_end)
    except ValueError:  # the rule refuses a bath it cannot cover: no cutoff is the rule's
        grows = False

    def cutoff(t: float) -> int:
        # the cutoff a growing run needs by t; past what the rule covers, n_run
        try:
            return min(n_run, closed.default_n_max(d, params, t, reached=True) + closed.CUTOFF_LEAD)
        except ValueError:
            return n_run

    if grows:  # a ground start holds nothing above the first levels
        y = _resized(y, cutoff(0.0))
    schedule = []  # (t, n_max) from t on

    def advance(y, t0, dt, gaps):
        # the generator writes h times the derivative: stage k writes
        # hf[k] = h f(t + c_k h, y + sum_j A_kj hf[j]), and the update scales each hf[k]
        # by b_k in place and adds it to y
        c, a, b = closed._TABLEAU
        # the stage times and <R|U_h> rows, each chunk turned into Python lists when reached
        chunks = _stage_stream(params, t0, dt, sum(gaps))
        steps = itertools.chain.from_iterable(zip(t.tolist(), np.moveaxis(r, 0, -1).tolist()) for t, r in chunks)
        m, gen = _blocks(y)[1].shape[0] - 1, None
        for i, gap in zip(itertools.accumulate(gaps, initial=0), gaps):
            # before each gap, grow the ladder to the cutoff needed by the gap's end; a run
            # that does not grow starts on n_run
            n = m if m == n_run else max(m, cutoff(t0 + (i + gap) * dt))
            if not schedule or n > schedule[-1][1]:
                schedule.append((t0 + i * dt, n))
            if n > m:
                y, m = _resized(y, n), n
            if gen is None or gen.d != m + 1:  # the generator and stage buffers of this ladder
                gen = _Generators(params, m, dt)
                hf = [np.empty_like(y) for _ in c]
                # Python floats: a NumPy scalar operand adds overhead to every ufunc call
                terms = [[(float(a[k, j]), hf[j]) for j in np.flatnonzero(a[k])] for k in range(len(c))]
                updates = list(zip(b.tolist(), hf))
                v, tmp = np.empty_like(y), np.empty_like(y)
            for t_stages, hop_stages in itertools.islice(steps, gap):
                for t, hop, row, out in zip(t_stages, hop_stages, terms, hf):
                    x = y
                    if row:  # in place: a three-operand add costs about two in-place ones here
                        x = np.multiply(row[0][1], row[0][0], out=v)
                        for w, hf_j in row[1:]:
                            np.multiply(hf_j, w, out=tmp)
                            v += tmp
                        v += y
                    gen.apply(t, hop, x, out)
                for w, out in updates:
                    out *= w
                    y += out
            yield y

    final, marked = integrate(y, cfg, advance, emit, lab_state)
    t, u_h, tau, num, p_v, nb, tr_err, mineig = zip(*gathered)
    record = TrajectoryRecord(
        OPEN_COLUMNS, t=t, P_V=p_v, nb=nb, trace_err=tr_err, min_eig=mineig,
        **_detection_columns(np.array(u_h), np.array(tau), np.array(num)),
    )
    invariants = dict(guards.worst, truncation_estimate=TAIL_TO_ERROR * guards.worst["tail_max"])
    return Run(record, final, marked, invariants, schedule)


def write_snapshot(path, sdm: SystemDensityMatrix):
    """Dump a density matrix as JSON: dim, time, row-major interleaved re/im
    of the full 3d x 3d matrix."""
    rho = sdm.rho
    flat = rho.ravel()
    data = np.empty(2 * flat.size)
    data[0::2] = flat.real
    data[1::2] = flat.imag
    doc = {
        "dim": rho.shape[0],
        "t": sdm.t,
        "layout": "row-major interleaved re/im",
        "data": data.tolist(),
    }
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(doc))  # json.dumps takes the C encoder; json.dump does not


def read_snapshot(path) -> SystemDensityMatrix:
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    dim = int(doc["dim"])
    data = np.asarray(doc["data"], dtype=float)
    rho = (data[0::2] + 1j * data[1::2]).reshape(dim, dim)
    return SystemDensityMatrix.from_full(rho, float(doc["t"]))
