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
one-photon block is also in the hopping frame phi = U_h^dag rho U_h with
U_h(t) = exp(i xi sin(omega_0 t) sigma_x).  The modulated hopping
xi omega_0 cos(omega_0 t)(|L><R| + h.c.) commutes with itself at all times
and with every dissipator (photon loss is a uniform damping plus a feed from
the photon partial trace, the phonon bath acts on the phonon alone), so the
frame removes it and changes nothing else; the vacuum block is untouched.
What remains varies on the slow coupling scales: at the open default of 64
points per period of the fastest retained oscillation (closed.default_dt) a
fig2 solve to t = 2 is within about 2e-10 of a 1024-point one.  Records read the trace, the phonon
number, the truncation tail and the spectrum straight off the frame blocks,
where they are unchanged; P_L, P_R and the fidelities rotate a 2 x 2 trace
and the target vectors; only kept, marked and final states are rotated back
to the lab frame.  omega_c multiplies only the dropped coherences, so it does
not enter the solver.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closed import TAIL_ABORT, SolverAbort, SolverConfig, _target_vectors, integrate
from .model import DerivedModulation, SystemParams, derive, mu_of_t, target_states
from .trajectory import TrajectoryRecord

__all__ = [
    "PhotonSector",
    "SystemDensityMatrix",
    "OpenRun",
    "initial_density",
    "evolve_open",
    "reduce_mechanical",
    "fidelity_open",
    "mean_phonon_number",
    "write_snapshot",
    "read_snapshot",
]

OPEN_COLUMNS = ("t", "P_L", "P_R", "P_V", "nb", "F_L", "F_R", "trace_err", "min_eig")

TRACE_ABORT = 1e-6
EIG_ABORT = -1e-6
P_FLOOR = 1e-12


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
    """Photon state 'left'/'right'/'bell'/'vacuum' with the phonon ground state."""
    d = n_max + 1
    amp = np.zeros(2 * d, dtype=complex)
    vac = np.zeros((d, d), dtype=complex)
    if kind == "left":
        amp[0] = 1.0
    elif kind == "right":
        amp[d] = 1.0
    elif kind == "bell":
        amp[0] = amp[d] = 1.0 / math.sqrt(2.0)
    elif kind == "vacuum":
        vac[0, 0] = 1.0
    else:
        raise ValueError(f"unknown initial state {kind!r}")
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


def _hopping_rotation(params: SystemParams, t: float) -> tuple[float, float]:
    """cos and sin of the hopping-frame angle theta(t) = -xi sin(omega_0 t),
    with U_h(t) = exp(-i theta sigma_x) = cos theta - i sin theta sigma_x."""
    theta = -0.5 * mu_of_t(params, t)
    return math.cos(theta), math.sin(theta)


class _Generators:
    """Lindblad generator on the packed live blocks in the hopping frame.

    The packed state is the one-photon block phi (2d x 2d, sector-major)
    followed by the vacuum block (d x d), each flattened row-major, in the
    frame of the module docstring: U_h(t) = exp(-i theta(t) sigma_x) with
    theta(t) = -xi sin(omega_0 t).  What is left of the Hamiltonian there is
    the radiation pressure seen from the rotated right cavity, the rank-1
    photon operator |r'><r'| with |r'> = U_h^dag |R> = (i sin theta, cos theta).

    apply writes scale times the time derivative: evolve_open builds one
    generator per segment with scale h/2, so the RK4 stages come out
    pre-scaled and the weights are scaled once per segment.  The phonon
    jumps act through shifted contiguous slices of the flat blocks, which is
    several times faster than dense matrix products or strided views at
    these dimensions.  tests/oracles.py holds an independent dense lab-frame
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

    def left_product(self, t: float, r: np.ndarray, out: np.ndarray):
        """out += -i H'(t) r on the (2, d, 2d) row view of the one-photon block, with

        H' = |r'><r'| (x) (z b + conj(z) b^dag),  z = -g0 e^{-i omega_m t},

        through u = <r'| r once, its two ladder rungs, and r'_s B(u) added to both rows.
        """
        p = self.params
        cs, sn = _hopping_rotation(p, t)
        z = -self.scale * p.g0 * cmath.exp(-1j * p.omega_m * t)
        u, bu, tmp = self.u, self.bu, self.tmp
        np.multiply(r[1], cs, out=u)  # u = cos(theta) r_R - i sin(theta) r_L
        np.multiply(r[0], -1j * sn, out=tmp)
        u += tmp
        np.multiply(self.lower, self.u_pad[2:], out=bu)  # bu = z b u + conj(z) b^dag u
        bu *= z
        np.multiply(self.raise_, self.u_pad[:-2], out=tmp)
        tmp *= z.conjugate()
        bu += tmp
        self.rows[:, 0, 0] = sn, -1j * cs  # -i r'
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

    def apply(self, t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write scale times the hopping-frame time derivative of the packed
        state y at t into out and return out.  y's one-photon block must be
        Hermitian."""
        d = self.d
        k = 4 * d * d
        one, vac, out_vac = y[:k], y[k:], out[k:]
        np.multiply(self.half_damp_one, one, out=self.z_flat)
        self.left_product(t, one.reshape(2, d, 2 * d), self.z_rows)
        self.phonon_jumps(self.half_jumps_one, one, self.z_flat)
        out_one = out[:k].reshape(2 * d, 2 * d)
        np.conjugate(self.z.T, out=out_one)
        out_one += self.z
        np.multiply(self.damp_vac, vac, out=out_vac)
        self.phonon_jumps(self.jumps_vac, vac, out_vac)
        self.photon_feed(one.reshape(2, d, 2, d), out_vac.reshape(d, d))
        return out


@dataclass
class OpenRun:
    record: TrajectoryRecord
    snapshots: list[SystemDensityMatrix]
    final: SystemDensityMatrix
    marked: SystemDensityMatrix | None
    trace_err_max: float
    min_eig_min: float
    tail_max: float


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


def evolve_open(
    initial: SystemDensityMatrix,
    params: SystemParams,
    cfg: SolverConfig,
    keep_snapshots: bool = False,
) -> OpenRun:
    """Propagate the master equation, recording probabilities and fidelities.

    The one-photon and vacuum blocks are evolved in the hopping frame (see
    the module docstring), each replaced by its Hermitian part.  Aborts when
    the trace drifts by more than 1e-6, an eigenvalue dips below -1e-6 or the
    top-two-level phonon population exceeds 1e-6 (all checked at record
    times; positivity is an O(dim^3) solve per block).
    """
    cfg.validate(params)
    if initial.trace_error() > 1e-8:
        raise ValueError("initial density matrix must have unit trace")
    if initial.hermiticity_error() > 1e-10:
        raise ValueError("initial density matrix must be Hermitian")

    d = derive(params)
    n = initial.n_max + 1
    k = 2 * n
    levels = np.arange(n)
    record = TrajectoryRecord(OPEN_COLUMNS)
    snapshots: list[SystemDensityMatrix] = []
    marked = None
    trace_max = 0.0
    eig_min = math.inf
    tail_max = 0.0

    def lab_state(t: float, y: np.ndarray) -> SystemDensityMatrix:
        # rho = U_h phi U_h^dag, then the phonon phases e^{-i omega_m t (p - q)}; einsum
        # loops in C, where a 2d x 2d matrix product would wake every BLAS thread
        c, s = _hopping_rotation(params, t)
        u_h = np.array([[c, -1j * s], [-1j * s, c]])
        one = np.einsum("ab,bpcq,dc->apdq", u_h, y[: k * k].reshape(2, n, 2, n), u_h.conj())
        ph = np.exp(-1j * params.omega_m * t * levels)
        one = ph[None, :, None, None] * one * ph.conj()[None, None, None, :]
        vac = ph[:, None] * y[k * k :].reshape(n, n) * ph.conj()[None, :]
        return SystemDensityMatrix(one.reshape(k, k), vac, t)

    def emit(t: float, y: np.ndarray, is_mark: bool):
        # the trace, the phonon diagonal summed over photon sectors and the
        # spectrum are the same in the frame and in the lab, so the guards and
        # nb read the frame blocks; only P_L, P_R and the fidelities rotate
        nonlocal marked, trace_max, eig_min, tail_max
        one = y[: k * k].reshape(k, k)
        frame = SystemDensityMatrix(one, y[k * k :].reshape(n, n), t)
        tr_err = frame.trace_error()
        mineig = frame.min_eigenvalue()
        diag = np.real(frame.diagonal())
        # fock.tail_population's gauge: population of the top two phonon levels, all sectors
        tail = float(np.sum(diag.reshape(3, n)[:, -2:]))
        trace_max = max(trace_max, tr_err)
        eig_min = min(eig_min, mineig)
        tail_max = max(tail_max, tail)
        if tr_err > TRACE_ABORT:
            raise SolverAbort(
                f"trace drift {tr_err:.3e} at t={t:g} exceeds {TRACE_ABORT:g}; reduce dt"
            )
        if mineig < EIG_ABORT:
            raise SolverAbort(
                f"negative eigenvalue {mineig:.3e} at t={t:g} below {EIG_ABORT:g}; "
                "reduce dt or increase n_max"
            )
        if tail > TAIL_ABORT:
            raise SolverAbort(
                f"phonon tail population {tail:.3e} at t={t:g}; increase n_max "
                f"(current {n - 1})"
            )
        # photon populations: U_h tau U_h^dag with tau the phonon traces of the phi blocks
        c, s = _hopping_rotation(params, t)
        tau = np.trace(one.reshape(2, n, 2, n), axis1=1, axis2=3)
        mix = 2.0 * c * s * tau[0, 1].imag
        p_l = float(c * c * tau[0, 0].real + s * s * tau[1, 1].real - mix)
        p_r = float(s * s * tau[0, 0].real + c * c * tau[1, 1].real + mix)
        # <v_s| rho_ss |v_s> = <w_s| phi |w_s> with w_s = U_h^dag |s> (x) e^{i omega_m t b^dag b} v_s
        conj_ph = np.exp(1j * params.omega_m * t * levels)
        x_l, x_r = (conj_ph * v for v in _target_vectors(params, d, t, n - 1))
        w_l = np.concatenate([c * x_l, 1j * s * x_l])
        w_r = np.concatenate([1j * s * x_r, c * x_r])
        f_l, f_r = (
            float(np.real(np.vdot(w, one @ w)) / p) if p > P_FLOOR else math.nan
            for w, p in ((w_l, p_l), (w_r, p_r))
        )
        record.append(
            t=t, P_L=p_l, P_R=p_r, P_V=float(np.sum(diag[k:])), nb=mean_phonon_number(frame),
            F_L=f_l, F_R=f_r, trace_err=tr_err, min_eig=mineig,
        )
        if keep_snapshots or is_mark:
            st = lab_state(t, y)
            if keep_snapshots:
                snapshots.append(st)
            if is_mark:
                marked = st

    def advance(y, t0, dt, n_steps):
        # the generator writes h/2 times the derivative, so the stages come out
        # pre-scaled, h/2 k1, h/2 k2, h k3 (doubled once) and h/2 k4, and their sum
        # acc = h/2 (k1 + 2 k2 + 2 k3 + k4) makes the update y += acc/3
        gen = _Generators(params, n - 1, dt / 2)
        acc, a, v = (np.empty_like(y) for _ in range(3))
        for i in range(n_steps):
            t = t0 + i * dt
            gen.apply(t, y, acc)
            np.add(y, acc, out=v)
            gen.apply(t + dt / 2, v, a)
            np.add(y, a, out=v)
            acc += a
            acc += a
            gen.apply(t + dt / 2, v, a)
            a += a
            np.add(y, a, out=v)
            acc += a
            gen.apply(t + dt, v, a)
            acc += a
            acc *= 1 / 3
            y += acc
            yield y

    # apply's one-photon block Z + Z^H is the generator only on Hermitian input;
    # at t = 0 the hopping frame coincides with the lab frame
    y = np.concatenate([(0.5 * (b + b.conj().T)).ravel() for b in (initial.one, initial.vac)])
    y = integrate(y, cfg, advance, emit)
    return OpenRun(
        record=record,
        snapshots=snapshots,
        final=lab_state(cfg.t_end, y),
        marked=marked,
        trace_err_max=trace_max,
        min_eig_min=eig_min,
        tail_max=tail_max,
    )


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
