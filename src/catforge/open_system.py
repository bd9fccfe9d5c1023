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
zero and are never generated: the solver stores only the live blocks, the
one-photon block {L,R}x{L,R} and the vacuum block VxV.  Propagation is
fixed-step RK4 on the phonon-interaction-picture blocks, with the exact
e^{-i omega_m (p-q) t} phases restored at record times; omega_c multiplies
only the dropped coherences, so it does not enter the solver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .closed import TAIL_ABORT, SolverAbort, SolverConfig, _segment_steps
from .model import DerivedModulation, SystemParams, derive, target_states
from .trajectory import TrajectoryRecord

__all__ = [
    "PhotonSector",
    "SystemDensityMatrix",
    "OpenRun",
    "initial_density",
    "rhs_lindblad",
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
    """Density matrix over {L,R,V} x phonon ladder, indexed sector-major."""

    rho: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.ndim != 2 or self.rho.shape[0] != self.rho.shape[1]:
            raise ValueError("rho must be square")
        if self.rho.shape[0] % 3:
            raise ValueError("dimension must be 3*(n_max+1)")

    @property
    def n_max(self) -> int:
        return self.rho.shape[0] // 3 - 1

    def block(self, row: PhotonSector, col: PhotonSector) -> np.ndarray:
        d = self.n_max + 1
        return self.rho[row.value * d : (row.value + 1) * d, col.value * d : (col.value + 1) * d]

    def trace_error(self) -> float:
        return float(abs(np.trace(self.rho).real - 1.0) + abs(np.trace(self.rho).imag))

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.rho - self.rho.conj().T)))

    def live_blocks(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The one-photon block {L,R}x{L,R} and the vacuum block VxV, or None
        when any one-photon/vacuum coherence is non-zero."""
        k = 2 * (self.n_max + 1)
        if np.any(self.rho[:k, k:]) or np.any(self.rho[k:, :k]):
            return None
        return self.rho[:k, :k], self.rho[k:, k:]

    def min_eigenvalue(self) -> float:
        # a block-diagonal Hermitian matrix has the union of its blocks' spectra
        blocks = self.live_blocks() or (self.rho,)
        return float(min(np.linalg.eigvalsh(0.5 * (b + b.conj().T))[0] for b in blocks))

    def cross_sector_coherence(self) -> float:
        """Largest one-photon/vacuum coherence (exactly conserved at zero)."""
        lv = np.max(np.abs(self.block(PhotonSector.L, PhotonSector.V)))
        rv = np.max(np.abs(self.block(PhotonSector.R, PhotonSector.V)))
        return float(max(lv, rv))


def initial_density(kind: str, n_max: int) -> SystemDensityMatrix:
    """Photon state 'left'/'right'/'bell'/'vacuum' with the phonon ground state."""
    d = n_max + 1
    amp = np.zeros(3 * d, dtype=complex)
    if kind == "left":
        amp[0] = 1.0
    elif kind == "right":
        amp[d] = 1.0
    elif kind == "bell":
        amp[0] = amp[d] = 1.0 / math.sqrt(2.0)
    elif kind == "vacuum":
        amp[2 * d] = 1.0
    else:
        raise ValueError(f"unknown initial state {kind!r}")
    return SystemDensityMatrix(np.outer(amp, amp.conj()), 0.0)


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
    """Interaction-picture Lindblad generator on the packed live blocks.

    The packed state is the one-photon block {L,R}x{L,R} (2d x 2d) followed
    by the vacuum block VxV (d x d), each flattened row-major.  The kernels
    act on an S-sector matrix whose sectors 0 and 1 are L and R: the
    Hamiltonian products through sector swaps and ladder shifts on its
    (S, d, S, d) view, the phonon jumps through shifted contiguous slices of
    its flat form, which is several times faster than dense matrix products
    or strided views at these dimensions.  rhs_lindblad applies the same
    kernels to the full three-sector matrix; its equivalence with the
    element-wise master equation is pinned by tests.

    For a Hermitian one-photon block rho every term of the generator is a
    half plus its adjoint: D o rho - i[H, rho] + J(rho) = Z + Z^H with
    Z = (D/2) o rho - i H rho + J(rho)/2.  apply builds that block as Z + Z^H,
    which needs only the row-side Hamiltonian product and leaves the block
    exactly Hermitian; the damping and jump weights are halved once here.
    """

    def __init__(self, params: SystemParams, n_max: int):
        d = n_max + 1
        self.d = d
        self.params = params
        self.s = np.sqrt(np.arange(1.0, d))  # b|p> = s[p-1] |p-1>
        # complex weights: a float operand would be cast to complex on every call
        self.half_damp_one = (0.5 * _damping(params, d, (1.0, 1.0))).ravel().astype(complex)
        self.damp_vac = _damping(params, d, (0.0,)).ravel().astype(complex)
        off, w_down, w_up = self.jump_weights(2)
        self.half_jumps_one = (off, 0.5 * w_down, 0.5 * w_up)
        self.jumps_vac = self.jump_weights(1)
        self.z = np.empty((2 * d, 2 * d), dtype=complex)  # Z of the one-photon block
        self.z_flat = self.z.reshape(-1)
        self.z_sectors = self.z.reshape(2, d, 2, d)

    def jump_weights(self, sectors: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Flat-index offset and weights of the phonon jump terms on an S-sector matrix.

        gamma_m (n_th+1) b rho b^dag and gamma_m n_th b^dag rho b shift rho by
        one row and one column, which is S d + 1 in the row-major flat index;
        the weights vanish where the shift would cross a sector edge.  They are
        stored complex, so the products need no per-call cast.
        """
        p = self.params
        lower = np.tile(np.append(self.s, 0.0), sectors)  # <p|b|p+1>, zero on the top rung
        raise_ = np.tile(np.append(0.0, self.s), sectors)  # <p|b^dag|p-1>, zero on the ground rung
        off = sectors * self.d + 1
        w_down = (p.gamma_m * (p.n_th + 1.0) * (lower[:, None] * lower[None, :])).ravel()[:-off]
        w_up = (p.gamma_m * p.n_th * (raise_[:, None] * raise_[None, :])).ravel()[off:]
        return off, w_down.astype(complex), w_up.astype(complex)

    def couplings(self, t: float, z: complex) -> tuple[complex, np.ndarray, np.ndarray]:
        """-i alpha(t) and the -i z, -i conj(z) radiation-pressure rungs of H(t)."""
        p = self.params
        a = 1j * p.xi * p.omega_0 * math.cos(p.omega_0 * t)
        return a, (-1j * z) * self.s, (-1j * np.conj(z)) * self.s

    def left_product(self, t: float, z: complex, r: np.ndarray, out: np.ndarray):
        """out += -i H(t) r on an (S, d, S, d) sector view, with

        H = alpha(t) (|L><R| + |R><L|) (x) I  +  z Pi_R (x) b  +  conj(z) Pi_R (x) b^dag.
        """
        a, zs, zcs = self.couplings(t, z)
        out[:2] += a * r[1::-1]  # hopping: L<->R swap on rows
        out[1, :-1] += zs[:, None, None] * r[1, 1:]  # radiation pressure on the R rows
        out[1, 1:] += zcs[:, None, None] * r[1, :-1]

    def hamiltonian(self, t: float, z: complex, r: np.ndarray, out: np.ndarray):
        """out += -i[H(t), r] on an (S, d, S, d) sector view (H as in left_product)."""
        self.left_product(t, z, r, out)
        a, zs, zcs = self.couplings(t, z)
        out[:, :, :2] -= a * r[:, :, 1::-1]
        out[:, :, 1, 1:] -= zs * r[:, :, 1, :-1]
        out[:, :, 1, :-1] -= zcs * r[:, :, 1, 1:]

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
            out_vac += self.params.gamma_c * (r[0, :, 0] + r[1, :, 1])

    def apply(self, t: float, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the interaction-picture time derivative of the packed state y
        at t into out and return out.  y's one-photon block must be Hermitian."""
        p = self.params
        d = self.d
        k = 4 * d * d
        one, vac, out_vac = y[:k], y[k:], out[k:]
        one4 = one.reshape(2, d, 2, d)
        np.multiply(self.half_damp_one, one, out=self.z_flat)
        self.left_product(t, -p.g0 * np.exp(-1j * p.omega_m * t), one4, self.z_sectors)
        self.phonon_jumps(self.half_jumps_one, one, self.z_flat)
        out_one = out[:k].reshape(2 * d, 2 * d)
        np.conjugate(self.z.T, out=out_one)
        out_one += self.z
        np.multiply(self.damp_vac, vac, out=out_vac)
        self.phonon_jumps(self.jumps_vac, vac, out_vac)
        self.photon_feed(one4, out_vac.reshape(d, d))
        return out


def rhs_lindblad(rho: SystemDensityMatrix, params: SystemParams) -> np.ndarray:
    """Lab-frame time derivative of the full density matrix at rho.t."""
    gen = _Generators(params, rho.n_max)
    d = gen.d
    chi = (1.0, 1.0, 0.0)
    energy = params.omega_c * np.repeat(chi, d) + params.omega_m * np.tile(np.arange(d), 3)
    free_phase = 1j * (energy[None, :] - energy[:, None])
    r = np.ascontiguousarray(rho.rho)
    out = (_damping(params, d, chi) + free_phase) * r
    r4 = r.reshape(3, d, 3, d)
    out4 = out.reshape(3, d, 3, d)
    gen.hamiltonian(rho.t, -params.g0, r4, out4)
    gen.phonon_jumps(gen.jump_weights(3), r.ravel(), out.ravel())
    gen.photon_feed(r4, out4[2, :, 2])
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
    diag = np.real(np.diagonal(rho.rho))
    return float(np.sum(np.tile(np.arange(d), 3) * diag))


def reduce_mechanical(rho: SystemDensityMatrix, sector: PhotonSector) -> tuple[np.ndarray, float]:
    """Normalized reduced mechanical state and detection probability for a sector."""
    blk = rho.block(sector, sector)
    p = float(np.trace(blk).real)
    if p < P_FLOOR:
        raise ValueError(f"sector {sector.name} probability {p:.3e} below {P_FLOOR:g}")
    return blk / p, p


def fidelity_open(
    rho: SystemDensityMatrix, params: SystemParams, d: DerivedModulation
) -> tuple[float, float]:
    """Fidelities <phi_s|rho_M^(s)|phi_s> of the reduced states against the targets."""
    phi_l, phi_r = target_states(params, d, rho.t)
    out = []
    for sector, phi in ((PhotonSector.L, phi_l), (PhotonSector.R, phi_r)):
        rho_m, _ = reduce_mechanical(rho, sector)
        v = phi.fock_vector(rho.n_max)
        out.append(float(np.real(np.vdot(v, rho_m @ v))))
    return out[0], out[1]


def evolve_open(
    initial: SystemDensityMatrix,
    params: SystemParams,
    cfg: SolverConfig,
    keep_snapshots: bool = False,
) -> OpenRun:
    """Propagate the master equation, recording probabilities and fidelities.

    The initial density must have no one-photon/vacuum coherence: only the
    one-photon and vacuum blocks are evolved, each replaced by its
    Hermitian part.  Aborts when the trace drifts by more than 1e-6, an
    eigenvalue dips below -1e-6 or the top-two-level phonon population
    exceeds 1e-6 (all checked at record times; positivity is an O(dim^3)
    solve per block).
    """
    cfg.validate(params)
    if initial.trace_error() > 1e-8:
        raise ValueError("initial density matrix must have unit trace")
    if initial.hermiticity_error() > 1e-10:
        raise ValueError("initial density matrix must be Hermitian")
    blocks = initial.live_blocks()
    if blocks is None:
        raise ValueError("initial density matrix must have no one-photon/vacuum coherence")

    d = derive(params)
    gen = _Generators(params, initial.n_max)
    dim = 3 * gen.d
    k = 2 * gen.d
    n_ph = np.tile(np.arange(gen.d, dtype=float), 3)
    record = TrajectoryRecord(OPEN_COLUMNS)
    snapshots: list[SystemDensityMatrix] = []
    marked = None
    trace_max = 0.0
    eig_min = math.inf
    tail_max = 0.0

    def lab_state(t: float, y: np.ndarray) -> SystemDensityMatrix:
        ph = np.exp(-1j * params.omega_m * t * n_ph)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:k, :k] = ph[:k, None] * y[: k * k].reshape(k, k) * ph[:k].conj()[None, :]
        rho[k:, k:] = ph[k:, None] * y[k * k :].reshape(dim - k, dim - k) * ph[k:].conj()[None, :]
        return SystemDensityMatrix(rho, t)

    def emit(t: float, y: np.ndarray):
        nonlocal marked, trace_max, eig_min, tail_max
        st = lab_state(t, y)
        tr_err = st.trace_error()
        mineig = st.min_eigenvalue()
        diag = np.real(np.diagonal(st.rho))
        dsz = st.n_max + 1
        # fock.tail_population's gauge: population of the top two phonon levels, all sectors
        tail = float(np.sum(diag.reshape(3, dsz)[:, -2:]))
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
                f"(current {st.n_max})"
            )
        p_l = float(np.sum(diag[:dsz]))
        p_r = float(np.sum(diag[dsz : 2 * dsz]))
        p_v = float(np.sum(diag[2 * dsz :]))
        row = dict(
            t=t, P_L=p_l, P_R=p_r, P_V=p_v, nb=mean_phonon_number(st),
            trace_err=tr_err, min_eig=mineig,
        )
        phi_l, phi_r = target_states(params, d, t)
        for name, p, phi in (("F_L", p_l, phi_l), ("F_R", p_r, phi_r)):
            if p > P_FLOOR:
                v = phi.fock_vector(st.n_max)
                blk = st.block(PhotonSector[name[-1]], PhotonSector[name[-1]])
                row[name] = float(np.real(np.vdot(v, blk @ v)) / p)
            else:
                row[name] = math.nan
        record.append(**row)
        if keep_snapshots:
            snapshots.append(st)
        if cfg.t_mark is not None and abs(t - cfg.t_mark) < 1e-12:
            marked = st
        return st

    # apply's one-photon block Z + Z^H is the generator only on Hermitian input
    y = np.concatenate([(0.5 * (b + b.conj().T)).ravel() for b in blocks])
    emit(0.0, y)

    bounds = [0.0]
    if cfg.t_mark is not None and cfg.t_mark < cfg.t_end:
        bounds.append(cfg.t_mark)
    bounds.append(cfg.t_end)

    k1, k2, k3, k4, v = (np.empty_like(y) for _ in range(5))
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        n_steps, dt = _segment_steps(cfg.dt, t0, t1)
        for i in range(n_steps):
            t = t0 + i * dt
            gen.apply(t, y, k1)
            np.multiply(k1, dt / 2, out=v)
            v += y
            gen.apply(t + dt / 2, v, k2)
            np.multiply(k2, dt / 2, out=v)
            v += y
            gen.apply(t + dt / 2, v, k3)
            np.multiply(k3, dt, out=v)
            v += y
            gen.apply(t + dt, v, k4)
            # y += dt/6 (k1 + 2 k2 + 2 k3 + k4)
            k2 += k3
            k2 *= 2
            k1 += k2
            k1 += k4
            k1 *= dt / 6
            y += k1
            t = t0 + (i + 1) * dt if i + 1 < n_steps else t1
            if (i + 1) % cfg.record_stride == 0 or i + 1 == n_steps:
                emit(t, y)

    final = lab_state(cfg.t_end, y)
    if cfg.t_mark is not None and cfg.t_mark == cfg.t_end:
        marked = final
    return OpenRun(
        record=record,
        snapshots=snapshots,
        final=final,
        marked=marked,
        trace_err_max=trace_max,
        min_eig_min=eig_min,
        tail_max=tail_max,
    )


def write_snapshot(path, sdm: SystemDensityMatrix):
    """Dump a density matrix as JSON: dim, time, row-major interleaved re/im."""
    flat = sdm.rho.ravel()
    data = np.empty(2 * flat.size)
    data[0::2] = flat.real
    data[1::2] = flat.imag
    doc = {
        "dim": sdm.rho.shape[0],
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
    return SystemDensityMatrix(rho, float(doc["t"]))
