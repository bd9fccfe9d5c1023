import json
import math

import numpy as np
import pytest

from catforge import closed, model
from catforge import open_system as osys
from catforge.closed import SolverConfig
from catforge.open_system import PhotonSector, SystemDensityMatrix

import oracles
from conftest import T_D, XI, fig2_params


def element_equation_rhs(rho, t, params, n_max):
    """Direct evaluation of the element-wise master equation (independent oracle)."""
    d = n_max + 1
    sectors = {(1, 0): 0, (0, 1): 1, (0, 0): 2}

    def get(mj, p, nk, q):
        if mj not in sectors or nk not in sectors:
            return 0.0
        if not (0 <= p <= n_max and 0 <= q <= n_max):
            return 0.0
        return rho[sectors[mj] * d + p, sectors[nk] * d + q]

    w0, wc, wm = params.omega_0, params.omega_c, params.omega_m
    g0, xi = params.g0, params.xi
    gc, gm, nth = params.gamma_c, params.gamma_m, params.n_th
    cos = math.cos(w0 * t)
    out = np.zeros_like(rho)
    for (m, j), srow in sectors.items():
        for (n, k), scol in sectors.items():
            for p in range(d):
                for q in range(d):
                    v = (
                        1j * ((n - m + k - j) * wc + (q - p) * wm)
                        - (gc / 2 * (m + n + j + k) + gm / 2 * ((2 * nth + 1) * (p + q) + 2 * nth))
                    ) * get((m, j), p, (n, k), q)
                    v += -1j * xi * w0 * cos * (
                        math.sqrt((n + 1) * k) * get((m, j), p, (n + 1, k - 1), q)
                        + math.sqrt(n * (k + 1)) * get((m, j), p, (n - 1, k + 1), q)
                    )
                    v += 1j * xi * w0 * cos * (
                        math.sqrt(m * (j + 1)) * get((m - 1, j + 1), p, (n, k), q)
                        + math.sqrt((m + 1) * j) * get((m + 1, j - 1), p, (n, k), q)
                    )
                    v += -1j * k * g0 * (
                        math.sqrt(q) * get((m, j), p, (n, k), q - 1)
                        + math.sqrt(q + 1) * get((m, j), p, (n, k), q + 1)
                    )
                    v += 1j * j * g0 * (
                        math.sqrt(p + 1) * get((m, j), p + 1, (n, k), q)
                        + math.sqrt(p) * get((m, j), p - 1, (n, k), q)
                    )
                    v += gc * (
                        math.sqrt((m + 1) * (n + 1)) * get((m + 1, j), p, (n + 1, k), q)
                        + math.sqrt((j + 1) * (k + 1)) * get((m, j + 1), p, (n, k + 1), q)
                    )
                    v += gm * (
                        math.sqrt((p + 1) * (q + 1)) * (nth + 1) * get((m, j), p + 1, (n, k), q + 1)
                        + math.sqrt(q * p) * nth * get((m, j), p - 1, (n, k), q - 1)
                    )
                    out[srow * d + p, scol * d + q] = v
    return out


def random_density(n_max, seed=7):
    rng = np.random.default_rng(seed)
    dim = 3 * (n_max + 1)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_rhs_matches_element_equations():
    n_max = 3
    params = model.SystemParams(
        omega_m=20.0, xi=XI, omega_0=9.878, omega_c=0.7, gamma_c=0.23, gamma_m=0.11, n_th=1.7
    )
    rho = random_density(n_max)
    t = 0.37
    mine = oracles.rhs_lindblad(rho, t, params)
    ref = element_equation_rhs(rho, t, params, n_max)
    assert np.max(np.abs(mine - ref)) < 1e-12


def invariant_density(n_max, seed=7):
    """random_density with its one-photon/vacuum coherences removed (still a density)."""
    rho = random_density(n_max, seed)
    k = 2 * (n_max + 1)
    rho[:k, k:] = 0.0
    rho[k:, :k] = 0.0
    return rho


def test_block_generator_matches_full_generator():
    # phonon interaction frame rho_I = U rho U^dag with U = exp(i H0 t), H0 = omega_c chi + omega_m n:
    # d rho_I/dt = i[H0, rho_I] + U (d rho/dt) U^dag.  The one-photon block is then taken into the
    # hopping frame phi = U_h^dag rho_I U_h, U_h = exp(-i theta sigma_x), theta = -xi sin(omega_0 t):
    # d phi/dt = U_h^dag (d rho_I/dt) U_h + i alpha [sigma_x (x) I, phi], alpha = -xi omega_0 cos(omega_0 t);
    # the vacuum block is untouched
    n_max = 4
    d = n_max + 1
    k = 2 * d
    sigma_x = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(d))
    # gamma_m = 0 and n_th = 0 take the phonon jumps' skipped branches
    for gamma_m, n_th in ((0.11, 1.7), (0.0, 1.7), (0.11, 0.0)):
        params = model.SystemParams(
            omega_m=20.0, xi=XI, omega_0=9.878, omega_c=0.7, gamma_c=0.23, gamma_m=gamma_m, n_th=n_th
        )
        energy = params.omega_c * np.repeat([1.0, 1.0, 0.0], d) + params.omega_m * np.tile(np.arange(d), 3)
        gen = osys._Generators(params, n_max)
        for seed, t in ((3, 0.0), (4, 0.37), (5, 2.9)):
            frame = invariant_density(n_max, seed)
            phi = frame[:k, :k]
            theta = -params.xi * math.sin(params.omega_0 * t)
            u_h = math.cos(theta) * np.eye(k) - 1j * math.sin(theta) * sigma_x
            rho_i = frame.copy()
            rho_i[:k, :k] = u_h @ phi @ u_h.conj().T
            u = np.exp(1j * energy * t)
            rho_lab = u.conj()[:, None] * rho_i * u[None, :]
            lab = oracles.rhs_lindblad(rho_lab, t, params)
            expected = 1j * (energy[:, None] - energy[None, :]) * rho_i + u[:, None] * lab * u.conj()[None, :]
            alpha = -params.xi * params.omega_0 * math.cos(params.omega_0 * t)
            expected_one = u_h.conj().T @ expected[:k, :k] @ u_h + 1j * alpha * (sigma_x @ phi - phi @ sigma_x)
            y = np.concatenate([phi.ravel(), frame[k:, k:].ravel()])
            got = gen.apply(t, model.hopping_unitary(params, t)[1], y, np.empty_like(y))
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got[: k * k] - expected_one.ravel())) < 1e-14 * scale
            assert np.max(np.abs(got[k * k :] - expected[k:, k:].ravel())) < 1e-14 * scale
            assert np.max(np.abs(expected[:k, k:])) < 1e-14 * scale


def test_generator_blocks_exactly_hermitian():
    n_max = 6
    d = n_max + 1
    k = 2 * d
    params = fig2_params(gamma_m=0.05, n_th=2.0)
    gen = osys._Generators(params, n_max)
    rho = invariant_density(n_max, seed=9)
    rho = 0.5 * (rho + rho.conj().T)  # exactly Hermitian
    assert np.array_equal(rho, rho.conj().T)
    y = np.concatenate([rho[:k, :k].ravel(), rho[k:, k:].ravel()])
    for t in (0.0, 0.37, 2.9):
        out = gen.apply(t, model.hopping_unitary(params, t)[1], y, np.empty_like(y))
        one = out[: k * k].reshape(k, k)
        vac = out[k * k :].reshape(d, d)
        assert np.array_equal(one, one.conj().T)
        assert np.array_equal(vac, vac.conj().T)


def test_anti_hermitian_initial_part_is_dropped():
    # the solver evolves the Hermitian part of the initial blocks
    n_max = 10
    d = n_max + 1
    params = fig2_params(gamma_m=0.05, n_th=2.0)
    cfg = SolverConfig(dt=closed.default_dt(params, 64), t_end=0.3, record_stride=8)
    low = np.tile(np.arange(d) < 4, 3)  # phonon levels 0-3 only, so the tail guard stays quiet
    herm = invariant_density(n_max, seed=11) * np.outer(low, low)
    herm /= np.trace(herm).real
    rng = np.random.default_rng(12)
    m = rng.normal(size=herm.shape) + 1j * rng.normal(size=herm.shape)
    anti = 0.5e-11 * (m - m.conj().T)
    anti[: 2 * d, 2 * d :] = 0.0
    anti[2 * d :, : 2 * d] = 0.0
    clean = osys.evolve_open(SystemDensityMatrix.from_full(herm), params, cfg)
    noisy = osys.evolve_open(SystemDensityMatrix.from_full(herm + anti), params, cfg)
    assert np.max(np.abs(anti)) > 1e-12
    assert np.max(np.abs(noisy.final.rho - clean.final.rho)) < 1e-14


def test_min_eigenvalue_blockwise():
    shifted = invariant_density(5)
    shifted[12:, 12:] -= 0.5 * np.eye(6)  # lowest eigenvalue in the vacuum block
    for rho in (invariant_density(5), shifted):
        sdm = SystemDensityMatrix.from_full(rho)
        full = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
        assert abs(sdm.min_eigenvalue() - full) < 1e-14
    with pytest.raises(ValueError, match="coherence"):
        SystemDensityMatrix.from_full(random_density(5))


def test_open_rk4_order(monkeypatch):
    # fig2-like run at n_max=6: halving dt cuts the error against a dt/8 reference ~16x,
    # for the solver's RK4 and for Kutta's 3/8 rule (dense rows of A) swapped in for it
    params = fig2_params(gamma_m=0.05, n_th=2.0)
    h = closed.default_dt(params, 40)  # the coarsest step the solver accepts; errors ~1e-8
    t_end = 40 * h

    def final(dt):
        cfg = SolverConfig(dt=dt, t_end=t_end, record_stride=10**6)
        return osys.evolve_open(osys.initial_density("bell", 6), params, cfg).final.rho

    for tableau in (osys._TABLEAU, oracles.KUTTA_38):
        monkeypatch.setattr(osys, "_TABLEAU", tableau)
        ref = final(h / 8)
        e1 = np.max(np.abs(final(h) - ref))
        e2 = np.max(np.abs(final(h / 2) - ref))
        assert 10.0 < e1 / e2 < 24.0


def test_open_default_step_accuracy():
    # the open default, 64 points per period in the hopping frame, against the lab-frame
    # oracle's RK4 at a sixteenth of that step: fig2 rates at n_max = 6 to t = 0.5, gamma_m
    # and n_th drawn from fig3a's and fig3b's ranges.  Measured 3.6e-10 on both draws; the
    # phonon-frame solver this replaced was off by 3.0e-8 at 64 points and 1.9e-9 at 128
    n_max, t_end = 6, 0.5
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        params = fig2_params(gamma_m=rng.uniform(1e-4, 1e-3), n_th=rng.uniform(1.0, 10.0))
        dt = closed.default_dt(params, 64)
        cfg = SolverConfig(dt=dt, t_end=t_end, record_stride=10**6)
        got = osys.evolve_open(osys.initial_density("bell", n_max), params, cfg).final.rho
        rhs = oracles.lindblad_generator(params, n_max)
        rho = osys.initial_density("bell", n_max).rho
        steps = math.ceil(t_end / (dt / 16))
        h = t_end / steps
        for i in range(steps):
            t = i * h
            k1 = rhs(rho, t)
            k2 = rhs(rho + h / 2 * k1, t + h / 2)
            k3 = rhs(rho + h / 2 * k2, t + h / 2)
            k4 = rhs(rho + h * k3, t + h)
            rho = rho + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(got - rho)) < 1e-9


def test_rk4_step_matches_element_equations():
    # one full integrator step through both right-hand sides
    n_max = 3
    params = model.SystemParams(
        omega_m=20.0, xi=XI, omega_0=9.878, gamma_c=0.15, gamma_m=0.02, n_th=0.8
    )
    rho = random_density(n_max, seed=12)
    dt = 1e-3
    t = 0.21

    def step(rhs):
        k1 = rhs(rho, t)
        k2 = rhs(rho + dt / 2 * k1, t + dt / 2)
        k3 = rhs(rho + dt / 2 * k2, t + dt / 2)
        k4 = rhs(rho + dt * k3, t + dt)
        return rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    blocks = step(lambda r, tt: oracles.rhs_lindblad(r, tt, params))
    elements = step(lambda r, tt: element_equation_rhs(r, tt, params, n_max))
    assert np.max(np.abs(blocks - elements)) < 1e-12


def test_pure_photon_decay():
    # hopping off, photon right: P_R(t) = exp(-gamma_c t) exactly
    params = model.SystemParams(omega_m=20.0, xi=0.0, omega_0=9.878, gamma_c=0.3)
    cfg = SolverConfig(dt=closed.default_dt(params, 64), t_end=5.0, record_stride=32)
    run = osys.evolve_open(osys.initial_density("right", 12), params, cfg)
    t = run.record.column("t")
    assert np.max(np.abs(run.record.column("P_R") - np.exp(-0.3 * t))) < 1e-12
    assert np.max(np.abs(run.record.column("P_L"))) < 1e-14


def test_thermal_fixed_point():
    params = model.SystemParams(omega_m=20.0, xi=0.0, omega_0=9.878, gamma_m=0.8, n_th=1.0)
    cfg = SolverConfig(dt=closed.default_dt(params, 64), t_end=12.5, record_stride=128)
    d = 41
    vac = np.zeros((d, d), complex)
    vac[0, 0] = 1.0  # photon vacuum, phonon ground state
    run = osys.evolve_open(SystemDensityMatrix(np.zeros((2 * d, 2 * d)), vac), params, cfg)
    nb = run.record.column("nb")
    assert abs(nb[-1] - params.n_th) < 0.01 * params.n_th


def test_open_matches_closed_without_dissipation(equivalence_runs):
    params, d, crun, orun = equivalence_runs
    n_max = crun.final.n_max
    dim = 3 * (n_max + 1)
    assert len(crun.kept) == len(orun.kept)
    worst = 0.0
    for st, sdm in zip(crun.kept, orun.kept):
        assert abs(st.t - sdm.t) < 1e-12
        amp = np.concatenate([st.a, st.b, np.zeros(n_max + 1, complex)])
        worst = max(worst, np.max(np.abs(sdm.rho - np.outer(amp, amp.conj()))))
    assert worst < 1e-6


def test_fidelity_open_matches_closed(equivalence_runs):
    params, d, crun, orun = equivalence_runs
    for st, sdm in zip(crun.kept, orun.kept):
        fc = closed.fidelity_conditional(st, params, d)
        fo = oracles.fidelity_open(sdm, params, d)
        assert abs(fc[0] - fo[0]) < 1e-6
        assert abs(fc[1] - fo[1]) < 1e-6


def test_record_row_matches_rotated_lab_state():
    # records are read off the hopping-frame blocks; each row must equal the one computed
    # from the explicitly rotated lab state (the kept snapshot) through the public readers
    params = fig2_params(gamma_m=0.05, n_th=2.0)
    d = model.derive(params)
    cfg = SolverConfig(dt=closed.default_dt(params, 64), t_end=0.6, record_stride=23)
    run = osys.evolve_open(osys.initial_density("bell", 8), params, cfg, keep=True)
    assert len(run.kept) == len(run.record) > 3
    for i, st in enumerate(run.kept):
        f_l, f_r = oracles.fidelity_open(st, params, d)
        expected = {
            "t": st.t,
            "P_L": np.trace(st.block(PhotonSector.L)).real,
            "P_R": np.trace(st.block(PhotonSector.R)).real,
            "P_V": np.trace(st.block(PhotonSector.V)).real,
            "nb": osys.mean_phonon_number(st),
            "F_L": f_l,
            "F_R": f_r,
            "trace_err": st.trace_error(),
            "min_eig": st.min_eigenvalue(),
        }
        for col, want in expected.items():
            assert abs(run.record.column(col)[i] - want) < 1e-14, col


def test_fidelity_open_empty_sector_is_nan():
    params = fig2_params()
    f_l, f_r = oracles.fidelity_open(osys.initial_density("left", 10), params, model.derive(params))
    assert abs(f_l - 1.0) < 1e-12
    assert math.isnan(f_r)


def test_reduce_mechanical_trivia():
    rho0 = osys.initial_density("bell", 10)
    for sector in (PhotonSector.L, PhotonSector.R):
        rho_m, p = osys.reduce_mechanical(rho0, sector)
        assert abs(p - 0.5) < 1e-14
        assert abs(rho_m[0, 0] - 1.0) < 1e-12
        assert abs(np.trace(rho_m) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="probability"):
        osys.reduce_mechanical(rho0, PhotonSector.V)


def test_invariant_accessors():
    rho0 = osys.initial_density("bell", 6)
    assert rho0.trace_error() < 1e-15
    assert rho0.hermiticity_error() == 0.0
    assert rho0.min_eigenvalue() > -1e-15
    with pytest.raises(ValueError):
        SystemDensityMatrix.from_full(np.zeros((7, 7)))
    with pytest.raises(ValueError):
        SystemDensityMatrix(np.zeros((4, 4)), np.zeros((3, 3)))


def test_initial_validation():
    params = fig2_params()
    cfg = SolverConfig(dt=1e-3, t_end=0.1)
    bad = osys.initial_density("bell", 10)
    bad.one = bad.one * 2.0
    with pytest.raises(ValueError, match="trace"):
        osys.evolve_open(bad, params, cfg)
    # a NaN entry is refused too: on the diagonal by the trace check, off it (the trace
    # intact) by the Hermiticity check, where the first record's eigvalsh would raise
    for i, j, match in ((2, 2, "unit trace"), (1, 12, "Hermitian")):
        nan = osys.initial_density("bell", 10)
        nan.one[i, j] = nan.one[j, i] = math.nan
        with pytest.raises(ValueError, match=match):
            osys.evolve_open(nan, params, cfg)
    # a photon in superposition with the vacuum: L-V coherence the state cannot hold
    amp = np.zeros(33, complex)
    amp[0] = amp[22] = 1 / math.sqrt(2)
    with pytest.raises(ValueError, match="coherence"):
        SystemDensityMatrix.from_full(np.outer(amp, amp.conj()))


def test_tail_guard_counts_every_sector():
    # 2e-6 on the top phonon level of any one sector trips the 1e-6 guard at the first record
    params = fig2_params()
    cfg = SolverConfig(dt=1e-3, t_end=0.1)
    d = 11
    for sector in PhotonSector:
        rho = osys.initial_density("left", d - 1).rho
        rho[0, 0] -= 2e-6
        top = sector.value * d + d - 1
        rho[top, top] += 2e-6
        with pytest.raises(closed.SolverAbort, match="phonon tail"):
            osys.evolve_open(SystemDensityMatrix.from_full(rho), params, cfg)
    assert osys.evolve_open(osys.initial_density("left", d - 1), params, cfg).invariants["tail_max"] < 1e-12


def test_eigenvalue_guard_trips_at_t0():
    # a Hermitian, unit-trace start with a -1e-5 eigenvalue is refused at the first record
    rho = osys.initial_density("left", 10).rho
    rho[0, 0] += 1e-5
    rho[1, 1] -= 1e-5
    cfg = SolverConfig(dt=1e-3, t_end=0.1)
    with pytest.raises(closed.SolverAbort, match=r"negative eigenvalue -1\.000e-05 at t=0 below -1e-06"):
        osys.evolve_open(SystemDensityMatrix.from_full(rho), fig2_params(), cfg)


def test_fig2_probabilities(fig2_run):
    # photon survival factors out of the hopping dynamics: P_L+P_R = e^{-gamma_c t}
    t = fig2_run.record.column("t")
    p_l = fig2_run.record.column("P_L")
    p_r = fig2_run.record.column("P_R")
    p_v = fig2_run.record.column("P_V")
    assert np.max(np.abs(p_l + p_r - np.exp(-0.2 * t))) < 1e-8
    assert np.max(np.abs(p_l + p_r + p_v - 1.0)) < 1e-10
    # conditioned on survival the photon is shared evenly near the detection time
    near = np.abs(t - T_D[20.0]) < 0.5
    cond = p_l[near] / (p_l[near] + p_r[near])
    assert np.max(np.abs(cond - 0.5)) < 0.05


def test_probability_monotonicity(fig2_run):
    survival = fig2_run.record.column("P_L") + fig2_run.record.column("P_R")
    assert np.all(np.diff(survival) < 1e-8)


def test_fig2_conservation(fig2_run):
    assert fig2_run.invariants["trace_err_max"] < 1e-8
    assert fig2_run.invariants["min_eig_min"] > -1e-8
    # the evolved blocks stay Hermitian up to the rounding of the lab-frame phases
    for st in (fig2_run.final, fig2_run.marked):
        assert st.hermiticity_error() <= 1e-15
    assert fig2_run.invariants["tail_max"] < closed.TAIL_ABORT


def test_gamma_c_independence_of_fidelity(gamma_c_runs):
    f_l = {gc: run.record.row_at(T_D[20.0])["F_L"] for gc, run in gamma_c_runs.items()}
    f_r = {gc: run.record.row_at(T_D[20.0])["F_R"] for gc, run in gamma_c_runs.items()}
    assert max(f_l.values()) - min(f_l.values()) < 0.01
    assert max(f_r.values()) - min(f_r.values()) < 0.01


def test_probability_decreases_with_gamma_c(gamma_c_runs):
    ordered = [gamma_c_runs[gc].record.row_at(T_D[20.0]) for gc in (0.05, 0.1, 0.2, 0.4)]
    survivals = [row["P_L"] + row["P_R"] for row in ordered]
    assert survivals[0] > survivals[1] > survivals[2] > survivals[3]


def test_success_probability_estimate(gamma_c_runs):
    for gc in (0.05, 0.1, 0.2):
        row = gamma_c_runs[gc].record.row_at(T_D[20.0])
        estimate = oracles.success_probability_estimate(fig2_params(gamma_c=gc))
        assert abs((row["P_L"] + row["P_R"]) / estimate - 1.0) < 0.5


def test_probabilities_insensitive_to_mechanical_noise(fig2_run, gamma_m_runs, n_th_runs):
    base_l = fig2_run.record.column("P_L")
    base_r = fig2_run.record.column("P_R")
    for run in list(gamma_m_runs.values()) + list(n_th_runs.values()):
        assert np.max(np.abs(run.record.column("P_L") - base_l)) < 1e-3
        assert np.max(np.abs(run.record.column("P_R") - base_r)) < 1e-3


def test_fidelity_decreases_with_mechanical_noise(gamma_m_runs, n_th_runs):
    f_gm = [gamma_m_runs[gm].record.row_at(T_D[20.0])["F_L"] for gm in (1e-4, 5e-4, 1e-3)]
    assert f_gm[0] > f_gm[1] > f_gm[2]
    f_nth = [n_th_runs[nth].record.row_at(T_D[20.0])["F_L"] for nth in (1.0, 5.0, 10.0)]
    assert f_nth[0] > f_nth[1] > f_nth[2]


def test_conditional_phonon_number(fig2_run):
    # conditioned on keeping the photon, the excitation reaches |beta(t_d)|^2 ~ 4;
    # the unconditional nb also counts phonons stranded by earlier photon jumps
    params = fig2_params()
    d = model.derive(params)
    beta2 = abs(model.beta_of_t(d, params.omega_m, T_D[20.0])) ** 2
    rho_l, _ = osys.reduce_mechanical(fig2_run.marked, PhotonSector.L)
    cond = float(np.sum(np.arange(rho_l.shape[0]) * np.diag(rho_l).real))
    assert abs(cond - beta2) < 0.1 * beta2
    nb = fig2_run.record.row_at(T_D[20.0])["nb"]
    assert nb > cond * (fig2_run.record.row_at(T_D[20.0])["P_L"] * 2)


def test_snapshot_text(tmp_path):
    sdm = SystemDensityMatrix.from_full(invariant_density(2), 0.25)
    path = tmp_path / "snap.json"
    osys.write_snapshot(path, sdm)
    flat = sdm.rho.ravel()
    data = np.empty(2 * flat.size)
    data[0::2] = flat.real
    data[1::2] = flat.imag
    doc = {"dim": 9, "t": 0.25, "layout": "row-major interleaved re/im", "data": data.tolist()}
    assert path.read_text(encoding="ascii") == json.dumps(doc)
    # a snapshot is outside input: read_snapshot refuses a one-photon/vacuum coherence
    flat = random_density(2).ravel()
    data[0::2] = flat.real
    data[1::2] = flat.imag
    doc["data"] = data.tolist()
    path.write_text(json.dumps(doc), encoding="ascii")
    with pytest.raises(ValueError, match="coherence"):
        osys.read_snapshot(path)


def test_snapshot_round_trip(tmp_path, fig2_run):
    path = tmp_path / "snap.json"
    osys.write_snapshot(path, fig2_run.marked)
    back = osys.read_snapshot(path)
    assert back.t == fig2_run.marked.t
    assert np.max(np.abs(back.rho - fig2_run.marked.rho)) < 1e-15
