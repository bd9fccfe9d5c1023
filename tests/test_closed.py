import math

import numpy as np
import pytest
from scipy.linalg import expm

from catforge import closed, model
from catforge import open_system as osys
from catforge.closed import SolverAbort, SolverConfig

import oracles
from conftest import T_D, XI, coupling_g, fig2_params


def free_params(**kw):
    return model.SystemParams(omega_m=20.0, xi=0.0, omega_0=9.878, **kw)


def test_initial_states():
    st = closed.initial_state("bell", 10)
    assert abs(st.norm_sq() - 1.0) < 1e-14
    assert st.a[0] == st.b[0]
    with pytest.raises(ValueError):
        closed.initial_state("both", 10)


def test_rhs_closed_matches_amplitude_equations():
    # explicit loop evaluation of the coupled amplitude ODEs
    rng = np.random.default_rng(3)
    n_max = 6
    params = model.SystemParams(omega_m=17.0, xi=1.1, omega_0=8.3, omega_c=0.9)
    a = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    b = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    t = 0.83
    da, db = oracles.rhs_closed(closed.SinglePhotonState(a, b, t), params)
    drive = params.xi * params.omega_0 * math.cos(params.omega_0 * t)
    for m in range(n_max + 1):
        ref_a = -1j * (params.omega_c + m * params.omega_m) * a[m] + 1j * drive * b[m]
        ref_b = -1j * (params.omega_c + m * params.omega_m) * b[m] + 1j * drive * a[m]
        if m + 1 <= n_max:
            ref_b += 1j * params.g0 * math.sqrt(m + 1) * b[m + 1]
        if m - 1 >= 0:
            ref_b += 1j * params.g0 * math.sqrt(m) * b[m - 1]
        assert abs(da[m] - ref_a) < 1e-13
        assert abs(db[m] - ref_b) < 1e-13


def hopping_generator(params, n_max, t):
    # the explicit 2d x 2d hopping-frame generator i g0 |r'><r'| (x) X(t) acting on
    # [phi_L; phi_R], with |r'> = U_h^dag |R> and X(t) = e^{-i omega_m t} b + h.c.
    b = oracles.destroy(n_max)
    x = np.exp(-1j * params.omega_m * t) * b
    x += x.conj().T
    r = hopping_unitary(params, t).conj().T @ np.array([0.0, 1.0])
    return 1j * params.g0 * np.kron(np.outer(r, r.conj()), x)


def hopping_unitary(params, t):
    # U_h(t) = exp(i xi sin(omega_0 t) sigma_x) on the photon pair (L, R)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    return expm(1j * params.xi * math.sin(params.omega_0 * t) * sigma_x)


def test_interaction_frame_consistency():
    # the hopping-frame generator must reproduce the lab-frame rhs exactly
    rng = np.random.default_rng(5)
    n_max = 8
    d = n_max + 1
    params = model.SystemParams(omega_m=20.0, xi=XI, omega_0=9.878)
    phi = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
    t = 1.37
    u_h = np.kron(hopping_unitary(params, t), np.eye(d))
    m = np.tile(np.arange(d), 2)
    ph = np.exp(-1j * m * params.omega_m * t)
    lab = ph * (u_h @ phi)
    # d/dt [P U_h phi] = -i m omega_m P U_h phi + P (d U_h/dt) phi + P U_h G phi
    hop = params.xi * params.omega_0 * math.cos(params.omega_0 * t)
    swap = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(d))
    dlab = -1j * m * params.omega_m * lab + ph * (1j * hop * swap @ u_h @ phi)
    dlab += ph * (u_h @ hopping_generator(params, n_max, t) @ phi)
    da_lab, db_lab = oracles.rhs_closed(closed.SinglePhotonState(lab[:d], lab[d:], t), params)
    assert np.max(np.abs(dlab - np.concatenate([da_lab, db_lab]))) < 1e-12


def test_step_kernel_matches_textbook_rk4():
    # one kernel call on a row of the chunked stage table against four explicit stages
    rng = np.random.default_rng(7)
    n_max = 10
    d = n_max + 1
    params = model.SystemParams(omega_m=20.0, xi=XI, omega_0=9.878)
    t0, h = 0.29, closed.default_dt(params)
    step = closed._interaction_rhs(params, n_max)
    y = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
    y /= np.linalg.norm(y)

    def f(s, v):
        return hopping_generator(params, n_max, s) @ v

    # a chunk-interior step, the last step of the first chunk and the first of the second
    for i in (37, closed._CHUNK - 1, closed._CHUNK):
        c0 = i - i % closed._CHUNK
        ts = t0 + np.arange(c0, c0 + closed._CHUNK) * h
        row = closed._stage_table(params, n_max, ts, h)[i - c0]
        t = t0 + i * h
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        ref = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        bufs = rng.normal(size=(2, 6, d)) + 1j * rng.normal(size=(2, 6, d))
        bufs[0, :2] = y.reshape(2, d)
        out = step(row, closed._row_views(bufs[0]), closed._row_views(bufs[1]))
        assert np.array_equal(bufs[0, :2].reshape(-1), y)
        assert np.shares_memory(out[0], bufs[1])
        assert np.max(np.abs(out[0].reshape(-1) - ref)) < 1e-14


def test_records_match_observables():
    # the records read off the interaction-frame vector against the lab-frame state
    rng = np.random.default_rng(13)
    n_max = 14
    m = np.arange(n_max + 1)
    amp = (rng.normal(size=(2, n_max + 1)) + 1j * rng.normal(size=(2, n_max + 1))) * 0.3**m
    amp /= np.linalg.norm(amp)
    start = closed.SinglePhotonState(amp[0], amp[1], 0.0)
    params = fig2_params(gamma_c=0.0, gamma_m=0.0, n_th=0.0, omega_c=3.1)
    d = model.derive(params)
    t_end = rng.uniform(0.5, 1.0)
    cfg = SolverConfig(
        dt=closed.default_dt(params), t_end=t_end, record_stride=7, t_mark=rng.uniform(0.1, 0.4)
    )
    run = closed.evolve_closed(start, params, cfg, compute_fidelities=True, keep_states=True)
    assert len(run.states) == len(run.record) > 10
    assert run.marked.t == cfg.t_mark and run.final.t == t_end
    cols = {c: run.record.column(c) for c in closed.CLOSED_COLUMNS}
    for i, st in enumerate(run.states):
        obs = closed.observables(st)
        f_l, f_r = closed.fidelity_conditional(st, params, d)
        expect = dict(
            t=st.t, **obs, P_L=obs["nL"], P_R=obs["nR"],
            F=closed.fidelity_total(st, params, d), F_L=f_l, F_R=f_r,
        )
        for name, value in expect.items():
            assert abs(cols[name][i] - value) < 1e-14, name
    assert run.tail_max > 0
    assert abs(run.norm_drift - max(abs(st.norm_sq() - start.norm_sq()) for st in run.states)) < 1e-14
    assert abs(run.tail_max - max(st.tail_population() for st in run.states)) < 1e-14


def test_closed_matches_solve_ivp():
    # the stepper, chunked coefficients and t_mark split against an adaptive
    # high-order integration of the lab-frame amplitude equations
    from scipy.integrate import solve_ivp

    params = fig2_params(gamma_c=0.0, gamma_m=0.0, n_th=0.0)
    n_max, t_mark, t_end = 12, 0.41, 1.0
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=t_end, record_stride=50, t_mark=t_mark)
    for t0, t1 in ((0.0, t_mark), (t_mark, t_end)):
        assert closed._segment_steps(cfg.dt, t0, t1)[0] % closed._CHUNK != 0
    start = closed.initial_state("bell", n_max)
    run = closed.evolve_closed(start, params, cfg)

    d = n_max + 1

    def lab(t, y):
        return np.concatenate(oracles.rhs_closed(closed.SinglePhotonState(y[:d], y[d:], t), params))

    ref = solve_ivp(
        lab,
        (0.0, t_end),
        np.concatenate([start.a, start.b]),
        method="DOP853",
        t_eval=[t_mark, t_end],
        rtol=1e-12,
        atol=1e-12,
    )
    assert ref.success
    for st, y in ((run.marked, ref.y[:, 0]), (run.final, ref.y[:, 1])):
        assert np.max(np.abs(np.concatenate([st.a, st.b]) - y)) < 1e-8


def counted_records(cfg):
    """Run the driver with a stepper whose state counts its yields; return the
    records (t, yields so far, is_mark) and the returned state."""
    records = []

    def advance(y, t0, dt, n):
        for _ in range(n):
            y += 1
            yield y

    last = closed.integrate(0, cfg, advance, lambda t, y, is_mark: records.append((t, y, is_mark)))
    return records, last


def test_integrate_time_grid_records_and_mark():
    # segments of 130 + 170 steps with the mark inside, 300 without: none a multiple of _CHUNK
    cases = (
        (1.3, ((0.0, 1.3, 130), (1.3, 3.0, 170))),
        (None, ((0.0, 3.0, 300),)),
        (3.0, ((0.0, 3.0, 300),)),
    )
    for t_mark, segments in cases:
        cfg = SolverConfig(dt=0.01, t_end=3.0, record_stride=7, t_mark=t_mark)
        records, last = counted_records(cfg)
        expect, done = [(0.0, 0)], 0
        for t0, t1, n in segments:
            assert n % closed._CHUNK != 0
            h = (t1 - t0) / n
            expect += [(t0 + i * h, done + i) for i in range(7, n, 7)] + [(t1, done + n)]
            done += n
        assert [(t, y) for t, y, _ in records] == expect
        assert last == done
        marks = [t for t, _, is_mark in records if is_mark]
        assert marks == ([] if t_mark is None else [t_mark])


def test_closed_and_open_share_the_record_times():
    # both solvers record on the driver's grid, 178 + 218 steps, each past a chunk boundary
    params = fig2_params()
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=0.245, record_stride=7, t_mark=0.11)
    crun = closed.evolve_closed(closed.initial_state("bell", 6), params, cfg)
    orun = osys.evolve_open(osys.initial_density("bell", 6), params, cfg)
    times = [t for t, _, _ in counted_records(cfg)[0]]
    assert crun.record.column("t").tolist() == orun.record.column("t").tolist() == times
    assert crun.marked.t == orun.marked.t == 0.11


def test_free_evolution_preserves_moduli():
    # no hopping and the photon on the left: only free phases act
    rng = np.random.default_rng(11)
    a = np.zeros(13, complex)
    a[:8] = rng.normal(size=8) + 1j * rng.normal(size=8)  # keep clear of the cutoff
    a /= math.sqrt(np.sum(np.abs(a) ** 2))
    st = closed.SinglePhotonState(a, np.zeros(13, complex), 0.0)
    params = free_params()
    run = closed.evolve_closed(
        st, params, SolverConfig(dt=1e-3, t_end=2.0, record_stride=200), compute_fidelities=False
    )
    assert np.max(np.abs(np.abs(run.final.a) - np.abs(a))) < 1e-10
    assert np.max(np.abs(run.final.b)) == 0.0


def test_single_mode_displacement_closed_form():
    # photon fixed in the right cavity: <x>/x0 = (4 g0/omega_m) sin^2(omega_m t/2)
    params = free_params()
    t_end = 2 * math.pi / params.omega_m
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=t_end, record_stride=1)
    run = closed.evolve_closed(closed.initial_state("right", 20), params, cfg)
    t = run.record.column("t")
    x = run.record.column("x_over_x0")
    exact = (4 * params.g0 / params.omega_m) * np.sin(params.omega_m * t / 2) ** 2
    assert np.max(np.abs(x - exact)) < 1e-6


def test_norm_conservation_at_default_step():
    params = fig2_params(gamma_c=0.0, gamma_m=0.0, n_th=0.0)
    d = model.derive(params)
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=4 * math.pi / d.delta, record_stride=64)
    run = closed.evolve_closed(closed.initial_state("bell", 22), params, cfg)
    assert run.norm_drift < 1e-8
    assert run.tail_max < 1e-6


def test_closed_default_step_accuracy(closed_runs):
    # a Bell run to t_d at the default 128 points per period against 2048 points:
    # measured 2.5e-10 (omega_m = 20) and 4.7e-11 (omega_m = 100)
    for wm in (20.0, 100.0):
        params, _, run = closed_runs[wm]
        cfg = SolverConfig(dt=closed.default_dt(params, 2048), t_end=T_D[wm], record_stride=10**9)
        ref = closed.evolve_closed(closed.initial_state("bell", 22), params, cfg).final
        assert run.marked.t == ref.t
        err = np.max(np.abs(np.concatenate([run.marked.a - ref.a, run.marked.b - ref.b])))
        assert err < 1e-9, wm


def test_rk4_order():
    params = fig2_params(gamma_c=0.0, gamma_m=0.0, n_th=0.0)
    t_end = 1.0
    dt0 = 2e-3

    def endpoint(dt):
        run = closed.evolve_closed(
            closed.initial_state("bell", 22),
            params,
            SolverConfig(dt=dt, t_end=t_end, record_stride=10**6),
        )
        return np.concatenate([run.final.a, run.final.b])

    ref = endpoint(dt0 / 8)
    e1 = np.max(np.abs(endpoint(dt0) - ref))
    e2 = np.max(np.abs(endpoint(dt0 / 2) - ref))
    assert 12.0 < e1 / e2 < 20.0


def test_step_size_validation():
    params = fig2_params()
    with pytest.raises(ValueError, match="fastest retained"):
        SolverConfig(dt=0.02, t_end=1.0).validate(params)
    with pytest.raises(ValueError):
        SolverConfig(dt=-1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-3, t_end=1.0, t_mark=2.0)


def test_norm_abort_diagnostic():
    # the coarsest admissible step accumulates visible drift on a long run: at
    # omega_m = 4 g0 it drifts 1.4e-5 over 4 pi/delta, the default step 4.3e-8
    params = model.SystemParams.with_detuning(4.0, XI, coupling_g())
    d = model.derive(params)

    def run(ppp):
        cfg = SolverConfig(dt=closed.default_dt(params, ppp), t_end=4 * math.pi / d.delta, record_stride=64)
        return closed.evolve_closed(closed.initial_state("bell", 22), params, cfg)

    with pytest.raises(SolverAbort, match="reduce dt"):
        run(40)
    assert run(128).norm_drift < 1e-7


def test_tail_abort_diagnostic():
    params = fig2_params(gamma_c=0.0, gamma_m=0.0, n_th=0.0)
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=4.0, record_stride=64)
    with pytest.raises(SolverAbort, match="n_max"):
        closed.evolve_closed(closed.initial_state("bell", 5), params, cfg)


def test_phonon_peak_and_probabilities(closed_runs):
    params, d, run = closed_runs[20.0]
    t = run.record.column("t")
    nb = run.record.column("nb")
    t0 = math.pi / d.delta
    i0 = np.argmin(np.abs(t - t0))
    assert abs(nb[i0] - d.beta_max**2) < 0.1 * d.beta_max**2
    p_l = run.record.column("P_L")
    p_r = run.record.column("P_R")
    near = np.abs(t - t0) < 0.5
    assert np.max(np.abs(p_l[near] - 0.5)) < 0.05
    assert np.max(np.abs(p_r[near] - 0.5)) < 0.05
    assert np.max(np.abs(p_l + p_r - 1.0)) < 1e-8


def test_hopping_population_approximation(closed_runs):
    # right-initial run: <n_R(t)> ~ cos^2[xi sin(omega_0 t)]
    params, d, _ = closed_runs[20.0]
    cfg = SolverConfig(
        dt=closed.default_dt(params), t_end=2 * math.pi / d.delta, record_stride=32
    )
    run = closed.evolve_closed(closed.initial_state("right", 22), params, cfg)
    t = run.record.column("t")
    n_r = run.record.column("nR")
    approx = np.cos(XI * np.sin(params.omega_0 * t)) ** 2
    assert np.max(np.abs(n_r - approx)) < 0.05
    # fidelity columns stay empty for non-Bell preparations
    assert np.all(np.isnan(run.record.column("F")))


def test_target_vectors_flip_matches_two_expansions():
    # phi_R's vector is phi_L's with odd entries negated: equal to expanding
    # phi_R itself except for the signs of zero parts (np.array_equal)
    rng = np.random.default_rng(31)
    for _ in range(200):
        params = model.SystemParams.with_detuning(rng.uniform(10.0, 100.0), XI, rng.uniform(0.5, 2.0) * coupling_g())
        d = model.derive(params)
        t = rng.uniform(0.0, 2 * math.pi / d.delta)
        n_max = int(rng.integers(1, 60))
        phi_l, phi_r = model.target_states(params, d, t)
        v_l, v_r = closed._target_vectors(params, d, t, n_max)
        assert v_l.tobytes() == phi_l.fock_vector(n_max).tobytes()
        assert np.array_equal(v_r, phi_r.fock_vector(n_max))


def test_fidelity_trivia(closed_runs):
    params, d, _ = closed_runs[20.0]
    st = closed.initial_state("bell", 22)
    assert abs(closed.fidelity_total(st, params, d) - 1.0) < 1e-12
    f_l, f_r = closed.fidelity_conditional(st, params, d)
    assert abs(f_l - 1.0) < 1e-12 and abs(f_r - 1.0) < 1e-12


def test_fidelity_global_phase_invariance(closed_runs):
    params, d, run = closed_runs[20.0]
    st = run.marked
    rotated = closed.SinglePhotonState(st.a * np.exp(0.73j), st.b * np.exp(0.73j), st.t)
    assert abs(closed.fidelity_total(st, params, d) - closed.fidelity_total(rotated, params, d)) < 1e-12


def test_omega_c_neutrality():
    base = fig2_params(gamma_c=0.0, gamma_m=0.0, n_th=0.0)
    doubled = fig2_params(gamma_c=0.0, gamma_m=0.0, n_th=0.0, omega_c=14.0)
    cfg = SolverConfig(dt=closed.default_dt(base), t_end=2.0, record_stride=100)
    runs = [
        closed.evolve_closed(closed.initial_state("bell", 22), p, cfg) for p in (base, doubled)
    ]
    for col in ("nL", "nR", "x_over_x0", "nb", "F", "F_L", "F_R"):
        assert np.max(np.abs(runs[0].record.column(col) - runs[1].record.column(col))) < 1e-10


def test_conditional_states_at_t0():
    st = closed.initial_state("bell", 8)
    psi_l, p_l, psi_r, p_r = closed.conditional_states(st)
    assert abs(p_l - 0.5) < 1e-14 and abs(p_r - 0.5) < 1e-14
    assert abs(psi_l[0] - 1.0) < 1e-14 and abs(psi_r[0] - 1.0) < 1e-14


def test_undefined_conditional_branch():
    st = closed.initial_state("right", 8)
    psi_l, p_l, _, _ = closed.conditional_states(st)
    assert psi_l is None and p_l < 1e-12
    params = free_params()
    f_l, f_r = closed.fidelity_conditional(st, params, model.derive(params))
    assert math.isnan(f_l) and abs(f_r - 1.0) < 1e-12


def test_high_frequency_fidelities(closed_runs):
    # omega_m/g0 = 100 at its detection time: conditional fidelities above 0.98
    params, d, run = closed_runs[100.0]
    f_l, f_r = closed.fidelity_conditional(run.marked, params, d)
    assert f_l > 0.98 and f_r > 0.98


def test_rwa_convergence_is_monotone(closed_runs):
    # sup-norm distance between <n_b> and |beta(t)|^2 shrinks with omega_m/g0
    sups = []
    for wm in (20.0, 40.0, 100.0):
        params, d, run = closed_runs[wm]
        t = run.record.column("t")
        nb = run.record.column("nb")
        beta2 = np.array([abs(model.beta_of_t(d, wm, tt)) ** 2 for tt in t])
        sups.append(np.max(np.abs(nb - beta2)))
    assert sups[0] > sups[1] > sups[2]


def test_detuning_sweep_fidelity_at_t0():
    # larger delta/g: shorter runs, fidelity near one at omega_m/g0 = 100
    for ratio in (0.8, 1.6):
        delta = ratio * coupling_g()
        params = model.SystemParams.with_detuning(100.0, XI, delta)
        d = model.derive(params)
        cfg = SolverConfig(
            dt=closed.default_dt(params), t_end=math.pi / d.delta, record_stride=10**6
        )
        run = closed.evolve_closed(closed.initial_state("bell", 30), params, cfg)
        f_l, f_r = closed.fidelity_conditional(run.final, params, d)
        assert f_l > 0.97 and f_r > 0.97
