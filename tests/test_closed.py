import math
import re

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


def kernel_case(seed):
    # fig2-like rates at n_max = 10, the default step, a random unit state and the
    # explicit hopping-frame rhs
    rng = np.random.default_rng(seed)
    n_max = 10
    params = model.SystemParams(omega_m=20.0, xi=XI, omega_0=9.878)
    y = rng.normal(size=2 * n_max + 2) + 1j * rng.normal(size=2 * n_max + 2)
    return params, n_max, closed.default_dt(params), y / np.linalg.norm(y), (
        lambda s, v: hopping_generator(params, n_max, s) @ v
    )


def kernel_step(params, n_max, y, t0, h, i):
    # one kernel call on row i of the chunked stage table, from random finite buffers holding y
    c0 = i - i % closed._CHUNK
    ts = t0 + np.arange(c0, c0 + closed._CHUNK) * h
    row = closed._stage_table(params, n_max, ts, h)[i - c0]
    step = closed._interaction_rhs(n_max)
    rng = np.random.default_rng(i)
    bufs = rng.normal(size=(2, len(closed._TABLEAU[0]) + 2, n_max + 1)) * (1 + 1j)
    bufs[0, :2] = y.reshape(2, -1)
    out = step(row, closed._row_views(bufs[0]), closed._row_views(bufs[1]))
    assert np.array_equal(bufs[0, :2].reshape(-1), y)
    assert np.shares_memory(out[0], bufs[1])
    return out[0].reshape(-1)


def test_step_kernel_matches_textbook_rk4():
    # one kernel call on a row of the chunked stage table against four explicit stages
    params, n_max, h, y, f = kernel_case(7)
    t0 = 0.29
    # a chunk-interior step, the last step of the first chunk and the first of the second
    for i in (37, closed._CHUNK - 1, closed._CHUNK):
        t = t0 + i * h
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        ref = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(kernel_step(params, n_max, y, t0, h, i) - ref)) < 1e-14


def test_step_kernel_dense_rows(monkeypatch):
    # the kernel reads its step rule from the tableau: with Kutta's 3/8 rule, whose
    # rows of A use every earlier stage, one step matches the textbook 3/8 step
    monkeypatch.setattr(closed, "_TABLEAU", oracles.KUTTA_38)
    params, n_max, h, y, f = kernel_case(8)
    t0, i = 0.29, 37
    t = t0 + i * h
    k1 = f(t, y)
    k2 = f(t + h / 3, y + h / 3 * k1)
    k3 = f(t + 2 * h / 3, y + h * (k2 - k1 / 3))
    k4 = f(t + h, y + h * (k1 - k2 + k3))
    ref = y + h / 8 * (k1 + 3 * k2 + 3 * k3 + k4)
    assert np.max(np.abs(kernel_step(params, n_max, y, t0, h, i) - ref)) < 1e-14


@pytest.mark.parametrize("tableau", [closed._TABLEAU, oracles.KUTTA_38], ids=["rk4", "kutta_38"])
def test_tableau_order_conditions(tableau):
    # an explicit tableau of order 4: A strictly lower-triangular, c_i = sum_j a_ij,
    # and the eight order conditions of the rooted trees with at most four nodes
    c, a, b = tableau
    assert np.array_equal(a, np.tril(a, -1))
    assert np.max(np.abs(a.sum(axis=1) - c)) < 1e-15
    conditions = [
        (b.sum(), 1.0),
        (b @ c, 1 / 2),
        (b @ c**2, 1 / 3),
        (b @ a @ c, 1 / 6),
        (b @ c**3, 1 / 4),
        (b @ (c * (a @ c)), 1 / 8),
        (b @ a @ c**2, 1 / 12),
        (b @ a @ a @ c, 1 / 24),
    ]
    for got, want in conditions:
        assert abs(got - want) < 1e-15


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
    run = closed.evolve_closed(start, params, cfg, compute_fidelities=True, keep=True)
    assert len(run.kept) == len(run.record) > 10
    assert run.marked.t == cfg.t_mark and run.final.t == t_end
    cols = {c: run.record.column(c) for c in closed.CLOSED_COLUMNS}
    for i, st in enumerate(run.kept):
        obs = closed.observables(st)
        f_l, f_r = closed.fidelity_conditional(st, params, d)
        expect = dict(
            t=st.t, **obs, P_L=obs["nL"], P_R=obs["nR"],
            F=closed.fidelity_total(st, params, d), F_L=f_l, F_R=f_r,
        )
        for name, value in expect.items():
            assert abs(cols[name][i] - value) < 1e-14, name
    inv = run.invariants
    assert inv["tail_max"] > 0
    assert abs(inv["norm_drift"] - max(abs(st.norm_sq() - start.norm_sq()) for st in run.kept)) < 1e-14
    assert abs(inv["tail_max"] - max(st.tail_population() for st in run.kept)) < 1e-14


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
    """Run the driver with a stepper whose state counts the steps it was
    handed and a lab frame that pairs a state with its time; return the
    records (t, steps so far) and the driver's (final, marked, kept)."""
    records = []

    def advance(y, t0, dt, gaps):
        for gap in gaps:
            y += gap
            yield y

    def emit(t, y):
        records.append((t, y))

    return records, closed.integrate(0, cfg, advance, emit, lambda t, y: (t, y), keep=True)


def test_integrate_time_grid_records_and_mark():
    # segments of 130 + 170 steps with the mark inside, 300 without: none a multiple of _CHUNK
    cases = (
        (1.3, ((0.0, 1.3, 130), (1.3, 3.0, 170))),
        (None, ((0.0, 3.0, 300),)),
        (3.0, ((0.0, 3.0, 300),)),
    )
    for t_mark, segments in cases:
        cfg = SolverConfig(dt=0.01, t_end=3.0, record_stride=7, t_mark=t_mark)
        records, (final, marked, kept) = counted_records(cfg)
        expect, done = [(0.0, 0)], 0
        for t0, t1, n in segments:
            assert n % closed._CHUNK != 0
            h = (t1 - t0) / n
            expect += [(t0 + i * h, done + i) for i in range(7, n, 7)] + [(t1, done + n)]
            done += n
        assert records == kept == expect
        assert final == (3.0, done)
        assert (marked and marked[0]) == t_mark


def test_closed_and_open_share_the_record_times():
    # both solvers record on the driver's grid, 266 + 290 steps, each past a chunk boundary
    params = fig2_params()
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=0.69, record_stride=7, t_mark=0.33)
    for t0, t1 in ((0.0, 0.33), (0.33, 0.69)):
        assert closed._CHUNK < closed._segment_steps(cfg.dt, t0, t1)[0] < 2 * closed._CHUNK
    crun = closed.evolve_closed(closed.initial_state("bell", 6), params, cfg)
    orun = osys.evolve_open(osys.initial_density("bell", 6), params, cfg)
    times = [t for t, _ in counted_records(cfg)[0]]
    assert crun.record.column("t").tolist() == orun.record.column("t").tolist() == times
    assert crun.marked.t == orun.marked.t == 0.33


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
    assert run.invariants["norm_drift"] < 1e-8
    assert run.invariants["tail_max"] < 1e-6


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


def test_nan_initial_state_refused():
    # a NaN amplitude fails the normalization check, not the norm guard at t = 0
    state = closed.initial_state("bell", 6)
    state.a[3] = math.nan
    with pytest.raises(ValueError, match="normalized"):
        closed.evolve_closed(state, fig2_params(), SolverConfig(dt=1e-3, t_end=0.1))


def test_norm_abort_diagnostic():
    # the coarsest admissible step accumulates visible drift on a long run: at
    # omega_m = 4 g0 it drifts 1.4e-5 over 4 pi/delta, the default step 4.3e-8
    params = model.SystemParams.with_detuning(4.0, XI, coupling_g())
    d = model.derive(params)

    def run(ppp):
        cfg = SolverConfig(dt=closed.default_dt(params, ppp), t_end=4 * math.pi / d.delta, record_stride=64)
        return closed.evolve_closed(closed.initial_state("bell", 22), params, cfg)

    # the guard reads the record states, so the abort names the record where it trips
    message = "norm drift 1.295e-06 at t=13.3749 exceeds 1e-06; reduce dt (current 0.0209063)"
    with pytest.raises(SolverAbort, match=f"^{re.escape(message)}$"):
        run(40)
    assert run(128).invariants["norm_drift"] < 1e-7


def test_guard_table_ceiling_and_floor():
    # worst values are kept from the first record on; an abort carries the bound and the advice
    guards = closed._Guards(
        drift=("norm drift", 1e-6, 1, "reduce dt"),
        eig=("negative eigenvalue", -1e-6, -1, "increase n_max"),
    )
    guards.check(0.0, drift=5e-7, eig=3e-7)
    assert guards.worst == {"drift": 5e-7, "eig": 3e-7}
    guards.check(0.5, drift=2e-7, eig=-4e-7)
    assert guards.worst == {"drift": 5e-7, "eig": -4e-7}
    with pytest.raises(SolverAbort, match=re.escape("norm drift 2.000e-06 at t=1 exceeds 1e-06; reduce dt")):
        guards.check(1.0, drift=2e-6, eig=0.0)
    with pytest.raises(SolverAbort, match=re.escape("eigenvalue -3.000e-06 at t=1.5 below -1e-06; increase n_max")):
        guards.check(1.5, drift=0.0, eig=-3e-6)
    assert guards.worst == {"drift": 2e-6, "eig": -3e-6}
    # a state gone non-finite trips the guard instead of passing every comparison
    with pytest.raises(SolverAbort, match="eigenvalue nan at t=2 below"):
        guards.check(2.0, drift=0.0, eig=math.nan)


def test_tail_abort_diagnostic():
    params = fig2_params(gamma_c=0.0, gamma_m=0.0, n_th=0.0)
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=4.0, record_stride=64)
    message = "phonon tail population 2.153e-06 at t=1.27205 exceeds 1e-06; increase n_max (current 5)"
    with pytest.raises(SolverAbort, match=f"^{re.escape(message)}$"):
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


def test_frame_targets_batched_at_large_beta():
    # the targets of all record times at once against the per-time expansion of
    # target_states, on the record grid of a figS4 delta/g = 0.5 run (|beta| up to 4)
    params = model.SystemParams.with_detuning(20.0, XI, 0.5 * coupling_g())
    d = model.derive(params)
    n_max = closed.default_n_max(params, d)
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=math.pi / d.delta, record_stride=430)
    ts = np.array([t for t, _ in counted_records(cfg)[0]])
    assert n_max == 49 and ts.size == 50
    assert max(abs(model.beta_of_t(d, params.omega_m, t)) for t in ts) > 3.99
    batch = closed._frame_targets(params, d, ts, n_max, model.hopping_unitary(params, ts))
    phases = np.exp(1j * params.omega_m * ts[:, None] * np.arange(n_max + 1))
    for t, ph, w in zip(ts, phases, batch):
        v = closed._target_vectors(params, d, t, n_max)
        u_h = model.hopping_unitary(params, t)
        ref = np.stack([np.kron(u_h[s].conj(), v[s] * ph) for s in (0, 1)])
        assert np.max(np.abs(w - ref)) < 1e-14


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
