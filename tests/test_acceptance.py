"""Acceptance gate: each test checks one shipping criterion at its stated
tolerance and prints a PASS/FAIL line (run with -s to see them inline)."""

import math
import time

import numpy as np
import pytest

from catforge import analysis, cli, closed, model
from catforge import open_system as osys
from catforge.analysis import PhaseSpaceGrid, QuadratureAxis
from catforge.closed import SolverConfig

import oracles
from conftest import T_D, XI, coupling_g, fig2_params

TD = T_D[20.0]


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def fig2_cli_run(tmp_path_factory):
    """The fig2 preset driven through the CLI, truncated at the detection time."""
    out = tmp_path_factory.mktemp("fig2-preset")
    cfg = cli.parse_config(preset="fig2", overrides={"t_end": TD}, out=str(out))
    start = time.perf_counter()
    doc = cli.run(cfg)
    doc["_wall"] = time.perf_counter() - start
    return doc, out


def test_criterion_1_fidelity_golden_numbers(fig2_cli_run):
    doc, _ = fig2_cli_run
    row = doc["at_t_d"]
    ok = abs(row["F_L"] - 0.943) <= 0.010 and abs(row["F_R"] - 0.939) <= 0.010
    ok = ok and doc["_wall"] < 300.0
    report(
        1,
        ok,
        f"fig2 preset F_L(t_d)={row['F_L']:.4f} (0.943±0.010), "
        f"F_R(t_d)={row['F_R']:.4f} (0.939±0.010), wall={doc['_wall']:.0f}s",
    )


def test_criterion_2_gamma_c_independence(gamma_c_runs):
    fls = [gamma_c_runs[gc].record.row_at(TD)["F_L"] for gc in (0.05, 0.1, 0.2, 0.4)]
    spread = max(fls) - min(fls)
    report(2, spread < 0.01, f"F_L(t_d) spread over gamma_c grid = {spread:.2e} (< 0.01)")


def test_criterion_3_success_probability(gamma_c_runs):
    worst = 0.0
    for gc in (0.05, 0.1, 0.2):
        row = gamma_c_runs[gc].record.row_at(TD)
        estimate = math.exp(-4 * math.pi * gc)
        worst = max(worst, abs((row["P_L"] + row["P_R"]) / estimate - 1.0))
    report(3, worst < 0.5, f"P_L+P_R vs exp(-4 pi gamma_c/g0): worst relative error {worst:.3f} (< 0.5)")


def test_criterion_4_rwa_convergence(closed_runs):
    envelopes = {}
    sups = {}
    for wm in (20.0, 40.0, 100.0):
        params, d, run = closed_runs[wm]
        t = run.record.column("t")
        f = run.record.column("F")
        t0 = math.pi / d.delta
        window = np.abs(t - t0) <= math.pi / params.omega_0
        envelopes[wm] = np.max(f[window])
        nb = run.record.column("nb")
        beta2 = np.array([abs(model.beta_of_t(d, wm, tt)) ** 2 for tt in t])
        sups[wm] = np.max(np.abs(nb - beta2)) / np.max(beta2)
    ok = envelopes[100.0] > envelopes[40.0] > envelopes[20.0] and sups[100.0] < 0.02
    report(
        4,
        ok,
        f"F(t0) envelope {envelopes[20.0]:.4f} < {envelopes[40.0]:.4f} < {envelopes[100.0]:.4f}; "
        f"sup|nb-|beta|^2| at omega_m/g0=100 is {sups[100.0] * 100:.2f}% (< 2%)",
    )


def test_criterion_5_single_mode_closed_form():
    params = model.SystemParams(omega_m=20.0, xi=0.0, omega_0=9.878)
    cfg = SolverConfig(dt=closed.default_dt(params), t_end=2 * math.pi / 20.0, record_stride=1)
    run = closed.evolve_closed(closed.initial_state("right", 20), params, cfg)
    t = run.record.column("t")
    x = run.record.column("x_over_x0")
    exact = (4 / 20.0) * np.sin(20.0 * t / 2) ** 2
    sup = np.max(np.abs(x - exact))
    report(5, sup < 1e-6, f"single-mode displacement sup-error {sup:.2e} (< 1e-6)")


def test_criterion_6_oracle_equivalences(equivalence_runs):
    params = fig2_params()
    d = model.derive(params)
    phi_l, _ = model.target_states(params, d, TD)

    grid = PhaseSpaceGrid.square(4.0, 0.1)
    v = phi_l.fock_vector(30)
    rho = np.outer(v, v.conj())
    wig_err = np.max(np.abs(analysis.wigner_numeric(rho, grid) - analysis.wigner_analytic(phi_l, grid)))

    axis = QuadratureAxis.around_cat(analysis.default_theta(phi_l.beta), abs(phi_l.beta))
    quad_err = np.max(
        np.abs(analysis.quadrature_numeric(rho, axis) - analysis.quadrature_analytic(phi_l, axis, n_max=30))
    )

    eq_params, _, ckept, okept = equivalence_runs
    n_max = ckept[0].n_max
    elem_err = 0.0
    for st, sdm in zip(ckept, okept):
        amp = np.concatenate([st.a, st.b, np.zeros(n_max + 1, complex)])
        elem_err = max(elem_err, np.max(np.abs(sdm.rho - np.outer(amp, amp.conj()))))

    from test_open import element_equation_rhs, random_density

    small = model.SystemParams(
        omega_m=20.0, xi=XI, omega_0=9.878, gamma_c=0.15, gamma_m=0.02, n_th=0.8
    )
    rho3 = random_density(3, seed=12)
    dt, t = 1e-3, 0.21

    def step(rhs):
        k1 = rhs(rho3, t)
        k2 = rhs(rho3 + dt / 2 * k1, t + dt / 2)
        k3 = rhs(rho3 + dt / 2 * k2, t + dt / 2)
        k4 = rhs(rho3 + dt * k3, t + dt)
        return rho3 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    step_err = np.max(
        np.abs(
            step(lambda r, tt: oracles.rhs_lindblad(r, tt, small))
            - step(lambda r, tt: element_equation_rhs(r, tt, small, 3))
        )
    )

    ok = wig_err < 1e-6 and quad_err < 1e-8 and elem_err < 1e-6 and step_err < 1e-12
    report(
        6,
        ok,
        f"wigner {wig_err:.1e} (<1e-6), quadrature {quad_err:.1e} (<1e-8), "
        f"open-vs-closed {elem_err:.1e} (<1e-6), superop step {step_err:.1e} (<1e-12)",
    )


def test_criterion_7_conservation_suite(closed_runs, gamma_c_runs, fig2_run):
    norm_drift = max(run.invariants["norm_drift"] for _, _, run in closed_runs.values())
    trace_err = max(run.invariants["trace_err_max"] for run in gamma_c_runs.values())
    min_eig = min(run.invariants["min_eig_min"] for run in gamma_c_runs.values())

    rho_l, _ = osys.reduce_mechanical(fig2_run.marked, osys.PhotonSector.L)
    beta = model.beta_of_t(model.derive(fig2_params()), 20.0, TD)
    grid = PhaseSpaceGrid.square(abs(beta) + 3.0, 0.05)
    integral = grid.integrate(analysis.wigner_numeric(rho_l, grid))

    ok = norm_drift < 1e-8 and trace_err < 1e-8 and min_eig > -1e-8 and 0.999 < integral < 1.001
    report(
        7,
        ok,
        f"norm drift {norm_drift:.1e} (<1e-8), trace drift {trace_err:.1e} (<1e-8), "
        f"min eigenvalue {min_eig:.1e} (>-1e-8), Wigner integral {integral:.5f} (in [0.999, 1.001])",
    )


def test_criterion_8_tomography_signatures(fig2_run, gamma_m_runs, n_th_runs):
    params = fig2_params()
    d = model.derive(params)
    beta = model.beta_of_t(d, params.omega_m, TD)
    step = 0.05
    grid = PhaseSpaceGrid.square(4.5, step)
    rho_l, _ = osys.reduce_mechanical(fig2_run.marked, osys.PhotonSector.L)
    w = analysis.wigner_numeric(rho_l, grid)

    # coherent lobes: largest W away from the interference band around the origin;
    # the argmax cell must neighbor the cell holding +-beta (one-cell localization)
    eta = grid.mesh()
    cell_errs = []
    for sign in (+1, -1):
        mask = (np.abs(eta) > abs(beta) / 2) & (np.real(eta * np.conj(sign * beta)) > 0)
        i, j = np.unravel_index(np.argmax(np.where(mask, w, -np.inf)), w.shape)
        i_ref = np.argmin(np.abs(grid.im_axis - (sign * beta).imag))
        j_ref = np.argmin(np.abs(grid.re_axis - (sign * beta).real))
        cell_errs.append(max(abs(i - i_ref), abs(j - j_ref)))
    peaks_ok = max(cell_errs) <= 1

    theta0 = analysis.default_theta(beta)
    axis = QuadratureAxis.around_cat(theta0, abs(beta))

    def visibility(run):
        rho, _ = osys.reduce_mechanical(run.marked, osys.PhotonSector.L)
        return oracles.fringe_visibility(axis.x_values, analysis.quadrature_numeric(rho, axis))

    vis_gm = [visibility(gamma_m_runs[gm]) for gm in (1e-4, 5e-4, 1e-3)]
    vis_nth = [visibility(n_th_runs[nth]) for nth in (1.0, 5.0, 10.0)]
    fringes_ok = vis_gm[0] > vis_gm[1] > vis_gm[2] and vis_nth[0] > vis_nth[1] > vis_nth[2]

    report(
        8,
        peaks_ok and fringes_ok,
        f"Wigner peaks within one cell of +-beta (cell offsets {cell_errs} <= 1); "
        f"visibility gamma_m {[f'{v:.3f}' for v in vis_gm]} and n_th {[f'{v:.3f}' for v in vis_nth]} decreasing",
    )


def test_criterion_9_beta_max_sweep(tmp_path):
    cfg = cli.parse_config(preset="fig1a", out=str(tmp_path))
    cli.run(cfg)
    rows = np.genfromtxt(tmp_path / "beta_max.csv", delimiter=",", names=True)
    exact = all(
        bm == model.bessel_j(2, 2 * xi) / delta for xi, delta, bm in rows
    )
    at_delta_g = analysis.sweep_beta_max([XI], [coupling_g()])[0][2]
    ok = exact and at_delta_g == 2.0
    report(9, ok, f"fig1a table analytic ({len(rows)} rows exact); |beta|_max at delta=g is {at_delta_g}")
