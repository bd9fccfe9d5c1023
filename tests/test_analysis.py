import math

import numpy as np
import pytest

from catforge import analysis, closed, fock, model
from catforge import open_system as osys
from catforge.analysis import PhaseSpaceGrid, QuadratureAxis

import oracles
from conftest import T_D, XI, fig2_params


def detection_cat():
    params = fig2_params()
    d = model.derive(params)
    phi_l, phi_r = model.target_states(params, d, T_D[20.0])
    return params, d, phi_l, phi_r


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(0, 1, 0, 1, 1, 5)
    with pytest.raises(ValueError):
        PhaseSpaceGrid(1, 0, 0, 1, 5, 5)
    g = PhaseSpaceGrid.square(2.0, 0.5)
    assert g.n_re == g.n_im == 9
    assert g.mesh()[0, 0] == -2.0 - 2.0j


def test_axis_validation():
    with pytest.raises(ValueError):
        QuadratureAxis(0.0, [0.0, 0.0, 1.0])
    axis = QuadratureAxis.around_cat(0.3, 2.0, step=0.01)
    assert axis.x_values[0] == -(math.sqrt(2) * 2.0 + 6.0)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            QuadratureAxis.around_cat(theta, 2.0)


def test_wigner_vacuum():
    grid = PhaseSpaceGrid.square(3.0, 0.05)
    w = analysis.wigner_analytic(model.CatState(0.0, 1.0, 0.0), grid)
    i0 = grid.n_im // 2
    assert abs(w[i0, grid.n_re // 2] - 2 / math.pi) < 1e-12
    assert abs(grid.integrate(w) - 1.0) < 1e-6


def test_wigner_normalization_wide_grid():
    _, _, phi_l, _ = detection_cat()
    grid = PhaseSpaceGrid(-6, 6, -6, 6, 241, 241)
    w = analysis.wigner_analytic(phi_l, grid)
    assert abs(grid.integrate(w) - 1.0) < 1e-4


def test_wigner_interference_fringe_period():
    # along the perpendicular bisector of +-beta, eta = s * i beta/|beta|,
    # the cross term is e^{-2 s^2} times an oscillation in Im(eta beta*) = s|beta|
    # of period pi/2; half a period flips its sign
    _, _, phi_l, _ = detection_cat()
    beta = phi_l.beta
    unit = 1j * beta / abs(beta)
    period = (math.pi / 2) / abs(beta)

    def oscillation(sv):
        eta = sv * unit
        g = PhaseSpaceGrid(eta.real, eta.real + 1e-9, eta.imag, eta.imag + 1e-9, 2, 2)
        w = analysis.wigner_analytic(phi_l, g)[0, 0]
        wp = abs(phi_l.weight_plus) ** 2 * math.exp(-2 * abs(eta - beta) ** 2)
        wm = abs(phi_l.weight_minus) ** 2 * math.exp(-2 * abs(eta + beta) ** 2)
        cross = w - (2 / math.pi / phi_l.norm_sq()) * (wp + wm)
        return cross * math.exp(2 * sv**2)

    s = np.linspace(0.0, 2 * period, 40)
    vals = np.array([oscillation(sv) for sv in s])
    full = np.array([oscillation(sv + period) for sv in s])
    half = np.array([oscillation(sv + period / 2) for sv in s])
    assert np.max(np.abs(vals)) > 0.1  # fringes are actually present
    assert np.max(np.abs(full - vals)) < 1e-9
    assert np.max(np.abs(half + vals)) < 1e-9


def test_wigner_left_right_rotation():
    _, _, phi_l, phi_r = detection_cat()
    grid = PhaseSpaceGrid.square(4.0, 0.1)
    w_l = analysis.wigner_analytic(phi_l, grid)
    w_r = analysis.wigner_analytic(phi_r, grid)
    # W_R(eta) = W_L(-eta) on a symmetric grid
    assert np.max(np.abs(w_r - w_l[::-1, ::-1])) < 1e-13


def test_wigner_numeric_matches_analytic():
    _, _, phi_l, _ = detection_cat()
    grid = PhaseSpaceGrid.square(4.0, 0.1)
    v = phi_l.fock_vector(30)
    rho = np.outer(v, v.conj())
    w_num = analysis.wigner_numeric(rho, grid)
    w_ana = analysis.wigner_analytic(phi_l, grid)
    assert np.max(np.abs(w_num - w_ana)) < 1e-6


def wigner_per_point(rho, z):
    # wigner_numeric's recurrence and sums run over every point of z, with the
    # same floating-point operations in the same order
    dim = rho.shape[0]
    x = np.abs(z) ** 2
    parity = np.where(np.arange(dim) % 2, -1.0, 1.0)
    total = np.zeros(z.size)
    q = np.ones(z.size, dtype=complex)
    for a in range(dim):
        if a:
            q = q * z * (1.0 / math.sqrt(a))
            c = np.diagonal(rho, a) + np.conj(np.diagonal(rho, -a))
        else:
            c = np.diagonal(rho).copy()
        c *= parity[: dim - a]
        lam, lam_prev = np.ones(z.size), None
        s_re, s_im = np.full(z.size, c[0].real), np.full(z.size, c[0].imag)
        for k in range(dim - a - 1):
            lam_next = (2 * k + 1 + a - x) * lam
            if k:
                lam_next -= lam_prev * math.sqrt(k * (k + a))
            lam_next *= 1.0 / math.sqrt((k + 1) * (k + 1 + a))
            lam_prev, lam = lam, lam_next
            s_re += lam * c[k + 1].real
            s_im += lam * c[k + 1].imag
        total += s_re * q.real
        total -= s_im * q.imag
    return total * np.exp(-0.5 * x) * (2.0 / math.pi)


def test_wigner_numeric_unique_radii_bit_identical():
    # one recurrence per distinct radius on the figS5 grid, gathered back per
    # point, equals the recurrence run at every point
    rng = np.random.default_rng(23)
    grid = PhaseSpaceGrid.square(4.5, 0.05)
    rho = rng.normal(size=(23, 23)) + 1j * rng.normal(size=(23, 23))
    ref = wigner_per_point(rho, 2.0 * grid.mesh().ravel()).reshape(grid.n_im, grid.n_re)
    assert np.array_equal(analysis.wigner_numeric(rho, grid), ref)


def test_wigner_numeric_matches_displacement_oracle():
    # the diagonal-by-diagonal sum against the full trace over D(2 eta) matrices;
    # random non-Hermitian inputs exercise both triangles of rho separately
    rng = np.random.default_rng(17)
    grid = PhaseSpaceGrid.square(4.5, 0.9)
    for n_max in (1, 8, 30, 90):
        d = n_max + 1
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        weighted = np.where(np.arange(d) % 2, -1.0, 1.0)[:, None] * rho
        trace = np.array(
            [np.einsum("pq,gqp->g", weighted, fock.displacement_matrices(2 * row, n_max)) for row in grid.mesh()]
        )
        ref = (2 / math.pi) * trace.real
        assert np.max(np.abs(analysis.wigner_numeric(rho, grid) - ref)) < 1e-12


def test_wigner_thermal_origin():
    n_th = 1.0
    n_max = 60
    p = (n_th / (n_th + 1)) ** np.arange(n_max + 1) / (n_th + 1)
    rho = np.diag(p).astype(complex)
    grid = PhaseSpaceGrid(-1e-9, 1e-9, -1e-9, 1e-9, 2, 2)
    w0 = analysis.wigner_numeric(rho, grid)[0, 0]
    assert abs(w0 - (2 / math.pi) / (2 * n_th + 1)) < 1e-10


def test_wigner_parity_identity():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    grid = PhaseSpaceGrid(-1e-12, 1e-12, -1e-12, 1e-12, 2, 2)
    w0 = analysis.wigner_numeric(rho, grid)[0, 0]
    parity = np.sum(np.where(np.arange(25) % 2, -1, 1) * np.diag(rho).real)
    assert abs(w0 - (2 / math.pi) * parity) < 1e-10


def test_quadrature_vacuum():
    axis = QuadratureAxis(0.0, np.linspace(-6, 6, 1201))
    p = analysis.quadrature_analytic(model.CatState(0.0, 1.0, 0.0), axis, n_max=20)
    ref = np.exp(-axis.x_values**2) / math.sqrt(math.pi)
    assert np.max(np.abs(p - ref)) < 1e-12


def test_quadrature_fringes_at_theta0():
    _, _, phi_l, phi_r = detection_cat()
    theta0 = analysis.default_theta(phi_l.beta)
    axis = QuadratureAxis.around_cat(theta0, abs(phi_l.beta))
    p = analysis.quadrature_analytic(phi_l, axis, n_max=24)
    assert abs(axis.integrate(p) - 1.0) < 1e-6
    assert oracles.fringe_visibility(axis.x_values, p) > 0.5


def test_quadrature_bimodal_along_separation():
    _, _, phi_l, _ = detection_cat()
    theta = float(np.angle(phi_l.beta))
    axis = QuadratureAxis.around_cat(theta, abs(phi_l.beta))
    p = analysis.quadrature_analytic(phi_l, axis, n_max=24)
    x = axis.x_values
    lobe = math.sqrt(2) * abs(phi_l.beta)
    i_plus = np.argmax(np.where(x > 0, p, 0))
    i_minus = np.argmax(np.where(x < 0, p, 0))
    assert abs(x[i_plus] - lobe) < 0.1
    assert abs(x[i_minus] + lobe) < 0.1
    assert p[np.argmin(np.abs(x))] < 1e-3


def test_quadrature_numeric_matches_analytic():
    _, _, phi_l, _ = detection_cat()
    theta0 = analysis.default_theta(phi_l.beta)
    axis = QuadratureAxis.around_cat(theta0, abs(phi_l.beta))
    v = phi_l.fock_vector(30)
    rho = np.outer(v, v.conj())
    p_num = analysis.quadrature_numeric(rho, axis)
    p_ana = analysis.quadrature_analytic(phi_l, axis, n_max=30)
    assert np.max(np.abs(p_num - p_ana)) < 1e-8


def test_quadrature_numeric_real_within_roundoff():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    axis = QuadratureAxis(0.77, np.linspace(-8, 8, 401))
    p = analysis.quadrature_numeric(rho, axis)
    assert abs(axis.integrate(p) - 1.0) < 1e-6
    assert np.min(p) > -1e-12


def test_sweep_beta_max():
    g = model.bessel_j(2, 2 * XI) / 2
    rows = analysis.sweep_beta_max([XI], [g, 2 * g, g / 2], n0=1)
    assert rows[0][2] == 2.0  # delta = g
    assert rows[1][2] == 1.0  # delta = 2g, the distinguishability threshold
    assert rows[2][2] == 4.0  # halving delta doubles the peak displacement
    with pytest.raises(ValueError):
        analysis.sweep_beta_max([XI], [0.0])


def test_detection_time_candidates_contain_reference_values():
    for wm, td in T_D.items():
        params = model.SystemParams.with_detuning(wm, XI, model.bessel_j(2, 2 * XI) / 2)
        d = model.derive(params)
        cands = analysis.detection_time_candidates(params, d, math.pi / d.delta)
        assert cands, f"no candidates at omega_m={wm}"
        ts = np.array([c[0] for c in cands])
        assert np.min(np.abs(ts - td)) < 2e-4
        for t, beta_abs in cands:
            mu = model.mu_of_t(params, t)
            assert abs(abs(math.tan(mu / 2)) - 1.0) < 1e-10
            assert abs(beta_abs - abs(model.beta_of_t(d, wm, t))) < 1e-12


def test_detection_time_candidates_complete():
    # every equal-weight root in the window once: the candidates against a dense
    # sign-change scan of 2 xi sin(omega_0 t) - L at each level L = +-(k + 1/2) pi,
    # for xi of either sign: mu(t) = 2 xi sin(omega_0 t) reaches the same levels
    rng = np.random.default_rng(5)
    n = 100_000
    for _ in range(40):
        xi = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 6.0)
        params = model.SystemParams.with_detuning(rng.uniform(5.0, 100.0), xi, rng.uniform(0.05, 1.0))
        center, half = rng.uniform(0.0, 30.0), rng.uniform(0.1, 3.0)
        lo, hi = max(center - half, 0.0), center + half
        levels = [s * (k + 0.5) * math.pi for k in range(4) for s in (1, -1) if (k + 0.5) * math.pi <= 2 * abs(xi)]
        scan = np.sort(np.concatenate([np.empty(0)] + [
            oracles.sign_change_times(lambda t: 2 * xi * np.sin(params.omega_0 * t) - level, lo, hi, n)
            for level in levels
        ]))
        cands = analysis.detection_time_candidates(params, model.derive(params), center, half)
        ts = np.array([t for t, _ in cands])
        assert ts.size == scan.size
        assert np.max(np.abs(ts - scan), initial=0.0) <= (hi - lo) / n


def test_detection_times_unreachable_weights():
    params = model.SystemParams(omega_m=20.0, xi=0.6, omega_0=9.878)  # 2 xi < pi/2
    d = model.derive(params)
    assert analysis.detection_time_candidates(params, d, 10.0) == []


def test_quadrature_symmetry_improves_with_omega_m(closed_runs):
    # P_L[X] vs P_R[-X] of the collapsed states, more symmetric at larger omega_m
    sups = {}
    for wm in (20.0, 100.0):
        params, d, run = closed_runs[wm]
        st = run.marked
        psi_l, _, psi_r, _ = closed.conditional_states(st)
        beta = model.beta_of_t(d, wm, st.t)
        theta0 = analysis.default_theta(beta)
        axis = QuadratureAxis.around_cat(theta0, abs(beta), step=0.02)
        p_l = analysis.quadrature_numeric(np.outer(psi_l, psi_l.conj()), axis)
        p_r = analysis.quadrature_numeric(np.outer(psi_r, psi_r.conj()), axis)
        sups[wm] = np.max(np.abs(p_l - p_r[::-1]))
    assert sups[100.0] < sups[20.0]


def test_wigner_of_open_state_normalized(fig2_run):
    rho_l, _ = osys.reduce_mechanical(fig2_run.marked, osys.PhotonSector.L)
    grid = PhaseSpaceGrid.square(abs(-0.8878 - 1.7911j) + 3.0, 0.05)
    w = analysis.wigner_numeric(rho_l, grid)
    assert 0.999 < grid.integrate(w) < 1.001
