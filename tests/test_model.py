import math

import numpy as np
import pytest
from scipy import special
from scipy.linalg import expm

from catforge import model
from catforge.fock import coherent_coeffs

import oracles
from conftest import XI, coupling_g, fig2_params


def test_bessel_trivial():
    assert model.bessel_j(0, 0.0) == 1.0
    assert model.bessel_j(3, 0.0) == 0.0


def test_bessel_against_scipy():
    worst = 0.0
    for n in range(0, 61, 3):
        for z in (-50.0, -7.3, 0.01, 0.5, 3.05, 9.9694, 25.0, 50.0):
            worst = max(worst, abs(model.bessel_j(n, z) - special.jv(n, z)))
    assert worst < 1e-12


def test_bessel_refuses_past_range():
    # the recurrence runs O(|z|) steps and is accurate only up to |z| = 2 XI_MAX = 50,
    # the edge test_bessel_against_scipy checks
    for z in (50.5, -2e6, math.nan):
        with pytest.raises(ValueError):
            model.bessel_j(2, z)


def test_params_refuse_xi_past_range():
    assert model.SystemParams(omega_m=20.0, xi=-model.XI_MAX, omega_0=9.878).xi == -25.0
    for xi in (25.5, -1e5):
        with pytest.raises(ValueError, match="xi"):
            model.SystemParams(omega_m=20.0, xi=xi, omega_0=9.878)


def test_bessel_recurrence_identity():
    for z in (0.5, 3.05, 9.97):
        for n in range(1, 21):
            lhs = model.bessel_j(n - 1, z) + model.bessel_j(n + 1, z)
            rhs = (2 * n / z) * model.bessel_j(n, z)
            assert abs(lhs - rhs) < 1e-10


def test_effective_coupling_value():
    # g = g0 J_2(2*1.5271)/2 ~ 0.2432 g0
    g = coupling_g()
    assert abs(model.bessel_j(2, 2 * XI) - 0.48648) < 1e-4
    assert abs(g - 0.2432) < 1e-4


def test_bessel_peak_locations():
    # maxima of J_2(2 xi) sit at the modulation amplitudes used throughout
    xs = np.arange(0.0, 6.0, 1e-4)
    js = np.array([model.bessel_j(2, 2 * x) for x in xs])
    first = xs[(xs < 3)][np.argmax(js[xs < 3])]
    second = xs[(xs > 3)][np.argmax(js[xs > 3])]
    assert abs(first - 1.5271) < 5e-4
    assert abs(second - 4.9847) < 5e-4


def test_bessel_second_peak_against_series():
    # power-series oracle at z = 2*4.9847
    z = 2 * 4.9847
    total, term = 0.0, (z / 2) ** 2 / 2.0  # k=0 term of sum (-1)^k (z/2)^{2k+2}/(k! (k+2)!)
    for k in range(60):
        total += term
        term *= -((z / 2) ** 2) / ((k + 1) * (k + 3))
    assert abs(model.bessel_j(2, z) / 2 - total / 2) < 1e-10


def test_derive_fig2_set():
    params = fig2_params()
    d = model.derive(params)
    assert abs(d.g - coupling_g()) < 1e-15
    assert abs(d.delta - d.g) < 1e-12
    assert abs(d.beta_max - 2.0) < 1e-12
    assert d.delta != 0.0


def test_derive_resonant_flag():
    params = model.SystemParams(omega_m=20.0, xi=XI, omega_0=10.0)  # delta = 0
    d = model.derive(params)
    assert d.delta == 0.0 and math.isinf(d.beta_max)


def test_params_validation():
    with pytest.raises(ValueError):
        model.SystemParams(omega_m=-1.0, xi=XI, omega_0=1.0)
    with pytest.raises(ValueError):
        model.SystemParams(omega_m=20.0, xi=XI, omega_0=1.0, gamma_c=-0.1)
    with pytest.raises(ValueError):
        model.SystemParams(omega_m=20.0, xi=XI, omega_0=1.0, n_th=-1.0)
    with pytest.raises(ValueError):
        model.SystemParams(omega_m=20.0, xi=XI, omega_0=1.0, n0=0)


def test_rwa_regime_flag():
    assert fig2_params().rwa_regime_ok
    # strong coupling breaks the scale separation
    loud = model.SystemParams(omega_m=3.0, xi=XI, omega_0=1.4, g0=1.0)
    assert not loud.rwa_regime_ok


def test_beta_trivial_and_peak():
    params = fig2_params()
    d = model.derive(params)
    assert model.beta_of_t(d, params.omega_m, 0.0) == 0.0
    t0 = math.pi / d.delta
    assert abs(abs(model.beta_of_t(d, params.omega_m, t0)) - 2.0) < 1e-12


def test_beta_at_detection_time():
    params = fig2_params()
    d = model.derive(params)
    beta = model.beta_of_t(d, params.omega_m, 12.6664)
    assert abs(beta - (-0.8878 - 1.7911j)) < 1e-3
    assert abs(np.angle(beta) - (-2.0310)) < 1e-3


def test_beta_resonant_limit():
    params = model.SystemParams(omega_m=20.0, xi=XI, omega_0=10.0)
    d = model.derive(params)
    t = 1.7
    expected = -1j * d.g * t * np.exp(-1j * 20.0 * t)
    assert abs(model.beta_of_t(d, 20.0, t) - expected) < 1e-14


def test_beta_envelope_formula():
    params = fig2_params()
    d = model.derive(params)
    for t in (0.3, 4.0, 11.0, 20.0):
        assert abs(
            abs(model.beta_of_t(d, params.omega_m, t))
            - d.beta_max * abs(math.sin(d.delta * t / 2))
        ) < 1e-12


def test_mu_trivial():
    params = fig2_params()
    assert model.mu_of_t(params, 0.0) == 0.0
    t_quarter = (math.pi / 2) / params.omega_0
    assert abs(model.mu_of_t(params, t_quarter) - 2 * XI) < 1e-12


def test_equal_weight_condition():
    # |cos| = |sin| exactly when mu = pi/2 mod pi
    for k in range(-3, 4):
        mu = math.pi / 2 + k * math.pi
        assert abs(abs(math.cos(mu / 2)) - abs(math.sin(mu / 2))) < 1e-12


def test_hopping_unitary_is_the_frame_rotation():
    # U_h(t) = exp(i (mu/2) sigma_x) against scipy's expm, at scalar times and as one array
    params = fig2_params()
    d = model.derive(params)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    ts = np.array([0.0, 0.13, 0.7, 3.3, 12.6664])
    batch = model.hopping_unitary(params, ts)
    assert batch.shape == (2, 2, ts.size)
    for i, t in enumerate(ts):
        u = model.hopping_unitary(params, t)
        ref = expm(1j * params.xi * math.sin(params.omega_0 * t) * sigma_x)
        assert np.max(np.abs(u - ref)) < 1e-15
        assert np.array_equal(batch[:, :, i], u)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-15
        # the cat weights are its first row
        phi_l, phi_r = model.target_states(params, d, t)
        assert (phi_l.weight_plus, phi_l.weight_minus) == tuple(u[0])
        assert (phi_r.weight_plus, phi_r.weight_minus) == tuple(u[0])


def test_target_states_vacuum_at_t0():
    params = fig2_params()
    d = model.derive(params)
    phi_l, phi_r = model.target_states(params, d, 0.0)
    for phi in (phi_l, phi_r):
        v = phi.fock_vector(20)
        assert abs(v[0] - 1.0) < 1e-12
        assert np.max(np.abs(v[1:])) < 1e-12


def test_target_states_yurke_stoler_at_td():
    from catforge.analysis import detection_time_candidates

    params = fig2_params()
    d = model.derive(params)
    # exact equal-weight root nearest the tabulated detection time 12.6664
    cands = detection_time_candidates(params, d, math.pi / d.delta)
    td = min((t for t, _ in cands), key=lambda t: abs(t - 12.6664))
    assert abs(td - 12.6664) < 1e-4
    phi_l, phi_r = model.target_states(params, d, td)
    assert abs(abs(math.tan(model.mu_of_t(params, td) / 2)) - 1.0) < 1e-10
    # equal-weight superposition (|beta> - i|-beta>)/sqrt(2) up to global phase
    beta = phi_l.beta
    n_max = 40
    ys = (coherent_coeffs(beta, n_max) - 1j * coherent_coeffs(-beta, n_max)) / math.sqrt(2)
    v = phi_l.fock_vector(n_max)
    phase = ys[0] / v[0]
    assert abs(abs(phase) - 1.0) < 1e-9
    assert np.max(np.abs(v * phase - ys)) < 1e-9
    assert phi_r.beta == -phi_l.beta


def test_target_states_normalized():
    params = fig2_params()
    d = model.derive(params)
    for t in (0.7, 3.3, 9.1, 12.9):
        phi_l, _ = model.target_states(params, d, t)
        v = phi_l.fock_vector(45)
        assert abs(np.vdot(v, v).real - 1.0) < 1e-10


def test_fock_vector_matches_two_expansions():
    # the -beta expansion is the beta one with odd entries negated: bit for bit
    # at complex beta; at real or imaginary beta only zero signs may differ
    rng = np.random.default_rng(12)
    for i in range(400):
        re, im = rng.normal(scale=3.0, size=2)
        beta = complex(re, im) if i % 4 else complex(re, 0.0)
        n_max = int(rng.integers(1, 80))
        wp, wm = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        cat = model.CatState(beta, wp, wm)
        two = (wp * coherent_coeffs(beta, n_max) + wm * coherent_coeffs(-beta, n_max)) / math.sqrt(cat.norm_sq())
        v = cat.fock_vector(n_max)
        assert np.array_equal(v, two)
        if i % 4:
            assert v.tobytes() == two.tobytes()


def test_cat_norm_positive_guard():
    # |beta> - |beta'> with beta'=beta collapses to zero norm
    cat = model.CatState(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        cat.norm_sq()


def test_success_probability():
    assert oracles.success_probability_estimate(fig2_params(gamma_c=0.0)) == 1.0
    assert abs(oracles.success_probability_estimate(fig2_params(gamma_c=0.2)) - 0.081) < 1e-3
    assert abs(oracles.success_probability_estimate(fig2_params(gamma_c=0.1)) - 0.285) < 1e-3
