import math

import numpy as np
import pytest
from scipy import linalg

from catforge import fock

import oracles


def test_coherent_vacuum():
    c = fock.coherent_coeffs(0.0, 4)
    assert np.allclose(c, [1, 0, 0, 0, 0])


def test_coherent_normalization():
    c = fock.coherent_coeffs(2.0, 40)
    assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1e-12


def test_coherent_mean_phonon_number():
    # the detection-time displacement of the omega_m/g0=20 run
    beta = -0.8878 - 1.7911j
    c = fock.coherent_coeffs(beta, 40)
    mean_n = np.sum(np.arange(41) * np.abs(c) ** 2)
    assert abs(mean_n - abs(beta) ** 2) < 1e-9


def test_coherent_coeffs_match_factorial_formula():
    # explicit exp(-|beta|^2/2) beta^n / sqrt(n!) with exact integer factorials
    for beta in (0.0, 0.5, 1.3 - 0.4j, -2.1 + 1.7j, 3j, -3.0):
        c = fock.coherent_coeffs(beta, 20)
        ref = np.array(
            [math.exp(-0.5 * abs(beta) ** 2) * beta**n / math.sqrt(math.factorial(n)) for n in range(21)]
        )
        assert np.all(np.abs(c - ref) <= 1e-14 * np.abs(ref))


def test_coherent_cutoff_leaves_small_tail():
    for beta_abs in (0.3, 1.0, 2.0, 3.0):
        n_max = fock.coherent_cutoff(beta_abs)
        assert n_max >= max(20, beta_abs**2 + 8 * math.sqrt(beta_abs**2 + 1) - 1)
        c = fock.coherent_coeffs(beta_abs * np.exp(0.7j), n_max)
        assert 1.0 - np.sum(np.abs(c) ** 2) < 1e-8


def test_cutoff_validation():
    with pytest.raises(ValueError):
        fock.coherent_coeffs(1.0, 0)
    with pytest.raises(ValueError):
        oracles.displacement_matrix_element(-1, 0, 0.3)


def test_displacement_vacuum_element():
    for eta in (0.3, 1.2 - 0.7j, 2.5j):
        val = oracles.displacement_matrix_element(0, 0, eta)
        assert abs(val - math.exp(-0.5 * abs(eta) ** 2)) < 1e-14


def test_displacement_identity():
    for m in range(6):
        for n in range(6):
            val = oracles.displacement_matrix_element(m, n, 0.0)
            assert abs(val - (1.0 if m == n else 0.0)) < 1e-14


def test_displacement_unitarity_on_retained_subspace():
    d = fock.displacement_matrix(0.7 + 0.3j, 60)
    resid = d.conj().T @ d - np.eye(61)
    assert np.max(np.abs(resid[:31, :31])) < 1e-6


def test_displacement_against_matrix_exponential():
    # independent route: expm of eta b^dag - eta* b from ladder matrices
    n_max = 40
    b = oracles.destroy(n_max)
    for eta in (0.7 + 0.3j, -1.4 + 0.9j, 2.0):
        ref = linalg.expm(eta * b.conj().T - np.conj(eta) * b)
        mine = fock.displacement_matrix(eta, n_max)
        assert np.max(np.abs(mine[:21, :21] - ref[:21, :21])) < 1e-6
        for m, n in ((0, 0), (3, 5), (17, 4), (12, 12)):
            assert abs(oracles.displacement_matrix_element(m, n, eta) - ref[m, n]) < 1e-6


def test_displacement_symmetry():
    # <m|D(eta)|n> = conj(<n|D(-eta)|m>)
    rng = np.random.default_rng(42)
    for _ in range(20):
        eta = rng.uniform(-3, 3) + 1j * rng.uniform(-3, 3)
        m, n = rng.integers(0, 21, size=2)
        lhs = oracles.displacement_matrix_element(m, n, eta)
        rhs = np.conj(oracles.displacement_matrix_element(n, m, -eta))
        assert abs(lhs - rhs) < 1e-10


def test_displacement_matrix_matches_elements():
    eta = -0.9 + 1.1j
    d = fock.displacement_matrix(eta, 12)
    for m in range(13):
        for n in range(13):
            assert abs(d[m, n] - oracles.displacement_matrix_element(m, n, eta)) < 1e-12


def test_ladder_matrices():
    b = oracles.destroy(5)
    vec = np.zeros(6)
    vec[3] = 1.0
    assert abs((b @ vec)[2] - math.sqrt(3)) < 1e-14
    assert np.allclose(b.conj().T @ b, oracles.number_op(5))


def test_eigenfunction_ground_state():
    assert abs(fock.oscillator_eigenfunction(0, 0.0) - math.pi**-0.25) < 1e-12


def test_eigenfunction_odd_parity():
    assert fock.oscillator_eigenfunction(1, 0.0) == 0.0
    x = np.linspace(-3, 3, 61)
    psi = fock.oscillator_eigenfunction(7, x)
    assert np.max(np.abs(psi + psi[::-1])) < 1e-12


def test_eigenfunction_normalization():
    x = np.arange(-12.0, 12.0 + 1e-9, 0.01)
    psi = fock.oscillator_eigenfunction(25, x)
    assert abs(np.trapezoid(psi**2, x) - 1.0) < 1e-8


def test_eigenfunction_orthonormality():
    x = np.arange(-12.0, 12.0 + 1e-9, 0.01)
    psi = fock.oscillator_eigenfunctions(20, x)
    gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], x, axis=2)
    assert np.max(np.abs(gram - np.eye(21))) < 1e-7


def test_eigenfunctions_match_single():
    x = np.linspace(-5, 5, 41)
    table = fock.oscillator_eigenfunctions(15, x)
    for n in (0, 1, 7, 15):
        assert np.allclose(table[n], fock.oscillator_eigenfunction(n, x), atol=1e-13)


def test_tail_population():
    v = np.array([1.0, 0.0, 3e-4, 4e-4])
    assert abs(fock.tail_population(v) - (9e-8 + 16e-8)) < 1e-20
