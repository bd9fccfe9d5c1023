"""Shared parameter sets and the expensive solver runs, computed once per session."""

import contextlib

import numpy as np
import pytest

from catforge import closed, model
from catforge import open_system as osys

XI = 1.5271
T_D = {20.0: 12.6664, 40.0: 12.8285, 100.0: 12.9228}


def coupling_g(xi=XI, n0=1):
    return model.bessel_j(2 * n0, 2 * xi) / 2


def fig2_params(**overrides):
    kw = dict(gamma_c=0.2, gamma_m=1e-4, n_th=4.0)
    kw.update(overrides)
    return model.SystemParams.with_detuning(20.0, XI, coupling_g(), **kw)


@contextlib.contextmanager
def keeping_states():
    """Collect the lab-frame state of every record of the solves run inside the block.

    Both solvers look integrate up by name; the wrapper hands it an emit that
    also builds each record's state with the solver's own lab_state.
    """
    kept = []
    integrate = closed.integrate

    def keeping(y, cfg, advance, emit, lab_state):
        def emit_and_keep(t, y):
            emit(t, y)
            kept.append(lab_state(t, y))

        return integrate(y, cfg, advance, emit_and_keep, lab_state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closed, "integrate", keeping)
        mp.setattr(osys, "integrate", keeping)
        yield kept


def open_run_to_td(params, n_max=30, ppp=64, stride=16):
    cfg = closed.SolverConfig(
        dt=closed.default_dt(params, ppp), t_end=T_D[20.0], record_stride=stride, t_mark=T_D[20.0]
    )
    return osys.evolve_open(osys.initial_density("bell", n_max), params, cfg)


@pytest.fixture(scope="session")
def fig2_run():
    """Open-system run at the fig2 parameter set up to the detection time."""
    return open_run_to_td(fig2_params())


@pytest.fixture(scope="session")
def gamma_c_runs(fig2_run):
    runs = {0.2: fig2_run}
    for gc in (0.05, 0.1, 0.4):
        runs[gc] = open_run_to_td(fig2_params(gamma_c=gc))
    return runs


@pytest.fixture(scope="session")
def gamma_m_runs(fig2_run):
    runs = {1e-4: fig2_run}
    for gm in (5e-4, 1e-3):
        runs[gm] = open_run_to_td(fig2_params(gamma_m=gm))
    return runs


@pytest.fixture(scope="session")
def n_th_runs():
    return {nth: open_run_to_td(fig2_params(n_th=nth)) for nth in (1.0, 5.0, 10.0)}


@pytest.fixture(scope="session")
def closed_runs():
    """Bell-initial closed runs over 2 pi/delta at omega_m/g0 in {20, 40, 100}."""
    out = {}
    for wm in (20.0, 40.0, 100.0):
        params = model.SystemParams.with_detuning(wm, XI, coupling_g())
        d = model.derive(params)
        dt = closed.default_dt(params)
        stride = max(1, round((2 * np.pi / wm) / 4 / dt))  # >= 4 records per fast cycle
        cfg = closed.SolverConfig(
            dt=dt, t_end=2 * np.pi / d.delta, record_stride=stride, t_mark=T_D[wm]
        )
        out[wm] = (params, d, closed.evolve_closed(closed.initial_state("bell", 22), params, cfg))
    return out


@pytest.fixture(scope="session")
def equivalence_runs():
    """Every record's lab-frame state of dissipation-free closed and open runs
    on identical record grids."""
    params = model.SystemParams.with_detuning(20.0, XI, coupling_g())
    d = model.derive(params)
    n_max = 22
    dt = closed.default_dt(params, 128)
    t_end = np.pi / d.delta
    stride = max(1, round(t_end / dt / 12))
    ccfg = closed.SolverConfig(dt=dt, t_end=t_end, record_stride=stride)
    with keeping_states() as ckept:
        closed.evolve_closed(closed.initial_state("bell", n_max), params, ccfg)
    with keeping_states() as okept:
        osys.evolve_open(osys.initial_density("bell", n_max), params, ccfg)
    return params, d, ckept, okept
