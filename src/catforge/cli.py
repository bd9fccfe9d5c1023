"""Command-line driver: parse run configurations, dispatch solver and
tomography jobs, and write deterministic CSV/JSON outputs.

Configs are flat key-value text documents (``key = value``, ``#`` comments).
All internal computation is in units of g0; physical-unit configs
(``units = physical``) are normalized at parse time.  Named presets bundle
the figure-reproduction parameter sets; explicit keys override preset values
and the override is logged and recorded in the manifest.

Exit codes: 0 success, 2 config error, 3 solver invariant abort.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, analysis, closed, model, open_system
from .closed import SolverAbort, SolverConfig
from .model import SystemParams, derive
from .trajectory import format_column

__all__ = ["ConfigError", "RunConfig", "parse_config", "config_from_manifest", "run", "main"]

log = logging.getLogger("catforge")

MODES = ("closed", "open", "wigner", "quadrature", "sweep", "detect-times")
INITIALS = ("left", "right", "bell")
SOURCES = ("open", "closed", "analytic")
SWEEPABLE = ("gamma_c", "gamma_m", "n_th", "xi", "omega_m", "delta", "delta_over_g")

DEFAULT_OUT = "catforge-out"
OUT_ENV = "CATFORGE_OUT"


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _as_float(key, v):
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {v!r}") from None


def _as_int(key, v):
    f = _as_float(key, v)
    if not math.isfinite(f) or f != int(f):
        raise ConfigError(f"{key}: expected an integer, got {v!r}")
    return int(f)


def _as_choice(options):
    def cast(key, v):
        v = str(v)
        if v not in options:
            raise ConfigError(f"{key}: expected one of {options}, got {v!r}")
        return v

    return cast


def _as_float_list(key, v):
    if isinstance(v, (tuple, list)):
        return tuple(float(x) for x in v)
    parts = [p.strip() for p in str(v).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_as_float(key, p) for p in parts)


def _as_delta(key, v):
    if isinstance(v, str) and v.strip() == "g":
        return "g"
    return _as_float(key, v)


def _as_t_end(key, v):
    if isinstance(v, str) and v.strip() in ("pi/delta", "2pi/delta"):
        return v.strip()
    return _as_float(key, v)


def _as_theta(key, v):
    if isinstance(v, str) and v.strip() == "auto":
        return "auto"
    return _as_float(key, v)


def _as_initial(key, v):
    v = str(v)
    if v in INITIALS or v.startswith("file:"):
        return v
    raise ConfigError(f"{key}: expected one of {INITIALS} or file:PATH, got {v!r}")


def _as_str(key, v):
    return str(v)


KNOWN_KEYS = {
    "mode": _as_choice(MODES),
    "preset": _as_str,
    "out": _as_str,
    "units": _as_choice(("g0", "physical")),
    "omega_c": _as_float,
    "omega_m": _as_float,
    "g0": _as_float,
    "xi": _as_float,
    "n0": _as_int,
    "omega_0": _as_float,
    "delta": _as_delta,
    "gamma_c": _as_float,
    "gamma_m": _as_float,
    "n_th": _as_float,
    "dt": _as_float,
    "t_end": _as_t_end,
    "record_stride": _as_int,
    "n_max": _as_int,
    "t_d": _as_float,
    "initial": _as_initial,
    "source": _as_choice(SOURCES),
    "theta": _as_theta,
    "grid_extent": _as_float,
    "grid_step": _as_float,
    "x_step": _as_float,
    "sweep": _as_choice(SWEEPABLE),
    "sweep_values": _as_float_list,
    "xi_list": _as_float_list,
    "delta_min": _as_float,
    "delta_max": _as_float,
    "delta_step": _as_float,
    "workers": _as_int,
}

# Parameter sets for the bundled figure reproductions.  delta = "g" selects
# the detuning equal to the effective coupling g0 J_{2 n0}(2 xi)/2; the
# modulation frequency follows as omega_0 = (omega_m - delta)/(2 n0).
_FIG2_BASE = {
    "omega_m": 20.0,
    "xi": 1.5271,
    "n0": 1,
    "delta": "g",
    "gamma_c": 0.2,
    "gamma_m": 1e-4,
    "n_th": 4.0,
    "n_max": 30,
    "t_d": 12.6664,
    "t_end": "2pi/delta",
    "initial": "bell",
    "source": "open",
    "grid_extent": 4.5,
    "grid_step": 0.05,
}

_TWO_PI = 2.0 * math.pi

PRESETS = {
    "fig1a": {
        "mode": "sweep",
        "xi_list": (1.5271, 4.9847),
        "delta_min": 0.05,
        "delta_max": 0.5,
        "delta_step": 0.005,
        "n0": 1,
    },
    "fig2": dict(_FIG2_BASE, mode="open"),
    # physical-units twin of fig2 (rates in rad/s, times in s); normalized to
    # the same dimensionless run at parse time
    "fig2units": dict(
        _FIG2_BASE,
        mode="open",
        units="physical",
        g0=_TWO_PI * 500e3,
        omega_m=_TWO_PI * 10e6,
        gamma_c=_TWO_PI * 100e3,
        gamma_m=_TWO_PI * 50.0,
        t_d=12.6664 / (_TWO_PI * 500e3),
    ),
    "fig3a": dict(_FIG2_BASE, mode="open", sweep="gamma_m", sweep_values=(1e-4, 5e-4, 1e-3)),
    "fig3b": dict(_FIG2_BASE, mode="open", sweep="n_th", sweep_values=(1.0, 5.0, 10.0)),
    "figS1": {
        "mode": "closed",
        "omega_m": 20.0,
        "xi": 1.5271,
        "n0": 1,
        "delta": "g",
        "initial": "right",
        "sweep": "xi",
        "sweep_values": (1.5271, 0.0),
        "t_end": 25.83,
        "n_max": 22,
    },
    "figS3": {
        "mode": "closed",
        "omega_m": 20.0,
        "xi": 1.5271,
        "n0": 1,
        "delta": "g",
        "initial": "bell",
        "sweep": "omega_m",
        "sweep_values": (20.0, 40.0, 100.0),
        "t_end": "2pi/delta",
    },
    "figS4": {
        "mode": "closed",
        "omega_m": 20.0,
        "xi": 1.5271,
        "n0": 1,
        "initial": "bell",
        "sweep": "delta_over_g",
        "sweep_values": tuple(round(0.5 + 0.1 * k, 2) for k in range(16)),
        "t_end": "pi/delta",
    },
    "figS5": {
        "mode": "wigner",
        "omega_m": 20.0,
        "xi": 1.5271,
        "n0": 1,
        "delta": "g",
        "t_d": 12.6664,
        "source": "analytic",
        "theta": "auto",
        "grid_extent": 4.5,
        "grid_step": 0.05,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description (rates already normalized to g0=1)."""

    mode: str
    omega_m: float | None = None
    xi: float | None = None
    omega_0: float | None = None
    delta: float | str | None = None
    g0: float = 1.0
    omega_c: float = 0.0
    n0: int = 1
    gamma_c: float = 0.0
    gamma_m: float = 0.0
    n_th: float = 0.0
    dt: float | None = None
    t_end: float | str | None = None
    record_stride: int | None = None
    n_max: int | None = None
    t_d: float | None = None
    initial: str = "bell"
    source: str = "open"
    theta: float | str = "auto"
    grid_extent: float = 4.5
    grid_step: float = 0.05
    x_step: float = 0.01
    sweep_key: str | None = None
    sweep_values: tuple[float, ...] | None = None
    xi_list: tuple[float, ...] | None = None
    delta_min: float | None = None
    delta_max: float | None = None
    delta_step: float | None = None
    out_dir: str | None = None
    preset: str | None = None
    workers: int = 1
    overrides: dict = field(default_factory=dict)


def _parse_document(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = KNOWN_KEYS[key](key, val)
    return values


def parse_config(
    text: str = "",
    preset: str | None = None,
    overrides: dict | None = None,
    mode: str | None = None,
    out: str | None = None,
    workers: int | None = None,
) -> RunConfig:
    """Merge preset defaults, a config document, and CLI overrides.

    Precedence (lowest to highest): preset, document keys, --set overrides,
    explicit CLI mode/out/workers.  Unknown keys are errors.
    """
    doc = _parse_document(text)
    doc_preset = doc.pop("preset", None)
    if preset is None:
        preset = doc_preset
    merged: dict = {}
    preset_vals: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        preset_vals = dict(PRESETS[preset])
        merged.update(preset_vals)

    logged_overrides = {}
    for src in (doc, overrides or {}):
        for key, val in src.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            val = KNOWN_KEYS[key](key, val)
            if key in preset_vals and val != preset_vals[key]:
                log.info("preset %s override: %s = %r (preset value %r)", preset, key, val, preset_vals[key])
                logged_overrides[key] = val
            merged[key] = val
    if mode is not None:
        merged["mode"] = _as_choice(MODES)("mode", mode)
    if out is not None:
        merged["out"] = out
    if workers is not None:
        merged["workers"] = workers

    if "mode" not in merged:
        raise ConfigError("missing required field: mode")

    units = merged.pop("units", "g0")
    if units == "physical":
        scale = merged.get("g0")
        if scale is None:
            raise ConfigError("units=physical requires an explicit g0")
        for key in ("omega_c", "omega_m", "omega_0", "gamma_c", "gamma_m"):
            if key in merged:
                merged[key] = merged[key] / scale
        if isinstance(merged.get("delta"), float):
            merged["delta"] = merged["delta"] / scale
        for key in ("dt", "t_d"):
            if key in merged:
                merged[key] = merged[key] * scale
        if isinstance(merged.get("t_end"), float):
            merged["t_end"] = merged["t_end"] * scale
        merged["g0"] = 1.0

    cfg_mode = merged["mode"]
    required = []
    if cfg_mode in ("closed", "open", "wigner", "quadrature", "detect-times"):
        for key in ("omega_m", "xi"):
            if key not in merged:
                required.append(key)
        if "omega_0" not in merged and "delta" not in merged:
            required.append("omega_0 (or delta)")
        if cfg_mode in ("wigner", "quadrature") and "t_d" not in merged:
            required.append("t_d")
    elif cfg_mode == "sweep":
        for key in ("xi_list", "delta_min", "delta_max", "delta_step"):
            if key not in merged:
                required.append(key)
    if required:
        raise ConfigError(f"missing required fields for mode={cfg_mode}: {', '.join(required)}")
    if "omega_0" in merged and "delta" in merged:
        raise ConfigError("give either omega_0 or delta, not both")

    config = RunConfig(
        mode=cfg_mode,
        omega_m=merged.get("omega_m"),
        xi=merged.get("xi"),
        omega_0=merged.get("omega_0"),
        delta=merged.get("delta"),
        g0=merged.get("g0", 1.0),
        omega_c=merged.get("omega_c", 0.0),
        n0=merged.get("n0", 1),
        gamma_c=merged.get("gamma_c", 0.0),
        gamma_m=merged.get("gamma_m", 0.0),
        n_th=merged.get("n_th", 0.0),
        dt=merged.get("dt"),
        t_end=merged.get("t_end"),
        record_stride=merged.get("record_stride"),
        n_max=merged.get("n_max"),
        t_d=merged.get("t_d"),
        initial=merged.get("initial", "bell"),
        source=merged.get("source", "open"),
        theta=merged.get("theta", "auto"),
        grid_extent=merged.get("grid_extent", 4.5),
        grid_step=merged.get("grid_step", 0.05),
        x_step=merged.get("x_step", 0.01),
        sweep_key=merged.get("sweep"),
        sweep_values=merged.get("sweep_values"),
        xi_list=merged.get("xi_list"),
        delta_min=merged.get("delta_min"),
        delta_max=merged.get("delta_max"),
        delta_step=merged.get("delta_step"),
        out_dir=merged.get("out"),
        preset=preset,
        workers=merged.get("workers", 1),
        overrides=logged_overrides,
    )
    if config.mode != "sweep":
        _resolve(config)  # surface invariant violations (negative rates etc.) now
    return config


@dataclass(frozen=True)
class _Resolved:
    """One concrete solver job: params plus fully numeric solver settings."""

    params: SystemParams
    d: model.DerivedModulation
    dt: float
    t_end: float | None
    record_stride: int
    n_max: int
    t_mark: float | None


def _resolve(config: RunConfig, sweep_value: float | None = None) -> _Resolved:
    raw = {
        "omega_m": config.omega_m,
        "xi": config.xi,
        "g0": config.g0,
        "omega_c": config.omega_c,
        "n0": config.n0,
        "gamma_c": config.gamma_c,
        "gamma_m": config.gamma_m,
        "n_th": config.n_th,
    }
    delta_spec = config.delta
    if sweep_value is not None:
        key = config.sweep_key
        if key == "delta":
            delta_spec = float(sweep_value)
        elif key == "delta_over_g":
            g = raw["g0"] * model.bessel_j(2 * config.n0, 2.0 * raw["xi"]) / 2.0
            delta_spec = float(sweep_value) * g
        elif key in raw:
            raw[key] = float(sweep_value)
        else:
            raise ConfigError(f"cannot sweep {key!r}")

    if config.omega_0 is not None:
        omega_0 = config.omega_0
    else:
        if delta_spec == "g":
            delta = raw["g0"] * model.bessel_j(2 * config.n0, 2.0 * raw["xi"]) / 2.0
        else:
            delta = float(delta_spec)
        omega_0 = (raw["omega_m"] - delta) / (2 * config.n0)

    try:
        params = SystemParams(omega_0=omega_0, **raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    d = derive(params)

    is_open = config.mode == "open" or (
        config.mode in ("wigner", "quadrature") and config.source == "open"
    )
    if config.n_max is not None:
        n_max = config.n_max
    elif is_open:
        n_max = max(30, closed.default_n_max(params, d))
    else:
        n_max = closed.default_n_max(params, d)

    dt = config.dt if config.dt is not None else closed.default_dt(params, 128 if is_open else 256)

    t_end = config.t_end
    if config.mode in ("wigner", "quadrature"):
        t_end = config.t_d
    elif isinstance(t_end, str):
        if d.delta == 0.0:
            raise ConfigError(f"t_end={t_end!r} undefined at delta=0; give a number")
        t_end = (math.pi if t_end == "pi/delta" else 2.0 * math.pi) / abs(d.delta)
    elif t_end is None and config.mode in ("closed", "open"):
        if d.delta == 0.0:
            raise ConfigError("t_end required when delta=0")
        t_end = 2.0 * math.pi / abs(d.delta)

    t_mark = None
    if config.t_d is not None and t_end is not None and config.mode in ("closed", "open"):
        if config.t_d <= t_end:
            t_mark = config.t_d

    if config.record_stride is not None:
        stride = config.record_stride
    elif t_end is not None:
        stride = max(1, round(t_end / dt / 600))
    else:
        stride = 1
    return _Resolved(params, d, dt, t_end, stride, n_max, t_mark)


def _solver_config(res: _Resolved) -> SolverConfig:
    return SolverConfig(
        dt=res.dt, t_end=res.t_end, record_stride=res.record_stride, t_mark=res.t_mark
    )


def _load_initial_closed(kind: str, n_max: int) -> closed.SinglePhotonState:
    if kind.startswith("file:"):
        with open(kind[5:], encoding="ascii") as fh:
            doc = json.load(fh)
        a = np.asarray(doc["a_re"], dtype=float) + 1j * np.asarray(doc["a_im"], dtype=float)
        b = np.asarray(doc["b_re"], dtype=float) + 1j * np.asarray(doc["b_im"], dtype=float)
        if a.size != n_max + 1:
            raise ConfigError(f"initial file has {a.size} amplitudes, n_max+1={n_max + 1}")
        state = closed.SinglePhotonState(a, b, 0.0)
        if abs(state.norm_sq() - 1.0) > 1e-9:
            raise ConfigError("initial amplitudes are not normalized")
        return state
    return closed.initial_state(kind, n_max)


def _write_csv(path, header: tuple[str, ...], columns):
    """A header line, then one line per row of the equal-length columns.

    A column given as a list is taken as already formatted cells (str)."""
    cells = [c if isinstance(c, list) else format_column(c) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _manifest(path, doc: dict):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _base_manifest(config: RunConfig, res: _Resolved | None, mode: str) -> dict:
    doc = {
        "catforge_version": __version__,
        "mode": mode,
        "preset": config.preset,
        "overrides": dict(config.overrides),
    }
    if res is not None:
        doc["params"] = {
            "omega_c": res.params.omega_c,
            "omega_m": res.params.omega_m,
            "g0": res.params.g0,
            "xi": res.params.xi,
            "n0": res.params.n0,
            "omega_0": res.params.omega_0,
            "gamma_c": res.params.gamma_c,
            "gamma_m": res.params.gamma_m,
            "n_th": res.params.n_th,
        }
        doc["derived"] = {
            "g": res.d.g,
            "delta": res.d.delta,
            "beta_max": res.d.beta_max if math.isfinite(res.d.beta_max) else "unbounded",
            "rwa_regime_ok": res.params.rwa_regime_ok,
        }
        doc["solver"] = {
            "method": "rk4",
            "dt": res.dt,
            "t_end": res.t_end,
            "record_stride": res.record_stride,
            "n_max": res.n_max,
            "t_mark": res.t_mark,
        }
        if not res.params.rwa_regime_ok:
            log.warning("parameters are outside the RWA regime (|delta|, g0/2 vs omega_0/5, omega_m/5)")
    return doc


def config_from_manifest(path) -> RunConfig:
    """Rebuild an equivalent RunConfig from a run manifest."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    params = doc["params"]
    solver = doc["solver"]
    return RunConfig(
        mode=doc["mode"],
        omega_m=params["omega_m"],
        xi=params["xi"],
        omega_0=params["omega_0"],
        g0=params["g0"],
        omega_c=params["omega_c"],
        n0=params["n0"],
        gamma_c=params["gamma_c"],
        gamma_m=params["gamma_m"],
        n_th=params["n_th"],
        dt=solver["dt"],
        t_end=solver["t_end"],
        record_stride=solver["record_stride"],
        n_max=solver["n_max"],
        t_d=doc.get("t_d", solver.get("t_mark")),
        initial=doc.get("initial", "bell"),
        source=doc.get("source", "open"),
        theta=doc.get("theta", "auto"),
        preset=doc.get("preset"),
    )


def _mechanical_states_at_td(config: RunConfig, res: _Resolved):
    """Mechanical states at the detection time for tomography modes.

    Returns (stateL, stateR, beta): CatState pairs for the analytic source,
    density matrices for closed/open sources.
    """
    t_d = config.t_d
    if config.source == "analytic":
        phi_l, phi_r = model.target_states(res.params, res.d, t_d)
        return phi_l, phi_r, model.beta_of_t(res.d, res.params.omega_m, t_d)
    cfg = SolverConfig(dt=res.dt, t_end=t_d, record_stride=res.record_stride)
    if config.source == "closed":
        run_ = closed.evolve_closed(
            _load_initial_closed(config.initial, res.n_max), res.params, cfg, compute_fidelities=False
        )
        psi_l, _, psi_r, _ = closed.conditional_states(run_.final)
        rho_l = np.outer(psi_l, psi_l.conj())
        rho_r = np.outer(psi_r, psi_r.conj())
    else:
        run_ = open_system.evolve_open(
            open_system.initial_density(config.initial, res.n_max), res.params, cfg
        )
        rho_l, _ = open_system.reduce_mechanical(run_.final, open_system.PhotonSector.L)
        rho_r, _ = open_system.reduce_mechanical(run_.final, open_system.PhotonSector.R)
    return rho_l, rho_r, model.beta_of_t(res.d, res.params.omega_m, t_d)


def _execute_single(config: RunConfig, out_dir: str, sweep_value: float | None = None) -> dict:
    """Run one concrete job into out_dir; returns its manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()
    mode = config.mode

    if mode == "sweep":
        deltas = np.arange(config.delta_min, config.delta_max + config.delta_step / 2, config.delta_step)
        try:
            rows = analysis.sweep_beta_max(config.xi_list, deltas, config.n0, config.g0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        path = os.path.join(out_dir, "beta_max.csv")
        _write_csv(path, ("xi", "delta", "beta_max"), zip(*rows))
        doc = _base_manifest(config, None, mode)
        doc.update(
            xi_list=list(config.xi_list),
            delta_grid={"min": config.delta_min, "max": config.delta_max, "step": config.delta_step},
            outputs=["beta_max.csv"],
            wall_time_s=time.perf_counter() - t_start,
        )
        _manifest(os.path.join(out_dir, "manifest.json"), doc)
        return doc

    res = _resolve(config, sweep_value)
    doc = _base_manifest(config, res, mode)
    if sweep_value is not None:
        doc["sweep"] = {"key": config.sweep_key, "value": sweep_value}
    outputs = []

    if mode == "detect-times":
        center = config.t_d if config.t_d is not None else math.pi / abs(res.d.delta)
        cands = analysis.detection_time_candidates(res.params, res.d, center)
        path = os.path.join(out_dir, "detection_times.csv")
        _write_csv(path, ("t", "beta_abs"), zip(*cands))
        outputs.append("detection_times.csv")
        doc["window_center"] = center
        doc["n_candidates"] = len(cands)

    elif mode == "closed":
        state = _load_initial_closed(config.initial, res.n_max)
        run_ = closed.evolve_closed(state, res.params, _solver_config(res))
        run_.record.write_csv(os.path.join(out_dir, "trajectory.csv"))
        outputs.append("trajectory.csv")
        doc["initial"] = config.initial
        doc["invariants"] = {"norm_drift": run_.norm_drift, "tail_max": run_.tail_max}
        if res.t_mark is not None:
            doc["t_d"] = res.t_mark
            doc["at_t_d"] = run_.record.row_at(res.t_mark)
        doc["final"] = run_.record.row_at(res.t_end)

    elif mode == "open":
        rho0 = open_system.initial_density(config.initial, res.n_max)
        run_ = open_system.evolve_open(rho0, res.params, _solver_config(res))
        run_.record.write_csv(os.path.join(out_dir, "trajectory.csv"))
        outputs.append("trajectory.csv")
        open_system.write_snapshot(os.path.join(out_dir, "snapshot_final.json"), run_.final)
        outputs.append("snapshot_final.json")
        if run_.marked is not None:
            open_system.write_snapshot(os.path.join(out_dir, "snapshot_t_d.json"), run_.marked)
            outputs.append("snapshot_t_d.json")
            doc["t_d"] = res.t_mark
            doc["at_t_d"] = run_.record.row_at(res.t_mark)
        doc["initial"] = config.initial
        doc["invariants"] = {
            "trace_err_max": run_.trace_err_max,
            "min_eig_min": run_.min_eig_min,
            "tail_max": run_.tail_max,
        }
        doc["final"] = run_.record.row_at(res.t_end)

    elif mode in ("wigner", "quadrature"):
        state_l, state_r, beta = _mechanical_states_at_td(config, res)
        doc["t_d"] = config.t_d
        doc["source"] = config.source
        doc["beta_at_t_d"] = {"re": beta.real, "im": beta.imag}
        if mode == "wigner":
            grid = analysis.PhaseSpaceGrid.square(config.grid_extent, config.grid_step)
            # rows run over eta_re fastest, the row-major order of w; each axis
            # cell is formatted once and repeated
            eta_cells = (
                format_column(grid.re_axis) * grid.n_im,
                [c for c in format_column(grid.im_axis) for _ in range(grid.n_re)],
            )
            for tag, st in (("L", state_l), ("R", state_r)):
                w = (
                    analysis.wigner_analytic(st, grid)
                    if config.source == "analytic"
                    else analysis.wigner_numeric(st, grid)
                )
                name = f"wigner_{tag}.csv"
                _write_csv(os.path.join(out_dir, name), ("eta_re", "eta_im", "W"), (*eta_cells, w))
                outputs.append(name)
                doc[f"wigner_{tag}_integral"] = grid.integrate(w)
        else:
            theta = config.theta
            if theta == "auto":
                theta = analysis.default_theta(beta)
            axis = analysis.QuadratureAxis.around_cat(theta, abs(beta), config.x_step)
            doc["theta"] = theta
            for tag, st in (("L", state_l), ("R", state_r)):
                if config.source == "analytic":
                    p = analysis.quadrature_analytic(st, axis, n_max=res.n_max)
                else:
                    p = analysis.quadrature_numeric(st, axis)
                # clamp tiny negative roundoff in emitted files only
                emitted = np.where((p < 0) & (p > -1e-10), 0.0, p)
                name = f"quadrature_{tag}.csv"
                _write_csv(os.path.join(out_dir, name), ("x", "P"), (axis.x_values, emitted))
                outputs.append(name)
                doc[f"quadrature_{tag}_integral"] = axis.integrate(p)

    doc["outputs"] = outputs
    doc["wall_time_s"] = time.perf_counter() - t_start
    _manifest(os.path.join(out_dir, "manifest.json"), doc)
    return doc


def _sweep_label(key: str, value: float) -> str:
    return f"{key}={value:g}"


def run(config: RunConfig) -> dict:
    """Execute a run configuration; returns the top-level manifest dict."""
    out_root = config.out_dir or os.environ.get(OUT_ENV) or DEFAULT_OUT
    if config.sweep_key is None or config.mode in ("sweep", "detect-times"):
        return _execute_single(config, out_root)

    if not config.sweep_values:
        raise ConfigError("sweep requires sweep_values")
    t_start = time.perf_counter()
    jobs = [
        (config, os.path.join(out_root, _sweep_label(config.sweep_key, v)), v)
        for v in config.sweep_values
    ]
    if config.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_execute_single, *job) for job in jobs]
            docs = [f.result() for f in futures]
    else:
        docs = [_execute_single(*job) for job in jobs]

    top = _base_manifest(config, None, config.mode)
    top["sweep"] = {"key": config.sweep_key, "values": list(config.sweep_values)}
    top["runs"] = [os.path.basename(j[1]) for j in jobs]
    if all("final" in d for d in docs):
        columns = (config.sweep_key,) + tuple(docs[0]["final"].keys())
        rows = [
            (v,) + tuple(d["final"][c] for c in columns[1:])
            for v, d in zip(config.sweep_values, docs)
        ]
        _write_csv(os.path.join(out_root, "summary.csv"), columns, zip(*rows))
        top["outputs"] = ["summary.csv"]
    top["wall_time_s"] = time.perf_counter() - t_start
    top["members_wall_time_s"] = sum(d["wall_time_s"] for d in docs)
    _manifest(os.path.join(out_root, "manifest.json"), top)
    return top


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="catforge",
        description="Mechanical cat-state generation in a modulated two-mode optomechanical cavity",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="flat key-value config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter preset")
        p.add_argument("--out", help=f"output directory (default ${OUT_ENV} or ./{DEFAULT_OUT})")
        p.add_argument("--workers", type=int, help="worker processes for sweep fan-out")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    try:
        text = ""
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            overrides[key] = KNOWN_KEYS[key](key, val.strip())
        config = parse_config(
            text,
            preset=args.preset,
            overrides=overrides,
            mode=args.mode,
            out=args.out,
            workers=args.workers,
        )
    except ConfigError as exc:
        print(f"catforge: config error: {exc}", file=sys.stderr)
        return 2

    try:
        run(config)
    except SolverAbort as exc:
        out_root = config.out_dir or os.environ.get(OUT_ENV) or DEFAULT_OUT
        os.makedirs(out_root, exist_ok=True)
        _manifest(
            os.path.join(out_root, "diagnostics.json"),
            {"error": str(exc), "mode": config.mode, "preset": config.preset},
        )
        print(f"catforge: solver abort: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"catforge: config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
