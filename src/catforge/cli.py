"""Command-line driver: parse run configurations, dispatch solver and
tomography jobs, and write deterministic CSV/JSON outputs.

Configs are flat key-value text documents (``key = value``, ``#`` comments)
whose keys are the fields of ``RunConfig``.  All internal computation is in
units of g0; physical-unit configs (``units = physical``) are normalized at
parse time.  Named presets bundle
the figure-reproduction parameter sets; explicit keys override preset values
and the override is logged and recorded in the manifest.  Every manifest
carries the full ``RunConfig`` it ran, which ``config_from_manifest`` rebuilds.

A config resolves to its job list once, at parse time: one frozen job per
sweep member (or one for the whole run), each with its output directory,
sweep value and resolved params, cutoff, step settings and grid.  A refusal
is raised there, before anything is written; ``run`` and its worker pool
only execute the jobs.

Exit codes: 0 success, 2 config error, 3 solver invariant abort.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import logging
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __version__, analysis, closed, model, open_system
from .closed import P_FLOOR, SolverAbort, SolverConfig
from .model import XI_MAX, SystemParams, derive
from .trajectory import format_column, write_columns

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
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected a number, got {v!r}") from None


def _as_int(key, v):
    f = _as_float(key, v)
    if not f.is_integer():  # nor inf nor nan
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
    parts = v if isinstance(v, (tuple, list)) else [p.strip() for p in str(v).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_as_float(key, p) for p in parts)


def _as_float_or(*words):
    """A caster that takes a number or one of the given words."""

    def cast(key, v):
        if isinstance(v, str) and v.strip() in words:
            return v.strip()
        return _as_float(key, v)

    return cast


def _as_initial(key, v):
    v = str(v)
    if v in INITIALS or v.startswith("file:"):
        return v
    raise ConfigError(f"{key}: expected one of {INITIALS} or file:PATH, got {v!r}")


def _as_str(key, v):
    return str(v)


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


# Work-size ceilings, checked when a config's jobs are resolved and before
# anything is allocated; each sits next to the largest preset value it covers.
# figS5's Wigner grid has 181^2 = 32,761 points; a map takes a few grid-sized
# complex arrays, 16 MB each at the ceiling.
MAX_GRID_POINTS = 1_000_000
# figS5's quadrature axis has 1,766 points; at this ceiling and MAX_N_MAX the
# quadrature holds three (n_max + 1)-row arrays over the axis, about 0.4 GB.
MAX_AXIS_POINTS = 20_000
# closed.default_n_max refuses a default past this cutoff ceiling itself.
MAX_N_MAX = closed.MAX_N_MAX
# figS3's omega_m = 100 takes 104,986 closed steps.  A solve holds one chunk of
# steps, so its records, not its steps, set its memory.
MAX_STEPS = 1_000_000
# t_end/dt/record_stride; the default stride keeps about 600.  At n_max = 27 a
# record takes about 1.1 kB (open) and 5.8 kB (closed, with its post-solve
# columns), up to 0.29 GB here.
MAX_RECORDS = 50_000
# fig1a's delta grid has 91 points.
MAX_DELTA_POINTS = 100_000

# Key domains: (test, refusal formatted with the key and the value)
_FINITE = (math.isfinite, "{key} must be finite, got {v!r}")
_POSITIVE = (lambda v: v > 0, "{key} must be positive, got {v:.6g}")
_NON_NEGATIVE = (lambda v: v >= 0, "{key} must be non-negative, got {v:.6g}")
_AT_LEAST_1 = (lambda v: v >= 1, "{key} must be >= 1, got {v:.6g}")
_N0 = (lambda v: 1 <= v <= 30, "{key} must be in [1, 30], got {v:.6g}")  # bessel_j's orders <= 60
_XI = (lambda v: abs(v) <= XI_MAX, f"{{key}} = {{v!r}}: 2|xi| must be <= {2 * XI_MAX:g} (bessel_j's range)")


def _key(cast, default=None, dim=0, domain=None):
    """A RunConfig field that is also the config key of its name, read by ``cast``.

    ``dim`` is the power of g0 in the key's unit: 1 for a rate, -1 for a time.
    Every number the key holds must be finite and pass ``domain``, if given.
    """
    return field(default=default, metadata={"cast": cast, "dim": dim, "domain": domain})


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description (rates already normalized to g0=1).

    Every field but ``overrides`` is the config key of the same name, with its
    caster, default and unit; ``units`` is the one key read only at parse time.
    """

    mode: str = _key(_as_choice(MODES), MISSING)
    omega_m: float | None = _key(_as_float, dim=1, domain=_POSITIVE)
    xi: float | None = _key(_as_float, domain=_XI)
    omega_0: float | None = _key(_as_float, dim=1, domain=_POSITIVE)
    delta: float | str | None = _key(_as_float_or("g"), dim=1)
    g0: float = _key(_as_float, 1.0, dim=1, domain=_POSITIVE)
    omega_c: float = _key(_as_float, 0.0, dim=1)
    n0: int = _key(_as_int, 1, domain=_N0)
    gamma_c: float = _key(_as_float, 0.0, dim=1, domain=_NON_NEGATIVE)
    gamma_m: float = _key(_as_float, 0.0, dim=1, domain=_NON_NEGATIVE)
    n_th: float = _key(_as_float, 0.0, domain=_NON_NEGATIVE)
    dt: float | None = _key(_as_float, dim=-1, domain=_POSITIVE)
    t_end: float | str | None = _key(_as_float_or("pi/delta", "2pi/delta"), dim=-1)
    record_stride: int | None = _key(_as_int, domain=_AT_LEAST_1)
    n_max: int | None = _key(_as_int, domain=_AT_LEAST_1)
    t_d: float | None = _key(_as_float, dim=-1)
    initial: str = _key(_as_initial, "bell")
    source: str = _key(_as_choice(SOURCES), "open")
    theta: float | str = _key(_as_float_or("auto"), "auto")
    grid_extent: float = _key(_as_float, 4.5)
    grid_step: float = _key(_as_float, 0.05, domain=_POSITIVE)
    x_step: float = _key(_as_float, 0.01, domain=_POSITIVE)
    sweep: str | None = _key(_as_choice(SWEEPABLE))
    # a sweep value takes the unit and domain of the key it replaces (_sweep_meta)
    sweep_values: tuple[float, ...] | None = _key(_as_float_list)
    xi_list: tuple[float, ...] | None = _key(_as_float_list, domain=_XI)
    delta_min: float | None = _key(_as_float, dim=1, domain=_POSITIVE)
    delta_max: float | None = _key(_as_float, dim=1)
    delta_step: float | None = _key(_as_float, dim=1, domain=_POSITIVE)
    out: str | None = _key(_as_str)
    preset: str | None = _key(_as_str)
    workers: int = _key(_as_int, 1, domain=_AT_LEAST_1)
    overrides: dict = field(default_factory=dict)

    @functools.cached_property
    def _jobs(self) -> tuple[tuple[str, float | None, _Resolved | np.ndarray], ...]:
        """Every job the config fans out to, resolved once, once its cross-key rules hold: (member
        directory under the output root, "" for the root itself; sweep value, None for a single job;
        _Resolved, or the sweep mode's delta grid).  Not a field: asdict, == and replace ignore it."""
        swept = self.sweep is not None and self.mode not in ("sweep", "detect-times")
        if swept and not self.sweep_values:
            raise ConfigError("sweep requires sweep_values")
        members: dict[str, list] = {}  # directory: the values written there
        for v in self.sweep_values if swept else (None,):
            members.setdefault(f"{self.sweep}={v:g}" if swept else "", []).append(v)
        for name, vs in members.items():
            if len(vs) > 1:
                raise ConfigError(f"sweep_values {', '.join(map(repr, vs))} share the output directory {name!r}")
        detuning_swept = swept and self.sweep in ("delta", "delta_over_g")
        if self.mode == "sweep":
            needed = ("xi_list", "delta_min", "delta_max", "delta_step")
            required = [k for k in needed if getattr(self, k) is None]
        else:
            required = [k for k in ("omega_m", "xi") if getattr(self, k) is None]
            if self.omega_0 is None and self.delta is None and not detuning_swept:
                required.append("omega_0 (or delta)")
            if self.mode in ("wigner", "quadrature") and self.t_d is None:
                required.append("t_d")
        if required:
            raise ConfigError(f"missing required fields for mode={self.mode}: {', '.join(required)}")
        if self.omega_0 is not None and (self.delta is not None or detuning_swept):
            raise ConfigError("give either omega_0 or delta, not both")
        # refuse what the library would (a bad delta grid, a coarse dt, ...) before anything is written
        if self.mode == "sweep":
            if self.delta_min > self.delta_max:
                raise ConfigError("delta grid needs delta_min <= delta_max")
            points = (self.delta_max - self.delta_min) / self.delta_step + 1
            if not points <= MAX_DELTA_POINTS:
                raise ConfigError(f"the delta grid has {points:.4g} points, past {MAX_DELTA_POINTS:,}")
            return (("", None, np.arange(self.delta_min, self.delta_max + self.delta_step / 2, self.delta_step)),)
        return tuple((name, v, _resolve(self, v)) for name, (v,) in members.items())

    def __getstate__(self):  # a pickled config (a pool's task) carries its fields, not its jobs
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _field_meta(key: str) -> dict:
    f = RunConfig.__dataclass_fields__.get(key)
    if f is None or "cast" not in f.metadata:
        raise ConfigError(f"unknown key {key!r}")
    return f.metadata


def _sweep_meta(sweep: str | None) -> dict:
    """The unit and domain of sweep_values: the swept key's; delta_over_g's are none."""
    return _field_meta(sweep) if sweep in RunConfig.__dataclass_fields__ else {"dim": 0, "domain": None}


def _cast(key: str, val):
    if key == "units":
        return _as_choice(("g0", "physical"))(key, val)
    return _field_meta(key)["cast"](key, val)


def _in_g0_units(val, dim: int, scale: float):
    """A value in rad/s (dim 1) or s (dim -1) stated in units of g0 = scale."""
    if dim == 0 or isinstance(val, str):  # pi/delta, delta = g: already in g0 units
        return val
    if isinstance(val, tuple):
        return tuple(_in_g0_units(v, dim, scale) for v in val)
    return val / scale if dim > 0 else val * scale


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
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _cast(key, val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
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
    explicit CLI mode/out/workers.  The preset argument names the preset,
    else a ``preset`` key in the overrides, else one in the document.
    Unknown keys are errors.
    """
    given = _parse_document(text)
    given.update((key, _cast(key, val)) for key, val in (overrides or {}).items())
    given_preset = given.pop("preset", None)
    if preset is None:
        preset = given_preset
    preset_vals: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        preset_vals = PRESETS[preset]
    logged_overrides = {k: v for k, v in given.items() if k in preset_vals and v != preset_vals[k]}
    for key, val in logged_overrides.items():
        log.info("preset %s override: %s = %r (preset value %r)", preset, key, val, preset_vals[key])
    merged = {**preset_vals, **given}
    for key, val in (("mode", mode), ("out", out), ("workers", workers)):
        if val is not None:
            merged[key] = _cast(key, val)

    if merged.pop("units", "g0") == "physical":
        scale = merged.get("g0")
        if scale is None or not 0.0 < scale < math.inf:
            raise ConfigError("units=physical requires an explicit positive, finite g0")
        swept_dim = _sweep_meta(merged.get("sweep"))["dim"]
        for key, val in merged.items():
            dim = swept_dim if key == "sweep_values" else _field_meta(key)["dim"]
            merged[key] = _in_g0_units(val, dim, scale)
    merged["preset"] = preset
    return _checked(merged, logged_overrides)


def _checked(values: dict, overrides: dict) -> RunConfig:
    """The RunConfig of cast values in g0 units, once each number is in its key's domain and its jobs resolve."""
    if "mode" not in values:
        raise ConfigError("missing required field: mode")
    config = RunConfig(**values, overrides=overrides)
    for f in fields(RunConfig)[:-1]:  # all but overrides
        key, meta, value = f.name, f.metadata, getattr(config, f.name)
        if key == "sweep_values":  # named and bounded as the key each value replaces
            key, meta = config.sweep or key, _sweep_meta(config.sweep)
        for v in value if isinstance(value, tuple) else (value,):
            for test, says in (_FINITE, meta["domain"] or _FINITE):  # finite, then in the domain
                if not (v is None or isinstance(v, str) or test(v)):
                    raise ConfigError(says.format(key=key, v=v))
    config._jobs  # resolved here, so a refused job is a config error before anything is written
    return config


@dataclass(frozen=True)
class _Resolved:
    """One concrete job: its params and phonon cutoff, and (else None) a solver job's step settings
    and where it samples: a Wigner grid, a quadrature axis or a detect-times window centre."""

    params: SystemParams
    d: model.DerivedModulation
    n_max: int
    solver: SolverConfig | None
    grid: analysis.PhaseSpaceGrid | analysis.QuadratureAxis | float | None


def _resolve(config: RunConfig, sweep_value: float | None = None) -> _Resolved:
    kw = {f.name: getattr(config, f.name) for f in fields(SystemParams)}
    delta = config.delta
    if sweep_value is not None:
        if config.sweep in kw:
            kw[config.sweep] = float(sweep_value)
        else:  # delta, or delta_over_g in units of g
            delta = float(sweep_value)

    tomography = config.mode in ("wigner", "quadrature")
    is_open = config.mode == "open" or (tomography and config.source == "open")
    runs_solver = config.mode in ("closed", "open") or (tomography and config.source != "analytic")
    if is_open and config.initial.startswith("file:"):
        raise ConfigError("initial=file:PATH is read only by the closed solver")

    try:
        if kw["omega_0"] is not None:
            params = SystemParams(**kw)
        else:
            g = model.coupling(kw["g0"], kw["xi"], kw["n0"])
            if delta == "g":
                delta = g
            elif config.sweep == "delta_over_g" and sweep_value is not None:
                delta *= g
            del kw["omega_0"]
            params = SystemParams.with_detuning(delta=delta, **kw)
        d = derive(params)

        grid = None
        if config.mode == "detect-times":
            if config.t_d is None and d.delta == 0.0:
                raise ConfigError("detect-times at delta=0 needs t_d (the window center pi/delta is undefined)")
            grid = center = config.t_d if config.t_d is not None else math.pi / abs(d.delta)
            # beta_of_t raises past float range, here at the far end of the window
            model.beta_of_t(d, params.omega_m, center + math.pi / params.omega_0)
        solver = None
        if runs_solver:
            dt = config.dt if config.dt is not None else closed.default_dt(params, 64 if is_open else 128)
            t_end = config.t_d if tomography else config.t_end
            if t_end is None or isinstance(t_end, str):  # None runs to 2pi/delta
                if d.delta == 0.0:
                    raise ConfigError(f"t_end={t_end or '2pi/delta'!r} undefined at delta=0; give a number")
                t_end = (math.pi if t_end == "pi/delta" else 2.0 * math.pi) / abs(d.delta)
            t_mark = config.t_d if not tomography and config.t_d is not None and config.t_d <= t_end else None
            steps = t_end / dt if dt > 0 and t_end > 0 else 0.0  # SolverConfig refuses the others
            if not steps <= MAX_STEPS:
                raise ConfigError(f"t_end/dt = {steps:.4g} steps is past {MAX_STEPS:,}")
            stride = config.record_stride or max(1, round(steps / 600))  # about 600 records
            if not steps / stride <= MAX_RECORDS:
                raise ConfigError(f"t_end/dt/record_stride = {steps / stride:.4g} records is past {MAX_RECORDS:,}")
            solver = SolverConfig(dt=dt, t_end=t_end, record_stride=stride, t_mark=t_mark)
            solver.validate(params)

        # a given n_max wins; only an open run's default depends on the bath, and so on t_end
        bath = (params, solver.t_end) if is_open else ()
        n_max = config.n_max or closed.default_n_max(d, *bath)
        if n_max > MAX_N_MAX:  # a given one: the rule refuses its own past the ceiling
            raise ConfigError(f"n_max = {n_max} is past {MAX_N_MAX}")

        if tomography:  # raises past float range
            beta = model.beta_of_t(d, params.omega_m, config.t_d)
        if config.mode == "wigner":
            n = 2 * config.grid_extent / config.grid_step + 1
            points = n * n  # inf, not OverflowError, past float range
            if not points <= MAX_GRID_POINTS:
                raise ConfigError(f"the Wigner grid has {points:.4g} points, past {MAX_GRID_POINTS:,}")
            grid = analysis.PhaseSpaceGrid.square(config.grid_extent, config.grid_step)
        elif config.mode == "quadrature":
            points = 2 * analysis.QuadratureAxis.half_width(abs(beta)) / config.x_step + 1
            if not points <= MAX_AXIS_POINTS:
                raise ConfigError(f"the quadrature axis has {points:.4g} points, past {MAX_AXIS_POINTS:,}")
            theta = analysis.default_theta(beta) if config.theta == "auto" else config.theta
            grid = analysis.QuadratureAxis.around_cat(theta, abs(beta), config.x_step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return _Resolved(params, d, n_max, solver, grid)


def _load_initial_closed(kind: str, n_max: int) -> closed.SinglePhotonState:
    if not kind.startswith("file:"):
        return closed.initial_state(kind, n_max)
    try:
        with open(kind[5:], encoding="ascii") as fh:
            doc = json.load(fh)
        a = np.asarray(doc["a_re"], dtype=float) + 1j * np.asarray(doc["a_im"], dtype=float)
        b = np.asarray(doc["b_re"], dtype=float) + 1j * np.asarray(doc["b_im"], dtype=float)
        state = closed.SinglePhotonState(a, b, 0.0)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"initial file {kind[5:]!r}: {exc!r}") from None
    if state.n_max != n_max:
        raise ConfigError(f"initial file has {a.size} amplitudes, n_max+1={n_max + 1}")
    if not abs(state.norm_sq() - 1.0) <= 1e-9:  # a NaN amplitude fails this too
        raise ConfigError("initial amplitudes are not normalized")
    return state


def _evolve(solver: str, config: RunConfig, res: _Resolved, **kw):
    """Run the closed or open solver from the config's initial state."""
    if solver == "closed":
        state = _load_initial_closed(config.initial, res.n_max)
        return closed.evolve_closed(state, res.params, res.solver, **kw)
    rho0 = open_system.initial_density(config.initial, res.n_max)
    # a given n_max is a fixed cutoff; the rule's own grows with the run
    return open_system.evolve_open(rho0, res.params, res.solver, grow=config.n_max is None, **kw)


def _manifest(path, doc: dict):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _base_manifest(config: RunConfig, res: _Resolved | None) -> dict:
    doc = {
        "catforge_version": __version__,
        "mode": config.mode,
        "preset": config.preset,
        "overrides": dict(config.overrides),
        "config": asdict(config),
    }
    if res is not None:
        doc["params"] = asdict(res.params)
        doc["derived"] = {
            "g": res.d.g,
            "delta": res.d.delta,
            "beta_max": res.d.beta_max if math.isfinite(res.d.beta_max) else "unbounded",
            "rwa_regime_ok": res.params.rwa_regime_ok,
        }
        doc["solver"] = _solver_block(res)
        if not res.params.rwa_regime_ok:
            log.warning("parameters are outside the RWA regime (|delta|, g0/2 vs omega_0/5, omega_m/5)")
    return doc


def _solver_block(res: _Resolved) -> dict:
    """A job's manifest ``solver`` block, before its solve adds the cutoff schedule."""
    block = {"n_max": res.n_max}
    if res.solver is not None:
        block.update(method="rk4", **asdict(res.solver))
    return block


def config_from_manifest(path) -> RunConfig:
    """The RunConfig a manifest (or an abort's diagnostics.json) was written from.

    A sweep member's manifest gives the whole sweep's config."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    config = doc.get("config") if isinstance(doc, dict) else None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: no 'config' section (written before manifests carried their config)")
    overrides = config.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}: config 'overrides' is not a table")
    # cast (JSON arrays back to tuples) and checked as when the run was parsed
    values = {k: v if v is None else _field_meta(k)["cast"](k, v) for k, v in config.items() if k != "overrides"}
    return _checked(values, {k: _cast(k, v) for k, v in overrides.items()})


def _mechanical_states_at_td(config: RunConfig, res: _Resolved):
    """Mechanical states at the detection time for tomography modes.

    Returns (stateL, stateR, beta, cutoff_schedule): CatState pairs and no
    schedule for the analytic source, density matrices and the solve's
    cutoff schedule for closed/open sources.
    """
    t_d = config.t_d
    if config.source == "analytic":
        phi_l, phi_r = model.target_states(res.params, res.d, t_d)
        return phi_l, phi_r, model.beta_of_t(res.d, res.params.omega_m, t_d), None
    # res runs these modes to t_end = t_d; an empty detection sector has no state to image
    if config.source == "closed":
        run_ = _evolve("closed", config, res, compute_fidelities=False)
        psi_l, p_l, psi_r, p_r = closed.conditional_states(run_.final)
        for tag, psi, p in (("L", psi_l, p_l), ("R", psi_r, p_r)):
            if psi is None:
                raise ConfigError(f"sector {tag} probability {p:.3e} below {P_FLOOR:g} at t_d={t_d:g}")
        rho_l = np.outer(psi_l, psi_l.conj())
        rho_r = np.outer(psi_r, psi_r.conj())
    else:
        run_ = _evolve("open", config, res)
        try:
            rho_l, _ = open_system.reduce_mechanical(run_.final, open_system.PhotonSector.L)
            rho_r, _ = open_system.reduce_mechanical(run_.final, open_system.PhotonSector.R)
        except ValueError as exc:  # names the sector and its probability
            raise ConfigError(f"{exc} at t_d={t_d:g}") from None
    return rho_l, rho_r, model.beta_of_t(res.d, res.params.omega_m, t_d), run_.cutoff_schedule


def _execute_single(config: RunConfig, job: tuple) -> dict:
    """Run one of the config's jobs; returns its manifest dict.  A solver abort
    leaves with the job attached (``exc.job``), out of a worker pool too."""
    try:
        return _execute(config, *job)
    except SolverAbort as exc:
        exc.job = job
        raise


def _execute(config: RunConfig, member: str, value: float | None, res: _Resolved | np.ndarray) -> dict:
    """Run one job into its member directory; returns its manifest dict.

    The directory is made only when the first output is written, so a job
    refused on the way (an unreadable initial file, an empty detection
    sector) leaves no directory behind."""
    t_start = time.perf_counter()
    mode = config.mode
    out_dir = os.path.join(_out_root(config), member)

    doc = _base_manifest(config, None if mode == "sweep" else res)
    if value is not None:
        doc["sweep"] = {"key": config.sweep, "value": value}
    outputs = []

    def output(name: str) -> str:
        """Make out_dir, list name among the outputs and return its path."""
        os.makedirs(out_dir, exist_ok=True)
        outputs.append(name)
        return os.path.join(out_dir, name)

    if mode == "sweep":
        rows = analysis.sweep_beta_max(config.xi_list, res, config.n0, config.g0)
        write_columns(output("beta_max.csv"), ("xi", "delta", "beta_max"), zip(*rows))
        doc["xi_list"] = list(config.xi_list)
        doc["delta_grid"] = {"min": config.delta_min, "max": config.delta_max, "step": config.delta_step}

    elif mode == "detect-times":
        cands = analysis.detection_time_candidates(res.params, res.d, res.grid)
        write_columns(output("detection_times.csv"), ("t", "beta_abs"), zip(*cands))
        doc["window_center"] = res.grid
        doc["n_candidates"] = len(cands)

    elif mode in ("closed", "open"):
        run_ = _evolve(mode, config, res)
        run_.record.write_csv(output("trajectory.csv"))
        if mode == "open":
            for name, rho in (("snapshot_final.json", run_.final), ("snapshot_t_d.json", run_.marked)):
                if rho is not None:
                    open_system.write_snapshot(output(name), rho)
        doc["invariants"] = run_.invariants
        doc["solver"]["cutoff_schedule"] = run_.cutoff_schedule
        doc["initial"] = config.initial
        if res.solver.t_mark is not None:
            doc["t_d"] = res.solver.t_mark
            doc["at_t_d"] = run_.record.row_at(res.solver.t_mark)
        doc["final"] = run_.record.row_at(res.solver.t_end)

    elif mode in ("wigner", "quadrature"):
        state_l, state_r, beta, schedule = _mechanical_states_at_td(config, res)
        if schedule is not None:
            doc["solver"]["cutoff_schedule"] = schedule
        doc["t_d"] = config.t_d
        doc["source"] = config.source
        doc["beta_at_t_d"] = {"re": beta.real, "im": beta.imag}
        if mode == "wigner":
            grid = res.grid
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
                write_columns(output(f"wigner_{tag}.csv"), ("eta_re", "eta_im", "W"), (*eta_cells, w))
                doc[f"wigner_{tag}_integral"] = grid.integrate(w)
        else:
            axis = res.grid
            doc["theta"] = axis.theta
            for tag, st in (("L", state_l), ("R", state_r)):
                if config.source == "analytic":
                    p = analysis.quadrature_analytic(st, axis, n_max=res.n_max)
                else:
                    p = analysis.quadrature_numeric(st, axis)
                # clamp tiny negative roundoff in emitted files only
                emitted = np.where((p < 0) & (p > -1e-10), 0.0, p)
                write_columns(output(f"quadrature_{tag}.csv"), ("x", "P"), (axis.x_values, emitted))
                doc[f"quadrature_{tag}_integral"] = axis.integrate(p)

    doc["outputs"] = outputs
    doc["wall_time_s"] = time.perf_counter() - t_start
    _manifest(os.path.join(out_dir, "manifest.json"), doc)
    return doc


def _out_root(config: RunConfig) -> str:
    return config.out or os.environ.get(OUT_ENV) or DEFAULT_OUT


def run(config: RunConfig) -> dict:
    """Execute a run configuration's jobs; returns the top-level manifest dict."""
    out_root = _out_root(config)
    jobs = config._jobs
    if jobs[0][1] is None:  # one job, with no sweep value: written to the output root
        return _execute_single(config, jobs[0])

    t_start = time.perf_counter()
    # no more processes than members: a fork-started pool launches all of them at once
    workers = min(config.workers, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_single, config, job) for job in jobs]
            docs = [f.result() for f in futures]
    else:
        docs = [_execute_single(config, job) for job in jobs]

    top = _base_manifest(config, None)
    members, values, _ = zip(*jobs)
    top["sweep"] = {"key": config.sweep, "values": list(values)}
    top["runs"] = list(members)
    if all("final" in d for d in docs):
        columns = (config.sweep,) + tuple(docs[0]["final"].keys())
        rows = [
            (v,) + tuple(d["final"][c] for c in columns[1:])
            for v, d in zip(values, docs)
        ]
        write_columns(os.path.join(out_root, "summary.csv"), columns, zip(*rows))
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
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"--config {args.config!r}: {exc.strerror or exc}") from None
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, val = item.partition("=")
            overrides[key.strip()] = val.strip()
        config = parse_config(
            text,
            preset=args.preset,
            overrides=overrides,
            mode=args.mode,
            out=args.out,
            workers=args.workers,
        )
        run(config)
    except SolverAbort as exc:
        out_root = _out_root(config)
        os.makedirs(out_root, exist_ok=True)
        diagnostics = {"error": str(exc), "mode": config.mode, "preset": config.preset, "config": asdict(config)}
        _, value, res = exc.job
        diagnostics["solver"] = _solver_block(res)  # the aborting job's, less its cutoff schedule
        if value is not None:
            diagnostics["sweep"] = {"key": config.sweep, "value": value}
        _manifest(os.path.join(out_root, "diagnostics.json"), diagnostics)
        print(f"catforge: solver abort: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"catforge: config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
