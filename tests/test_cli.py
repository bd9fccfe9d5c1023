import concurrent.futures
import dataclasses
import functools
import importlib
import json
import math
import pathlib

import numpy as np
import pytest

from catforge import analysis, cli, closed, model
from catforge import open_system as osys
from catforge.cli import ConfigError, parse_config
from catforge.trajectory import TrajectoryRecord, write_columns

import oracles
from conftest import XI, coupling_g, fig2_params


def resolved_params(config, sweep_value=None):
    return cli._resolve(config, sweep_value).params


def test_preset_fig2_values():
    cfg = parse_config(preset="fig2")
    res = cli._resolve(cfg)
    p = res.params
    assert (p.omega_m, p.n0, p.xi) == (20.0, 1, XI)
    assert (p.gamma_m, p.n_th, p.gamma_c) == (1e-4, 4.0, 0.2)
    assert abs(res.d.delta - res.d.g) < 1e-15
    assert cfg.t_d == 12.6664
    # no preset n_max: the truncation rule's, with the bath's terms of a run to 2 pi/delta
    assert res.n_max == closed.default_n_max(res.d, p, res.solver.t_end) == 40


def test_empty_document_lists_required_fields():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("")
    with pytest.raises(ConfigError, match="omega_m"):
        parse_config("mode = open\n")
    with pytest.raises(ConfigError, match="xi_list"):
        parse_config("mode = sweep\n")


def test_override_changes_only_that_key():
    base = parse_config(preset="fig2")
    over = parse_config(preset="fig2", overrides={"gamma_c": 0.1})
    assert over.gamma_c == 0.1
    assert over.overrides == {"gamma_c": 0.1}
    for field_ in ("omega_m", "xi", "gamma_m", "n_th", "t_d", "n_max", "initial"):
        assert getattr(base, field_) == getattr(over, field_)


def test_document_parsing():
    text = """
    # a comment
    mode = closed
    omega_m = 20    # inline comment
    xi = 1.5271
    delta = g
    t_end = 2pi/delta
    initial = right
    """
    cfg = parse_config(text)
    assert cfg.mode == "closed"
    assert cfg.delta == "g"
    assert cfg.initial == "right"
    res = cli._resolve(cfg)
    assert abs(res.solver.t_end - 2 * math.pi / res.d.delta) < 1e-12


def test_parse_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("mode = open\nbogus = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("mode = open\nmode = closed\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("mode = open\nomega_m = fast\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config("mode = open\nomega_m = 20\nxi = 1.5\nomega_0 = 9\ndelta = 0.2\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config(preset="figS4", overrides={"omega_0": "9.5"})
    with pytest.raises(ConfigError, match="non-negative"):
        parse_config("mode = open\nomega_m = 20\nxi = 1.5\ndelta = g\ngamma_c = -2\n")
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config(preset="fig9")
    for g0 in ("0", "-1", "inf", "nan"):
        with pytest.raises(ConfigError, match="finite g0"):
            parse_config(preset="fig2units", overrides={"g0": g0})


def test_typed_overrides_are_validated():
    for overrides in ({"initial": 3}, {"n0": 2.5}, {"mode": 1}):
        with pytest.raises(ConfigError):
            parse_config(preset="fig2", overrides=overrides)


def test_units_preset_matches_dimensionless_twin():
    a = cli._resolve(parse_config(preset="fig2"))
    # a swept rate is normalized like the rate it replaces: the member is fig2's gamma_m
    swept = parse_config(preset="fig2units", overrides={"sweep": "gamma_m", "sweep_values": repr(2 * math.pi * 50.0)})
    member = cli._resolve(swept, swept.sweep_values[0])
    for b in (cli._resolve(parse_config(preset="fig2units")), member):
        assert b.params.g0 == 1.0
        for field_ in ("omega_c", "omega_m", "omega_0", "xi", "gamma_c", "gamma_m", "n_th"):
            x, y = getattr(a.params, field_), getattr(b.params, field_)
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), field_
        assert abs(a.solver.t_mark - b.solver.t_mark) <= 1e-12 * a.solver.t_mark
    assert abs(member.params.gamma_m - a.params.gamma_m) <= 1e-12 * a.params.gamma_m
    # a time override is given in seconds
    dt = a.solver.dt / 2
    stepped = cli._resolve(parse_config(preset="fig2units", overrides={"dt": repr(dt / (2 * math.pi * 500e3))})).solver
    assert abs(stepped.dt - dt) <= 1e-12 * dt
    assert stepped.record_stride == cli._resolve(parse_config(preset="fig2", overrides={"dt": dt})).solver.record_stride
    # n_th has no unit
    assert parse_config(preset="fig2units", overrides={"sweep": "n_th", "sweep_values": "5"}).sweep_values == (5.0,)


def test_set_preset_selects_the_preset(tmp_path):
    short = ["--set", "t_end=0.2", "--set", "t_d=0.1", "--set", "n_max=6", "--set", "record_stride=20"]
    assert cli.main(["open", "--preset", "fig2", "--out", str(tmp_path / "flag")] + short) == 0
    assert cli.main(["open", "--set", "preset=fig2", "--out", str(tmp_path / "set")] + short) == 0
    names = sorted(p.name for p in (tmp_path / "flag").iterdir() if p.suffix == ".csv")
    assert names
    for name in names:
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "set" / name).read_bytes(), name


def test_scale_invariance_of_outputs(tmp_path):
    # overrides are expressed in each preset's own units
    g0_phys = 2 * math.pi * 500e3
    outs = {}
    for preset, tscale in (("fig2", 1.0), ("fig2units", 1.0 / g0_phys)):
        cfg = parse_config(
            preset=preset,
            overrides={"t_end": 0.4 * tscale, "t_d": 0.4 * tscale, "n_max": 12, "record_stride": 40},
            out=str(tmp_path / preset),
        )
        doc = cli.run(cfg)
        outs[preset] = doc["at_t_d"]
    for key in ("P_L", "P_R", "F_L", "F_R"):
        assert abs(outs["fig2"][key] - outs["fig2units"][key]) < 1e-9, key


def test_run_determinism(tmp_path):
    texts = []
    for tag in ("one", "two"):
        cfg = parse_config(
            preset="fig2",
            overrides={"t_end": 0.3, "t_d": 0.3, "n_max": 10, "record_stride": 20},
            out=str(tmp_path / tag),
        )
        cli.run(cfg)
        texts.append((tmp_path / tag / "trajectory.csv").read_bytes())
    assert texts[0] == texts[1]


def test_sweep_outputs_independent_of_workers(tmp_path):
    # members run in-process or in a pool write the same bytes
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        cfg = parse_config(
            preset="figS1",
            overrides={"t_end": 0.5, "n_max": 8, "record_stride": 10},
            out=str(out),
            workers=workers,
        )
        cli.run(cfg)
        outputs.append({p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*.csv")})
    assert sorted(outputs[0]) == ["summary.csv", "xi=0/trajectory.csv", "xi=1.5271/trajectory.csv"]
    assert outputs[0] == outputs[1]


def test_csv_columns_match_per_cell_format(tmp_path):
    # the column writer and TrajectoryRecord against format_float applied cell by cell
    rows = [
        (0.1, None, -0.0),
        (math.nan, 1e-300, 1.0 / 3.0),
        (-2, 1e22, np.float64(-7.25e-12)),
        (np.nan, -1e-300, math.inf),
    ]
    expected = "a,b,c\n" + "".join(",".join(oracles.format_float(v) for v in row) + "\n" for row in rows)
    write_columns(tmp_path / "rows.csv", ("a", "b", "c"), zip(*rows))
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode("ascii")
    columns = [np.array([r[i] for r in rows], dtype=float) for i in range(3)]
    write_columns(tmp_path / "arrays.csv", ("a", "b", "c"), columns)
    assert (tmp_path / "arrays.csv").read_bytes() == expected.encode("ascii")
    record = TrajectoryRecord(("a", "b", "c"), **dict(zip("abc", zip(*rows))))
    record.write_csv(tmp_path / "record.csv")
    assert (tmp_path / "record.csv").read_bytes() == expected.encode("ascii")
    write_columns(tmp_path / "empty.csv", ("t", "beta_abs"), zip(*[]))
    assert (tmp_path / "empty.csv").read_bytes() == b"t,beta_abs\n"


def test_fig1a_sweep_matches_formula(tmp_path):
    cfg = parse_config(preset="fig1a", out=str(tmp_path))
    cli.run(cfg)
    rows = np.genfromtxt(tmp_path / "beta_max.csv", delimiter=",", names=True)
    assert set(rows.dtype.names) == {"xi", "delta", "beta_max"}
    for xi, delta, bm in rows:
        assert bm == model.bessel_j(2, 2 * xi) / delta
    # the delta = g operating point gives exactly |beta|_max = 2
    assert analysis.sweep_beta_max([XI], [coupling_g()])[0][2] == 2.0


def test_fig1a_physical_units_matches_dimensionless(tmp_path):
    # the delta grid of the sweep mode is a rate: stated in rad/s it is normalized by g0
    g0 = 2 * math.pi * 500e3
    grid = {key: repr(cli.PRESETS["fig1a"][key] * g0) for key in ("delta_min", "delta_max", "delta_step")}
    cli.run(parse_config(preset="fig1a", out=str(tmp_path / "g0")))
    cli.run(parse_config(
        preset="fig1a", overrides={"units": "physical", "g0": repr(g0), **grid}, out=str(tmp_path / "physical")
    ))
    a, b = (np.loadtxt(tmp_path / tag / "beta_max.csv", delimiter=",", skiprows=1) for tag in ("g0", "physical"))
    assert a.shape == b.shape
    assert np.max(np.abs(b - a) / np.abs(a)) <= 1e-12


def test_sweep_rejects_nonpositive_delta(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path))
    code = cli.main(["sweep", "--preset", "fig1a", "--set", "delta_min=-0.1"])
    assert code == 2


def test_detect_times_output(tmp_path):
    cfg = parse_config(preset="fig2", mode="detect-times", out=str(tmp_path))
    cli.run(cfg)
    rows = np.genfromtxt(tmp_path / "detection_times.csv", delimiter=",", names=True)
    assert np.min(np.abs(rows["t"] - 12.6664)) < 2e-4
    # mu(t) = 2 xi sin(omega_0 t) reaches the same levels for -xi, and |beta(t)| is even in xi
    flipped = tmp_path / "flipped"
    cli.run(parse_config(preset="fig2", mode="detect-times", overrides={"xi": -XI}, out=str(flipped)))
    assert (flipped / "detection_times.csv").read_bytes() == (tmp_path / "detection_times.csv").read_bytes()


def test_figS1_preset_series(tmp_path):
    cfg = parse_config(
        preset="figS1", overrides={"t_end": 1.0, "record_stride": 100}, out=str(tmp_path)
    )
    cli.run(cfg)
    two_mode = np.genfromtxt(tmp_path / "xi=1.5271" / "trajectory.csv", delimiter=",", names=True)
    single = np.genfromtxt(tmp_path / "xi=0" / "trajectory.csv", delimiter=",", names=True)
    assert {"nL", "nR", "x_over_x0"} <= set(two_mode.dtype.names)
    # hopping off: the photon stays in the right cavity
    assert np.max(np.abs(single["nR"] - 1.0)) < 1e-10
    assert np.max(single["x_over_x0"]) <= 4 / 20.0 + 1e-6
    # fidelity columns are empty for the right-initial preparation
    lines = (tmp_path / "xi=1.5271" / "trajectory.csv").read_text().splitlines()
    assert lines[1].endswith(",,,")


# (mode, preset, overrides, sweep value, measured error of the default cutoff against n_max + 10);
# the open values are those of a fixed cutoff: on the growing ladder the two read 8.9e-16 and 1.0e-15
DEFAULT_CUTOFF_CASES = [
    ("closed", "figS3", {}, 20.0, 8.9e-12),  # to 2 pi/delta, n_max 27
    ("closed", "figS3", {}, 100.0, 1.2e-12),  # n_max 27
    ("closed", "figS4", {}, 0.5, 1.1e-11),  # to pi/delta, n_max 55
    ("open", "fig2", {"t_end": 2}, None, 4.4e-16),  # n_max 27
    ("open", "fig2", {"t_end": 2, "gamma_m": 1e-3, "n_th": 10}, None, 4.4e-16),  # n_max 28
]


def cutoff_case_id(mode, preset, overrides, value, measured):
    """mode-preset, the overrides and the sweep value: "open-fig2-t_end=2", "closed-figS3-20"."""
    settings = [f"{key}={v:g}" for key, v in overrides.items()] + ([] if value is None else [f"{value:g}"])
    return "-".join([mode, preset, *settings])


@pytest.mark.parametrize(
    "mode, preset, overrides, value, measured",
    DEFAULT_CUTOFF_CASES,
    ids=[cutoff_case_id(*case) for case in DEFAULT_CUTOFF_CASES],
)
def test_default_cutoff_meets_its_target(mode, preset, overrides, value, measured):
    # every record cell of a solve at the default n_max lies within closed.TRUNCATION_TARGET
    # (2e-11) of the same solve at n_max + 10; the manifest's estimate stays below it too
    cfg = parse_config(preset=preset, mode=mode, overrides=overrides)
    res = cli._resolve(cfg, value)
    runs = [cli._evolve(mode, cfg, dataclasses.replace(res, n_max=n)) for n in (res.n_max, res.n_max + 10)]
    diff = np.stack([runs[0].record.column(c) - runs[1].record.column(c) for c in runs[0].record.columns])
    err = np.max(np.abs(diff[~np.isnan(diff)]))  # the empty fidelity cells of a figS3 member are NaN
    assert err < closed.TRUNCATION_TARGET, (err, measured)
    assert runs[0].invariants["truncation_estimate"] < closed.TRUNCATION_TARGET


def test_manifest_round_trip(tmp_path):
    cfg = parse_config(
        preset="fig2",
        overrides={"t_end": 0.3, "t_d": 0.3, "n_max": 10, "record_stride": 30},
        out=str(tmp_path),
    )
    cli.run(cfg)
    back = cli.config_from_manifest(tmp_path / "manifest.json")
    a = cli._resolve(cfg)
    b = cli._resolve(back)
    assert a.params == b.params
    assert (a.solver.dt, a.solver.record_stride, a.n_max) == (b.solver.dt, b.solver.record_stride, b.n_max)
    assert abs(a.solver.t_end - b.solver.t_end) < 1e-12
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for key in ("omega_c", "omega_m", "g0", "xi", "n0", "omega_0", "gamma_c", "gamma_m", "n_th"):
        assert key in manifest["params"]


def test_each_job_resolved_once(tmp_path, monkeypatch):
    # a config resolves its jobs once, when it is checked; run only executes them
    resolved = []
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda config, value=None: resolved.append(value) or resolve(config, value))
    runs = [
        (["open", "--preset", "fig2", "--set", "t_end=0.2", "--set", "t_d=0.1"], 1),
        (["closed", "--preset", "figS3", "--set", "t_end=0.3", "--set", "record_stride=50"], 3),
        (["quadrature", "--preset", "figS5"], 1),
    ]
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    for i, (argv, jobs) in enumerate(runs):
        out = tmp_path / str(i)
        resolved.clear()
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert len(resolved) == jobs, argv
        resolved.clear()
        cli.run(cli.config_from_manifest(out / "manifest.json"))
        assert len(resolved) == jobs, argv
        # the manifest's config is the RunConfig's fields, without the jobs
        for manifest in out.rglob("manifest.json"):
            assert set(json.loads(manifest.read_text())["config"]) == fields, manifest


# per preset: settings that shorten the run, as --set strings; each differs
# from its preset value, so it is logged in overrides
SHORT_RUNS = {
    "fig1a": {"delta_step": "0.05"},
    "fig2": {"t_end": "0.2", "t_d": "0.1", "n_max": "6", "record_stride": "20"},
    "fig2units": {"t_end": "6e-08", "t_d": "3e-08", "n_max": "6", "record_stride": "20"},
    "fig3a": {"t_end": "0.2", "t_d": "0.1", "n_max": "6", "record_stride": "20", "sweep_values": "1e-4,1e-3"},
    "fig3b": {"t_end": "0.2", "n_max": "6", "record_stride": "20", "sweep_values": "10"},
    "figS1": {"t_end": "0.5", "n_max": "8", "record_stride": "20"},
    "figS3": {"t_end": "0.3", "n_max": "8", "record_stride": "50", "sweep_values": "20,40"},
    "figS4": {"t_end": "0.5", "n_max": "8", "record_stride": "20", "sweep_values": "0.5,1.0"},
    "figS5": {"grid_extent": "1.0", "grid_step": "0.25"},
}


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_preset_config_round_trip(tmp_path, preset):
    # run -> config_from_manifest -> rerun gives the same config and the same bytes
    assert sorted(SHORT_RUNS) == sorted(cli.PRESETS)
    mode = cli.PRESETS[preset]["mode"]
    first, second = tmp_path / "first", tmp_path / "second"
    argv = [mode, "--preset", preset, "--out", str(first)]
    for key, val in SHORT_RUNS[preset].items():
        argv += ["--set", f"{key}={val}"]
    assert cli.main(argv) == 0
    cfg = parse_config(preset=preset, mode=mode, overrides=SHORT_RUNS[preset], out=str(first))
    assert cfg.overrides
    back = cli.config_from_manifest(first / "manifest.json")
    assert back == cfg
    top = json.loads((first / "manifest.json").read_text())
    for run_dir in top.get("runs", []):
        # a member rebuilds the whole sweep
        assert cli.config_from_manifest(first / run_dir / "manifest.json") == cfg

    cli.run(dataclasses.replace(back, out=str(second)))
    outputs = sorted(
        p.relative_to(first).as_posix()
        for p in first.rglob("*")
        if p.suffix == ".csv" or p.name.startswith("snapshot_")
    )
    assert outputs
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_manifest_solver_blocks(tmp_path):
    # a job that runs a solver records its step settings and, for a given n_max, a
    # one-entry cutoff schedule; one that runs none only n_max
    solver_jobs = {
        "closed": (
            ["closed", "--preset", "fig2", "--set", "t_end=3", "--set", "t_d=1.5", "--set", "n_max=8"],
            {"dt": 0.0012422939900311497, "t_end": 3.0, "record_stride": 4, "t_mark": 1.5, "n_max": 8},
        ),
        "open": (
            ["open", "--preset", "fig2", "--set", "t_end=0.2", "--set", "t_d=0.1", "--set", "n_max=6"]
            + ["--set", "record_stride=20"],
            {"dt": 0.0024845879800622995, "t_end": 0.2, "record_stride": 20, "t_mark": 0.1, "n_max": 6},
        ),
        "tomography": (
            ["quadrature", "--preset", "figS5", "--set", "source=closed", "--set", "t_d=0.3", "--set", "n_max=8"],
            {"dt": 0.0012422939900311497, "t_end": 0.3, "record_stride": 1, "t_mark": None, "n_max": 8},
        ),
    }
    for _, solver in solver_jobs.values():
        solver["cutoff_schedule"] = [[0.0, solver["n_max"]]]
    for name, (argv, solver) in solver_jobs.items():
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == 0
        assert json.loads((tmp_path / name / "manifest.json").read_text())["solver"] == dict(solver, method="rk4")
    analytic = [
        ["wigner", "--preset", "figS5", "--set", "grid_extent=1", "--set", "grid_step=0.5"],
        ["quadrature", "--preset", "figS5"],
        ["detect-times", "--preset", "fig2"],
    ]
    for argv in analytic:
        out = tmp_path / argv[0]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert list(json.loads((out / "manifest.json").read_text())["solver"]) == ["n_max"]


def test_manifest_without_config_is_refused(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"mode": "open", "params": {}, "solver": {}}))
    with pytest.raises(ConfigError, match="config"):
        cli.config_from_manifest(path)


def test_figS4_preset_runs(tmp_path):
    # the delta_over_g sweep supplies the detuning; validation uses its first value
    argv = ["closed", "--preset", "figS4", "--set", "sweep_values=0.5,1.0", "--set", "t_end=1"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    for member in ("delta_over_g=0.5", "delta_over_g=1"):
        assert (tmp_path / member / "trajectory.csv").exists()


def test_sweep_summary_and_workers(tmp_path):
    cfg = parse_config(
        preset="fig3a",
        overrides={"t_end": 0.2, "t_d": 0.2, "n_max": 8, "record_stride": 20},
        out=str(tmp_path),
        workers=2,
    )
    cli.run(cfg)
    for gm in ("0.0001", "0.0005", "0.001"):
        assert (tmp_path / f"gamma_m={gm}" / "trajectory.csv").exists()
    rows = np.genfromtxt(tmp_path / "summary.csv", delimiter=",", names=True)
    assert rows.shape == (3,)
    assert list(rows["gamma_m"]) == [1e-4, 5e-4, 1e-3]


def test_sweep_manifest_wall_times(tmp_path, monkeypatch):
    # members report 5 s each; the sweep's own wall time is what elapsed
    def fake_member(config, job):
        return {"wall_time_s": 5.0}

    monkeypatch.setattr(cli, "_execute_single", fake_member)
    cfg = parse_config(
        preset="fig3a", overrides={"sweep_values": (1e-4, 1e-3)}, out=str(tmp_path), workers=1
    )
    top = cli.run(cfg)
    assert top["members_wall_time_s"] == 10.0
    assert 0.0 <= top["wall_time_s"] < 5.0
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert written["wall_time_s"] == top["wall_time_s"]
    assert written["members_wall_time_s"] == 10.0


def test_sweep_workers_capped_at_members(tmp_path, monkeypatch):
    # a fork-started pool launches all max_workers processes at its first submit;
    # this one records max_workers and runs each member inline
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli, "_execute_single", lambda config, job: {"wall_time_s": 0.0})
    top = cli.run(parse_config(preset="figS3", out=str(tmp_path), workers=64))
    assert pools == [3]
    assert top["runs"] == ["omega_m=20", "omega_m=40", "omega_m=100"]
    # a single member runs in this process
    cli.run(parse_config(preset="figS3", overrides={"sweep_values": "40"}, out=str(tmp_path), workers=64))
    assert pools == [3]
    for workers in (0, -2):
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            parse_config(preset="figS3", workers=workers)
        assert cli.main(["closed", "--preset", "figS3", "--workers", str(workers), "--out", str(tmp_path / "w")]) == 2
    assert not (tmp_path / "w").exists()


def test_sweep_values_sharing_a_directory_exit_2(tmp_path, capsys):
    # members are written to f"{sweep}={value:g}"; two values that format alike
    # would overwrite one another
    out = tmp_path / "out"
    for values, named in (("20,40,20", "20.0, 20.0"), ("20,20.0000001", "20.0, 20.0000001")):
        assert cli.main(["closed", "--preset", "figS3", "--set", f"sweep_values={values}", "--out", str(out)]) == 2
        assert f"sweep_values {named} share the output directory 'omega_m=20'" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="share the output directory 'delta_over_g=0.5'"):
        parse_config(preset="figS4", overrides={"sweep_values": (0.5, 0.50000001)})


def test_sequence_entries_cast_by_key():
    for key, preset in (("sweep_values", "fig3a"), ("xi_list", "fig1a")):
        for bad in (("a",), [None]):
            with pytest.raises(ConfigError, match=f"{key}: expected a number, got"):
                parse_config(preset=preset, overrides={key: bad})
        with pytest.raises(ConfigError, match=f"{key}: expected a comma-separated list"):
            parse_config(preset=preset, overrides={key: ()})


def test_cli_exit_codes(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "env-out"))
    assert cli.main(["open", "--set", "bogus=1"]) == 2
    assert cli.main(["open", "--preset", "fig2", "--set", "gamma_c=-1"]) == 2
    # an unreadable --config (missing, or a directory) is a config error, not a traceback
    for path in (tmp_path / "nonexistent.cfg", tmp_path):
        assert cli.main(["open", "--config", str(path)]) == 2
    # settings the solvers or the tomography grids refuse are config errors, caught before any output
    refused = [
        ["open", "--preset", "fig2", "--set", "dt=1"],
        ["open", "--preset", "fig2", "--set", "t_end=-1"],
        ["open", "--preset", "fig2", "--set", "record_stride=0"],
        ["closed", "--preset", "figS1", "--set", "dt=0"],
        ["wigner", "--preset", "figS5", "--set", "grid_step=0"],
        ["wigner", "--preset", "figS5", "--set", "grid_step=-0.1"],
        ["wigner", "--preset", "figS5", "--set", "grid_extent=0"],
        ["wigner", "--preset", "figS5", "--set", "source=closed", "--set", "t_d=-1"],
        ["quadrature", "--preset", "figS5", "--set", "x_step=0"],
        ["quadrature", "--preset", "figS5", "--set", "n_max=0"],
        # at delta = 0 the detection window has no default center pi/delta
        ["detect-times", "--set", "omega_m=20", "--set", "xi=1.5271", "--set", "omega_0=10"],
        # the sweep mode's delta grid is refused before its output directory is made
        ["sweep", "--preset", "fig1a", "--set", "delta_step=0"],
        ["sweep", "--preset", "fig1a", "--set", "delta_max=nan"],
        ["sweep", "--preset", "fig1a", "--set", "delta_step=-0.1"],
        ["sweep", "--preset", "fig1a", "--set", "delta_min=-1"],
        ["sweep", "--preset", "fig1a", "--set", "delta_min=0.6"],
    ]
    for argv in refused:
        assert cli.main(argv) == 2, argv
    assert not (tmp_path / "env-out").exists()
    with pytest.raises(ConfigError, match="delta=0 needs t_d"):
        parse_config(mode="detect-times", overrides={"omega_m": 20, "xi": XI, "omega_0": 10})
    # undersized phonon ladder trips the truncation guard -> exit 3
    code = cli.main(
        ["closed", "--preset", "fig2", "--set", "n_max=5", "--set", "t_end=4.0", "--set", "t_d=4.0"]
    )
    assert code == 3
    # the abort's diagnostics rebuild the run that aborted
    back = cli.config_from_manifest(tmp_path / "env-out" / "diagnostics.json")
    assert back == parse_config(
        preset="fig2", mode="closed", overrides={"n_max": "5", "t_end": "4.0", "t_d": "4.0"}
    )


def test_non_finite_open_state_exit_3(tmp_path):
    # rates far past what dt resolves blow the state up; the trace guard aborts before eigvalsh sees it
    out = tmp_path / "blowup"
    argv = ["open", "--preset", "fig2", "--set", "gamma_c=1e300", "--set", "t_end=0.05", "--set", "n_max=6"]
    with np.errstate(over="ignore", invalid="ignore"):  # the blow-up itself
        assert cli.main(argv + ["--out", str(out)]) == 3
    assert "trace drift nan" in json.loads((out / "diagnostics.json").read_text())["error"]


def test_open_tail_guard_exit_3(tmp_path):
    # without D[b^dag] heating the trace stays put, so only the tail guard sees n_max=4 is too small
    out = tmp_path / "tail"
    code = cli.main(["open", "--preset", "fig2", "--set", "n_max=4", "--set", "gamma_m=0", "--out", str(out)])
    assert code == 3
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert "phonon tail" in diagnostics["error"]
    # the job's resolved solver block, as its manifest would hold it before the solve
    assert diagnostics["solver"]["n_max"] == 4
    assert set(diagnostics["solver"]) == {"method", "dt", "t_end", "record_stride", "t_mark", "n_max"}
    assert "sweep" not in diagnostics


def test_sweep_abort_diagnostics_name_the_member(tmp_path):
    # n_max = 4 holds the xi = 0 member but not the cat of the second one; the diagnostics
    # name the member that aborted in a worker process and carry its solver block
    out = tmp_path / "abort"
    overrides = {"sweep_values": "0,1.5271", "n_max": "4", "t_end": "1"}
    argv = ["closed", "--preset", "figS1", "--workers", "2", "--out", str(out)]
    for key, val in overrides.items():
        argv += ["--set", f"{key}={val}"]
    assert cli.main(argv) == 3
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert "phonon tail" in diagnostics["error"]
    assert diagnostics["sweep"] == {"key": "xi", "value": 1.5271}
    member = cli._resolve(parse_config(preset="figS1", overrides=overrides), 1.5271)
    assert diagnostics["solver"] == dict(n_max=4, method="rk4", **dataclasses.asdict(member.solver))
    assert (out / "xi=0" / "manifest.json").exists()


def test_pool_stops_at_an_abort(tmp_path):
    # the first member aborts at t = 0.47 and the others hold to t_end.  A pool hands a member to
    # a worker once it enters the call queue (max_workers + 1 deep), and a handed-over member runs
    # to its end; the abort cancels the rest, so at most the first six of the nine later members
    # are written
    overrides = {"sweep_values": "1.5271," + ",".join(f"{k / 100:g}" for k in range(9)), "n_max": "4", "t_end": "40"}
    out = tmp_path / "pool"
    argv = ["closed", "--preset", "figS1", "--workers", "2", "--out", str(out)]
    for key, val in overrides.items():
        argv += ["--set", f"{key}={val}"]
    assert cli.main(argv) == 3
    written = json.loads((out / "diagnostics.json").read_text())
    assert written["sweep"] == {"key": "xi", "value": 1.5271}
    for member in ("xi=0.06", "xi=0.07", "xi=0.08"):
        assert not (out / member).exists(), member
    # run itself reports the abort, so a library call leaves the same diagnostics
    config = parse_config(preset="figS1", overrides=overrides, out=str(tmp_path / "lib"))
    with pytest.raises(closed.SolverAbort, match="phonon tail"):
        cli.run(config)
    path = tmp_path / "lib" / "diagnostics.json"
    assert cli.config_from_manifest(path) == config
    assert json.loads(path.read_text()) | {"config": None} == written | {"config": None}
    assert sorted(p.name for p in (tmp_path / "lib").iterdir()) == ["diagnostics.json"]  # in process


def test_wigner_csv_coordinates(tmp_path):
    # rows run over eta_re fastest; every cell is format_float of the grid value
    out = tmp_path / "wig"
    argv = ["wigner", "--preset", "figS5", "--set", "grid_extent=0.5", "--set", "grid_step=0.25"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    grid = analysis.PhaseSpaceGrid.square(0.5, 0.25)
    for tag in ("L", "R"):
        lines = (out / f"wigner_{tag}.csv").read_text().splitlines()
        assert lines[0] == "eta_re,eta_im,W"
        coords = [line.rsplit(",", 1)[0] for line in lines[1:]]
        assert coords == [
            f"{oracles.format_float(re)},{oracles.format_float(im)}" for im in grid.im_axis for re in grid.re_axis
        ]


def test_open_source_tomography(tmp_path):
    # wigner and quadrature with source=open read the L block of the open run's state at t_d
    params = fig2_params()
    cfg = closed.SolverConfig(dt=closed.default_dt(params, 64), t_end=0.1)
    final = osys.evolve_open(osys.initial_density("bell", 6), params, cfg).final
    rho_l, _ = osys.reduce_mechanical(final, osys.PhotonSector.L)
    argv = ["--preset", "fig2", "--set", "t_d=0.1", "--set", "n_max=6"]
    argv += ["--set", "grid_extent=1", "--set", "grid_step=0.5"]
    assert cli.main(["wigner", *argv, "--out", str(tmp_path / "w")]) == 0
    assert cli.main(["quadrature", *argv, "--out", str(tmp_path / "q")]) == 0
    w = np.loadtxt(tmp_path / "w" / "wigner_L.csv", delimiter=",", skiprows=1)[:, 2]
    expected_w = analysis.wigner_numeric(rho_l, analysis.PhaseSpaceGrid.square(1.0, 0.5))
    assert np.max(np.abs(w - expected_w.ravel())) < 1e-12
    beta = model.beta_of_t(model.derive(params), params.omega_m, 0.1)
    axis = analysis.QuadratureAxis.around_cat(analysis.default_theta(beta), abs(beta), 0.01)
    p = np.loadtxt(tmp_path / "q" / "quadrature_L.csv", delimiter=",", skiprows=1)[:, 1]
    # the emitted file clamps negatives above -1e-10 to zero
    assert np.max(np.abs(p - analysis.quadrature_numeric(rho_l, axis))) <= 1e-10


@pytest.mark.parametrize("source", ["closed", "open"])
def test_empty_detection_sector_exit_2(tmp_path, capsys, source):
    # without hopping the photon stays left, so the R sector holds nothing at t_d to image
    out = tmp_path / source
    argv = ["wigner", "--preset", "figS5", "--set", f"source={source}", "--set", "initial=left"]
    argv += ["--set", "xi=0", "--set", "delta=1", "--set", "t_d=0.2", "--set", "n_max=6"]
    argv += ["--set", "grid_extent=1", "--set", "grid_step=0.5", "--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "sector R probability 0.000e+00 below 1e-12 at t_d=0.2" in capsys.readouterr().err
    assert not out.exists()


def test_xi_past_bessel_range_exit_2(tmp_path, monkeypatch, capsys):
    # model.bessel_j is accurate for 2|xi| <= 50 (and loops O(xi) times past it); a larger
    # xi, xi_list entry or swept xi is refused under its key before anything runs
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path))
    named = [
        (["detect-times", "--preset", "fig2", "--set", "xi=1e7"], "xi = 10000000.0"),
        (["open", "--preset", "fig2", "--set", "xi=-25.5"], "xi = -25.5"),
        (["closed", "--preset", "figS1", "--set", "sweep_values=1.5,30"], "xi = 30.0"),
        (["sweep", "--preset", "fig1a", "--set", "xi_list=1.5,26"], "xi_list = 26.0"),
    ]
    capsys.readouterr()
    for argv, key in named:
        assert cli.main(argv) == 2, argv
        assert f"{key}: 2|xi| must be <= 50" in capsys.readouterr().err, argv
    assert not any(tmp_path.iterdir())
    assert parse_config(preset="fig2", overrides={"xi": "-25"}).xi == -25.0
    assert parse_config(preset="fig1a", overrides={"xi_list": "25"}).xi_list == (25.0,)


def test_non_finite_integers_exit_2(tmp_path, monkeypatch, capsys):
    # int() of inf/nan raises OverflowError/ValueError; these must be config errors
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path))
    for key in ("n_max", "record_stride", "workers"):
        for value in ("inf", "nan", "-inf"):
            assert cli.main(["open", "--preset", "fig2", "--set", f"{key}={value}"]) == 2
    # non-finite rates and times are refused by SystemParams and SolverConfig
    for setting in ("dt=nan", "t_end=nan", "omega_m=nan", "gamma_c=nan", "n_th=inf", "gamma_m=inf"):
        assert cli.main(["open", "--preset", "fig2", "--set", setting]) == 2
    # t_d and xi reach the analytic formulas before SystemParams; the refusal names the key
    named = [
        (["wigner", "--preset", "figS5", "--set", "t_d=nan"], "t_d"),
        (["wigner", "--preset", "figS5", "--set", "t_d=inf"], "t_d"),
        (["quadrature", "--preset", "figS5", "--set", "t_d=nan"], "t_d"),
        (["detect-times", "--preset", "fig2", "--set", "t_d=nan"], "t_d"),
        (["detect-times", "--preset", "fig2", "--set", "t_d=inf"], "t_d"),
        (["quadrature", "--preset", "figS5", "--set", "theta=nan"], "theta"),
        (["quadrature", "--preset", "figS5", "--set", "theta=inf"], "theta"),
        (["closed", "--preset", "figS1", "--set", "sweep_values=1.5,nan"], "xi"),
        (["sweep", "--preset", "fig1a", "--set", "xi_list=nan"], "xi_list"),
    ]
    capsys.readouterr()
    for argv, key in named:
        assert cli.main(argv) == 2, argv
        assert f"{key} must be finite" in capsys.readouterr().err, argv
    assert not any(tmp_path.iterdir())


def test_cli_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "from-env"))
    assert cli.main(["sweep", "--preset", "fig1a"]) == 0
    assert (tmp_path / "from-env" / "beta_max.csv").exists()


def test_initial_from_file(tmp_path):
    n_max = 10
    a = np.zeros(n_max + 1)
    b = np.zeros(n_max + 1)
    a[0] = b[0] = 1 / math.sqrt(2)
    doc = {"a_re": a.tolist(), "a_im": (0 * a).tolist(), "b_re": b.tolist(), "b_im": (0 * b).tolist()}
    path = tmp_path / "init.json"
    path.write_text(json.dumps(doc))
    cfg = parse_config(
        preset="fig2",
        mode="closed",
        overrides={
            "initial": f"file:{path}",
            "t_end": 0.3,
            "n_max": n_max,
            "record_stride": 50,
            "gamma_c": 0.0,
            "gamma_m": 0.0,
            "n_th": 0.0,
        },
        out=str(tmp_path / "run"),
    )
    doc = cli.run(cfg)
    assert abs(doc["final"]["nL"] + doc["final"]["nR"] - 1.0) < 1e-9


def test_initial_file_refused_by_open_solver(tmp_path, monkeypatch):
    # only the closed solver reads amplitudes from a file
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "out"))
    path = tmp_path / "init.json"
    path.write_text("{}")
    initial = ["--set", f"initial=file:{path}"]
    assert cli.main(["open", "--preset", "fig2", *initial]) == 2
    for mode in ("wigner", "quadrature"):
        assert cli.main([mode, "--preset", "fig2", "--set", "source=open", *initial]) == 2
    assert not (tmp_path / "out").exists()


def test_initial_file_errors_exit_2(tmp_path, monkeypatch):
    # a missing, malformed or incomplete amplitude file is a config error, not a traceback
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "out"))
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "partial.json").write_text(json.dumps({"a_re": [1.0], "a_im": [0.0]}))
    (tmp_path / "list.json").write_text("[1, 2]")
    # a NaN amplitude fails the normalization check (exit 2), not the norm guard (exit 3)
    zeros = [0.0] * 5
    nan = {"a_re": [1.0, math.nan, 0.0, 0.0, 0.0], "a_im": zeros, "b_re": zeros, "b_im": zeros}
    (tmp_path / "nan.json").write_text(json.dumps(nan))
    short = ["--set", "t_end=0.1", "--set", "n_max=4"]
    for name in ("missing.json", "bad.json", "partial.json", "list.json", "nan.json"):
        argv = ["closed", "--preset", "fig2", "--set", f"initial=file:{tmp_path / name}", *short]
        assert cli.main(argv) == 2, name
    # the file is read at run time, after parsing, and a refused run leaves no output directory
    assert not (tmp_path / "out").exists()


def test_benchmark_tracer_names_resolve(monkeypatch):
    # perfbench/spans.py wraps names where their callers look them up: each must resolve,
    # be wrapped while tracing and be its original object again afterwards
    import catforge
    import catforge.cli
    import catforge.trajectory

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    sites = [(functools.reduce(getattr, path.split("."), catforge), attr) for _, path, attr in spans.SPANNED]
    sites += [(catforge.open_system._Generators, "apply"), (catforge.closed, "_interaction_rhs")]
    originals = [owner.__dict__[attr] for owner, attr in sites]
    with spans.Tracer(catforge):
        for (owner, attr), original in zip(sites, originals):
            assert owner.__dict__[attr] is not original, attr
    for (owner, attr), original in zip(sites, originals):
        assert owner.__dict__[attr] is original, attr


def test_manifest_config_refused_like_parse_config(tmp_path):
    # config_from_manifest casts and checks a manifest's config as parse_config does
    config = dataclasses.asdict(parse_config(preset="fig2"))
    path = tmp_path / "manifest.json"
    for doc in [{"config": {**config, **change}} for change in ({"n0": 0}, {"mode": "nope"}, {"bogus": 1})] + [
        {"config": {**config, "overrides": 5}},
        [config],
    ]:
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            cli.config_from_manifest(path)
    # and gives back the config it was written from, in every mode
    for mode in cli.MODES:
        cfg = parse_config(preset="fig1a" if mode == "sweep" else "fig2", mode=mode)
        path.write_text(json.dumps({"config": dataclasses.asdict(cfg)}, default=float))
        assert cli.config_from_manifest(path) == cfg, mode


# the enumeration's bases, as cli.main takes them: (mode, preset)
ENUMERATION_BASES = [
    ("open", "fig2"),
    ("open", "fig3a"),
    ("closed", "figS1"),
    ("closed", "figS3"),
    ("closed", "figS4"),
    ("wigner", "figS5"),
    ("quadrature", "figS5"),
    ("detect-times", "fig2"),
    ("sweep", "fig1a"),
]
BOUNDARY_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-320", "", "fast", [0.5, 1.5])


def ceiling_cases():
    """(mode, preset, key, value, inside) just inside and just outside each work-size ceiling."""
    half = float(cli._resolve(parse_config(preset="figS5", mode="quadrature")).grid.x_values[-1])
    dt = cli._resolve(parse_config(preset="fig2")).solver.dt
    fast = cli._resolve(parse_config(preset="figS3"), 100.0).solver  # figS3's member with the most steps
    stride = math.ceil(fast.t_end / fast.dt / cli.MAX_RECORDS)
    n = math.isqrt(cli.MAX_GRID_POINTS)
    cases = [
        ("wigner", "figS5", "grid_step", 9.0 / (n - 2), True),  # figS5's grid_extent is 4.5
        ("wigner", "figS5", "grid_step", 9.0 / (n + 1), False),
        ("quadrature", "figS5", "x_step", 2 * half / (cli.MAX_AXIS_POINTS - 2), True),
        ("quadrature", "figS5", "x_step", 2 * half / cli.MAX_AXIS_POINTS, False),
        ("closed", "figS3", "n_max", cli.MAX_N_MAX, True),
        ("closed", "figS3", "n_max", cli.MAX_N_MAX + 1, False),
        ("quadrature", "figS5", "delta", 1e-6, False),  # the default n_max
        ("open", "fig2", "t_end", dt * (cli.MAX_STEPS - 1), True),
        ("open", "fig2", "t_end", dt * (cli.MAX_STEPS + 1), False),
        ("closed", "figS3", "record_stride", stride, True),
        ("closed", "figS3", "record_stride", stride - 1, False),
        ("sweep", "fig1a", "delta_step", 0.45 / (cli.MAX_DELTA_POINTS - 2), True),
        ("sweep", "fig1a", "delta_step", 0.45 / cli.MAX_DELTA_POINTS, False),
    ]
    return [(mode, preset, key, repr(v), inside) for mode, preset, key, v, inside in cases]


def test_every_key_value_is_a_config_or_a_config_error(tmp_path):
    # every key x the boundary values of its domain, on every base, parses to a
    # RunConfig or a ConfigError and never raises anything else
    keys = [f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "overrides"] + ["units"]
    cases = [(m, p, k, v, None) for m, p in ENUMERATION_BASES for k in keys for v in BOUNDARY_VALUES]
    ceilings = ceiling_cases()
    refused = []
    for mode, preset, key, value, inside in cases + ceilings:
        try:
            parse_config(preset=preset, mode=mode, overrides={key: value})
        except ConfigError as exc:
            assert inside is not True, (mode, preset, key, value)
            assert inside is not False or "past" in str(exc), exc  # refused by the ceiling itself
            refused.append((mode, preset, key, value))
        else:
            assert inside is not False, (mode, preset, key, value)
    assert len(refused) > len(cases) // 2
    # two keys in their domains can still put |beta|_max, and so the default n_max, past float range
    with pytest.raises(ConfigError, match="no Fock cutoff"):
        parse_config(preset="figS3", overrides={"g0": "1e300", "delta": "1"})
    # an open run's bath can too: a huge phonon-jump weight leaves the rule a budget in the
    # subnormal floats, and a hot bath's occupation is named next to |beta|^2
    with pytest.raises(ConfigError, match="no Fock cutoff .* past 500"):
        parse_config(preset="fig2", overrides={"gamma_m": "1e300", "n_th": "10"})
    with pytest.raises(ConfigError, match=r"n_thermal = 4\.84 \+ 700: the sum is past 700"):
        parse_config(preset="fig2", overrides={"n_th": "700", "gamma_m": "1"})
    # a sample exits 2 through the CLI and leaves no output directory
    out = tmp_path / "out"
    sample = [r for i, r in enumerate(refused) if r[2] in ("n0", "grid_extent") or i % 20 == 0]
    for mode, preset, key, value in sample + [c[:4] for c in ceilings if c[4] is False]:
        if not isinstance(value, str):  # --set takes text only
            continue
        assert cli.main([mode, "--preset", preset, "--set", f"{key}={value}", "--out", str(out)]) == 2
        assert not out.exists(), (mode, preset, key, value)


def test_readme_key_table_names_every_key():
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| key ", 1)[1].split("\n\n", 1)[0]
    named = {line.split("`")[1] for line in table.splitlines()[2:]}
    assert named == {f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "overrides"} | {"units"}


def test_readme_key_table_units_match_the_schema():
    # each row's unit cell is the power of g0 that RunConfig declares for its key
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | unit |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    units = {key.strip().strip("`"): unit.strip() for key, unit in rows}
    fields = {f.name: f for f in dataclasses.fields(cli.RunConfig) if f.name != "overrides"}
    assert len(units) == len(rows) == len(fields) + 1
    assert set(units) == set(fields) | {"units"}
    assert units.pop("units") == "0" and units.pop("sweep_values") == "the swept key's"
    assert {key: int(unit) for key, unit in units.items()} == {key: fields[key].metadata["dim"] for key in units}
