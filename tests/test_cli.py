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
    assert res.n_max == 30


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
    assert abs(res.t_end - 2 * math.pi / res.d.delta) < 1e-12


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
        assert abs(a.t_mark - b.t_mark) <= 1e-12 * a.t_mark
    assert abs(member.params.gamma_m - a.params.gamma_m) <= 1e-12 * a.params.gamma_m
    # a time override is given in seconds
    dt = a.dt / 2
    stepped = cli._resolve(parse_config(preset="fig2units", overrides={"dt": repr(dt / (2 * math.pi * 500e3))}))
    assert abs(stepped.dt - dt) <= 1e-12 * dt
    assert stepped.record_stride == cli._resolve(parse_config(preset="fig2", overrides={"dt": dt})).record_stride
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
    record = TrajectoryRecord(("a", "b", "c"))
    for a, b, c in rows:
        record.append(a=a, b=b, c=c)
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
    assert (a.dt, a.record_stride, a.n_max) == (b.dt, b.record_stride, b.n_max)
    assert abs(a.t_end - b.t_end) < 1e-12
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for key in ("omega_c", "omega_m", "g0", "xi", "n0", "omega_0", "gamma_c", "gamma_m", "n_th"):
        assert key in manifest["params"]


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
    def fake_member(config, out_dir, sweep_value=None):
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


def test_open_tail_guard_exit_3(tmp_path):
    # without D[b^dag] heating the trace stays put, so only the tail guard sees n_max=4 is too small
    out = tmp_path / "tail"
    code = cli.main(["open", "--preset", "fig2", "--set", "n_max=4", "--set", "gamma_m=0", "--out", str(out)])
    assert code == 3
    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert "phonon tail" in diagnostics["error"]


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
