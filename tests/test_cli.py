import json
import math

import numpy as np
import pytest

from catforge import analysis, cli, model
from catforge.cli import ConfigError, parse_config
from catforge.trajectory import format_float

from conftest import XI, coupling_g


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
    with pytest.raises(ConfigError, match="non-negative"):
        parse_config("mode = open\nomega_m = 20\nxi = 1.5\ndelta = g\ngamma_c = -2\n")
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config(preset="fig9")


def test_typed_overrides_are_validated():
    for overrides in ({"initial": 3}, {"n0": 2.5}, {"mode": 1}):
        with pytest.raises(ConfigError):
            parse_config(preset="fig2", overrides=overrides)


def test_units_preset_matches_dimensionless_twin():
    a = cli._resolve(parse_config(preset="fig2"))
    b = cli._resolve(parse_config(preset="fig2units"))
    assert b.params.g0 == 1.0
    for field_ in ("omega_c", "omega_m", "omega_0", "xi", "gamma_c", "gamma_m", "n_th"):
        x, y = getattr(a.params, field_), getattr(b.params, field_)
        assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), field_
    assert abs(a.t_mark - b.t_mark) <= 1e-12 * a.t_mark


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
    # the column writer against format_float applied cell by cell
    rows = [
        (0.1, None, -0.0),
        (math.nan, 1e-300, 1.0 / 3.0),
        (-2, 1e22, np.float64(-7.25e-12)),
        (np.nan, -1e-300, math.inf),
    ]
    expected = "a,b,c\n" + "".join(",".join(format_float(v) for v in row) + "\n" for row in rows)
    cli._write_csv(tmp_path / "rows.csv", ("a", "b", "c"), zip(*rows))
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode("ascii")
    columns = [np.array([r[i] for r in rows], dtype=float) for i in range(3)]
    cli._write_csv(tmp_path / "arrays.csv", ("a", "b", "c"), columns)
    assert (tmp_path / "arrays.csv").read_bytes() == expected.encode("ascii")
    cli._write_csv(tmp_path / "empty.csv", ("t", "beta_abs"), zip(*[]))
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
    # undersized phonon ladder trips the truncation guard -> exit 3
    code = cli.main(
        ["closed", "--preset", "fig2", "--set", "n_max=5", "--set", "t_end=4.0", "--set", "t_d=4.0"]
    )
    assert code == 3
    assert (tmp_path / "env-out" / "diagnostics.json").exists()


def test_non_finite_integers_exit_2(tmp_path, monkeypatch):
    # int() of inf/nan raises OverflowError/ValueError; these must be config errors
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path))
    for key in ("n_max", "record_stride", "workers"):
        for value in ("inf", "nan", "-inf"):
            assert cli.main(["open", "--preset", "fig2", "--set", f"{key}={value}"]) == 2
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
