"""Work counts and correctness checks, read from a finished invocation's output
directory (manifests and CSV files) without calling into catforge.

Work counts follow the solver's own rules: each segment [0, t_mark] and
[t_mark, t_end] takes ceil(span/dt - 1e-12) RK4 steps, and a record is
emitted at t=0, every record_stride steps, and at each segment end.
"""

from __future__ import annotations

import json
import math
import os

# Solver guards (closed.NORM_ABORT/TAIL_ABORT, open_system.TRACE_ABORT/EIG_ABORT).
NORM_MAX = 1e-6
TAIL_MAX = 1e-6
TRACE_MAX = 1e-6
EIG_MIN = -1e-6
INTEGRAL_TOL = 1e-3
# Acceptance criterion 1 goldens for the fig2 preset at t_d = 12.6664/g0.
FIG2_T_D = 12.6664
FIG2_GOLDEN = {"F_L": (0.943, 0.010), "F_R": (0.939, 0.010)}
# Loose enough for reordered RK4 arithmetic (~1e-12), tight enough that a
# physics change (a dropped or mis-scaled term) moves some value past it.
REFERENCE_TOL = 1e-3


def solve_counts(solver: dict) -> tuple[int, int]:
    """(RK4 steps, records) of one solve from its manifest's solver block."""
    bounds = [0.0]
    if solver.get("t_mark") is not None and solver["t_mark"] < solver["t_end"]:
        bounds.append(solver["t_mark"])
    bounds.append(solver["t_end"])
    steps, records = 0, 1
    stride = solver["record_stride"]
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        n = max(1, math.ceil((t1 - t0) / solver["dt"] - 1e-12))
        steps += n
        records += n // stride + (1 if n % stride else 0)
    return steps, records


def _load(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _csv_rows(path) -> list[list[str]]:
    with open(path, encoding="ascii") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _column(rows, i) -> list[float]:
    return [float(r[i]) for r in rows if r[i] != ""]


def _members(out_dir: str) -> list[tuple[str, dict]]:
    """(directory, manifest) of each solve: the run itself or its sweep members."""
    top = _load(os.path.join(out_dir, "manifest.json"))
    if "runs" not in top:
        return [(out_dir, top)]
    return [(os.path.join(out_dir, r), _load(os.path.join(out_dir, r, "manifest.json"))) for r in top["runs"]]


class Inspection:
    """What one invocation did and whether its outputs hold.

    ``work`` holds exact counts; ``values`` the named numbers compared with
    the committed seed-0 reference; ``errors`` the checks that failed.
    """

    def __init__(self):
        self.work = dict.fromkeys(
            ("open_solves", "open_steps", "open_records", "closed_solves", "closed_steps",
             "closed_records", "grid_points", "displacement_matrices", "quadrature_points",
             "csv_rows", "files", "bytes"),
            0,
        )
        self.values: dict[str, float] = {}
        self.errors: list[str] = []
        self.member_wall_s: list[float] = []

    def require(self, ok: bool, what: str):
        if not ok:
            self.errors.append(what)

    def inspect(self, call: str, out_dir: str):
        """Add one CLI call's output directory; call is 'open', 'closed', 'wigner' or 'quadrature'."""
        for root, _, files in os.walk(out_dir):
            for f in files:
                self.work["files"] += 1
                self.work["bytes"] += os.path.getsize(os.path.join(root, f))
        members = _members(out_dir)
        if len(members) > 1:
            self.member_wall_s += [doc["wall_time_s"] for _, doc in members]
            self.require(os.path.exists(os.path.join(out_dir, "summary.csv")), "sweep summary.csv missing")
        for mdir, doc in members:
            tag = call + (f"[{doc['sweep']['key']}={doc['sweep']['value']:g}]" if "sweep" in doc else "")
            steps, records = solve_counts(doc["solver"])
            kind = "open" if call == "open" else "closed"  # tomography runs a closed solve
            self.work[f"{kind}_solves"] += 1
            self.work[f"{kind}_steps"] += steps
            self.work[f"{kind}_records"] += records
            if call == "open":
                self._open(tag, mdir, doc, records)
            elif call == "closed":
                self._closed(tag, mdir, doc, records)
            else:
                self._tomography(call, mdir, doc)

    def _trajectory(self, tag, mdir, records):
        rows = _csv_rows(os.path.join(mdir, "trajectory.csv"))
        self.work["csv_rows"] += len(rows)
        self.require(len(rows) == records, f"{tag}: {len(rows)} trajectory rows, expected {records}")

    def _open(self, tag, mdir, doc, records):
        inv = doc["invariants"]
        self.require(inv["trace_err_max"] <= TRACE_MAX, f"{tag}: trace_err_max {inv['trace_err_max']:.3e}")
        self.require(inv["min_eig_min"] >= EIG_MIN, f"{tag}: min_eig_min {inv['min_eig_min']:.3e}")
        self._trajectory(tag, mdir, records)
        for name in doc["outputs"]:
            self.require(os.path.getsize(os.path.join(mdir, name)) > 0, f"{tag}: empty {name}")
        if "at_t_d" in doc and doc["t_d"] == FIG2_T_D:
            for col in FIG2_GOLDEN:
                self.values[f"{tag}.golden.{col}"] = doc["at_t_d"][col]
        for col in ("P_L", "P_R", "P_V", "nb", "F_L", "F_R"):
            self.values[f"{tag}.final.{col}"] = doc["final"][col]

    def _closed(self, tag, mdir, doc, records):
        inv = doc["invariants"]
        self.require(inv["norm_drift"] <= NORM_MAX, f"{tag}: norm_drift {inv['norm_drift']:.3e}")
        self.require(inv["tail_max"] <= TAIL_MAX, f"{tag}: tail_max {inv['tail_max']:.3e}")
        self._trajectory(tag, mdir, records)
        for col in ("nL", "nR", "x_over_x0", "nb", "F", "F_L", "F_R"):
            self.values[f"{tag}.final.{col}"] = doc["final"][col]

    def _tomography(self, call, mdir, doc):
        for tag in ("L", "R"):
            integral = doc[f"{call}_{tag}_integral"]
            self.require(abs(integral - 1.0) <= INTEGRAL_TOL, f"{call} {tag}: integral {integral!r}")
            rows = _csv_rows(os.path.join(mdir, f"{call}_{tag}.csv"))
            self.work["csv_rows"] += len(rows)
            if call == "wigner":
                n = len({r[0] for r in rows})
                self.require(len(rows) == n * n, f"wigner {tag}: {len(rows)} rows is not a square grid")
                self.work["grid_points"] += len(rows)
                self.work["displacement_matrices"] += len(rows)
                w = _column(rows, 2)
                self.values[f"wigner.{tag}.W_min"] = min(w)
                self.values[f"wigner.{tag}.W_max"] = max(w)
            else:
                self.work["quadrature_points"] += len(rows)
                self.values[f"quadrature.{tag}.P_max"] = max(_column(rows, 1))

    def compare(self, reference: dict):
        """Check a seed-0 run (the presets exactly) against the goldens and the reference."""
        for key, got in self.values.items():
            if ".golden." in key:
                want, tol = FIG2_GOLDEN[key.rsplit(".", 1)[1]]
            else:
                want, tol = reference.get(key), REFERENCE_TOL
                if want is None:
                    self.errors.append(f"{key}: no reference value")
                    continue
            if got is None or not abs(got - want) <= tol:
                self.errors.append(f"{key} = {got!r}, reference {want!r} +- {tol:g}")
