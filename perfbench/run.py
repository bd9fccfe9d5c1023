"""catforge benchmark: drive the public CLI entry point on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; catforge is imported from ./src.
Each invocation calls ``catforge.cli.main(argv)`` into a fresh output
directory under ./.perfbench, times it, and checks every output.  Invocations
repeat while the next one is expected to end within --seconds (at least one).
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7

# Dissipation ranges the presets and acceptance grids already use: gamma_c
# from criterion 2's grid, gamma_m from fig3a, n_th from fig3b.  Changing
# them leaves dt, n_max, the step count and the record count unchanged.
GAMMA_C = (0.05, 0.4)
GAMMA_M = (1e-4, 1e-3)
N_TH = (1.0, 10.0)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workload_calls(name: str, seed: int) -> list[list[str]]:
    """CLI argv lists of one invocation of a workload.

    Seed 0 runs the presets exactly; other seeds draw the dissipation rates
    from the ranges above.
    """
    rng = random.Random(seed)
    rates = {
        "gamma_c": rng.uniform(*GAMMA_C),
        "gamma_m": rng.uniform(*GAMMA_M),
        "n_th": rng.uniform(*N_TH),
    }
    sweep_gamma_m = sorted(rng.uniform(*GAMMA_M) for _ in range(3))
    if name == "open-fig2":
        # a sixth of the solve to t_d, so that a run holds many invocations;
        # the mark keeps both snapshots and the stride is the full solve's
        calls = [["open", "--preset", "fig2", "--set", "t_d=1", "--set", "t_end=2", "--set", "record_stride=17"]]
    elif name == "open-fig3a":
        calls = [["open", "--preset", "fig3a", "--workers", "1", "--set", "t_end=1", "--set", "record_stride=17"]]
        del rates["gamma_m"]
        rates["sweep_values"] = ",".join(repr(v) for v in sweep_gamma_m)
    elif name == "tomo-figS5":
        calls = [[mode, "--preset", "figS5", "--set", "source=closed"] for mode in ("wigner", "quadrature")]
    else:
        raise KeyError(name)
    if seed != 0:
        for argv in calls:
            for key, val in rates.items():
                argv += ["--set", f"{key}={val}"]
    return calls


WORKLOADS = ("open-fig2", "open-fig3a", "tomo-figS5")

# Seed-0 check invocations, run once, untimed, after the timed ones: the full
# fig2 solve to t_d that acceptance criterion 1's goldens apply to.  Their
# reference values sit under "<workload>/full" in reference.json.
FULL_CALLS = {"open-fig2": [["open", "--preset", "fig2", "--set", "t_end=12.6664"]]}


def warmup_calls(calls: list[list[str]]) -> list[list[str]]:
    """The same calls shrunk to a fraction of a second: loads every lazy import
    and starts the BLAS threads once."""
    out = []
    for argv in calls:
        if argv[0] in ("open", "closed"):
            out.append(argv + ["--set", "t_end=0.05"])
        else:
            out.append(argv + ["--set", "t_d=0.05", "--set", "grid_extent=0.5"])
    return out


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        pass
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (absent in an export)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


@dataclasses.dataclass
class Sample:
    wall_s: float
    cpu_s: float
    inspection: "checks.Inspection"
    spans: list | None = None
    counts: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.inspection.errors)


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def invoke(cli, checks, calls, reference, seed, tracer=None, index=0) -> Sample:
    """One timed invocation: every CLI call of the workload, then the checks."""
    outs = [tempfile.mkdtemp(prefix="out-", dir=WORK) for _ in calls]
    errors = []
    if tracer is not None:
        tracer.begin(index)
    self0, child0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    for argv, out in zip(calls, outs):
        full = argv + ["--out", out]
        try:
            rc = cli.main(full) if tracer is None else tracer.root("cli.main", lambda: cli.main(full))
        except (Exception, SystemExit) as exc:  # a failed invocation is counted, not fatal
            rc = f"{type(exc).__name__}: {exc}"
        if rc != 0:
            errors.append(f"{argv[0]}: exit {rc}")
    wall = time.perf_counter() - t0
    self1, child1 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = _cpu(self1) - _cpu(self0) + _cpu(child1) - _cpu(child0)

    insp = checks.Inspection()
    insp.errors += errors
    if not errors:
        for argv, out in zip(calls, outs):
            try:
                insp.inspect(argv[0], out)
            except (OSError, KeyError, ValueError) as exc:
                insp.errors.append(f"{argv[0]}: unreadable output: {exc!r}")
        if reference is not None and seed == 0:
            insp.compare(reference)
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
    sample = Sample(wall, cpu, insp)
    if tracer is not None:
        sample.spans, sample.counts = tracer.collect()
    return sample


def run_for(seconds, fn) -> list[Sample]:
    """Call fn(i) while the next call is expected to end within `seconds`; at least once.

    Stopping on the expected end, not the deadline, keeps a run's length
    within `seconds` plus set-up whatever the invocation size, so a series of
    runs takes about the same time on a slower machine.
    """
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(fn(len(samples)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(samples) + 1) / len(samples) > seconds:
            return samples


def tail(values) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    With ten samples or fewer no such percentile exists; the maximum is
    returned as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    p = (100 * (n - 10)) // n
    return xs[max(0, math.ceil(p * n / 100) - 1)], p


def setup_time(calls) -> list[float]:
    """Fresh-process set-up: interpreter, import catforge, parse, warm-up."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        out = tempfile.mkdtemp(prefix="setup-", dir=WORK)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, probe, out, json.dumps(warmup_calls(calls))],
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        shutil.rmtree(out, ignore_errors=True)
    return times


def end_to_end(samples) -> tuple[dict, dict]:
    walls = [s.wall_s for s in samples]
    tail_s, tail_p = tail(walls)
    rate = [(s.inspection.work["open_steps"] + s.inspection.work["closed_steps"]) / s.wall_s for s in samples]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "steps_per_s": (statistics.median(rate), "1/s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "peak_rss_mb": ((self_rss + child_rss) / 1024.0, "MB"),
    }
    # A run holds one to a few samples, too few for a tail beyond the median,
    # so the tail is printed with its percentile and count but not gated.
    notes = {"wall_s.tail": f"{tail_s!r} s  [p{tail_p} of {len(walls)} samples]"}
    return metrics, notes


def _layer_values(sample: Sample) -> dict:
    from spans import summarize

    summ = summarize(sample.spans)
    counts = sample.counts
    work = sample.inspection.work

    def s(name, key="s"):
        return summ.get(name, {}).get(key, 0.0)

    def calls(name):
        return summ.get(name, {}).get("calls", 0)

    def per(x, n):
        return x / n if n else 0.0

    records = work["open_records"] + work["closed_records"]
    root_self = sum(v["self_s"] for k, v in summ.items() if k.startswith("cli."))
    accounted = sum(sp[4] - sp[3] for sp in sample.spans if sp[5] is None)
    return {
        "open_system.evolve_open.self_s": (s("open_system.evolve_open", "self_s"), "s"),
        "open_system.step_us": (per(s("open_system.evolve_open", "self_s"), work["open_steps"]) * 1e6, "us"),
        "open_system.steps": (work["open_steps"], "count"),
        "open_system.generator_calls": (counts.get("open_system.generator_calls", 0), "count"),
        "open_system.records": (work["open_records"], "count"),
        "open_system.min_eigenvalue.s": (s("open_system.min_eigenvalue"), "s"),
        "open_system.min_eigenvalue.calls": (calls("open_system.min_eigenvalue"), "count"),
        "open_system.write_snapshot.s": (s("open_system.write_snapshot"), "s"),
        "open_system.write_snapshot.bytes": (counts.get("open_system.write_snapshot.bytes", 0), "bytes"),
        "closed.evolve_closed.self_s": (s("closed.evolve_closed", "self_s"), "s"),
        "closed.step_us": (per(s("closed.evolve_closed", "self_s"), work["closed_steps"]) * 1e6, "us"),
        "closed.steps": (work["closed_steps"], "count"),
        "closed.rhs_calls": (counts.get("closed.rhs_calls", 0), "count"),
        "closed.records": (work["closed_records"], "count"),
        "closed.observables.s": (s("closed.observables"), "s"),
        "closed.fidelity_total.s": (s("closed.fidelity_total"), "s"),
        "closed.fidelity_conditional.s": (s("closed.fidelity_conditional"), "s"),
        "model.target_states.calls": (calls("model.target_states"), "count"),
        "model.target_states.s": (s("model.target_states"), "s"),
        "model.CatState.fock_vector.calls": (calls("model.CatState.fock_vector"), "count"),
        "model.CatState.fock_vector.s": (s("model.CatState.fock_vector"), "s"),
        "fock.coherent_coeffs.calls": (calls("fock.coherent_coeffs"), "count"),
        "fock.coherent_coeffs.s": (s("fock.coherent_coeffs"), "s"),
        "fock.coherent_coeffs.per_record": (per(calls("fock.coherent_coeffs"), records), "count"),
        "fock.displacement_matrices.s": (s("fock.displacement_matrices"), "s"),
        "fock.displacement_matrices.calls": (calls("fock.displacement_matrices"), "count"),
        "fock.displacement_matrices.matrices": (counts.get("fock.displacement_matrices.matrices", 0), "count"),
        "fock.oscillator_eigenfunctions.s": (s("fock.oscillator_eigenfunctions"), "s"),
        "analysis.wigner_numeric.self_s": (s("analysis.wigner_numeric", "self_s"), "s"),
        "analysis.quadrature_numeric.s": (s("analysis.quadrature_numeric"), "s"),
        "trajectory.write_csv.s": (s("trajectory.write_csv"), "s"),
        "cli.run.self_s": (root_self, "s"),
        "io.bytes_written": (work["bytes"], "bytes"),
        "io.files": (work["files"], "count"),
        "trace.unaccounted_s": (sample.wall_s - accounted, "s"),
    }


def sweep_values(samples, workers) -> dict:
    """Pool figures from the child manifests of untraced invocations."""
    effs, mx, mn = [], [], []
    for s in samples:
        members = s.inspection.member_wall_s
        if members:
            effs.append(sum(members) / (workers * s.wall_s))
            mx.append(max(members))
            mn.append(min(members))
    med = statistics.median
    return {
        "cli.sweep.pool_eff": (med(effs) if effs else 0.0, "ratio"),
        "cli.sweep.member_s.max": (med(mx) if mx else 0.0, "s"),
        "cli.sweep.member_s.min": (med(mn) if mn else 0.0, "s"),
    }


def per_layer(untraced, traced, calls) -> tuple[dict, dict]:
    rows = [_layer_values(s) for s in traced]
    metrics = {k: (statistics.median(r[k][0] for r in rows), rows[0][k][1]) for k in rows[0]}
    workers = 1
    for argv in calls:
        if "--workers" in argv:
            workers = int(argv[argv.index("--workers") + 1])
    metrics.update(sweep_values(untraced, workers))
    wall_untraced = statistics.median(s.wall_s for s in untraced)
    wall_traced = statistics.median(s.wall_s for s in traced)
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    return metrics, {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "catforge", "cli.py")):
        print(f"perfbench: no catforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import catforge
    from catforge import cli

    import checks

    os.makedirs(WORK, exist_ok=True)
    tempfile.tempdir = WORK
    with open(os.path.join(HERE, "reference.json"), encoding="ascii") as fh:
        references = json.load(fh)
    reference = references[args.workload]

    env = environment()
    calls = workload_calls(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "calls": calls, "environment": env}))

    # set-up of this process: imports done above; warm-up outside the timed region
    for argv in warmup_calls(calls):
        out = tempfile.mkdtemp(prefix="warmup-", dir=WORK)
        cli.main(argv + ["--out", out])
        shutil.rmtree(out, ignore_errors=True)

    def untraced_invocation(i):
        return invoke(cli, checks, calls, reference, args.seed)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    if args.trace == 0:
        samples = run_for(args.seconds, untraced_invocation)
        metrics, notes = end_to_end(samples)
        setup = setup_time(calls)
        metrics["setup_s"] = (statistics.median(setup), "s")
        notes["setup_s"] = f"median of {len(setup)} fresh processes"
        all_samples = samples
    else:
        from spans import Tracer

        untraced = run_for(args.seconds / 2, untraced_invocation)
        with Tracer(catforge) as tracer:
            traced = run_for(
                args.seconds / 2,
                lambda i: invoke(cli, checks, calls, reference, args.seed, tracer, i),
            )
        metrics, notes = per_layer(untraced, traced, calls)
        all_samples = untraced + traced
        record["spans"] = [sp for s in traced for sp in s.spans]

    # seed 0 only: the full-length check against the goldens, untimed and
    # after peak_rss_mb is read
    timed = len(all_samples)
    if args.seed == 0 and args.workload in FULL_CALLS:
        full = invoke(cli, checks, FULL_CALLS[args.workload], references[f"{args.workload}/full"], 0)
        all_samples = all_samples + [full]
    attempted = len(all_samples)
    failed = sum(s.failed for s in all_samples)
    lines = []
    for i, s in enumerate(all_samples):
        line = {"i": i, "wall_s": s.wall_s, "cpu_s": s.cpu_s, "work": s.inspection.work}
        if i >= timed:
            line["untimed_check"] = True
        if s.inspection.errors:
            line["errors"] = s.inspection.errors
        print(json.dumps(line))
        lines.append(line)
    print(f"fail_frac: {failed / attempted:.4f} ({failed} of {attempted} invocations)")
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name}: {value!r} {unit}{note}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"{key}: {note}")

    record.update(
        samples=lines,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="ascii") as fh:
        json.dump(record, fh)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
