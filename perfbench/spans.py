"""Span tracer for the benchmark's traced run.

Wraps catforge's public functions at the name each caller looks up (module
globals and class attributes), records one span per call (name, start, end,
parent, invocation id, pid) in memory, and restores the originals on exit.
Nothing under ``src/`` is changed.

Hot inner calls (the closed-system rhs closure and the open-system generator
``apply``) are counted, not spanned: a span there would cost more than a
large share of the call itself.

Every workload runs in this one process (sweep members with --workers 1),
so every span is recorded here.
"""

from __future__ import annotations

import collections
import functools
import os
import time

# (span name, owner attribute path relative to the catforge package, attribute)
# The owner is where the caller looks the name up.
SPANNED = [
    ("cli.run", "cli", "run"),
    ("cli.execute", "cli", "_execute_single"),
    ("closed.evolve_closed", "closed", "evolve_closed"),
    ("closed.observables", "closed", "observables"),
    ("closed.fidelity_total", "closed", "fidelity_total"),
    ("closed.fidelity_conditional", "closed", "fidelity_conditional"),
    ("closed.conditional_states", "closed", "conditional_states"),
    ("fock.tail_population", "closed", "tail_population"),
    ("model.target_states", "closed", "target_states"),
    ("model.target_states", "open_system", "target_states"),
    ("model.target_states", "model", "target_states"),
    ("model.CatState.fock_vector", "model.CatState", "fock_vector"),
    ("fock.coherent_coeffs", "model", "coherent_coeffs"),
    ("open_system.evolve_open", "open_system", "evolve_open"),
    ("open_system.min_eigenvalue", "open_system.SystemDensityMatrix", "min_eigenvalue"),
    ("open_system.mean_phonon_number", "open_system", "mean_phonon_number"),
    ("open_system.write_snapshot", "open_system", "write_snapshot"),
    ("trajectory.write_csv", "trajectory.TrajectoryRecord", "write_csv"),
    ("analysis.wigner_numeric", "analysis", "wigner_numeric"),
    ("analysis.quadrature_numeric", "analysis", "quadrature_numeric"),
    ("fock.displacement_matrices", "analysis", "displacement_matrices"),
    ("fock.oscillator_eigenfunctions", "analysis", "oscillator_eigenfunctions"),
]


def _owner(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Context manager that installs the wrappers for one traced run."""

    def __init__(self, package):
        self.package = package
        self.pid = os.getpid()
        self.spans: list[list] = []  # [invocation, pid, name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.invocation = 0
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------
    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            idx = len(tracer.spans)
            span = [tracer.invocation, tracer.pid, name, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _closed_rhs_factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            f = factory(*args, **kwargs)

            def counted(t, a, b):
                tracer.counts["closed.rhs_calls"] += 1
                return f(t, a, b)

            return counted

        return make

    # -- hooks run after a call returns --------------------------------
    def _after_snapshot(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["open_system.write_snapshot.bytes"] += os.path.getsize(path)

    def _after_displacement(self, args, kwargs, result):
        self.counts["fock.displacement_matrices.matrices"] += result.shape[0]

    # -- install / remove ----------------------------------------------
    def __enter__(self):
        after = {
            "open_system.write_snapshot": self._after_snapshot,
            "fock.displacement_matrices": self._after_displacement,
        }
        for name, owner_path, attr in SPANNED:
            owner = _owner(self.package, owner_path)
            self._patch(owner, attr, self._span(name, owner.__dict__[attr], after.get(name)))
        osys = self.package.open_system
        self._patch(osys._Generators, "apply", self._count("open_system.generator_calls", osys._Generators.apply))
        closed = self.package.closed
        self._patch(closed, "_interaction_rhs", self._closed_rhs_factory(closed._interaction_rhs))
        return self

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        return False

    # -- spans of one invocation ---------------------------------------
    def begin(self, invocation: int):
        self.invocation = invocation
        self.spans, self.stack = [], []
        self.counts = collections.Counter()

    def root(self, name, fn):
        """Run fn() as the root span of the current invocation."""
        return self._span(name, fn)()

    def collect(self) -> tuple[list, collections.Counter]:
        """Spans and counts of the invocation."""
        return list(self.spans), collections.Counter(self.counts)


def summarize(spans) -> dict:
    """Per span name: calls, total duration and self time (span minus children)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[5] is not None:
            child_time[s[5]] += s[4] - s[3]
    out: dict = {}
    for i, s in enumerate(spans):
        dur = s[4] - s[3]
        agg = out.setdefault(s[2], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child_time[i]
    return out
