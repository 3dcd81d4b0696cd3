"""Span tracing from outside the program, for the traced benchmark run.

`installed` swaps the names `absorblab.experiments` calls (its imported
evolution and discretization functions, the `cf` and `dg` module aliases,
and its own run_experiment, sweep and write_records) for wrappers that
record one span per call, and restores them afterwards. Spans carry their
parent's id and the pass (request) id, are kept in memory and are written
out once the run ends. A span's self time is its duration minus the time
its child spans cover.

Counts come from public output only: accepted steps and rejections from
`Trajectory.steps`, CSV bytes from file sizes.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

# Every accepted or rejected attempt advances the state three times (one
# full step, two half steps), each with one tridiagonal solve per component.
SOLVES_PER_ATTEMPT = 3
# Float64 arrays of n values one tridiagonal solve reads or writes: the three
# bands, the right-hand side and the solution. A computed figure, not a
# measured one.
ARRAYS_PER_SOLVE = 5

_EXPERIMENTS_NAMES = (
    "solve", "heat_solve", "residual_of", "trajectory_to_csv", "steps_to_csv",
    "build_grid", "bump_function", "integrate_field",
    "run_experiment", "sweep", "write_records",
)
_MODULE_ALIASES = ("cf", "dg")


@dataclass
class Span:
    span_id: int
    parent_id: int
    request: int
    layer: str
    name: str
    start_ns: int
    end_ns: int
    ok: bool = True
    counts: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _solver_counts(components: int):
    def count(args, traj) -> dict:
        rejected = sum(step.retries for step in traj.steps)
        return {"components": components, "nodes": traj.grid.nodes,
                "accepted": len(traj.steps), "rejected": rejected}
    return count


def _file_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


_COUNTERS = {
    "solve": _solver_counts(2),
    "heat_solve": _solver_counts(1),
    "trajectory_to_csv": _file_bytes,
    "steps_to_csv": _file_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._request = 0

    def _open(self) -> tuple[int, int]:
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            span_id, parent = self._open()
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                counts = counter(args, result) if ok and counter else {}
                self.spans.append(Span(span_id, parent, self._request, layer, name,
                                       start, end, ok, counts))

        return traced

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Root span of one workload pass; every span inside shares its id."""
        self._request = request_id
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, request_id, "bench", "pass", start, end))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


class _LayerProxy:
    """Stands in for a module alias; its public functions record spans."""

    def __init__(self, tracer: Tracer, module):
        self._module = module
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                setattr(self, name, tracer.wrap(obj))

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def installed(tracer: Tracer, exp):
    """Trace the calls `exp` (absorblab.experiments) makes, then restore it."""
    saved = {name: getattr(exp, name) for name in _EXPERIMENTS_NAMES + _MODULE_ALIASES}
    try:
        for name in _EXPERIMENTS_NAMES:
            setattr(exp, name, tracer.wrap(saved[name]))
        for name in _MODULE_ALIASES:
            setattr(exp, name, _LayerProxy(tracer, saved[name]))
        yield
    finally:
        for name, value in saved.items():
            setattr(exp, name, value)


def pass_metrics(spans: list[Span]) -> tuple[dict, dict]:
    """Per-layer times (s) and counts of one pass, from its spans."""
    covered = defaultdict(int)
    for span in spans:
        covered[span.parent_id] += span.duration_ns
    self_s = defaultdict(float)
    by_name = defaultdict(list)
    for span in spans:
        self_s[span.layer] += (span.duration_ns - covered[span.span_id]) * 1e-9
        by_name[span.name].append(span)

    def total_s(*names):
        return sum(s.duration_ns for n in names for s in by_name[n]) * 1e-9

    solver = [s.counts | {"ns": s.duration_ns}
              for n in ("solve", "heat_solve") for s in by_name[n] if s.ok]
    accepted = sum(c["accepted"] for c in solver)
    rejected = sum(c["rejected"] for c in solver)
    attempts = accepted + rejected
    solves = [SOLVES_PER_ATTEMPT * c["components"] * (c["accepted"] + c["rejected"])
              for c in solver]
    solve_bytes = sum(n * ARRAYS_PER_SOLVE * 8 * c["nodes"] for n, c in zip(solves, solver))
    csv = [s for n in ("trajectory_to_csv", "steps_to_csv") for s in by_name[n]]
    wall_s = total_s("pass")
    solve_s = total_s("solve", "heat_solve")
    csv_s = total_s("trajectory_to_csv", "steps_to_csv")
    experiments = [s for n in ("run_experiment", "sweep") for s in by_name[n]]
    times = {
        "trace.wall_s": wall_s,
        "evolution.solve_s": solve_s,
        "evolution.solve_share": solve_s / wall_s,
        "evolution.us_per_attempt": (sum(c["ns"] for c in solver) * 1e-3 / attempts
                                     if attempts else 0.0),
        "evolution.residual_s": total_s("residual_of"),
        "evolution.csv_s": csv_s,
        "evolution.csv_share": csv_s / wall_s,
        "diagnostics.s": self_s["diagnostics"],
        "discretization.s": self_s["discretization"],
        "closed_forms.s": self_s["closed_forms"],
        "experiments.self_s": sum((s.duration_ns - covered[s.span_id]) * 1e-9
                                  for s in experiments),
        "experiments.write_records_s": total_s("write_records"),
    }
    counts = {
        "evolution.attempts": attempts,
        "evolution.accepted_steps": accepted,
        "evolution.rejected_steps": rejected,
        "evolution.accept_ratio": accepted / attempts if attempts else 0.0,
        "evolution.tridiag_solves": sum(solves),
        "evolution.bytes_per_solve_computed": solve_bytes / len(solver) if solver else 0.0,
        "evolution.csv_bytes": sum(s.counts["bytes"] for s in csv),
        "diagnostics.calls": sum(1 for s in spans if s.layer == "diagnostics"),
        "experiments.runs": len(by_name["run_experiment"]),
    }
    return times, counts


def median_times(per_pass: list[dict]) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
