"""Benchmark entry point: measure one workload of absorblab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--blas-threads T]

Run from the repository root (any checkout holding `src/absorblab`). It
measures set-up time in fresh interpreters, then runs the workload in one
fresh worker process for at least S seconds, checks every run against the
seed-commit reference outcomes, prints a table of metrics by name and unit,
and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. `attempted` counts recipe runs;
`failed` counts runs that did not reproduce their reference outcome. Exits
non-zero without a result when the package or the worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # the whole run, set-up samples included
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the worker imports from the absolute SRC only
    env.update({name: str(threads) for name in THREAD_VARIABLES})
    return env


def _worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
            "--work-dir", str(WORK / f"run-{os.getpid()}"),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def _run_worker(cmd, env, timeout: float, ready_at: list | None = None) -> str:
    """Run one worker to completion and return its stdout.

    When `ready_at` is given, the time from start to its `ready` line is
    appended to it.
    """
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            if ready_at is not None and first.strip() == "ready":
                ready_at.append(time.perf_counter() - start)
            rest, _ = proc.communicate(timeout=max(1.0, timeout - (time.perf_counter() - start)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return first + rest


def _setup_seconds(args, env) -> float:
    """Median time from a fresh interpreter until the first run can start."""
    samples: list[float] = []
    for _ in range(SETUP_SAMPLES):
        _run_worker(_worker_cmd(args, "--setup-only"), env, 60.0, samples)
    if len(samples) != SETUP_SAMPLES:
        raise BenchError("setup probe did not report ready")
    return statistics.median(samples)


def _load_metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Measure one absorblab workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="thread count for BLAS/OpenMP in the worker (at most nproc)")
    args = parser.parse_args(argv)

    if not (SRC / "absorblab" / "experiments.py").is_file():
        print(f"error: no absorblab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        print("error: --blas-threads must lie in [1, nproc]", file=sys.stderr)
        return 2

    started = time.perf_counter()
    env = _worker_env(args.blas_threads)
    try:
        setup_s = _setup_seconds(args, env)
        out = _run_worker(
            _worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace)),
            env, DEADLINE_S - (time.perf_counter() - started))
        summary = json.loads(out.strip().splitlines()[-1])
    except (BenchError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, ok = summary["attempted"], summary["ok"]
    problems = summary["problems"]
    values = {
        "wall_s": statistics.median(summary["walls"]),
        "setup_s": setup_s,
        "peak_rss_mb": summary["peak_rss_mb"],
        "ok_share": ok / attempted,
        **summary.get("layers", {}),
    }
    specs = _load_metric_specs(args.trace)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(summary['walls'])} untraced and {len(summary['traced_walls'])} traced passes "
          f"of {summary['runs_per_pass']} runs, {setup_s:.3f} s set-up "
          f"(median of {SETUP_SAMPLES} fresh interpreters)")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_share (= 1 - ok_share)':36s} {1 - ok / attempted:>16.6g} ratio")
    print(f"  runs equal to the reference bit for bit: {summary['exact_runs']} "
          f"of {summary['runs_per_pass']}")
    for problem in problems[:20]:
        print(f"  MISMATCH {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": summary["missed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
