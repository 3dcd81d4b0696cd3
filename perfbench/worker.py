"""Benchmark worker: one fresh process that runs one workload.

Started by run.py with an absolute `src` path, so the package resolves from
any working directory. Prints `ready` once the first pass can start and, as
its last line, a JSON summary of the passes it measured.

    python3 perfbench/worker.py --src SRC --work-dir DIR --workload NAME \
        --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS, run_pass

MIN_PASSES = 3  # per kind of pass (untraced, traced), for a median


def records_text(results) -> str:
    """Records of one pass as JSON, without the wall_time_s field."""
    rows = []
    for result in results:
        for record in result.records:
            row = dataclasses.asdict(record)
            del row["wall_time_s"]
            rows.append(row)
    return json.dumps(checks.to_plain(rows), sort_keys=True)


def measure(exp, units, args, reference) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}
    layer_times, layer_counts = [], []
    attempted = ok = missed = exact = 0
    problems: list[str] = []
    first_records = None
    start = time.perf_counter()
    index = 0
    while True:
        traced = bool(args.trace) and len(walls[True]) < len(walls[False])
        out_root = args.work_dir / f"pass-{index:03d}"
        if traced:
            first_span = len(tracer.spans)
            with tracing.installed(tracer, exp), tracer.request(index):
                t0 = time.perf_counter()
                results = run_pass(exp, units, args.seed, out_root)
                wall = time.perf_counter() - t0
            times, counts = tracing.pass_metrics(tracer.spans[first_span:])
            layer_times.append(times)
            if layer_counts and counts != layer_counts[0]:
                problems.append(f"pass {index}: counts {counts} differ from {layer_counts[0]}")
            layer_counts.append(counts)
        else:
            t0 = time.perf_counter()
            results = run_pass(exp, units, args.seed, out_root)
            wall = time.perf_counter() - t0
        walls[traced].append(wall)

        n_runs, n_ok, n_missed, found = checks.check_pass(results, reference)
        attempted += n_runs
        ok += n_ok
        missed += n_missed
        problems += [f"pass {index}: {p}" for p in found]
        text = records_text(results)
        if first_records is None:
            first_records = text
            exact = sum(checks.exact_match(r.unit, r.records, reference) for r in results)
        elif text != first_records:
            problems.append(f"pass {index} ({'traced' if traced else 'untraced'}): "
                            "records differ from pass 0 beyond wall_time_s")
        shutil.rmtree(out_root, ignore_errors=True)
        index += 1

        enough = len(walls[False]) >= MIN_PASSES and (
            not args.trace or len(walls[True]) >= MIN_PASSES)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    summary = {
        "attempted": attempted,
        "ok": ok,
        "missed": missed,
        "problems": problems,
        "exact_runs": exact,
        "runs_per_pass": attempted // index,
        "walls": walls[False],
        "traced_walls": walls[True],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        summary["layers"] = {**tracing.median_times(layer_times), **layer_counts[0]}
        summary["layers"]["trace.overhead_share"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        tracer.write(args.work_dir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(args.src.resolve()))
    import absorblab.experiments as exp

    units = WORKLOADS[args.workload].ordered(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    reference = checks.load_reference()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        summary = measure(exp, units, args, reference)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
