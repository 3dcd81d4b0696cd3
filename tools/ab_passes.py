"""Time one perfbench workload on two source trees, alternating, in one process.

Usage, from the repository root:

    python3 tools/ab_passes.py PARENT_SRC CHANGE_SRC --workload removability \
        --pairs 30 --seed 777

PARENT_SRC and CHANGE_SRC are directories that hold an `absorblab` package,
such as the `src` of two checkouts. Each tree's package is imported afresh
under its own name, one after the other, and the absorblab modules that were
in `sys.modules` before are put back. Both then run `perfbench/workloads.py`'s
`run_pass` on the workload: one warm-up pass each, then PAIRS pairs of passes,
the parent first in odd pairs and the change first in even ones. A pass is
timed by process time, which leaves out the time the process waits for a CPU
on a shared machine. The tool prints every pair, each side's median and
quartiles, and the pairs in which the change was faster.

This is a process-time comparison inside one interpreter, for telling small
differences apart; `perfbench/run.py` measures the benchmark's own wall time
in fresh processes. The tool reads `perfbench/` and writes nothing there.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# as perfbench/run.py --blas-threads 1 sets them, before NumPy is imported
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("parent", "change")


def _package_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "absorblab" or name.startswith("absorblab.")}


def load(src: Path):
    """The `absorblab.experiments` module of the tree at `src`, imported afresh."""
    saved = _package_modules()
    for name in saved:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("absorblab.experiments")
    finally:
        sys.path.remove(str(src))
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The 25th, 50th and 75th percentiles, linearly interpolated."""
    ordered = sorted(values)

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (position - low) * (ordered[high] - ordered[low])

    return at(0.25), at(0.5), at(0.75)


def perfbench_workloads():
    """perfbench's `workloads` module, imported from its file."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def measure(workloads, experiments: dict, workload: str, pairs: int, seed: int) -> list[dict]:
    """Process seconds per pass, one dict {side: seconds} per pair in the order the
    sides ran, after a warm-up pass of each side."""
    units = workloads.WORKLOADS[workload].ordered(seed)
    with tempfile.TemporaryDirectory() as tmp:
        def timed(side: str) -> float:
            out_root = Path(tmp) / side
            start = time.process_time()
            workloads.run_pass(experiments[side], units, seed, out_root)
            seconds = time.process_time() - start
            shutil.rmtree(out_root, ignore_errors=True)
            return seconds

        for side in SIDES:
            timed(side)
        results = []
        for index in range(pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            results.append({side: timed(side) for side in order})
    return results


def report(results: list[dict], workload: str, seed: int) -> str:
    lines = [f"{workload}, seed {seed}, {len(results)} pairs, process ms per pass",
             f"{'pair':>4} {'parent':>9} {'change':>9}  first"]
    for index, pair in enumerate(results, 1):
        lines.append(f"{index:>4} {1e3 * pair['parent']:>9.2f} {1e3 * pair['change']:>9.2f}"
                     f"  {next(iter(pair))}")
    medians = {}
    for side in SIDES:
        q1, medians[side], q3 = quartiles([pair[side] for pair in results])
        lines.append(f"{side}: median {1e3 * medians[side]:.2f} [{1e3 * q1:.2f}-{1e3 * q3:.2f}]")
    wins = sum(pair["change"] < pair["parent"] for pair in results)
    lines.append(f"change faster in {wins}/{len(results)} pairs, median "
                 f"{100.0 * (medians['change'] / medians['parent'] - 1.0):+.1f} %")
    return "\n".join(lines)


def main(argv=None) -> int:
    workloads = perfbench_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=777)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = dict(zip(SIDES, (args.parent_src, args.change_src)))
    for side, src in trees.items():
        if not (src / "absorblab").is_dir():
            parser.error(f"{side} tree {src} holds no absorblab package")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    experiments = {side: load(src.resolve()) for side, src in trees.items()}
    results = measure(workloads, experiments, args.workload, args.pairs, args.seed)
    print(report(results, args.workload, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
