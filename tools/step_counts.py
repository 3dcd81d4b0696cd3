"""Print the solver's step counts per perfbench unit: a measure that load does not move.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/step_counts.py [--workload NAME ...]

Every unit of `perfbench/workloads.py` (all workloads, or the ones named)
runs once in this process, in its declared order, as a perfbench pass runs
it, with its records and CSVs written to a temporary directory. The columns
sum the `solver` counts of the unit's records, which the solver tallies
itself (`evolution._WORK`):

- calls:     `_advance` calls, one Strang step each;
- rows:      the rows those calls advanced: two per call for the coupled
             system, one for a symmetric solve (p = q, u0 = v0) and for the
             heat equation;
- accepted:  accepted steps;
- retries:   rejections of the accepted steps (an attempt that ends in
             StepSizeUnderflow logs no step, so its rejections are not here);
- factors:   factorisations, one dgttrf call per factor-cache miss.

Each solve has a factor cache of its own, so no unit's cache serves another
and the order does not matter. The counts depend on the code only: they
compare two commits where `wall_s` is too noisy.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
from collections import Counter
from pathlib import Path

from absorblab import experiments

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
COLUMNS = ("calls", "rows", "accepted", "retries", "factors")


def load_workloads():
    """perfbench's workload module, loaded from its file as it stands."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def unit_counts(workloads, unit) -> Counter:
    """The summed solver counts of one unit's records, written as perfbench writes them."""
    counts = Counter(dict.fromkeys(COLUMNS, 0))
    with tempfile.TemporaryDirectory() as tmp:
        # the seed is a run label
        for result in workloads.run_pass(experiments, [unit], 0, Path(tmp)):
            for record in result.records:
                counts.update(record.solver)
    return counts


def main(argv: list[str]) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    print(f"{'workload':<14}{'unit':<38}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name in args.workload or workloads.WORKLOADS:
        total = Counter(dict.fromkeys(COLUMNS, 0))
        for unit in workloads.WORKLOADS[name].units:
            counts = unit_counts(workloads, unit)
            total.update(counts)
            print(f"{name:<14}{unit.name:<38}" + "".join(f"{counts[c]:>10,}" for c in COLUMNS))
        print(f"{name:<14}{'total':<38}" + "".join(f"{total[c]:>10,}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
