"""Regenerate reference.json: every workload's run outcomes at seed 0.

Run from the repository root on the commit whose outcomes are the
reference (the seed commit of the benchmark):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
from workloads import WORKLOADS, run_pass

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import absorblab.experiments as exp

    work = ROOT / ".perfbench_work" / "reference"
    runs = {}
    try:
        for name, workload in WORKLOADS.items():
            for result in run_pass(exp, workload.ordered(SEED), SEED, work / name):
                for i, record in enumerate(result.records):
                    entry = {
                        "failed": record.failed,
                        "error_type": checks.error_type(record),
                        "outcome": checks.to_plain(record.outcome),
                    }
                    if result.unit.write_csv and not record.failed:
                        path = result.out_dir / f"trajectory_{record.runid}.csv"
                        entry["snapshots"] = len(checks.read_trajectory_csv(path)[2])
                    runs[checks.run_key(result.unit.name, i)] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {"seed": SEED, "runs": runs}
    checks.REFERENCE_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"wrote {len(runs)} reference runs to {checks.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
