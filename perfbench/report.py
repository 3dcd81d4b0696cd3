"""Print every metric of every workload, each by name and unit.

Runs run.py on each workload twice, untraced (end-to-end metrics) and traced
(per-layer metrics), with the same seed, and exits non-zero if any run fails
its correctness check.

    python3 perfbench/report.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"  FAILED (exit {proc.returncode}) {proc.stderr.strip()}", flush=True)
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
