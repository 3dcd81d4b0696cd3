"""Print a fresh interpreter's peak resident memory after each stage of a benchmark worker.

Usage, from the repository root:

    python3 tools/footprint.py --workload lab_session [--seed 777] [--src SRC]

The stages run in the order a perfbench worker meets them:

- interpreter: the interpreter and this script's standard-library imports;
- numpy:       `import numpy`;
- perfbench:   perfbench's `workloads` module, imported from its file;
- absorblab:   `import absorblab.experiments` from SRC (the repository's
               `src` by default);
- first pass:  one pass of the workload, `workloads.run_pass`, writing into
               a temporary directory;
- second pass: one more pass.

After each stage it prints the peak resident set so far, VmHWM in
`/proc/self/status` (or `ru_maxrss` where that file is absent), in MiB, and
its rise over the stage before. The thread variables are set to 1 before
NumPy is imported, as `perfbench/run.py --blas-threads 1` sets them, since
each BLAS thread takes its own buffers. Run it once per interpreter: every
stage after the first counts what earlier stages left loaded. The tool reads
`perfbench/` and writes nothing there.
"""

from __future__ import annotations

import argparse
import importlib
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
STATUS = Path("/proc/self/status")


def peak_mib() -> float:
    """The process's peak resident set so far, in MiB."""
    if STATUS.is_file():
        for line in STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # in kB
    # ru_maxrss is in kB on Linux and in bytes on macOS
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def import_from(directory: Path, name: str):
    """Module `name` imported with `directory` first on the path."""
    sys.path.insert(0, str(directory))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(directory))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if not (args.src / "absorblab").is_dir():
        parser.error(f"{args.src} holds no absorblab package")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"

    stages = [("interpreter", peak_mib())]
    import numpy  # noqa: F401  (the stage is the import)
    stages.append(("numpy", peak_mib()))
    workloads = import_from(PERFBENCH, "workloads")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(sorted(workloads.WORKLOADS))}")
    stages.append(("perfbench", peak_mib()))
    experiments = import_from(args.src.resolve(), "absorblab.experiments")
    stages.append(("absorblab", peak_mib()))
    units = workloads.WORKLOADS[args.workload].ordered(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for stage in ("first pass", "second pass"):
            workloads.run_pass(experiments, units, args.seed, Path(tmp) / stage.replace(" ", "-"))
            stages.append((stage, peak_mib()))

    print(f"{args.workload}, seed {args.seed}: peak resident MiB after each stage")
    print(f"{'stage':<12} {'peak':>8} {'rise':>8}")
    before = 0.0
    for stage, peak in stages:
        print(f"{stage:<12} {peak:>8.2f} {peak - before:>+8.2f}")
        before = peak
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
