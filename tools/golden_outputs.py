"""Write a fixed set of recipe outputs for a byte-identity comparison.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/golden_outputs.py OUT_DIR [--manifest PATH]

Each case runs through `absorblab.experiments.run_experiment` with the
`absorblab` that is first on the path, and writes into OUT_DIR/<case>/:

- record.json and record.csv, the run record with `wall_time_s` set to 0,
  through both formats of `write_records`;
- trajectory_<case>.csv and steps_<case>.csv, when the run produced a
  trajectory;
- config_error.txt in place of all three, when the recipe raised ConfigError.

With `--manifest PATH` it also writes PATH, the manifest that
`tests/test_golden_manifest.py` checks every case against: the NumPy
version, and per case the sha256 of each file and the record's solver
counts and outcome (`golden_diff.digest`).  A change that moves outputs on
purpose writes a new manifest, shows what moved with
`tools/golden_diff.py tests/golden_manifest.json NEW_MANIFEST`, and commits
the new one as `tests/golden_manifest.json`.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import absorblab
from absorblab.experiments import (
    RECIPE_NAMES,
    ConfigError,
    ExperimentSpec,
    run_experiment,
    write_records,
)
from golden_diff import digests

PAIRS = [(2, 2), (2, 3)]
# mean_value_check's data do not vanish at the walls: under Dirichlet walls its first
# step diffuses the data with their wall nodes projected to 0
VARIANT = {"bc": "dirichlet_zero"}


def cases() -> list[tuple[str, str, dict]]:
    """(case name, recipe, parameters); 30 cases.

    Every run of a perfbench unit, sweep points included, resolves to the
    config of exactly one case (`tests/test_golden_manifest.py`), so the
    manifest pins the solver counts of every benchmark run. The (p, q) of the
    bump recipes' cases are the pairs `tools/work_precision.py` measures.
    """
    out = []
    for name in RECIPE_NAMES:
        if name == "mean_value_check":  # no (p, q): one run at its defaults
            out.append((name, name, {}))
            continue
        for p, q in PAIRS:
            out.append((f"{name}-p{p}q{q}", name, {"p": p, "q": q}))
    for p, q in PAIRS:
        out.append((f"trace_measurement-p{p}q{q}-dirichlet", "trace_measurement",
                    {"p": p, "q": q, **VARIANT}))
    out.append(("mean_value_check-dirichlet", "mean_value_check", dict(VARIANT)))
    # the power shortcut (`evolution._power_into`) at a fractional power, and with
    # the cube on row 0's source; (1.5, 1.5) and (3, 3) are criterion 7's runs
    for p, q in ((1.5, 1.5), (3, 2), (3, 3)):
        out.append((f"removability_sweep-p{p:g}q{q:g}", "removability_sweep", {"p": p, "q": q}))
    # criterion 6's pair, at the default width
    out.append(("dichotomy_probe-p3q3", "dichotomy_probe", {"p": 3, "q": 3}))
    out.append(("blowup_fit-p3q2", "blowup_fit", {"p": 3, "q": 2}))
    # m defaults to 1e4: the other points of perfbench's (2, 2) sweep
    for m in (10.0, 100.0, 1000.0):
        out.append((f"estimate_saturation-p2q2-m{m:g}", "estimate_saturation",
                    {"p": 2, "q": 2, "m": m}))
    out.append(("estimate_saturation-p2q3-m10", "estimate_saturation",
                {"p": 2, "q": 3, "m": 10.0}))
    # an even `nodes` has no node at 0, so even data take the full interval grid
    # (`evolution._half_line`), and round-off leaves no snapshot row mirrored bit
    # for bit: the trajectory CSV takes its plain path
    out.append(("subsolution_check-p2q3-n200", "subsolution_check",
                {"p": 2, "q": 3, "nodes": 200}))
    return out


def run_case(root: Path, case: str, name: str, params: dict) -> str:
    """Write one case's outputs into root/case; its status."""
    out = root / case
    out.mkdir(parents=True, exist_ok=True)
    try:
        record = run_experiment(ExperimentSpec(name, params), out_dir=out, runid=case)
    except ConfigError as exc:
        (out / "config_error.txt").write_text(f"{exc}\n", encoding="utf-8")
        return f"ConfigError: {exc}"
    for fmt in ("json", "csv"):
        write_records([replace(record, wall_time_s=0.0)], out, fmt=fmt)
    return "failed: " + record.error if record.failed else "ok"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 3) or (len(argv) == 3 and argv[1] != "--manifest"):
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(argv[0])
    print(f"absorblab from {Path(absorblab.__file__).parent}")
    for case, name, params in cases():
        print(f"{case}: {run_case(root, case, name, params)}")
    if len(argv) == 3:
        manifest = {"numpy": np.__version__, "cases": digests(root)}
        Path(argv[2]).write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
