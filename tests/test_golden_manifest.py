"""Every golden case of `tools/golden_outputs.py` writes the bytes that
`tests/golden_manifest.json` holds, and every benchmark run is one of them.

A change that moves outputs on purpose regenerates the manifest in the same
commit, with

    PYTHONPATH=src python3 tools/golden_outputs.py OUT_DIR --manifest tests/golden_manifest.json

after `tools/golden_diff.py` has shown what moved.

The bits of np.power at fractional powers depend on NumPy's SIMD path, so a
mismatch under another NumPy version than the manifest's says so; it does
not skip.
"""

import importlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from absorblab import experiments

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden_manifest.json"


@pytest.fixture
def golden_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("golden_outputs")


def test_golden_outputs_match_the_manifest(tmp_path, golden_outputs):
    golden_diff = importlib.import_module("golden_diff")
    for case, name, params in golden_outputs.cases():
        golden_outputs.run_case(tmp_path, case, name, params)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    lines, differ = golden_diff.compare(manifest["cases"], golden_diff.digests(tmp_path))
    numpy_note = "" if manifest["numpy"] == np.__version__ else (
        f"the manifest was made with NumPy {manifest['numpy']}, this is {np.__version__}; "
        "fractional powers may round differently\n")
    assert not differ, f"{differ} golden cases moved (A: manifest, B: this tree)\n" + \
        numpy_note + "\n".join(lines)


def config(name: str, params: dict) -> tuple[str, dict]:
    """A run's config as `run_experiment` resolves it; as given where it is refused."""
    try:
        return name, experiments._resolve(name, params)
    except experiments.ConfigError:
        return name, params


def test_every_benchmark_run_is_exactly_one_golden_case(golden_outputs, load_perfbench):
    # so the manifest pins the solver counts of every run perfbench times
    cases = [(case, config(name, params)) for case, name, params in golden_outputs.cases()]
    twins = [(a, b) for i, (a, first) in enumerate(cases)
             for b, second in cases[i + 1:] if first == second]
    assert not twins, f"golden cases that resolve to one config: {twins}"
    uncovered = []
    for workload in load_perfbench("workloads").WORKLOADS.values():
        for unit in workload.units:
            axes = unit.grid or {}  # a sweep over no axes runs once, as a single run does
            for point in itertools.product(*axes.values()):
                run = config(unit.recipe, {**unit.params, **dict(zip(axes, point))})
                if not any(run == resolved for _, resolved in cases):
                    uncovered.append((unit.name, dict(zip(axes, point))))
    assert not uncovered, f"perfbench runs that no golden case makes: {uncovered}"
