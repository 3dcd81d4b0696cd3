"""Every golden case of `tools/golden_outputs.py` writes the bytes that
`tests/golden_manifest.json` holds.

A change that moves outputs on purpose regenerates the manifest in the same
commit, with

    PYTHONPATH=src python3 tools/golden_outputs.py OUT_DIR --manifest tests/golden_manifest.json

after `tools/golden_diff.py` has shown what moved.

The bits of np.power at fractional powers depend on NumPy's SIMD path, so a
mismatch under another NumPy version than the manifest's says so; it does
not skip.
"""

import importlib
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden_manifest.json"


def test_golden_outputs_match_the_manifest(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    golden_outputs = importlib.import_module("golden_outputs")
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
