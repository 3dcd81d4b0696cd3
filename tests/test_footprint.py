"""`tools/footprint.py` prints a fresh interpreter's peak resident memory after
each stage of a benchmark worker; here for one lab_session pass."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ["interpreter", "numpy", "perfbench", "absorblab", "first pass", "second pass"]


def test_stages_of_a_lab_session_worker():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "footprint.py"), "--workload", "lab_session",
         "--seed", "777"],
        capture_output=True, text=True, check=True, timeout=300)
    lines = result.stdout.splitlines()
    assert lines[:2] == ["lab_session, seed 777: peak resident MiB after each stage",
                         f"{'stage':<12} {'peak':>8} {'rise':>8}"]
    rows = [(line[:12].rstrip(), *map(float, line[12:].split())) for line in lines[2:]]
    assert [stage for stage, _, _ in rows] == STAGES
    before = 0.0
    for stage, peak, rise in rows:
        assert peak > 0.0 and rise >= 0.0, stage  # a peak never falls
        assert abs(peak - before - rise) < 0.011, stage
        before = peak
    assert rows[1][2] > 1.0  # NumPy's import is never free


def test_unknown_workload_is_refused():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "footprint.py"), "--workload", "no_such"],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 2 and "unknown workload 'no_such'" in result.stderr
