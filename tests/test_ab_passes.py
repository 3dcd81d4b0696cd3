"""`tools/ab_passes.py` times a perfbench workload on two source trees in one
process, alternating; here `src` runs against itself for one pair."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def test_one_pair_of_src_against_itself():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_passes.py"), SRC, SRC,
         "--workload", "removability", "--pairs", "1", "--seed", "777"],
        capture_output=True, text=True, check=True, timeout=300)
    lines = result.stdout.splitlines()
    assert lines[0] == "removability, seed 777, 1 pairs, process ms per pass"
    pair, parent, change, first = lines[2].split()
    assert pair == "1" and first == "parent"
    assert float(parent) > 0.0 and float(change) > 0.0
    assert lines[3] == f"parent: median {parent} [{parent}-{parent}]"
    assert lines[4] == f"change: median {change} [{change}-{change}]"
    assert lines[5].startswith(("change faster in 0/1 pairs", "change faster in 1/1 pairs"))
    assert len(lines) == 6
