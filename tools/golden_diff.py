"""Compare two sets of golden outputs from `tools/golden_outputs.py`, case by case.

Usage, from the repository root:

    python3 tools/golden_diff.py A B

A and B are each a directory written by `tools/golden_outputs.py` or a
manifest it wrote with `--manifest`, such as `tests/golden_manifest.json`.
For every case in A or B it prints one line: whether all its files are
equal byte for byte (by sha256), and the five `solver` counts of record.json
on both sides ("-" without a record, or in a manifest made before records
held them): `_advance` calls, the rows they advanced, accepted steps,
retries and factorisations, summed over all the run's solves. Under a case
whose bytes differ follows one line per outcome field of record.json that
moved, with the largest relative change |b - a| / |a| over the field's
numbers (the absolute change where a is 0) and, for a single number, both
values; or a word when the field is not numeric, has another length, or is
missing on one side. Exits 0 when every case is byte-identical, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

# a case on one side only: no files, no solver counts, no outcome
ABSENT = {"files": {}, "solver": None, "outcome": {}}
COUNTED = ("calls", "rows", "accepted", "retries", "factors")  # `RunRecord.solver`


def leaves(value) -> list:
    """The scalars of a value, in order; a list is walked depth first."""
    if isinstance(value, list):
        return [leaf for item in value for leaf in leaves(item)]
    return [value]


def relative_change(a, b) -> float | str:
    """Largest |b - a| / |a| over the paired numbers of two outcome values, or a word."""
    xs, ys = leaves(a), leaves(b)
    if len(xs) != len(ys):
        return f"length {len(xs)} -> {len(ys)}"
    worst = 0.0
    for x, y in zip(xs, ys):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if not numbers:
            if x != y:
                return "changed"
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        gap = abs(y - x)
        worst = max(worst, gap / abs(x) if x else gap)
    return worst


def outcome_changes(a: dict, b: dict) -> dict[str, float | str]:
    """Per outcome field that differs between two records: its relative change, or a word."""
    out: dict[str, float | str] = {}
    for key in sorted(set(a) | set(b)):
        if key not in b:
            out[key] = "only in A"
        elif key not in a:
            out[key] = "only in B"
        elif a[key] != b[key]:
            out[key] = relative_change(a[key], b[key])
    return out


def digest(case: Path) -> dict:
    """One case directory as the manifest keeps it: the sha256 of each file, and the
    solver counts and the outcome of record.json."""
    path = case / "record.json"
    record = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    return {
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(case.iterdir())},
        "solver": record.get("solver"),
        "outcome": record.get("outcome", {}),
    }


def count(case: dict, key: str) -> str:
    """One solver count of a case digest; "-" where it has none."""
    return str((case.get("solver") or {}).get(key, "-"))


def digests(root: Path) -> dict[str, dict]:
    """Every case of a golden-output directory, or of a manifest file, by name."""
    if root.is_file():
        return json.loads(root.read_text(encoding="utf-8"))["cases"]
    return {p.name: digest(p) for p in sorted(root.iterdir()) if p.is_dir()}


def compare(a_cases: dict[str, dict], b_cases: dict[str, dict]) -> tuple[list[str], int]:
    """The report's lines for two sets of case digests, and the number of cases
    whose bytes differ."""
    header = "".join(f"{c + ' A -> B':<17}" for c in COUNTED)
    lines = [f"{'case':<36}{'bytes':<8}{header}".rstrip()]
    differ = 0
    for name in sorted(a_cases.keys() | b_cases.keys()):
        a, b = a_cases.get(name, ABSENT), b_cases.get(name, ABSENT)
        equal = a["files"] == b["files"]
        differ += not equal
        counts = "".join(f"{count(a, c) + ' -> ' + count(b, c):<17}" for c in COUNTED)
        lines.append(f"{name:<36}{'equal' if equal else 'differ':<8}{counts}".rstrip())
        if not equal:
            old, new = a["outcome"], b["outcome"]
            for key, change in outcome_changes(old, new).items():
                shown = change if isinstance(change, str) else f"{change:.3g}"
                if not isinstance(change, str) and not isinstance(old[key], list):
                    shown += f"  ({old[key]!r} -> {new[key]!r})"
                lines.append(f"    {key:<32}{shown}")
    return lines, differ


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, differ = compare(*(digests(Path(arg)) for arg in argv))
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
