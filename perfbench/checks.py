"""Correctness check of one pass against the seed-commit reference outcomes.

Units tied to an acceptance criterion (1, 2, 4, 5, 8, 9 of
tests/test_acceptance.py) are held to that criterion's tolerance. Every
other unit is compared with its reference outcome: strings and booleans
exactly, numbers to a relative tolerance of RTOL plus an absolute ATOL
(the absolute part covers derived gaps and ratios near zero). Criterion 7a
is never asserted. A unit whose reference run failed must fail with the same
error type; if it completes instead (the defect was fixed), its outcome only
has to be finite.

Every trajectory CSV must hold snapshots x nodes rows, with the reference
snapshot count.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-3
ATOL = 1e-4
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def run_key(unit_name: str, index: int) -> str:
    return f"{unit_name}#{index}"


def to_plain(value):
    """Round-trip through JSON, turning NumPy scalars and arrays into plain values."""
    def plain(obj):
        return obj.item() if hasattr(obj, "item") else obj.tolist()
    return json.loads(json.dumps(value, default=plain))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["runs"]


def _criterion_1(records):
    out = records[0].outcome
    return [f"{k} = {out[k]} outside 2 +/- 0.2"
            for k in ("temporal_order", "spatial_order") if abs(out[k] - 2.0) > 0.2]


def _criterion_2(records):
    out = records[0].outcome
    return [f"{k} = {out[k]} not < 1e-4"
            for k in ("max_rel_err_u", "max_rel_err_v") if not out[k] < 1e-4]


def _criterion_4(records):
    monitors = [r.outcome["monitor_u"] for r in records]
    cap = 5.0 * records[0].outcome["a_star"]
    gap = abs(monitors[-1] - monitors[-2]) / monitors[-1]
    problems = [] if gap < 0.01 else [f"last monitor gap {gap} not < 1 %"]
    return problems + [f"monitor {m} above 5 A* = {cap}" for m in monitors if m > cap]


def _criterion_5(records):
    out = records[0].outcome
    return [f"{k} = {out[k]} above 2 %"
            for k in ("rel_err_u", "rel_err_v") if out[k] > 0.02]


def _criterion_8(records):
    out = records[0].outcome
    limit = 1e-3 * out["k_pow_q"]
    return [] if out["max_violation"] <= limit else [
        f"max_violation {out['max_violation']} above 1e-3 k^q = {limit}"]


def _criterion_9(records):
    out = records[0].outcome
    return [f"{k} is false" for k in ("monotone_ok", "bounded_ok") if not out[k]]


CRITERIA = {1: _criterion_1, 2: _criterion_2, 4: _criterion_4,
            5: _criterion_5, 8: _criterion_8, 9: _criterion_9}


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _compare(ref: dict, got: dict) -> list[str]:
    """Reference fields must all be present and agree; added fields are allowed."""
    ref_leaves, got_leaves = dict(_leaves(ref)), dict(_leaves(got))
    missing = sorted(ref_leaves.keys() - got_leaves.keys())
    if missing:
        return [f"outcome fields missing: {missing}"]
    problems = []
    for path, want in ref_leaves.items():
        have = got_leaves[path]
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (want, have))
        if numbers:
            ok = abs(have - want) <= RTOL * max(abs(have), abs(want)) + ATOL
        else:
            ok = have == want
        if not ok:
            problems.append(f"{path}: {have!r} vs reference {want!r}")
    return problems


def _finite(outcome: dict) -> bool:
    return all(not isinstance(v, float) or math.isfinite(v) for _, v in _leaves(outcome))


def error_type(record) -> str | None:
    return record.error.split(":", 1)[0] if record.failed else None


def check_records(unit, records, reference: dict) -> dict[int, list[str]]:
    """Problems per run index of one unit; an empty dict means all runs match."""
    problems: dict[int, list[str]] = {}
    refs = [reference.get(run_key(unit.name, i)) for i in range(len(records))]
    if any(ref is None for ref in refs):
        return {i: ["no reference outcome"] for i in range(len(records))}
    for i, (record, ref) in enumerate(zip(records, refs)):
        if ref["failed"]:
            if record.failed and error_type(record) != ref["error_type"]:
                problems[i] = [f"failed with {record.error}, reference {ref['error_type']}"]
            elif not record.failed and not _finite(record.outcome):
                problems[i] = ["completed with a non-finite outcome"]
        elif record.failed:
            problems[i] = [f"failed: {record.error}"]
        elif unit.criterion is None:
            found = _compare(ref["outcome"], record.outcome)
            if found:
                problems[i] = found
    if unit.criterion is not None and not problems:
        found = CRITERIA[unit.criterion](records)
        if found:
            problems = {i: [f"criterion {unit.criterion}: {p}" for p in found]
                        for i in range(len(records))}
    return problems


def read_trajectory_csv(path: Path) -> tuple[str, int, set[str]]:
    """(header, data rows, distinct values of the first column t)."""
    rows, times = 0, set()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        for line in fh:
            rows += 1
            times.add(line.split(",", 1)[0])
    return header, rows, times


def check_trajectory_csv(path: Path, nodes: int, snapshots: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    header, rows, times = read_trajectory_csv(path)
    problems = []
    if not header.startswith("t,"):
        problems.append(f"{path.name}: first column is not t: {header!r}")
    if rows != snapshots * nodes or len(times) != snapshots:
        problems.append(f"{path.name}: {rows} rows over {len(times)} times, "
                        f"expected {snapshots} x {nodes}")
    return problems


def check_outputs(result, reference: dict) -> dict[int, list[str]]:
    """CSV checks for a unit that writes trajectories; problems per run index."""
    problems: dict[int, list[str]] = {}
    for i, record in enumerate(result.records):
        if record.failed:
            continue
        ref = reference.get(run_key(result.unit.name, i)) or {}
        found = check_trajectory_csv(
            result.out_dir / f"trajectory_{record.runid}.csv",
            record.params["nodes"], ref.get("snapshots", -1))
        if not (result.out_dir / f"steps_{record.runid}.csv").is_file():
            found.append(f"steps_{record.runid}.csv missing")
        if found:
            problems[i] = found
    return problems


def check_pass(results, reference) -> tuple[int, int, int, list[str]]:
    """(runs attempted, runs ok, runs missed, problems).

    A run is ok when it completed and matched its reference; it is missed
    when it did not match its reference, whether it completed or not.
    """
    attempted = ok = missed = 0
    problems = []
    for result in results:
        found = check_records(result.unit, result.records, reference)
        if result.unit.write_csv:
            for i, more in check_outputs(result, reference).items():
                found.setdefault(i, []).extend(more)
        for i, record in enumerate(result.records):
            attempted += 1
            ok += not record.failed and i not in found
            missed += i in found
            problems += [f"{run_key(result.unit.name, i)}: {p}" for p in found.get(i, [])]
    return attempted, ok, missed, problems


def exact_match(unit, records, reference: dict) -> int:
    """Runs whose outcome equals the reference bit for bit (seed independence)."""
    matched = 0
    for i, record in enumerate(records):
        ref = reference.get(run_key(unit.name, i))
        if ref is None or record.failed != ref["failed"]:
            continue
        outcome = to_plain(record.outcome)
        matched += all(k in outcome and outcome[k] == v for k, v in ref["outcome"].items())
    return matched
