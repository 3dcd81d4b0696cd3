"""`tools/golden_diff.py` compares two golden-output directories case by case.

The tool is loaded from its file as it stands, so a moved column or a
renamed helper fails here.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN_DIFF = Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py"


def load_golden_diff():
    spec = importlib.util.spec_from_file_location("golden_diff", GOLDEN_DIFF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_case(root, name, outcome, steps=None):
    """A case whose record took `steps` accepted steps of three calls each; no
    solver counts when `steps` is None."""
    case = root / name
    case.mkdir(parents=True)
    record = {"outcome": outcome}
    if steps is not None:
        record["solver"] = {"accepted": steps, "calls": 3 * steps, "rows": 6 * steps,
                            "retries": 0, "factors": 2}
    (case / "record.json").write_text(json.dumps(record), encoding="utf-8")


def test_equal_directories_exit_zero(tmp_path, capsys):
    tool = load_golden_diff()
    for side in "ab":
        write_case(tmp_path / side, "flat", {"err": 1e-13}, steps=3)
        write_case(tmp_path / side, "fit", {"slope": -1.0})
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["case", "bytes", "calls", "A", "->", "B", "rows", "A", "->", "B",
                                "accepted", "A", "->", "B", "retries", "A", "->", "B",
                                "factors", "A", "->", "B"]
    assert [line.split() for line in lines[1:]] == [
        ["fit", "equal", *["-", "->", "-"] * 5],
        ["flat", "equal", "9", "->", "9", "18", "->", "18", "3", "->", "3", "0", "->", "0",
         "2", "->", "2"]]


def test_moved_fields_show_their_largest_relative_change(tmp_path, capsys):
    tool = load_golden_diff()
    write_case(tmp_path / "a", "run", {"masses": [1.0, 2.0, 4.0], "ratio": 0.5, "zero": 0.0,
                                       "tag": "x", "kept": 3.0, "gone": 1.0}, steps=4)
    write_case(tmp_path / "b", "run", {"masses": [1.0, 2.002, 4.004], "ratio": 0.25, "zero": 1e-3,
                                       "tag": "y", "kept": 3.0, "new": [1.0]}, steps=5)
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["run", "differ", "12", "->", "15", "24", "->", "30",
                                "4", "->", "5", "0", "->", "0", "2", "->", "2"]
    fields = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert fields == {
        "gone": ["only", "in", "A"],
        "masses": ["0.001"],
        "new": ["only", "in", "B"],
        "ratio": ["0.5", "(0.5", "->", "0.25)"],
        "tag": ["changed"],
        "zero": ["0.001", "(0.0", "->", "0.001)"],  # absolute where the old value is 0
    }


def test_a_case_on_one_side_only_differs(tmp_path, capsys):
    tool = load_golden_diff()
    write_case(tmp_path / "a", "both", {"x": 1.0})
    write_case(tmp_path / "b", "both", {"x": 1.0})
    write_case(tmp_path / "b", "extra", {"x": 1.0}, steps=2)
    assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["extra", "differ", "-", "->", "6", "-", "->", "12",
                                "-", "->", "2", "-", "->", "0", "-", "->", "2"]


def test_a_manifest_without_solver_counts_reads_dashes():
    # manifests written before records held solver counts keep a step-log length
    tool = load_golden_diff()
    old = {"files": {"record.json": "0" * 64}, "steps": 3, "outcome": {"x": 1.0}}
    new = {"files": {"record.json": "1" * 64}, "outcome": {"x": 1.0},
           "solver": {"calls": 9, "rows": 18, "accepted": 3, "retries": 1, "factors": 4}}
    lines, differ = tool.compare({"run": old}, {"run": new})
    assert differ == 1
    assert lines[1].split() == ["run", "differ", "-", "->", "9", "-", "->", "18",
                                "-", "->", "3", "-", "->", "1", "-", "->", "4"]
