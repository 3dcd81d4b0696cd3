"""`tools/step_counts.py` counts what the solver did, per perfbench unit.

The tool and perfbench's workload module are loaded from their files as
they stand, so a renamed unit or a moved counter fails here.
"""

import importlib.util
from pathlib import Path

STEP_COUNTS = Path(__file__).resolve().parent.parent / "tools" / "step_counts.py"


def load_step_counts():
    spec = importlib.util.spec_from_file_location("step_counts", STEP_COUNTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flat_validation_counts():
    tool = load_step_counts()
    workloads = tool.load_workloads()
    unit, = (u for u in workloads.WORKLOADS["lab_session"].units
             if u.name == "flat_validation(p=2,q=2)")
    counts = tool.unit_counts(workloads, unit)
    # 24 accepted steps of three calls each, none retried; p = q and u0 = v0,
    # so each call advances one row; 43 dgttrf calls
    assert dict(counts) == {"calls": 72, "rows": 72, "accepted": 24, "retries": 0,
                            "factors": 43}


def test_prints_one_row_per_unit_and_a_total(capsys):
    tool = load_step_counts()
    assert tool.main(["--workload", "dense_output"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "workload", "unit", "calls", "rows", "accepted", "retries", "factors"]
    assert [line.split()[1] for line in lines[1:]] == [
        "dichotomy_probe(p=2,q=3)", "mean_value_check", "subsolution_check(p=2,q=3)", "total"]
    # a change that moves the solver's work on this workload says so here
    assert lines[-1].split()[2:] == ["1,221", "2,115", "407", "0", "331"]
