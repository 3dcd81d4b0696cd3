"""`tools/work_precision.py` sets each bump recipe's time error beside its grid
error, and `removability_sweep`'s default `tol_step` keeps the rule it states.

The tool is loaded from its file as it stands, with `tools/` on the path for
its import of `golden_outputs`.
"""

import importlib
from pathlib import Path

import pytest

from absorblab.experiments import _RECIPES

TOOLS = Path(__file__).resolve().parent.parent / "tools"
COUNTED = ("accepted", "calls", "rows")


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("work_precision")


def test_rows_on_a_two_rung_ladder(tool):
    # mean_value_check's heat solve on 41 nodes, so the reference runs are cheap
    rows = tool.measure("mean_value_check", {"nodes": 41}, ladder=(1e-4, 1e-6))
    assert [tuple(row) for row in rows] == [tool.COLUMNS] * 2
    assert [row["tol_step"] for row in rows] == [1e-4, 1e-6]
    # one heat row per `_advance` call, three calls per accepted step
    assert [[row[c] for c in COUNTED] for row in rows] == [[66, 198, 198], [107, 321, 321]]
    coarse, tight = rows
    assert coarse["time_err"] > tight["time_err"] > 0
    assert coarse["grid_err"] == tight["grid_err"] > 0
    assert tight["ratio"] == tight["time_err"] / tight["grid_err"]
    again = tool.measure("mean_value_check", {"nodes": 41}, ladder=(1e-4, 1e-6))
    assert [[row[c] for c in COUNTED] for row in again] == [[row[c] for c in COUNTED]
                                                            for row in rows]


def test_rule_takes_the_largest_rung_below_the_grid_error_at_every_pair(tool):
    rows = [{"tol_step": tol, "ratio": ratio} for tol, ratio in
            ((1e-4, 3.1), (1e-5, 0.71), (1e-6, 0.2), (1e-4, 0.5), (1e-5, 0.1), (1e-6, 0.02))]
    assert tool.rule(rows, ladder=(1e-4, 1e-5, 1e-6)) == 1e-5
    assert tool.rule(rows[:1], ladder=(1e-4,)) is None


def test_removability_default_keeps_time_error_below_grid_error(tool):
    # (1.5, 1.5) binds the rule: its grid error is the smallest of the five pairs
    # the tool measures. Against a tol_step = 1e-7 run the time error reads 0.68 of the
    # grid error at the default 1e-5 and 3.1 at 1e-4. Measured cost: 1.8 s.
    assert _RECIPES["removability_sweep"].schema["tol_step"].default == 1e-5
    pair = {"p": 1.5, "q": 1.5}
    tight = tool.headline("removability_sweep", {**pair, "tol_step": 1e-7})
    fine = tool.headline("removability_sweep", {**pair, "tol_step": 1e-7, "nodes": 1601})
    grid_err = 4 / 3 * tool.largest_change(tight, fine)
    default = tool.headline("removability_sweep", pair)
    assert tool.largest_change(default, tight) < grid_err
    coarser = tool.headline("removability_sweep", {**pair, "tol_step": 1e-4})
    assert tool.largest_change(coarser, tight) > grid_err
