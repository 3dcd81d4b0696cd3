"""Print each bump recipe's time error next to its grid error over a tol_step ladder.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/work_precision.py [--recipe NAME ...]

Each bump recipe (all of RECIPES, or the ones named) runs at its defaults at
every (p, q) that a golden case of `tools/golden_outputs.py` runs it at
(which covers the acceptance criteria's pairs and perfbench's units), once
per `tol_step` of LADDER, and prints one row per run:

- accepted, calls, rows: accepted steps, `_advance` calls and the rows those
  calls advanced, as the run's record counts them (`RunRecord.solver`);
- cpu_s:     the run's process time, one run, so it is noisy;
- time_err:  the largest relative change of the recipe's headline outcome
             (HEADLINE) against the same run at tol_step = REFERENCE_TOL;
- grid_err:  4/3 of the largest relative change of the headline outcome from
             n to 2n - 1 nodes (h halved), both runs at REFERENCE_TOL: the
             error of the n-node grid, as every bump recipe converges at
             second order in h;
- ratio:     time_err / grid_err.

After each recipe's rows it prints the tol_step the rule of
`notes/decisions.md` picks, the largest rung of LADDER whose ratio is below 1
at every pair, next to the recipe's default. The reference runs take most of
the time: all four recipes take a few minutes, `removability_sweep` most.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from absorblab import experiments
from absorblab.experiments import ExperimentSpec, run_experiment
from golden_outputs import cases as golden_cases

LADDER = (1e-4, 1e-5, 1e-6, 1e-7)
REFERENCE_TOL = 1e-11
HEADLINE = {
    "removability_sweep": "masses",
    "trace_measurement": "trace_u",
    "mean_value_check": "ratios",
    "dichotomy_probe": "uq_integrals",
}
RECIPES = tuple(HEADLINE)
FORMATS = {"tol_step": ">9.2g", "accepted": ">9,", "calls": ">9,", "rows": ">9,",
           "cpu_s": ">9.3f", "time_err": ">9.1e", "grid_err": ">9.1e", "ratio": ">9.2g"}
COLUMNS = tuple(FORMATS)


def pairs(recipe: str) -> list[dict]:
    """The (p, q) parameters of every golden case that runs `recipe` at its defaults;
    [{}] for a recipe without a pair."""
    found = {tuple(float(params[k]) for k in ("p", "q") if k in params)
             for _, name, params in golden_cases()
             if name == recipe and set(params) <= {"p", "q"}}
    return [dict(zip(("p", "q"), pair)) for pair in sorted(found)]


def run(recipe: str, params: dict) -> tuple[np.ndarray, dict]:
    """The headline outcome of one run of `recipe`, and its record's solver counts."""
    record = run_experiment(ExperimentSpec(recipe, params))
    if record.failed:
        raise RuntimeError(f"{recipe} {params}: {record.error}")
    return np.array(record.outcome[HEADLINE[recipe]], dtype=float), record.solver


def headline(recipe: str, params: dict) -> np.ndarray:
    """The headline outcome of one run of `recipe`."""
    return run(recipe, params)[0]


def largest_change(values: np.ndarray, reference: np.ndarray) -> float:
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


def measure(recipe: str, params: dict, ladder=LADDER) -> list[dict]:
    """One row of COLUMNS per rung of `ladder`, for `recipe` at `params` and otherwise
    its defaults."""
    nodes = experiments._resolve(recipe, params)["nodes"]
    reference = headline(recipe, {**params, "tol_step": REFERENCE_TOL})
    fine = headline(recipe, {**params, "tol_step": REFERENCE_TOL, "nodes": 2 * nodes - 1})
    grid_err = 4 / 3 * largest_change(reference, fine)
    rows = []
    for tol in ladder:
        start = time.process_time()
        values, counts = run(recipe, {**params, "tol_step": tol})
        cpu_s = time.process_time() - start
        time_err = largest_change(values, reference)
        rows.append({"tol_step": tol, "accepted": counts["accepted"], "calls": counts["calls"],
                     "rows": counts["rows"], "cpu_s": cpu_s, "time_err": time_err,
                     "grid_err": grid_err, "ratio": time_err / grid_err})
    return rows


def rule(rows: list[dict], ladder=LADDER) -> float | None:
    """The largest rung of `ladder` at which every row's time error is below its grid
    error; None when no rung is."""
    fits = [tol for tol in ladder if all(r["ratio"] < 1 for r in rows if r["tol_step"] == tol)]
    return max(fits, default=None)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--recipe", nargs="*", choices=RECIPES)
    args = parser.parse_args(argv)
    print(f"{'recipe':<20}{'p':>5}{'q':>5}" + "".join(f"{c:>9}" for c in COLUMNS))
    for recipe in args.recipe or RECIPES:
        table = []
        for params in pairs(recipe):
            pair = "".join(f"{params[k]:>5g}" if k in params else f"{'-':>5}" for k in ("p", "q"))
            for row in measure(recipe, params):
                table.append(row)
                print(f"{recipe:<20}{pair}" + "".join(format(row[c], FORMATS[c]) for c in COLUMNS),
                      flush=True)
        pick = rule(table)
        default = experiments._RECIPES[recipe].schema["tol_step"].default
        picked = "no rung" if pick is None else f"tol_step = {pick:g}"
        print(f"{recipe}: the rule picks {picked}; the default is {default:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
