"""The benchmark's workloads, declared as data, and the code that runs one pass.

A workload is a list of units. A unit is one CLI-like invocation of a recipe
at its documented defaults: either a single run (`absorblab run`) or a sweep
(`absorblab sweep`). Units are called through the public functions of
`absorblab.experiments`, looked up on the module at call time, so the traced
run can swap in its span-recording wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Unit:
    """One recipe invocation; `name` keys its runs in the reference file."""

    name: str
    recipe: str
    params: dict
    grid: dict | None = None  # sweep axes; None means one run_experiment call
    write_csv: bool = False  # trajectory and steps CSVs, as `absorblab run --out`
    write_records: bool = False  # record.csv, as every CLI invocation writes
    criterion: int | None = None  # acceptance criterion checked on its outcome


@dataclass(frozen=True)
class Workload:
    units: tuple[Unit, ...]
    shuffle: bool = False  # order of units drawn from the workload seed

    def ordered(self, seed: int) -> list[Unit]:
        units = list(self.units)
        if self.shuffle:
            random.Random(seed).shuffle(units)
        return units


P23 = {"p": 2.0, "q": 3.0}
P22 = {"p": 2.0, "q": 2.0}

WORKLOADS: dict[str, Workload] = {
    # The solver does >= 99 % of the work on the halve/double dt ladder:
    # output times are sparse, so nothing clips dt. A solver-core gain shows
    # here in full.
    "removability": Workload((
        Unit("removability_sweep(p=2,q=3)", "removability_sweep", P23),
    )),
    # Dense output times clip dt off the ladder, mean_value_check takes the
    # one-component heat path, and every run writes its trajectory and steps
    # CSVs: CSV and diagnostics costs are largest here, a coupled-only or
    # ladder-only solver gain is diluted.
    "dense_output": Workload((
        Unit("dichotomy_probe(p=2,q=3)", "dichotomy_probe", P23,
             write_csv=True, write_records=True),
        Unit("mean_value_check", "mean_value_check", {},
             write_csv=True, write_records=True, criterion=9),
        Unit("subsolution_check(p=2,q=3)", "subsolution_check", P23,
             write_csv=True, write_records=True, criterion=8),
    )),
    # Eleven small-grid runs through sweep + write_records, as a CLI session
    # makes them: per-run set-up and per-call overhead dominate. The
    # p=2, q=3, m=1e4 point ends in the known StepSizeUnderflow; it stays so
    # that the defect remains visible in ok_share.
    "lab_session": Workload((
        Unit("flat_validation(p=2,q=2)", "flat_validation", P22, grid={},
             write_records=True, criterion=2),
        Unit("convergence_order(p=2,q=2)", "convergence_order", P22, grid={},
             write_records=True, criterion=1),
        Unit("blowup_fit(p=2,q=2)", "blowup_fit", P22, grid={},
             write_records=True, criterion=5),
        Unit("blowup_fit(p=2,q=3)", "blowup_fit", P23, grid={},
             write_records=True, criterion=5),
        Unit("blowup_fit(p=3,q=2)", "blowup_fit", {"p": 3.0, "q": 2.0}, grid={},
             write_records=True, criterion=5),
        Unit("estimate_saturation(p=2,q=2)", "estimate_saturation", P22,
             grid={"m": [10.0, 100.0, 1000.0, 10000.0]},
             write_records=True, criterion=4),
        Unit("estimate_saturation(p=2,q=3,m=1e4)", "estimate_saturation",
             {**P23, "m": 1e4}, grid={}, write_records=True),
        Unit("trace_measurement(p=2,q=2)", "trace_measurement", P22, grid={},
             write_records=True),
    ), shuffle=True),
}


@dataclass
class UnitResult:
    unit: Unit
    records: list
    out_dir: Path | None = None


def run_pass(exp, units: list[Unit], seed: int, out_root: Path) -> list[UnitResult]:
    """Run every unit once; `exp` is the `absorblab.experiments` module.

    The workload seed is the ExperimentSpec seed: a run label that must not
    change any outcome.
    """
    results = []
    for index, unit in enumerate(units):
        out_dir = out_root / f"{index:02d}-{unit.recipe}"
        writes = unit.write_csv or unit.write_records
        spec = exp.ExperimentSpec(unit.recipe, dict(unit.params), seed=seed)
        csv_dir = out_dir if unit.write_csv else None
        if unit.grid is None:
            records = [exp.run_experiment(spec, out_dir=csv_dir)]
        else:
            records = exp.sweep(spec, unit.grid, out_dir=csv_dir)
        if unit.write_records:
            exp.write_records(records, out_dir)
        results.append(UnitResult(unit, records, out_dir if writes else None))
    return results
