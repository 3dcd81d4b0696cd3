"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or read the captured
output).  Every criterion but 3, which has no recipe, runs the shipped
recipes through `run_experiment`.  Budgets stay at desk scale: grids <= 2048 nodes, each item well
under two minutes.

Known red: the supercritical half of criterion 7.  At p = q = 3, N = 1 the
exponents sit exactly on the removability border 1 + 2/N, where the collapse
of unit-mass width-eps data is logarithmic in eps; the pinned eps ladder
cannot reach a last/first mass ratio below 0.2.  See notes/decisions.md at
the repository root for the measured evidence; the criterion is asserted as
stated rather than weakened.  Away from the border the contrast shows: at
N = 3, where the border is 5/3, p = q = 3 collapses and p = q = 1.5
converges (`test_07_removability_contrast_radial`, library-only, since no
recipe runs a radial grid).  At the border itself the mass decays like
1/sqrt(log s) with s = t/eps^2 (`test_07a_border_decay_law`), which puts a
passing eps near 1e-72.
"""

import math

import numpy as np
import pytest

from absorblab import (
    BoundaryCondition,
    DomainKind,
    ExperimentSpec,
    Field,
    PowerPair,
    SolverConfig,
    SpatialDomain,
    build_grid,
    bump_function,
    classify_regime,
    eval_flat,
    integrate_field,
    run_experiment,
    solve,
    sweep,
    write_records,
)

NEU = BoundaryCondition.NEUMANN_ZERO


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")
    assert ok, f"acceptance {criterion}: {detail}"


def interval_grid(nodes, extent=1.0):
    return build_grid(SpatialDomain(DomainKind.INTERVAL, extent, 1), nodes)


def test_01_exact_solution_resubstitution_orders():
    record = run_experiment(ExperimentSpec("convergence_order", {"p": 2, "q": 2}))
    assert not record.failed, record.error
    temporal, spatial = record.outcome["temporal_order"], record.outcome["spatial_order"]
    ok = abs(temporal - 2.0) <= 0.2 and abs(spatial - 2.0) <= 0.2
    report(1, ok, f"temporal order {temporal:.3f}, spatial order {spatial:.3f} (target 2.0 +/- 0.2)")


def test_02_flat_tracking():
    record = run_experiment(ExperimentSpec("flat_validation", {"p": 2, "q": 2}))
    assert not record.failed, record.error
    worst = max(record.outcome["max_rel_err_u"], record.outcome["max_rel_err_v"])
    ok = worst < 1e-4
    report(2, ok, f"max relative tracking error {worst:.2e} (< 1e-4)")


def test_03_scalar_bound():
    grid = interval_grid(101)
    ic = Field(grid, np.full(101, 1e4))
    config = SolverConfig(bc=NEU, t_start=0.0, dt_init=1e-6)
    traj = solve(ic, ic, PowerPair(2.0, 2.0), config, [0.1])
    value = float(traj.values[-1, 0].max())
    bound = eval_flat(PowerPair(2.0, 2.0), 0.1)[0]
    ok = value <= bound and value >= 0.95 * bound
    report(3, ok, f"U(0.1) = {value:.6f}, bound {bound:.1f}, within 5%")


def test_04_backward_estimate_saturation():
    base = ExperimentSpec("estimate_saturation", {"p": 2, "q": 2}, seed=0)
    records = sweep(base, {"m": [10.0, 100.0, 1000.0, 10000.0]})
    monitors = [r.outcome["monitor_u"] for r in records]
    a_star = records[0].outcome["a_star"]
    gap = abs(monitors[-1] - monitors[-2]) / monitors[-1]
    ok = gap < 0.01 and all(m <= 5.0 * a_star for m in monitors)
    report(4, ok, f"monitors {[f'{m:.4f}' for m in monitors]}, last gap {gap:.4%} (< 1%), cap 5A*={5*a_star}")


def test_05_blowup_exponent_recovery():
    worst = 0.0
    details = []
    for p, q in ((2, 2), (2, 3), (3, 2)):
        record = run_experiment(ExperimentSpec("blowup_fit", {"p": p, "q": q}))
        assert not record.failed, record.error
        worst = max(worst, record.outcome["rel_err_u"], record.outcome["rel_err_v"])
        details.append(f"({p},{q}): {record.outcome['exponent_u']:.4f}/{record.outcome['exponent_v']:.4f}")
    ok = worst <= 0.02
    report(5, ok, f"fitted exponents {'; '.join(details)}, worst error {worst:.3%} (<= 2%)")


def test_06_trace_dichotomy():
    smooth = run_experiment(
        ExperimentSpec("dichotomy_probe", {"p": 3, "q": 3, "ic_width": 0.4})
    )
    spike = run_experiment(
        ExperimentSpec("dichotomy_probe", {"p": 3, "q": 3, "ic_width": 0.025})
    )
    assert not smooth.failed and not spike.failed
    ok = smooth.outcome["verdict"] == "regular" and spike.outcome["verdict"] != "regular"
    report(6, ok, f"bounded ic -> {smooth.outcome['verdict']}, eps=0.025 spike -> {spike.outcome['verdict']}")


def test_07_removability_contrast():
    supercritical = run_experiment(ExperimentSpec("removability_sweep", {"p": 3, "q": 3}))
    subcritical = run_experiment(ExperimentSpec("removability_sweep", {"p": 1.5, "q": 1.5}))
    assert not supercritical.failed and not subcritical.failed
    ratio = supercritical.outcome["last_first_ratio"]
    gap = subcritical.outcome["last_two_gap"]
    collapse_ok = ratio < 0.2
    persist_ok = gap <= 0.10
    print(f"[{'PASS' if collapse_ok else 'FAIL'}] acceptance 7a: p=q=3 mass last/first "
          f"{ratio:.3f} (< 0.2 required); masses {supercritical.outcome['masses']}")
    print(f"[{'PASS' if persist_ok else 'FAIL'}] acceptance 7b: p=q=1.5 last-two gap "
          f"{gap:.4f} (<= 0.10); masses {subcritical.outcome['masses']}")
    assert persist_ok, "subcritical persistence failed"
    assert collapse_ok, (
        "supercritical collapse not visible at desk scale: p=q=3 sits exactly on the "
        "removability border 1+2/N where the collapse is logarithmic in eps "
        "(see notes/decisions.md)"
    )


def test_07a_border_decay_law():
    # at the border p = q = 1 + 2/N the mass M decays like 1/sqrt(log s), s = t/eps^2:
    # a Gaussian profile in M' = -int U^3 gives d(M^-2)/d(log s) = 1/(2 sqrt(3) pi),
    # so each halving of eps (log s grows by 2 ln 2) adds 2 ln 2 / (2 sqrt(3) pi) to M^-2
    record = run_experiment(ExperimentSpec("removability_sweep", {"p": 3, "q": 3}))
    assert not record.failed, record.error
    eps = record.outcome["eps_list"]
    assert all(wide == 2 * narrow for wide, narrow in zip(eps, eps[1:]))
    inverse_squares = [m**-2 for m in record.outcome["masses"]]
    increments = [b - a for a, b in zip(inverse_squares, inverse_squares[1:])]
    law = 2 * math.log(2) / (2 * math.sqrt(3) * math.pi)
    ok = all(0.9 * law <= d <= 1.1 * law for d in increments)
    report("7a (border law)", ok, f"M^-2 increments {[f'{d:.4f}' for d in increments]} "
                                  f"within 10 % of {law:.4f}")


@pytest.mark.parametrize("p, removable", [(3.0, True), (1.5, False)])
def test_07_removability_contrast_radial(p, removable):
    # removability_sweep's ladder and verdict thresholds, on the ball in N = 3;
    # 201 nodes give the verdicts of 401 in 3.7 s instead of 5.2 s (notes/decisions.md)
    grid = build_grid(SpatialDomain(DomainKind.RADIAL_BALL, 1.0, 3), 201)
    config = SolverConfig(bc=NEU, t_start=0.0, dt_init=1e-6)
    pair = PowerPair(p, p)
    masses = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        ic = bump_function(grid, 0.0, eps)
        traj = solve(ic, ic, pair, config, [0.0125, 0.025, 0.05])
        masses.append(integrate_field(Field(grid, traj.values[-1, 0])))
    ratio = masses[-1] / masses[0]
    gap = abs(masses[-1] - masses[-2]) / masses[-2]
    # collapsing when removable, converging when not, as classify_regime predicts
    ok = (classify_regime(pair, 3).removable_supercritical == removable
          and (ratio < 0.2, gap <= 0.1) == (removable, not removable))
    report(f"7 (N = 3, p = q = {p})", ok,
           f"masses {[f'{m:.4f}' for m in masses]}, last/first {ratio:.3f} (< 0.2 iff "
           f"removable), last-two gap {gap:.4f} (<= 0.1 iff not), removable {removable}")


def test_08_f_subsolution_bound():
    violations = []
    for nodes in (101, 201):
        record = run_experiment(
            ExperimentSpec("subsolution_check", {"p": 2, "q": 3, "nodes": nodes})
        )
        assert not record.failed, record.error
        violations.append(record.outcome["max_violation"])
        bound = record.outcome["k_pow_q"]
    ok = all(v <= 1e-3 * bound for v in violations) and violations[1] <= violations[0]
    report(8, ok, f"violations {violations} vs 1e-3 k^q = {1e-3 * bound:.3e}, non-increasing under refinement")


def test_09_mean_value_inequality():
    record = run_experiment(ExperimentSpec("mean_value_check", {}))
    assert not record.failed, record.error
    ok = record.outcome["monotone_ok"] and record.outcome["bounded_ok"]
    report(9, ok, f"ratios {[f'{r:.4f}' for r in record.outcome['ratios']]} monotone, "
                  f"weighted bounded by coarsest constant {record.outcome['bound_constant']:.4f}")


def test_10_determinism(tmp_path):
    base = ExperimentSpec(
        "estimate_saturation", {"p": 2, "q": 2, "nodes": 51, "n_snapshots": 4}, seed=7
    )
    grid = {"m": [10.0, 10000.0]}
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        records = sweep(base, grid, out_dir=out)
        write_records(records, out, fmt="csv")
        outputs.append(out)

    def masked_record(path):
        lines = path.read_text().strip().splitlines()
        idx = lines[0].split(",").index("wall_time_s")
        return ["," .join(c for i, c in enumerate(line.split(",")) if i != idx)
                for line in lines]

    same_records = masked_record(outputs[0] / "record.csv") == masked_record(outputs[1] / "record.csv")
    same_files = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in (
            "trajectory_estimate_saturation-s0007-g000.csv",
            "steps_estimate_saturation-s0007-g000.csv",
            "trajectory_estimate_saturation-s0007-g001.csv",
            "steps_estimate_saturation-s0007-g001.csv",
        )
    )
    ok = same_records and same_files
    report(10, ok, "sweep rerun byte-identical apart from wall-time fields")
