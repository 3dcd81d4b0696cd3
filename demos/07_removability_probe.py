"""Point-concentrated data: surviving mass as the concentration width shrinks.

Unit-mass bumps of width eps for both components approximate a Dirac at the
origin.  In the subcritical range (here p = q = 1.5 < 1 + 2/N) the mass at
t_probe converges to the positive mass of the genuine Dirac solution.  At
the removability border p = q = 3 = 1 + 2/N the limit is zero, but the
approach is logarithmic in eps: each halving of the width removes only a
constant sliver of mass, because diffusion dilutes the spike on the
timescale eps^2 and quenches the absorption.  The contrast between the two
regimes is real but gentle at desk scale; notes/decisions.md records the
measured masses.
"""

from absorblab import ExperimentSpec, run_experiment


def main():
    for pq, label in ((1.5, "subcritical"), (3.0, "removability border")):
        record = run_experiment(ExperimentSpec("removability_sweep", {"p": pq, "q": pq}))
        o = record.outcome
        print(f"p = q = {pq} ({label}):")
        print("     eps      mass at t = %.2f" % o["t_probe"])
        for eps, mass in zip(o["eps_list"], o["masses"]):
            print(f"  {eps:7.3f}     {mass:.6f}")
        print(f"  last/first ratio = {o['last_first_ratio']:.4f}, "
              f"last-two gap = {o['last_two_gap']:.4f}, verdict: {o['verdict']}\n")


if __name__ == "__main__":
    main()
