"""Saturation of the backward estimate: sup u(x,t) t^a is uniform in the data.

Runs with flat initial data of magnitude M = 10 .. 10^4 and monitors
sup u * t^a over the interior.  The monitor converges as M grows: no matter
how large the data, the solution at t = 0.1 is capped by (almost) the flat
solution.  That uniformity-in-M is the falsifiable desk-scale content of the
backward upper bound u <= C t^-a.
"""

from absorblab import ExperimentSpec, PowerPair, flat_constants, sweep


def main():
    base = ExperimentSpec("estimate_saturation", {"p": 2, "q": 2}, seed=0)
    records = sweep(base, {"m": [10.0, 100.0, 1000.0, 10000.0]})
    a_star = flat_constants(PowerPair(2, 2)).a_star

    print("        M     sup u * t^a    (flat amplitude A* = %.4f)" % a_star)
    for rec in records:
        print(f"  {rec.params['m']:9.0f}   {rec.outcome['monitor_u']:.6f}")
    monitors = [r.outcome["monitor_u"] for r in records]
    gap = abs(monitors[-1] - monitors[-2]) / monitors[-1]
    print(f"\ngap between the two largest-M monitors: {gap:.3%}")
    print("the monitor saturates toward t/(1/M + t) -> 1 * A* as M -> infinity")


if __name__ == "__main__":
    main()
