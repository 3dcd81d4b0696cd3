"""Tour of the closed-form layer: exponents, amplitudes, and classifiers.

Everything printed here is exact algebra, no discretization involved.
"""

import math

from absorblab import (
    PowerPair,
    classify_regime,
    elliptic_constants,
    eval_flat,
    flat_constants,
    wellposedness,
)


def main():
    print("=== scaling exponents a = (p+1)/(pq-1), b = (q+1)/(pq-1) ===")
    for p, q in ((2, 2), (2, 3), (0.5, 3), (0.5, 0.5)):
        pair = PowerPair(p, q)
        print(f"  (p, q) = ({p}, {q}) -> a = {pair.a:+.4f}, b = {pair.b:+.4f}"
              f"  [{'superlinear' if pair.superlinear else 'sublinear'}]")

    print("\n=== flat decaying solution (A* t^-a, B* t^-b) ===")
    for p, q in ((2, 2), (2, 3)):
        pair = PowerPair(p, q)
        c = flat_constants(pair)
        u1, v1 = eval_flat(pair, 1.0)
        print(f"  (p, q) = ({p}, {q}): A* = {c.a_star:.6f}, B* = {c.b_star:.6f}; "
              f"value at t=1: ({u1:.6f}, {v1:.6f})")
    print("  p = q = Q reduces to the scalar decay profile ((Q-1)t)^(-1/(Q-1)), at t = 0.5:")
    for big_q in (1.5, 2.0, 3.0):
        u, _ = eval_flat(PowerPair(big_q, big_q), 0.5)
        profile = ((big_q - 1.0) * 0.5) ** (-1.0 / (big_q - 1.0))
        print(f"    Q = {big_q}: u = {u:.8f} vs profile = {profile:.8f}")

    print("\n=== singular steady radial profiles (A|x|^-2a, B|x|^-2b) ===")
    for p, q, n in ((2, 2, 1), (2, 2, 3), (2, 3, 1)):
        pair = PowerPair(p, q)
        e = elliptic_constants(pair, n)
        check = e.a_sub * 2 * pair.a * (2 * pair.a + 2 - n) - e.b_sub**pair.p
        print(f"  (p, q, N) = ({p}, {q}, {n}): A = {e.a_sub:.4f}, B = {e.b_sub:.4f}; "
              f"re-substitution residual {check:.2e}")

    print("\n=== regime flags in dimension N ===")
    for p, q, n in ((2, 2, 1), (3, 3, 1), (0.5, 0.5, 2), (2, 2, 3)):
        r = classify_regime(PowerPair(p, q), n)
        flags = [name for name in ("superlinear", "sublinear", "measure_subcritical",
                                   "removable_supercritical", "elliptic_singular_exists")
                 if getattr(r, name)]
        print(f"  (p, q, N) = ({p}, {q}, {n}): {', '.join(flags)}")

    print("\n=== existence/uniqueness for L^theta x L^lam data ===")
    for theta, lam, n in ((1.0, 1.0, 1), (1.0, 1.0, 3), (math.inf, math.inf, 3)):
        v = wellposedness(PowerPair(2, 2), n, theta, lam)
        print(f"  p=q=2, N={n}, theta={theta}, lam={lam}: "
              f"existence={v.existence}, uniqueness={v.uniqueness}")


if __name__ == "__main__":
    main()
