"""Track the exact flat solution with the IMEX solver.

Starting from (A* t0^-a, B* t0^-b) under zero-flux walls, the numerical
trajectory should stay on the closed form all the way to t = 1.  For
p = q = 2 the absorption update reproduces the flat dynamics exactly, so the
error below is pure roundoff.
"""

import numpy as np

from absorblab import (
    BoundaryCondition,
    DomainKind,
    Field,
    PowerPair,
    SolverConfig,
    SpatialDomain,
    build_grid,
    eval_flat,
    solve,
)


def main():
    pair = PowerPair(2, 2)
    grid = build_grid(SpatialDomain(DomainKind.INTERVAL, 1.0, 1), 401)
    t0 = 0.1
    u0, v0 = eval_flat(pair, t0)
    ic_u = Field(grid, np.full(grid.nodes, u0))
    ic_v = Field(grid, np.full(grid.nodes, v0))
    config = SolverConfig(bc=BoundaryCondition.NEUMANN_ZERO, t_start=t0, dt_init=1e-4)
    times = np.geomspace(0.102, 1.0, 10)
    traj = solve(ic_u, ic_v, pair, config, times)

    print("      t      u_numeric     u_exact      rel_error")
    for t, (u, _) in zip(traj.times, traj.values):
        exact = eval_flat(pair, t)[0]
        err = abs(u.max() - exact) / exact
        print(f"  {t:8.4f}  {u.max():.8f}  {exact:.8f}  {err:.2e}")
    print(f"\naccepted steps: {len(traj.steps)}, "
          f"largest dt: {max(r.dt for r in traj.steps):.3g}")


if __name__ == "__main__":
    main()
