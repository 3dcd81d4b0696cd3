"""Numerical laboratory for the coupled diffusion-absorption system

    u_t - Lap(u) + v**p = 0,
    v_t - Lap(v) + u**q = 0,

on an interval or a radial ball, with the closed forms, diagnostics, and
experiment recipes needed to probe decay rates near t = 0, initial-trace
trends, and the collapse of point-concentrated data.
"""

from .closed_forms import (
    EllipticSolutionConstants,
    FlatSolutionConstants,
    PowerPair,
    RegimeReport,
    WellposednessVerdict,
    classify_regime,
    derive_exponents,
    elliptic_constants,
    eval_elliptic,
    eval_flat,
    flat_constants,
    scalar_profile,
    wellposedness,
)
from .diagnostics import (
    DichotomyVerdict,
    FitResult,
    check_f_subsolution,
    check_upper_estimate,
    cylinder_integral,
    dichotomy_classify,
    fit_power_law,
    mass_in_region,
    mean_value_check,
    subsolution_constants,
    trace_functional,
)
from .discretization import (
    BoundaryCondition,
    DomainKind,
    Field,
    Grid,
    LaplacianBands,
    SpatialDomain,
    build_grid,
    bump_function,
    integrate_field,
    laplacian_apply,
    trapezoid_weights,
    unit_sphere_area,
)
from .evolution import (
    NumericsError,
    SolverConfig,
    StepSizeUnderflow,
    Trajectory,
    heat_solve,
    residual_of,
    scalar_solve,
    solve,
    steps_to_csv,
    trajectory_to_csv,
)
from .experiments import (
    VERSION,
    ConfigError,
    ExperimentSpec,
    RunRecord,
    parse_config,
    run_experiment,
    sweep,
    write_records,
)

__version__ = VERSION
