"""Critical levels of a Henon-type quotient on the annulus 1 < |x| < 3.

The package computes, at desk scale, the variational landscape of

    R_{alpha,p}(u) = int |grad u|^2 / ( int ||x|-2|^alpha |u|^p )^{2/p}

on H^1_0 of the annulus: the radial level S_rad, the global level S, the
balanced-energy level T, and the mountain-pass level beta between the two
boundary instantons, together with the concentration diagnostics that
tell the four apart.

Module map: geometry (grids, fields, parameters), weight (the radial
coefficient and its cell moments), functional (energies, quotients,
gradients), profiles (instantons and cutoffs), minimize (the four
constrained descents), diagnostics (concentration and inequality
oracles), mountain_pass (the path-level optimizer), harness (sweeps,
fits, persistence), cli (command line).
"""

from .diagnostics import (
    BOUNDARY_RADII,
    ConcentrationReport,
    asymmetry_index,
    balance_f,
    concentration_report,
    hardy_margin,
    sobolev_constant,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DegenerateFieldError,
    HenonAnnulusError,
    NonConvergenceError,
)
from .functional import (
    RayleighReport,
    dirichlet_energy,
    functional_gradient,
    halfspace_energies,
    normalize,
    rayleigh,
    residual_pde,
    weighted_pnorm_p,
)
from .geometry import (
    AxiGrid,
    DiscreteField,
    ProblemParams,
    RadialGrid,
    build_axi_grid,
    build_radial_grid,
)
from .harness import (
    ResultRecord,
    SweepSpec,
    chain_check,
    fit_exponent,
    load_records,
    run_sweep,
    write_levels_csv,
    write_snapshot,
)
from .minimize import (
    SolveResult,
    solve_ground,
    solve_lambda,
    solve_radial,
    solve_sigma,
)
from .mountain_pass import (
    MpassResult,
    PathState,
    mountain_pass,
    path_crossing,
    straight_path,
)
from .profiles import (
    CutoffSpec,
    InstantonParams,
    instanton,
    phi_cutoff_decompose,
)
from .weight import weight_eval

__version__ = "0.1.0"

__all__ = [
    "AxiGrid",
    "BOUNDARY_RADII",
    "ConcentrationReport",
    "ConfigurationError",
    "ContractViolationError",
    "CutoffSpec",
    "DegenerateFieldError",
    "DiscreteField",
    "HenonAnnulusError",
    "InstantonParams",
    "MpassResult",
    "NonConvergenceError",
    "PathState",
    "ProblemParams",
    "RadialGrid",
    "RayleighReport",
    "ResultRecord",
    "SolveResult",
    "SweepSpec",
    "asymmetry_index",
    "balance_f",
    "build_axi_grid",
    "build_radial_grid",
    "chain_check",
    "concentration_report",
    "dirichlet_energy",
    "fit_exponent",
    "functional_gradient",
    "halfspace_energies",
    "hardy_margin",
    "instanton",
    "load_records",
    "mountain_pass",
    "normalize",
    "path_crossing",
    "phi_cutoff_decompose",
    "rayleigh",
    "residual_pde",
    "run_sweep",
    "sobolev_constant",
    "solve_ground",
    "solve_lambda",
    "solve_radial",
    "solve_sigma",
    "straight_path",
    "weight_eval",
    "weighted_pnorm_p",
    "write_levels_csv",
    "write_snapshot",
]
