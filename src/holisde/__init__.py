"""Holistic discretizations of stochastic reaction-diffusion dynamics.

The toolkit covers the full pipeline from a cubic reaction-diffusion
equation driven by spatially correlated noise to macroscopic grid-value
SDE models: overlapping-element grids, the self-adjoint coupled operator
and its spectrum, projected element noise, stochastic-averaging
coefficients, the reference and coupled solvers, the discrete models, and
a Monte-Carlo harness for every convergence claim.
"""

from .grid import DomainGrid, ElementField, build_grid, inner_product, seminorm
from .noise import (
    QWienerSpec,
    fourier_basis,
    project_to_element_modes,
    sample_global_path,
)
from .spectral import (
    AnalyticEigenSystem,
    CoupledOperator,
    EigenSystem,
    GroundModeExpansion,
    assemble_operator,
    eig_gamma,
    eig_gamma0,
    expand_ground_mode,
)
from .averaging import (
    AveragedCoeffs,
    FastModeStats,
    averaged_coeffs,
    compute_qj,
    ou_stationary_stats,
)
from .dynamics import (
    CoupledElementSolver,
    FullSpdeSolver,
    NumericalAbort,
    SpdeConfig,
)
from .models import (
    DiscreteModel,
    ModelDrivers,
    build_drivers,
    reduced_slow_sde,
    simulate_models,
)
from .harness import (
    ConfigError,
    EnsembleStats,
    RunConfig,
    compare_models,
    convergence_study,
    fit_order,
    run_ensemble,
)

__version__ = "0.1.0"
