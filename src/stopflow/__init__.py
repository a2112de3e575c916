"""Solvers for sequential product choice under costly learning.

A decision maker observes a noisy signal about an unknown binary product
value and pays for information until picking the safe product (worth mu)
or the risky one.  The package computes the value function and the free
boundaries of the exploration region three independent ways (finite
differences, smooth-fit closed forms, Monte Carlo) for the irreversible
problem and for two reversible second-stage regimes (Poisson or Gaussian
refined signal with a return fee).
"""

from .model import (
    ConstantCost,
    CostSpec,
    DerivedConstants,
    GaussianSignal,
    Irreversible,
    ModelParams,
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
    StdDevVarianceCost,
    TabulatedCost,
    VarianceCost,
    cost_eval,
    degenerate_value,
    derive_constants,
    exponent_k,
    gaussian_d_b,
    gaussian_d_b_alt,
    gaussian_q_b,
    poisson_l_tilde,
    poisson_q_b,
)
from .obstacles import (
    ObstacleFn,
    crossing_point,
    g_irreversible,
    obstacle_eval,
    vb_gaussian,
    vb_poisson,
)
from .fd_solver import (
    ConvergenceError,
    Grid,
    ViSolution,
    extract_boundaries,
    pde_residual,
    solve_vi,
)
from .closed_form import (
    SmoothFitError,
    SmoothFitSolution,
    basis_eval,
    coeffs_from_qlo,
    eval_closed_form,
    smooth_fit,
    smooth_fit_gaussian,
    smooth_fit_linear,
    smooth_fit_poisson,
)
from .simulate import (
    MCEstimate,
    SimConfig,
    mc_value_composed,
    mc_value_nested_gaussian,
    mc_value_nested_poisson,
    mc_value_outer,
    simulate_belief_path,
)
from .sensitivity import (
    Instance,
    LimitTable,
    MonotonicityReport,
    SweepResult,
    check_monotonicity,
    figure4_dataset,
    limit_diagnostics,
    sweep,
)

__version__ = "0.1.0"
