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
    GaussianSignal,
    Irreversible,
    ModelParams,
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
    StdDevVarianceCost,
    VarianceCost,
    cost_eval,
    degenerate_value,
    exponent_k,
)
from .obstacles import (
    ObstacleFn,
    crossing_point,
    obstacle_eval,
)
from .fd_solver import (
    ConvergenceError,
    Grid,
    ViSolution,
    solve_vi,
)
from .closed_form import (
    SmoothFitError,
    SmoothFitSolution,
    eval_closed_form,
    smooth_fit,
)
from .simulate import (
    MCEstimate,
    SimConfig,
    mc_value_composed,
    mc_value_nested_gaussian,
    mc_value_nested_poisson,
    mc_value_outer,
)
from .sensitivity import (
    Instance,
    LimitTable,
    SweepResult,
    check_monotonicity,
    figure4_dataset,
    limit_diagnostics,
    sweep,
)

__version__ = "0.1.0"
