"""Parameter sweeps, monotonicity checks, limit ladders, and the
reversible-vs-irreversible boundary dataset.

Each sweep row is an independent solve; failures are recorded in the row
rather than dropped so a partially failing ladder still reports the rungs
that worked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .closed_form import SmoothFitError, smooth_fit
from .fd_solver import ConvergenceError, Grid, solve_vi
from .model import (
    ConstantCost,
    CostSpec,
    GaussianSignal,
    Irreversible,
    ModelParams,
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
    poisson_q_b,
)
from .obstacles import ObstacleFn


@dataclass(frozen=True)
class Instance:
    """A full problem instance: dynamics, information cost, second stage."""

    params: ModelParams
    cost: CostSpec
    refined: RefinedSignalSpec = Irreversible()
    grid: Grid = Grid()


@dataclass(frozen=True)
class SweepRow:
    value: float
    q_lo: float
    q_hi: float
    width: float
    method: str
    residual: float
    failed: bool = False
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    param_name: str
    rows: Tuple[SweepRow, ...]
    base: Instance

    def boundary_uncertainty(self) -> float:
        """Worst-case boundary location error across rows."""
        u = 0.0
        for row in self.rows:
            if row.failed:
                continue
            if row.method == "fd":
                u = max(u, self.base.grid.dq)
            else:
                u = max(u, max(row.residual, 1e-9))
        return u


@dataclass(frozen=True)
class MonotonicityReport:
    claim: str
    direction_lo: str
    direction_hi: str
    violations: Tuple[Tuple[float, float, str], ...]
    passed: bool


_SWEEPABLE = ("rho", "sigma", "c_i", "mu", "r", "lambda", "sigma_tilde", "h", "l")


def _apply_param(inst: Instance, name: str, value: float) -> Instance:
    p, cost, ref = inst.params, inst.cost, inst.refined
    if name in ("rho", "sigma", "mu", "h", "l"):
        p = replace(p, **{name: value})
    elif name == "c_i":
        if not isinstance(cost, ConstantCost):
            raise ParameterError("c_i sweep needs a constant cost baseline")
        cost = ConstantCost(value)
    elif name == "r":
        if isinstance(ref, Irreversible):
            raise ParameterError("r sweep needs a refined-signal regime")
        ref = replace(ref, r=value)
    elif name == "lambda":
        if not isinstance(ref, PoissonSignal):
            raise ParameterError("lambda sweep needs a Poisson regime")
        ref = replace(ref, lam=value)
    elif name == "sigma_tilde":
        if not isinstance(ref, GaussianSignal):
            raise ParameterError("sigma_tilde sweep needs a Gaussian regime")
        ref = replace(ref, sigma_tilde=value)
    else:
        raise ParameterError(f"unknown sweep parameter {name!r}")
    return Instance(p, cost, ref, inst.grid)


def _solve_row(inst: Instance, method: str) -> Tuple[float, float, float]:
    """(q_lo, q_hi, residual) for one instance with the chosen method."""
    if method == "closed_form":
        if not isinstance(inst.cost, ConstantCost):
            raise ParameterError("closed_form method needs a constant cost")
        sol = smooth_fit(inst.params, inst.cost.c_i, inst.refined)
        return sol.q_lo, sol.q_hi, sol.residual_sup
    if method == "fd":
        ob = ObstacleFn.create(inst.params, inst.refined)
        sol = solve_vi(inst.params, inst.cost, ob, inst.grid)
        return sol.q_lo, sol.q_hi, sol.complementarity_gap
    raise ParameterError(f"unknown method {method!r}, want 'fd' or 'closed_form'")


def sweep(
    base: Instance,
    param_name: str,
    values: Sequence[float],
    method: str = "closed_form",
) -> SweepResult:
    """Solve the instance once per parameter value, boundaries per row."""
    if param_name not in _SWEEPABLE:
        raise ParameterError(
            f"unknown sweep parameter {param_name!r}, want one of {_SWEEPABLE}"
        )
    if len(values) == 0:
        raise ParameterError("sweep needs at least one value")
    if method not in ("fd", "closed_form"):
        raise ParameterError(f"unknown method {method!r}, want 'fd' or 'closed_form'")

    rows = []
    for value in sorted(float(v) for v in values):
        try:
            inst = _apply_param(base, param_name, value)
            q_lo, q_hi, res = _solve_row(inst, method)
            rows.append(SweepRow(value, q_lo, q_hi, q_hi - q_lo, method, res))
        except (ParameterError, ConvergenceError, SmoothFitError) as exc:
            rows.append(
                SweepRow(value, math.nan, math.nan, math.nan, method,
                         math.nan, failed=True, error=str(exc))
            )
    return SweepResult(param_name, tuple(rows), base)


# claim -> (param, expected direction of q_lo, of q_hi) as the parameter grows.
# The cost direction follows the comparison principle (a larger cost lowers
# the value, shrinking the exploration region), matching the large-cost limit.
_CLAIMS = {
    "prop_rho": ("rho", "up", "down"),
    "prop_sigma": ("sigma", "up", "down"),
    "prop_cost": ("c_i", "up", "down"),
    "prop_mu": ("mu", "up", "up"),
    "prop_cs": ("r", "up", "up"),
    "prop_h_one_sided": ("h", "down", "any"),
    "prop_l_one_sided": ("l", "any", "down"),
}


def check_monotonicity(result: SweepResult, claim: str) -> MonotonicityReport:
    """Compare adjacent sweep rows against a claimed boundary direction.

    Slack is twice the producing method's boundary uncertainty: the claims
    are exact but the computed boundaries are not.
    """
    if claim not in _CLAIMS:
        raise ParameterError(f"unknown claim {claim!r}, want one of {sorted(_CLAIMS)}")
    param, dir_lo, dir_hi = _CLAIMS[claim]
    if param != result.param_name:
        raise ParameterError(
            f"claim {claim!r} checks parameter {param!r}, "
            f"but the sweep varied {result.param_name!r}"
        )
    rows = [r for r in result.rows if not r.failed]
    if len(rows) < 2:
        raise ParameterError("monotonicity check needs at least two solved rows")
    if any(b.value <= a.value for a, b in zip(rows, rows[1:])):
        raise ParameterError("sweep rows must be sorted by strictly increasing value")

    slack = 2.0 * result.boundary_uncertainty()
    violations = []
    for a, b in zip(rows, rows[1:]):
        for name, direction, xa, xb in (
            ("q_lo", dir_lo, a.q_lo, b.q_lo),
            ("q_hi", dir_hi, a.q_hi, b.q_hi),
        ):
            if direction == "any":
                continue
            delta = xb - xa
            bad = delta < -slack if direction == "up" else delta > slack
            if bad:
                violations.append((a.value, b.value, name))
    return MonotonicityReport(
        claim=claim, direction_lo=dir_lo, direction_hi=dir_hi,
        violations=tuple(violations), passed=not violations,
    )


@dataclass(frozen=True)
class LimitRow:
    scale: float
    dist_lo: float
    dist_hi: float
    failed: bool = False
    error: str = ""


@dataclass(frozen=True)
class LimitTable:
    which: str
    target_lo: float
    target_hi: float
    rows: Tuple[LimitRow, ...]
    decreasing_lo: bool
    decreasing_hi: bool


_LIMITS = ("rho", "sigma", "c_i", "l_to_mu", "h_to_inf", "lambda")


def _limit_ladder(base: Instance, which: str) -> List[float]:
    p = base.params
    if which == "rho":
        return [p.rho * 4.0**i for i in range(5)]
    if which == "sigma":
        return [p.sigma * 4.0**i for i in range(5)]
    if which == "c_i":
        if not isinstance(base.cost, ConstantCost):
            raise ParameterError("c_i ladder needs a constant cost baseline")
        return [base.cost.c_i * 4.0**i for i in range(5)]
    if which == "l_to_mu":
        gap0 = p.mu - p.l
        return [p.mu - gap0 * 0.5 * 0.25**i for i in range(5)]
    if which == "h_to_inf":
        # cap the ladder: k -> 1 as h grows and the basis exponents blow up
        top = 1e4 * p.mu
        ladder = [p.h * 10.0**i for i in range(5)]
        return sorted({min(x, top) for x in ladder})
    if which == "lambda":
        return [1e-6, 1e-3, 1.0, 1e3, 1e6]
    raise ParameterError(f"unknown limit ladder {which!r}, want one of {_LIMITS}")


def limit_diagnostics(base: Instance, which: str) -> LimitTable:
    """Boundary distances to the proven limit along a geometric ladder.

    rho, sigma, c_i: both boundaries approach the obstacle kink p_hat.
    l_to_mu: both approach 0.  h_to_inf: q_lo -> 0, q_hi -> 1.
    lambda: the nested-threshold q_B approaches (mu-l-R)/(h-l) at 0 and
    0 at infinity; only the large-lambda distance is monitored for decay.
    """
    ladder = _limit_ladder(base, which)
    p = base.params

    if which == "lambda":
        if not isinstance(base.refined, PoissonSignal):
            raise ParameterError("lambda ladder needs a Poisson regime")
        r = base.refined.r
        target_lo = (p.mu - p.l - r) / (p.h - p.l)
        rows = []
        for lam in ladder:
            qb = poisson_q_b(p, lam, r)
            rows.append(LimitRow(lam, abs(qb - target_lo), qb))
        dec_hi = _eventually_decreasing([row.dist_hi for row in rows])
        return LimitTable(which, target_lo, 0.0, tuple(rows), True, dec_hi)

    if which == "rho":
        param, target_lo, target_hi = "rho", p.p_hat, p.p_hat
    elif which == "sigma":
        param, target_lo, target_hi = "sigma", p.p_hat, p.p_hat
    elif which == "c_i":
        param, target_lo, target_hi = "c_i", p.p_hat, p.p_hat
    elif which == "l_to_mu":
        param, target_lo, target_hi = "l", 0.0, 0.0
    else:
        param, target_lo, target_hi = "h", 0.0, 1.0

    rows = []
    for scale in ladder:
        try:
            inst = _apply_param(base, param, scale)
        except ParameterError as exc:
            rows.append(LimitRow(scale, math.nan, math.nan, True, str(exc)))
            continue
        q_lo = q_hi = None
        # closed form first; extreme rungs (k near 1 or huge) can defeat
        # the root finder, where the grid solver still resolves boundaries
        for method in ("closed_form", "fd"):
            try:
                q_lo, q_hi, _ = _solve_row(inst, method)
                break
            except (ParameterError, ConvergenceError, SmoothFitError) as exc:
                err = str(exc)
        if q_lo is None:
            rows.append(LimitRow(scale, math.nan, math.nan, True, err))
        else:
            rows.append(
                LimitRow(scale, abs(q_lo - target_lo), abs(q_hi - target_hi))
            )
    good = [row for row in rows if not row.failed]
    dec_lo = _eventually_decreasing([row.dist_lo for row in good])
    dec_hi = _eventually_decreasing([row.dist_hi for row in good])
    return LimitTable(which, target_lo, target_hi, tuple(rows), dec_lo, dec_hi)


def _eventually_decreasing(xs: Sequence[float]) -> bool:
    """The last three entries are strictly decreasing."""
    if len(xs) < 3:
        return False
    a, b, c = xs[-3], xs[-2], xs[-1]
    return a > b > c


def figure4_dataset(
    base: Optional[Instance] = None,
    r_values: Optional[Sequence[float]] = None,
) -> Tuple[SweepResult, SweepResult]:
    """R-sweep of the reversible Gaussian boundaries plus the irreversible
    reference pair (which is R-independent, so a single repeated row).

    Defaults to the benchmark parameters rho=1, l=1, h=9, mu=5, c_i=1,
    sigma=5, sigma_tilde=1 and a dense R grid spanning (0, mu - l).
    """
    if base is None:
        base = Instance(
            params=ModelParams(rho=1.0, sigma=5.0, h=9.0, l=1.0, mu=5.0),
            cost=ConstantCost(1.0),
            refined=GaussianSignal(sigma_tilde=1.0, r=1.0),
        )
    if not isinstance(base.refined, GaussianSignal):
        raise ParameterError("figure4_dataset needs a Gaussian regime")
    p = base.params
    if r_values is None:
        top = p.mu - p.l
        r_values = [1e-3] + list(np.arange(0.1, top, 0.1)) + [top - 1e-3]

    reversible = sweep(base, "r", r_values, method="closed_form")

    irr = smooth_fit(p, _const_ci(base.cost), Irreversible())
    star_rows = tuple(
        SweepRow(row.value, irr.q_lo, irr.q_hi, irr.q_hi - irr.q_lo,
                 "closed_form", irr.residual_sup)
        for row in reversible.rows
    )
    reference = SweepResult(
        "r", star_rows, Instance(p, base.cost, Irreversible(), base.grid)
    )
    return reversible, reference


def _const_ci(cost: CostSpec) -> float:
    if not isinstance(cost, ConstantCost):
        raise ParameterError("figure4_dataset needs a constant cost")
    return cost.c_i
