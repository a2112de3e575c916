"""Parameter sweeps, monotonicity checks, limit ladders, and the
reversible-vs-irreversible boundary dataset.

Sweeps, ladders and the figure4 fee rows share one row loop; each row is
an independent solve, and a failure is recorded in its row rather than
dropped, so a partially failing ladder still reports the rungs that worked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .closed_form import SmoothFitError, SmoothFitSolution, smooth_fit
from .fd_solver import ConvergenceError, Grid, solve_vi
from .model import (
    CostSpec,
    GaussianSignal,
    Irreversible,
    ModelParams,
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
)
from .obstacles import ObstacleFn, crossing_point


@dataclass(frozen=True)
class Instance:
    """A full problem instance: dynamics, information cost, second stage."""

    params: ModelParams
    cost: CostSpec
    refined: RefinedSignalSpec = Irreversible()
    grid: Grid = Grid()


@dataclass(frozen=True)
class SweepRow:
    """One solve of a sweep or figure4.

    value: the swept parameter's value.
    q_lo, q_hi, width: the free boundaries and width = q_hi - q_lo; nan
        when the row failed.
    method: "fd" or "closed_form".
    residual: that method's residual in value units, complementarity_gap
        (fd) or residual_sup (closed_form); nan when the row failed.
    failed, error: whether the solve raised, and its message.
    """

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
    """A parameter sweep: the swept parameter's name, one row per distinct
    value in increasing order, and the base instance the values replace a
    parameter of."""

    param_name: str
    rows: Tuple[SweepRow, ...]
    base: Instance

    @property
    def failed(self) -> Tuple[Tuple[float, str], ...]:
        """(value, error) of each row that failed to solve, in row order."""
        return tuple((row.value, row.error) for row in self.rows if row.failed)

    def boundary_uncertainty(self) -> float:
        """The largest error bound of the solved rows: the grid step dq, a
        boundary location error, for an FD row, and max(residual_sup,
        1e-9), a residual floor in value units rather than a location
        error, for a closed-form row."""
        u = 0.0
        for row in self.rows:
            if row.failed:
                continue
            if row.method == "fd":
                u = max(u, self.base.grid.dq)
            else:
                u = max(u, max(row.residual, 1e-9))
        return u


_SWEEPABLE = ("rho", "sigma", "c_i", "mu", "r", "lambda", "sigma_tilde", "h", "l")


def _check_applies(base: Instance, name: str) -> None:
    """Reject a base instance without parameter `name`: r needs a
    refined-signal regime, lambda a Poisson one and sigma_tilde a Gaussian
    one.  Sweeps, ladders and figure4 all ask here."""
    if name == "r" and isinstance(base.refined, Irreversible):
        raise ParameterError("r needs a refined-signal regime")
    if name == "lambda" and not isinstance(base.refined, PoissonSignal):
        raise ParameterError("lambda needs a Poisson regime")
    if name == "sigma_tilde" and not isinstance(base.refined, GaussianSignal):
        raise ParameterError("sigma_tilde needs a Gaussian regime")


def _apply_param(inst: Instance, name: str, value: float) -> Instance:
    # c_i is the one field of every cost class
    if name == "c_i":
        return replace(inst, cost=type(inst.cost)(value))
    if name in ("rho", "sigma", "mu", "h", "l"):
        return replace(inst, params=replace(inst.params, **{name: value}))
    field = "lam" if name == "lambda" else name
    return replace(inst, refined=replace(inst.refined, **{field: value}))


def _solve_row(inst: Instance, method: str) -> Tuple[float, float, float]:
    """(q_lo, q_hi, residual) for one instance with the chosen method."""
    ob = ObstacleFn.create(inst.params, inst.refined)
    if method == "closed_form":
        sol = smooth_fit(inst.cost, ob)
        return sol.q_lo, sol.q_hi, sol.residual_sup
    sol = solve_vi(inst.cost, ob, inst.grid)
    return sol.q_lo, sol.q_hi, sol.complementarity_gap


def _solve_rows(
    values: Sequence[float], instance_of: Callable[[float], Instance], method: str
) -> Tuple[SweepRow, ...]:
    """One row per value: instance_of(value) solved with `method`, or a
    failed row carrying the error that building or solving it raised."""
    rows = []
    for value in values:
        try:
            q_lo, q_hi, res = _solve_row(instance_of(value), method)
            rows.append(SweepRow(value, q_lo, q_hi, q_hi - q_lo, method, res))
        except (ParameterError, ConvergenceError, SmoothFitError) as exc:
            rows.append(
                SweepRow(value, math.nan, math.nan, math.nan, method,
                         math.nan, failed=True, error=str(exc))
            )
    return tuple(rows)


def sweep(
    base: Instance,
    param_name: str,
    values: Sequence[float],
    method: str = "closed_form",
) -> SweepResult:
    """Solve the instance once per distinct parameter value, in increasing
    order, boundaries per row, by `method`: "closed_form" or "fd"."""
    if param_name not in _SWEEPABLE:
        raise ParameterError(
            f"unknown sweep parameter {param_name!r}, want one of {_SWEEPABLE}"
        )
    if len(values) == 0:
        raise ParameterError("sweep needs at least one value")
    if method not in ("fd", "closed_form"):
        raise ParameterError(f"unknown method {method!r}, want 'fd' or 'closed_form'")
    _check_applies(base, param_name)

    rows = _solve_rows(
        sorted({float(v) for v in values}), partial(_apply_param, base, param_name), method
    )
    return SweepResult(param_name, rows, base)


# claim -> (param, directions of (q_lo, q_hi) as it grows in the irreversible
# regime, in a refined one).  prop_cost follows from the comparison principle:
# the obstacle does not depend on the cost and the value falls as it rises.
# The others are measured by central differences on random instances, and
# "any" marks a boundary they refute: in a refined regime the crossing point
# moves with rho, mu and l, and q_hi can move either way with it.
CLAIMS = {
    "prop_rho": ("rho", ("up", "down"), ("up", "any")),
    "prop_sigma": ("sigma", ("up", "down"), ("up", "down")),
    "prop_cost": ("c_i", ("up", "down"), ("up", "down")),
    "prop_mu": ("mu", ("up", "up"), ("up", "any")),
    "prop_cs": ("r", ("up", "up"), ("up", "up")),
    "prop_h_one_sided": ("h", ("down", "any"), ("down", "any")),
    "prop_l_one_sided": ("l", ("any", "down"), ("any", "any")),
}


def claim_directions(claim: str, param_name: str, refined: RefinedSignalSpec) -> Tuple[str, str]:
    """The directions of q_lo and q_hi that `claim` asserts as param_name
    grows in regime `refined`; rejects an unknown claim or one on another parameter."""
    if claim not in CLAIMS:
        raise ParameterError(f"unknown claim {claim!r}, want one of {sorted(CLAIMS)}")
    param, irreversible, refined_dirs = CLAIMS[claim]
    if param != param_name:
        raise ParameterError(
            f"claim {claim!r} checks parameter {param!r}, "
            f"but the sweep varied {param_name!r}"
        )
    return irreversible if isinstance(refined, Irreversible) else refined_dirs


def check_monotonicity(result: SweepResult, claim: str) -> Tuple[tuple, ...]:
    """The violations of a claimed boundary direction; the claim holds when
    there are none.  A sweep with a failed row violates every claim, and its
    violations are then its failed rows, (value, error).  Otherwise they are
    (value_a, value_b, "q_lo" or "q_hi") for each adjacent pair of rows
    where that boundary moved against `claim` in the base's regime by more
    than the slack.

    Slack is twice the producing method's boundary uncertainty: the claims
    are exact but the computed boundaries are not.
    """
    dir_lo, dir_hi = claim_directions(claim, result.param_name, result.base.refined)
    if result.failed:
        return result.failed
    rows = result.rows
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
    return tuple(violations)


@dataclass(frozen=True)
class LimitRow:
    """One rung of a limit ladder.

    scale: the ladder parameter's value at this rung.
    dist_lo, dist_hi: |q_lo - target_lo| and |q_hi - target_hi|; on the
        lambda ladder, |q_B - target_lo| and q_B itself.  nan when failed.
    failed, error: whether the solve raised, and its message.
    """

    scale: float
    dist_lo: float
    dist_hi: float
    failed: bool = False
    error: str = ""


@dataclass(frozen=True)
class LimitTable:
    """A limit ladder, from limit_diagnostics.

    which: the ladder, one of LIMITS.
    target_lo, target_hi: the limits the boundaries approach.
    rows: one per rung, in ladder order.
    decreasing_lo, decreasing_hi: the last three solved distances
        strictly decrease.
    passed: the ladder's verdict.  lambda: both endpoint distances are
        below 1e-5.  Otherwise: every rung solved, both distances decrease
        and the last ones are below 0.05.
    """

    which: str
    target_lo: float
    target_hi: float
    rows: Tuple[LimitRow, ...]
    decreasing_lo: bool
    decreasing_hi: bool
    passed: bool


LIMITS = ("rho", "sigma", "c_i", "l_to_mu", "h_to_inf", "lambda")


def limit_ladder(base: Instance, which: str) -> Tuple[str, List[float], float, float]:
    """(param, rungs, target_lo, target_hi) of ladder `which` on `base`: the
    parameter it varies, its values and the limits of the boundaries along
    it; rejects a base instance it cannot run.

    rho: both boundaries approach the kink p_hat (the crossing point of a
    refined obstacle tends to p_hat as rho grows).
    sigma, c_i: both approach the crossing point of the base obstacle.
    l_to_mu: both approach 0.  h_to_inf: q_lo -> 0, q_hi -> the cost's
    h_to_inf_q_hi: 1, but for a variance cost C = c q(1-q)(h-l)^2, q_hi ->
    1 - exp(-(mu - L)/(2 sigma^2 c)), with L the low end l, l_tilde or mu - r
    of the obstacle's line as h -> inf (the Gaussian d_b q^m (1-q)^(1-m)
    tends to (mu - l - r)(1-q)).
    Proof sketch: write V = L + (h - L) U on the region.  There a V'' =
    rho V + C with a = (1/2)((h - l)/sigma)^2 q^2 (1-q)^2 gives U'' =
    eps/(q(1-q)) + O(1/h^2) at fixed q, eps = 2 sigma^2 c/(h - L), against
    the obstacle U = q above the crossing point.  Value and slope matching at
    q_hi make U - q = eps KL(q || q_hi) = eps (q log(q/q_hi) + (1-q)
    log((1-q)/(1-q_hi))), which has U' = 0 at a q_lo -> 0, where U ->
    eps log(1/(1 - q_hi)).  Value matching there to (mu - L)/(h - L) gives
    2 sigma^2 c log(1/(1 - q_hi)) = mu - L.
    lambda: the nested threshold q_B approaches (mu-l-R)/(h-l) at 0 and 0
    at infinity.
    """
    p = base.params
    if which == "rho":
        return "rho", [p.rho * 4.0**i for i in range(5)], p.p_hat, p.p_hat
    if which in ("sigma", "c_i"):
        start = p.sigma if which == "sigma" else base.cost.c_i
        target = crossing_point(ObstacleFn.create(p, base.refined))
        return which, [start * 4.0**i for i in range(5)], target, target
    if which == "l_to_mu":
        gap0 = p.mu - p.l
        return "l", [p.mu - gap0 * 0.5 * 0.25**i for i in range(5)], 0.0, 0.0
    if which == "h_to_inf":  # the top rung is capped at 1e4 mu
        rungs = sorted({min(p.h * 10.0**i, 1e4 * p.mu) for i in range(5)})
        if len(rungs) < 3:  # the verdict reads the last three distances
            raise ParameterError(
                f"limit ladder h_to_inf: h = {p.h:g} leaves {len(rungs)} rungs up to "
                f"the cap 1e4 mu = {1e4 * p.mu:g}, and needs 3; h must be below 1e3 mu"
            )
        ob = ObstacleFn.create(p, base.refined)
        low = p.mu - base.refined.r if ob.k_tilde is not None else ob.low
        return "h", rungs, 0.0, base.cost.h_to_inf_q_hi(p, low)
    if which == "lambda":
        _check_applies(base, which)
        ObstacleFn.create(p, base.refined)  # rejects a fee outside (0, mu - l)
        target_lo = (p.mu - p.l - base.refined.r) / (p.h - p.l)
        return "lambda", [1e-6, 1e-3, 1.0, 1e3, 1e6], target_lo, 0.0
    raise ParameterError(f"unknown limit ladder {which!r}, want one of {LIMITS}")


def limit_diagnostics(base: Instance, which: str) -> LimitTable:
    """Boundary distances to the limits of ladder `which` (limit_ladder),
    one row per rung, each solved in closed form.  The lambda
    ladder reads q_B off the obstacle and monitors only its large-lambda
    distance for decay.
    """
    param, ladder, target_lo, target_hi = limit_ladder(base, which)
    p = base.params

    if which == "lambda":
        r = base.refined.r
        rows = []
        for lam in ladder:
            qb = ObstacleFn.create(p, PoissonSignal(lam, r)).q_b
            rows.append(LimitRow(lam, abs(qb - target_lo), qb))
        dec_hi = _eventually_decreasing([row.dist_hi for row in rows])
        passed = rows[0].dist_lo < 1e-5 and rows[-1].dist_hi < 1e-5
        return LimitTable(which, target_lo, target_hi, tuple(rows), True, dec_hi, passed)

    def instance_of(scale: float) -> Instance:
        inst = _apply_param(base, param, scale)
        if which == "l_to_mu" and not isinstance(base.refined, Irreversible):
            # keep the return fee inside (0, mu - l) on every rung
            r = base.refined.r * (p.mu - scale) / (p.mu - p.l)
            inst = _apply_param(inst, "r", r)
        return inst

    # a failed row's nan boundaries give nan distances
    rows = tuple(
        LimitRow(row.value, abs(row.q_lo - target_lo), abs(row.q_hi - target_hi),
                 row.failed, row.error)
        for row in _solve_rows(ladder, instance_of, "closed_form")
    )
    good = [row for row in rows if not row.failed]
    dec_lo = _eventually_decreasing([row.dist_lo for row in good])
    dec_hi = _eventually_decreasing([row.dist_hi for row in good])
    last = rows[-1]
    passed = (
        len(good) == len(rows) and dec_lo and dec_hi
        and last.dist_lo < 0.05 and last.dist_hi < 0.05
    )
    return LimitTable(which, target_lo, target_hi, rows, dec_lo, dec_hi, passed)


def _eventually_decreasing(xs: Sequence[float]) -> bool:
    """The last three entries are strictly decreasing."""
    if len(xs) < 3:
        return False
    a, b, c = xs[-3], xs[-2], xs[-1]
    return a > b > c


def figure4_dataset(base: Instance) -> Tuple[SweepResult, SmoothFitSolution]:
    """R-sweep of the reversible Gaussian boundaries of `base`, and the
    irreversible solution they approach as R -> mu - l (it does not depend
    on R).  The fee grid spans (0, mu - l): 1e-3, the multiples of 0.1
    below mu - l, and mu - l - 1e-3, each fee once; the fee of `base` is
    not read.  Rejects mu - l <= 2e-3, where that grid leaves (0, mu - l),
    and a base whose first fee row has no obstacle, before solving.
    """
    try:
        _check_applies(base, "sigma_tilde")
    except ParameterError as exc:
        raise ParameterError(f"figure4: {exc}") from None
    p = base.params
    top = p.mu - p.l
    if top <= 2e-3:
        raise ParameterError(f"figure4 needs mu - l > 0.002, got {top}")
    # arange can reach top, and a multiple of 0.1 can differ from the last
    # fee by rounding alone
    last = top - 1e-3
    tenths = [x for x in np.arange(0.1, top, 0.1) if x < top and not math.isclose(x, last)]
    r_values = [1e-3, *tenths, last]
    ObstacleFn.create(p, replace(base.refined, r=1e-3))  # rejects sigma_tilde > sigma

    reversible = sweep(base, "r", r_values, method="closed_form")
    return reversible, smooth_fit(base.cost, ObstacleFn.create(p, Irreversible()))
