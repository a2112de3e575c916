"""Semi-explicit constant-cost solutions via the smooth-fit system.

The homogeneous ODE  rho V - a(q) V'' = 0  has the basis
    v1(q) = q^{(1-k)/2} (1-q)^{(1+k)/2},
    v2(q) = q^{(1+k)/2} (1-q)^{(1-k)/2},
and the particular solution -C_I/rho.  Matching value and slope at the
lower boundary gives explicit coefficients d1(q_lo), d2(q_lo); the upper
boundary then yields a 2-equation system in (q_lo, q_hi) which we solve by
damped Newton with a numerical Jacobian, seeded from a coarse
finite-difference solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .model import (
    GaussianSignal,
    Irreversible,
    ModelParams,
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
    _power,
    exponent_k,
    poisson_l_tilde,
)
from .obstacles import (
    ObstacleFn,
    crossing_point,
    obstacle_eval,
    vb_gaussian,
    vb_gaussian_slope,
)


@dataclass(frozen=True)
class SmoothFitSolution:
    q_lo: float
    q_hi: float
    d1: float
    d2: float
    residual_sup: float
    regime: RefinedSignalSpec
    c_i: float


class SmoothFitError(RuntimeError):
    def __init__(self, msg: str, history):
        super().__init__(msg)
        self.residual_history = history


def basis_eval(k: float, q: float) -> Tuple[float, float, float, float]:
    """(v1, v2, v1', v2') at q in (0, 1).

    Derivatives use the factorized forms v1' = q^{m-1}(1-q)^{-m}(m - q)
    and v2' = (1-q)^{m-1} q^{-m} (1 - m - q), with m = (1-k)/2.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"basis defined on (0, 1), got q={q}")
    m = 0.5 * (1.0 - k)
    v1 = _power(q, m) * _power(1.0 - q, 1.0 - m)
    v2 = _power(q, 1.0 - m) * _power(1.0 - q, m)
    dv1 = _power(q, m - 1.0) * _power(1.0 - q, -m) * (m - q)
    dv2 = _power(1.0 - q, m - 1.0) * _power(q, -m) * (1.0 - m - q)
    return v1, v2, dv1, dv2


def coeffs_from_qlo(
    params: ModelParams, c_i: float, q_lo: float
) -> Tuple[float, float]:
    """Coefficients that enforce value match (= mu) and zero slope at q_lo:

        d1 = ((1+k)/2 - q_lo) / (k (1-q_lo)^{(1+k)/2} q_lo^{(1-k)/2}) (mu + C/rho)
        d2 = -((1-k)/2 - q_lo) / (k (1-q_lo)^{(1-k)/2} q_lo^{(1+k)/2}) (mu + C/rho)
    """
    if not 0.0 < q_lo < 1.0:
        raise ParameterError(f"q_lo must lie in (0, 1), got {q_lo}")
    k = exponent_k(params)
    m = 0.5 * (1.0 - k)
    amp = params.mu + c_i / params.rho
    den1 = k * _power(1.0 - q_lo, 1.0 - m) * _power(q_lo, m)
    den2 = k * _power(1.0 - q_lo, m) * _power(q_lo, 1.0 - m)
    # extreme exponents can underflow the denominators; surface inf so the
    # root finder backs off instead of crashing
    d1 = (1.0 - m - q_lo) / den1 * amp if den1 != 0.0 else math.inf
    d2 = -(m - q_lo) / den2 * amp if den2 != 0.0 else math.inf
    return d1, d2


def _newton2(f: Callable, x0, lo, hi, tol, max_iter=100):
    """Damped 2D Newton with forward-difference Jacobian and box clamping."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    history = []
    r = np.asarray(f(x))
    if not np.all(np.isfinite(r)):
        return None, [np.inf]
    for _ in range(max_iter):
        nrm = float(np.max(np.abs(r)))
        history.append(nrm)
        if nrm < tol:
            return x, history
        eps = 1e-8
        jac = np.empty((2, 2))
        for j in range(2):
            xp = x.copy()
            hstep = eps * max(1.0, abs(x[j]))
            xp[j] = min(xp[j] + hstep, hi[j])
            if xp[j] == x[j]:
                xp[j] = max(x[j] - hstep, lo[j])
            jac[:, j] = (np.asarray(f(xp)) - r) / (xp[j] - x[j])
        if not np.all(np.isfinite(jac)):
            break
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        # halve until the residual norm decreases
        for _ in range(40):
            xn = np.clip(x + step, lo, hi)
            rn = np.asarray(f(xn))
            if np.all(np.isfinite(rn)) and float(np.max(np.abs(rn))) < nrm:
                x, r = xn, rn
                break
            step *= 0.5
        else:
            break
    # stalled before reaching tol; hand back the best point anyway and let
    # the caller judge the achieved residual on the problem's own scale
    return x, history


def _bisect_fallback(f, lo, hi, crossing, tol):
    """Nested bisection: inner solve of the slope equation in q_hi for each
    candidate q_lo, outer bisection on the value mismatch."""

    def inner(q_lo):
        a, b = crossing + 1e-9, hi[1]
        fa = f((q_lo, a))[1]
        fb = f((q_lo, b))[1]
        if fa * fb > 0:
            return None
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = f((q_lo, mid))[1]
            if fa * fm <= 0:
                b, fb = mid, fm
            else:
                a, fa = mid, fm
            if b - a < 1e-15:
                break
        return 0.5 * (a + b)

    def outer_val(q_lo):
        q_hi_ = inner(q_lo)
        if q_hi_ is None:
            return None, None
        return f((q_lo, q_hi_))[0], q_hi_

    # scan for a sign change of the outer value mismatch
    grid = np.linspace(lo[0], hi[0], 200)
    prev = None
    for q in grid:
        val, qh = outer_val(q)
        if val is None:
            prev = None
            continue
        if prev is not None and prev[1] * val <= 0:
            a, b = prev[0], q
            fa = prev[1]
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm, qh = outer_val(mid)
                if fm is None:
                    break
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a < 1e-15:
                    break
            q_lo_ = 0.5 * (a + b)
            _, q_hi_ = outer_val(q_lo_)
            if q_hi_ is not None:
                return np.array([q_lo_, q_hi_])
        prev = (q, val)
    return None


def _fd_seed(params, c_i, ob, crossing, n) -> Optional[Tuple[float, float]]:
    from .fd_solver import Grid, solve_vi
    from .model import ConstantCost

    try:
        sol = solve_vi(params, ConstantCost(c_i), ob, Grid(n))
        q_lo, q_hi = sol.q_lo, sol.q_hi
    except Exception:
        return None
    if q_lo is None or q_hi is None or not (0 < q_lo < crossing < q_hi < 1):
        return None
    return q_lo, q_hi


def _seed_candidates(params, c_i, ob, crossing):
    """Root-finder seeds in decreasing order of expected quality: a coarse
    grid solve, a fine grid solve (narrow regions need the resolution),
    then shrinking brackets around the obstacle kink."""
    seed = _fd_seed(params, c_i, ob, crossing, 256)
    if seed is not None:
        yield seed
    seed = _fd_seed(params, c_i, ob, crossing, 4000)
    if seed is not None:
        yield seed
    for delta in (0.02, 2e-3, 2e-4, 2e-5, 2e-6):
        yield (max(crossing - delta, 1e-4), min(crossing + delta, 1.0 - 1e-4))


def _solve_system(params, c_i, target_val, target_slope, crossing, ob):
    """Common driver: reduce to (q_lo, q_hi) and root-find."""
    k = exponent_k(params)
    rho = params.rho

    def f(x):
        q_lo, q_hi = float(x[0]), float(x[1])
        d1, d2 = coeffs_from_qlo(params, c_i, q_lo)
        v1, v2, dv1, dv2 = basis_eval(k, q_hi)
        val = d1 * v1 + d2 * v2 - c_i / rho - target_val(q_hi)
        slope = d1 * dv1 + d2 * dv2 - target_slope(q_hi)
        return np.array([val, slope])

    def recheck(x):
        # all four original smooth-fit equations, not just the reduced pair
        q_lo, q_hi = float(x[0]), float(x[1])
        d1, d2 = coeffs_from_qlo(params, c_i, q_lo)
        v1l, v2l, dv1l, dv2l = basis_eval(k, q_lo)
        v1h, v2h, dv1h, dv2h = basis_eval(k, q_hi)
        res = np.array([
            d1 * v1l + d2 * v2l - c_i / rho - params.mu,
            d1 * dv1l + d2 * dv2l,
            d1 * v1h + d2 * v2h - c_i / rho - target_val(q_hi),
            d1 * dv1h + d2 * dv2h - target_slope(q_hi),
        ])
        return q_lo, q_hi, d1, d2, float(np.max(np.abs(res)))

    lo = np.array([1e-6, crossing + 1e-6])
    hi = np.array([crossing - 1e-6, 1.0 - 1e-6])
    scale = params.h + c_i / rho
    accept_tol = 1e-10 * scale
    best = None
    history = []
    for seed in _seed_candidates(params, c_i, ob, crossing):
        x, hist = _newton2(f, seed, lo, hi, tol=1e-13 * scale)
        history.extend(hist)
        if x is None:
            continue
        cand = recheck(x)
        if cand[4] <= accept_tol:
            return cand
        if best is None or cand[4] < best[4]:
            best = cand
    x = _bisect_fallback(f, lo, hi, crossing, 1e-13)
    if x is not None:
        cand = recheck(x)
        if best is None or cand[4] < best[4]:
            best = cand
    # the acceptance bar is 1e-9 * scale; keep a 2x margin below it
    if best is not None and best[4] <= 5e-10 * scale:
        return best
    raise SmoothFitError("smooth-fit root-finding failed", history)


def smooth_fit_linear(
    params: ModelParams, c_i: float, l_eff: Optional[float] = None,
    regime: RefinedSignalSpec = Irreversible(),
) -> SmoothFitSolution:
    """Boundaries for a linear upper obstacle branch q h + (1-q) l_eff.

    l_eff = l covers the irreversible problem; l_eff = l_tilde covers the
    Poisson regime (its obstacle is the irreversible one with l replaced).
    The regime's own obstacle seeds the root finder, so l_eff must match it.
    """
    if l_eff is None:
        l_eff = params.l
    if not l_eff < params.mu:
        raise ParameterError(f"effective low value must be < mu, got {l_eff}")
    if params.sigma <= 0:
        raise ParameterError("sigma must be positive")
    if not c_i > 0:
        raise ParameterError("cost rate must be positive")

    crossing = (params.mu - l_eff) / (params.h - l_eff)
    ob = ObstacleFn.create(params, regime)
    q_lo, q_hi, d1, d2, res = _solve_system(
        params, c_i,
        target_val=lambda q: q * params.h + (1.0 - q) * l_eff,
        target_slope=lambda q: params.h - l_eff,
        crossing=crossing, ob=ob,
    )
    return SmoothFitSolution(q_lo, q_hi, d1, d2, res, regime, c_i)


def smooth_fit_poisson(params: ModelParams, c_i: float, lam: float, r: float) -> SmoothFitSolution:
    l_t = poisson_l_tilde(params, lam, r)
    return smooth_fit_linear(params, c_i, l_eff=l_t, regime=PoissonSignal(lam, r))


def smooth_fit_gaussian(
    params: ModelParams, c_i: float, sigma_tilde: float, r: float
) -> SmoothFitSolution:
    """Boundaries when the upper branch is the Gaussian nested value."""
    regime = GaussianSignal(sigma_tilde, r)
    ob = ObstacleFn.create(params, regime)
    crossing = crossing_point(ob)
    q_lo, q_hi, d1, d2, res = _solve_system(
        params, c_i,
        target_val=lambda q: vb_gaussian(params, sigma_tilde, r, q),
        target_slope=lambda q: vb_gaussian_slope(params, sigma_tilde, r, q),
        crossing=crossing, ob=ob,
    )
    return SmoothFitSolution(q_lo, q_hi, d1, d2, res, regime, c_i)


def smooth_fit(params: ModelParams, c_i: float, regime: RefinedSignalSpec) -> SmoothFitSolution:
    if isinstance(regime, Irreversible):
        return smooth_fit_linear(params, c_i)
    if isinstance(regime, PoissonSignal):
        return smooth_fit_poisson(params, c_i, regime.lam, regime.r)
    return smooth_fit_gaussian(params, c_i, regime.sigma_tilde, regime.r)


def eval_closed_form(
    sol: SmoothFitSolution, params: ModelParams, c_i: float, ob: ObstacleFn, q: float
) -> float:
    """Piecewise value: mu, then the ODE branch, then the obstacle branch."""
    if q <= sol.q_lo:
        return params.mu
    if q < sol.q_hi:
        k = exponent_k(params)
        v1, v2, _, _ = basis_eval(k, q)
        return sol.d1 * v1 + sol.d2 * v2 - c_i / params.rho
    return obstacle_eval(ob, q)
