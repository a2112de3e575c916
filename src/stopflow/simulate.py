"""Monte Carlo engine for belief paths and policy valuation.

First-stage and refined Gaussian beliefs are simulated by Euler-Maruyama
with post-step clamping to [0, 1] (the exact SDE stays inside, the
discrete scheme can overshoot).  The Poisson nested problem is simulated
event-exactly: the belief is constant between jumps, the first jump
arrives at an Exp(lam) time and reveals the truth.

All estimators are deterministic for a fixed seed (single-threaded,
Philox counter-based generator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .model import (
    CostSpec,
    Irreversible,
    ModelParams,
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
    cost_eval,
    gaussian_q_b,
    poisson_q_b,
)
from .obstacles import ObstacleFn, obstacle_eval


@dataclass(frozen=True)
class SimConfig:
    n_paths: int = 100_000
    dt: float = 1e-3
    t_max: float = 20.0
    seed: int = 12345
    antithetic: bool = False

    def validate(self, rho: float) -> None:
        if self.dt <= 0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if self.n_paths < 1:
            raise ParameterError(f"need at least one path, got {self.n_paths}")
        if self.t_max * rho < 20.0:
            raise ParameterError(
                f"t_max*rho must be >= 20 for negligible truncation bias, "
                f"got {self.t_max * rho}"
            )


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_err: float
    n_paths: int
    truncation_bound: float


def _rng(cfg: SimConfig) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=cfg.seed))


def _normals(rng, n, antithetic):
    if antithetic:
        half = (n + 1) // 2
        z = rng.standard_normal(half)
        return np.concatenate([z, -z])[:n]
    return rng.standard_normal(n)


def _aggregate(payoffs: np.ndarray, truncation_bound: float) -> MCEstimate:
    n = payoffs.size
    # pairwise summation (numpy default) keeps aggregation reproducible
    mean = float(np.sum(payoffs) / n)
    if n > 1:
        var = float(np.sum((payoffs - mean) ** 2) / (n - 1))
        std_err = math.sqrt(var / n)
    else:
        std_err = 0.0
    return MCEstimate(mean=mean, std_err=std_err, n_paths=n, truncation_bound=truncation_bound)


def simulate_belief_path(
    params: ModelParams,
    q0: float,
    cfg: SimConfig,
    stop_predicate: Callable[[float], bool],
    cost: Optional[CostSpec] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, float, float]:
    """One Euler path of the first-stage belief.

    Returns (stop_time, q_at_stop, discounted_cost_integral); the cost
    integral uses the trapezoid rule and is 0 when no cost is supplied.
    Stops at the first step where stop_predicate(q) holds, or at t_max.
    """
    if params.sigma <= 0:
        raise ParameterError("sigma must be positive to simulate the belief SDE")
    if rng is None:
        rng = _rng(cfg)
    vol = params.spread / params.sigma
    sq_dt = math.sqrt(cfg.dt)
    rho = params.rho

    q = q0
    t = 0.0
    cost_int = 0.0
    c_prev = cost_eval(cost, params, q) if cost is not None else 0.0
    while t < cfg.t_max:
        if stop_predicate(q):
            return t, q, cost_int
        if q <= 0.0 or q >= 1.0:
            # absorbing endpoints: belief frozen, cost keeps accruing
            if cost is not None and c_prev > 0:
                remaining = cfg.t_max - t
                cost_int += c_prev / rho * (
                    math.exp(-rho * t) - math.exp(-rho * (t + remaining))
                )
            t = cfg.t_max
            break
        z = rng.standard_normal()
        q_new = min(max(q + vol * q * (1.0 - q) * sq_dt * z, 0.0), 1.0)
        if cost is not None:
            c_new = cost_eval(cost, params, q_new)
            cost_int += 0.5 * (
                math.exp(-rho * t) * c_prev + math.exp(-rho * (t + cfg.dt)) * c_new
            ) * cfg.dt
            c_prev = c_new
        q = q_new
        t += cfg.dt
    return t, q, cost_int


def _outer_paths(params, cost, q_lo, q_hi, q0, cfg, rng):
    """Vectorized first-stage exit simulation.

    Returns (exit_time, exit_belief, discounted_cost_integral) arrays;
    paths still alive at t_max are treated as stopped there.
    """
    n = cfg.n_paths
    vol = params.spread / params.sigma
    sq_dt = math.sqrt(cfg.dt)
    rho = params.rho

    q = np.full(n, q0)
    tau = np.full(n, cfg.t_max)
    q_exit = np.full(n, q0)
    cost_int = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    c_prev = np.full(n, cost_eval(cost, params, q0)) if cost is not None else None

    n_steps = int(round(cfg.t_max / cfg.dt))
    disc = 1.0
    disc_next = math.exp(-rho * cfg.dt)
    step_disc = math.exp(-rho * cfg.dt)
    for step in range(n_steps):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        z = _normals(rng, idx.size, cfg.antithetic)
        qa = q[idx]
        qn = np.clip(qa + vol * qa * (1.0 - qa) * sq_dt * z, 0.0, 1.0)
        if cost is not None:
            c_new = cost_eval(cost, params, qn)
            cost_int[idx] += 0.5 * (disc * c_prev[idx] + disc_next * c_new) * cfg.dt
            c_prev[idx] = c_new
        q[idx] = qn
        exited = (qn <= q_lo) | (qn >= q_hi)
        exit_idx = idx[exited]
        tau[exit_idx] = (step + 1) * cfg.dt
        q_exit[exit_idx] = qn[exited]
        alive[exit_idx] = False
        disc *= step_disc
        disc_next *= step_disc
    # paths that never exited stop at t_max with their current belief
    q_exit[alive] = q[alive]
    return tau, q_exit, cost_int


def mc_value_outer(
    params: ModelParams,
    cost: CostSpec,
    ob: ObstacleFn,
    q_lo: float,
    q_hi: float,
    q0: float,
    cfg: SimConfig,
) -> MCEstimate:
    """Discounted value of the threshold policy: explore on (q_lo, q_hi),
    collect the obstacle at the first exit."""
    if q_lo >= q_hi:
        raise ParameterError(f"need q_lo < q_hi, got {q_lo} >= {q_hi}")
    cfg.validate(params.rho)
    if q0 <= q_lo or q0 >= q_hi:
        return MCEstimate(obstacle_eval(ob, q0), 0.0, cfg.n_paths, 0.0)
    rng = _rng(cfg)
    tau, q_exit, cost_int = _outer_paths(params, cost, q_lo, q_hi, q0, cfg, rng)
    g_exit = ob.on_grid(q_exit)
    payoff = -cost_int + np.exp(-params.rho * tau) * g_exit
    bound = math.exp(-params.rho * cfg.t_max) * max(params.h, params.mu)
    return _aggregate(payoff, bound)


def mc_value_nested_poisson(
    params: ModelParams, lam: float, r: float, q0: float, cfg: SimConfig
) -> MCEstimate:
    """Event-exact nested Poisson valuation.

    Before the first jump the belief is constant, so the running utility
    integrates in closed form; the jump reveals the truth (to 1 with
    probability q0), after which the path either stays forever (payoff h)
    or stops and returns (payoff mu - r).  Stops immediately below q_b.
    """
    if not lam > 0 or not (0.0 < r < params.mu - params.l):
        raise ParameterError(f"invalid Poisson spec lam={lam}, r={r}")
    cfg.validate(params.rho)
    q_b = poisson_q_b(params, lam, r)
    if q0 <= q_b:
        return MCEstimate(params.mu - r, 0.0, cfg.n_paths, 0.0)
    rng = _rng(cfg)
    n = cfg.n_paths
    rho = params.rho
    t_jump = rng.exponential(1.0 / lam, size=n)
    to_high = rng.random(n) < q0
    disc = np.exp(-rho * t_jump)
    running = (q0 * params.h + (1.0 - q0) * params.l) * (1.0 - disc)
    terminal = np.where(to_high, params.h, params.mu - r)
    return _aggregate(running + disc * terminal, 0.0)


def mc_value_nested_gaussian(
    params: ModelParams,
    sigma_tilde: float,
    r: float,
    q0,
    cfg: SimConfig,
    rng: Optional[np.random.Generator] = None,
    weights: Optional[np.ndarray] = None,
) -> MCEstimate:
    """Euler valuation of the refined Gaussian nested problem.

    Running utility rho e^{-rho t}(q h + (1-q) l) by trapezoid; stop with
    payoff mu - r at the first q <= q_b; at absorption in 1 the remaining
    utility integral is added in closed form.  q0 may be an array (one
    start per path, used by the composed estimator).
    """
    if not (0.0 < sigma_tilde <= params.sigma) or not (0.0 < r < params.mu - params.l):
        raise ParameterError(f"invalid Gaussian spec sigma_tilde={sigma_tilde}, r={r}")
    cfg.validate(params.rho)
    q0_arr = np.full(cfg.n_paths, q0) if np.isscalar(q0) else np.asarray(q0, dtype=float)
    if rng is None:
        rng = _rng(cfg)
    value = _gaussian_paths_values(params, sigma_tilde, r, q0_arr, cfg, rng)
    bound = math.exp(-params.rho * cfg.t_max) * max(params.h, params.mu)
    if weights is not None:
        value = weights * value
    return _aggregate(value, bound)


def mc_value_composed(
    params: ModelParams,
    cost: CostSpec,
    refined: RefinedSignalSpec,
    q_lo: float,
    q_hi: float,
    q0: float,
    cfg: SimConfig,
) -> MCEstimate:
    """Two-stage objective: explore, then either take mu at the lower exit
    or hand the exit belief to the nested simulator at the upper exit."""
    if isinstance(refined, Irreversible):
        raise ParameterError("composed value needs a refined-signal regime")
    cfg.validate(params.rho)
    if q0 <= q_lo:
        return MCEstimate(params.mu, 0.0, cfg.n_paths, 0.0)
    ob = ObstacleFn.create(params, refined)
    if q0 >= q_hi:
        # immediate hand-off to the nested stage
        tau = np.zeros(cfg.n_paths)
        q_exit = np.full(cfg.n_paths, q0)
        cost_int = np.zeros(cfg.n_paths)
        rng = _rng(cfg)
    else:
        rng = _rng(cfg)
        tau, q_exit, cost_int = _outer_paths(params, cost, q_lo, q_hi, q0, cfg, rng)

    disc = np.exp(-params.rho * tau)
    low = q_exit <= q_lo
    value = -cost_int
    value[low] += disc[low] * params.mu

    hi_idx = np.flatnonzero(~low)
    if hi_idx.size:
        sub_cfg = SimConfig(
            n_paths=hi_idx.size, dt=cfg.dt, t_max=cfg.t_max,
            seed=cfg.seed + 1, antithetic=cfg.antithetic,
        )
        if isinstance(refined, PoissonSignal):
            nested = _nested_poisson_paths(
                params, refined.lam, refined.r, q_exit[hi_idx], sub_cfg
            )
        else:
            nested = _nested_gaussian_paths(
                params, refined.sigma_tilde, refined.r, q_exit[hi_idx], sub_cfg
            )
        value[hi_idx] += disc[hi_idx] * nested
    bound = math.exp(-params.rho * cfg.t_max) * max(params.h, params.mu)
    return _aggregate(value, bound)


def _nested_poisson_paths(params, lam, r, q0s, cfg) -> np.ndarray:
    rng = _rng(cfg)
    q_b = poisson_q_b(params, lam, r)
    n = q0s.size
    rho = params.rho
    value = np.full(n, params.mu - r)
    live = q0s > q_b
    idx = np.flatnonzero(live)
    if idx.size:
        t_jump = rng.exponential(1.0 / lam, size=idx.size)
        to_high = rng.random(idx.size) < q0s[idx]
        disc = np.exp(-rho * t_jump)
        running = (q0s[idx] * params.h + (1.0 - q0s[idx]) * params.l) * (1.0 - disc)
        terminal = np.where(to_high, params.h, params.mu - r)
        value[idx] = running + disc * terminal
    return value


def _nested_gaussian_paths(params, sigma_tilde, r, q0s, cfg) -> np.ndarray:
    return _gaussian_paths_values(params, sigma_tilde, r, q0s, cfg, _rng(cfg))


def _gaussian_paths_values(params, sigma_tilde, r, q0s, cfg, rng) -> np.ndarray:
    """Per-path discounted values of the nested Gaussian policy."""
    q_b = gaussian_q_b(params, sigma_tilde, r)
    n = q0s.size
    rho = params.rho
    vol = params.spread / sigma_tilde
    sq_dt = math.sqrt(cfg.dt)
    dt = cfg.dt
    step_disc = math.exp(-rho * dt)

    q = q0s.copy()
    value = np.zeros(n)
    alive = q > q_b
    value[~alive] = params.mu - r
    at_one = alive & (q >= 1.0)
    value[at_one] = params.h
    alive &= ~at_one

    disc = 1.0
    n_steps = int(round(cfg.t_max / dt))
    mean_payoff = lambda qq: qq * params.h + (1.0 - qq) * params.l
    for _ in range(n_steps):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        z = _normals(rng, idx.size, cfg.antithetic)
        qa = q[idx]
        qn = np.clip(qa + vol * qa * (1.0 - qa) * sq_dt * z, 0.0, 1.0)
        disc_next = disc * step_disc
        value[idx] += 0.5 * rho * (disc * mean_payoff(qa) + disc_next * mean_payoff(qn)) * dt
        q[idx] = qn
        disc = disc_next
        stopped = qn <= q_b
        value[idx[stopped]] += disc * (params.mu - r)
        absorbed = qn >= 1.0
        value[idx[absorbed]] += disc * params.h
        alive[idx[stopped | absorbed]] = False
    return value
