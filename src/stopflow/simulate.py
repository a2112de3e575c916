"""Monte Carlo engine for belief paths and policy valuation.

Beliefs are simulated in log-odds z = log(q/(1-q)), with no Euler step
and no clamping.  Given the true value theta, z is a Brownian motion with
drift s^2 (theta - 1/2) and volatility s = (h - l)/sigma, so the first
stage draws theta ~ Bernoulli(q0) per path and steps z exactly.  Between
two steps the path may still have left the exploration region: a barrier
is crossed with the Brownian-bridge probability exp(-2 a c / (s^2 dt))
(a, c the distances of the two endpoints to the barrier), less the paths
that touch the other barrier first, and the exit time inside the step is
drawn from the bridge's first-passage law (Glasserman 2004, Monte Carlo
Methods in Financial Engineering, section 6.4).  The exit belief is the
barrier itself.  The one approximation left is that in-step exit time,
which ignores the other barrier; it only matters when the region is
narrower than a few steps s sqrt(dt).

The nested problems need no time stepping.  Poisson: the belief is
constant until the first jump, which arrives at an Exp(lam) time and
reveals the truth.  Gaussian: the belief reaches the stopping threshold
q_b with probability (1 - q0)/(1 - q_b), after an inverse-Gaussian time
whose law is the same under both values of theta; otherwise the path
never stops and the value is h.

All estimators are deterministic for a fixed seed: one single-threaded
numpy SFC64 stream per stage.  SFC64 replaced Philox because its normal
and uniform draws are the cheaper ones and nothing here uses Philox's
counter or jump-ahead features; the draws, and so every fixed-seed
estimate, differ from releases that used Philox, though not in law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ConstantCost,
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

    def validate(self, rho: Optional[float] = None) -> None:
        """Check the path count and seed; given rho, also the time step and
        horizon of the outer stage (the event-exact nested stages read
        neither)."""
        if self.n_paths < 1:
            raise ParameterError(f"need at least one path, got {self.n_paths}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if rho is None:
            return
        if self.dt <= 0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
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


def _rng(seed) -> np.random.Generator:
    """An SFC64 generator from an int seed or a SeedSequence."""
    return np.random.Generator(np.random.SFC64(seed))


def _logit(q):
    """Log-odds of a belief; -inf at 0 and +inf at 1."""
    with np.errstate(divide="ignore"):
        return np.log(q) - np.log1p(-q)


def _expit(z):
    return 1.0 / (1.0 + np.exp(-z))


def _normals(rng, idx, n, antithetic):
    """Standard normals for the live paths idx.  Under antithetic
    sampling path k and path k + (n+1)//2 share one draw with opposite
    signs for as long as either of them lives."""
    if not antithetic:
        return rng.standard_normal(idx.size)
    half = (n + 1) // 2
    # one slot per pair: mark the live pairs, then draw for them in
    # increasing pair order
    pair = idx % half
    table = np.zeros(half)
    table[pair] = 1.0
    drawn = np.flatnonzero(table)
    table[drawn] = rng.standard_normal(drawn.size)
    w = table[pair]
    return np.where(idx < half, w, -w)


def _screen(x, y, u, w, half, g, h):
    """Indices of the paths whose uniform u may mean an exit: those with
    log(u) half + x y < 0 or log(1 - u) half + (w - x)(w - y) < 0, the
    one-barrier bridge terms of the strip (0, w) with half = v/2.  Works
    in place in the scratch rows g and h, so a step allocates no large
    temporaries here.  1 - u is exact on the generator's 2^-53 grid, so
    log(1 - u) stands in for the slower log1p(-u)."""
    with np.errstate(divide="ignore"):
        np.log(u, out=g)
        g *= half
        np.multiply(x, y, out=h)
        g += h
        near = g < 0.0
        np.subtract(w, x, out=h)
        np.subtract(w, y, out=g)
        h *= g
        np.subtract(1.0, u, out=g)
        np.log(g, out=g)
        g *= half
        g += h
        near |= g < 0.0
    return np.flatnonzero(near)


def _exit_probs(x, y, w, v):
    """Probabilities that a Brownian bridge from x to y, of variance v,
    leaves the strip (0, w) first through 0 and first through w.

    Method of images (Borodin & Salminen 2002, Handbook of Brownian
    Motion): each is its one-barrier probability less the paths that
    touch the other barrier first, exact up to terms below exp(-2 w^2/v).
    The series for 0 holds for y > 0, the one for w for y < w.
    """
    neg_inv_v = -1.0 / v

    def decay(e):
        # e < 0 only where the series does not hold and is not used
        return np.exp(np.maximum(e, 0.0) * neg_inv_v)

    d = y - x
    p_lo = decay(2.0 * x * y) - decay(2.0 * w * (w + d))
    p_hi = decay(2.0 * (w - x) * (w - y)) - decay(2.0 * w * (w - d))
    return np.where(y <= 0.0, 1.0 - p_hi, p_lo), np.where(y >= w, 1.0 - p_lo, p_hi)


def _aggregate(
    payoffs: np.ndarray, truncation_bound: float, antithetic: bool = False
) -> MCEstimate:
    n = payoffs.size
    # pairwise summation (numpy default) keeps aggregation reproducible
    mean = float(np.sum(payoffs) / n)
    # an antithetic pair (k, k + (n+1)//2) is one independent sample
    units = payoffs
    if antithetic:
        units = 0.5 * (payoffs[: n // 2] + payoffs[(n + 1) // 2 :])
    m = units.size
    if m > 1:
        var = float(np.sum((units - np.sum(units) / m) ** 2) / (m - 1))
        std_err = math.sqrt(var / m)
    else:
        std_err = 0.0
    return MCEstimate(mean=mean, std_err=std_err, n_paths=n, truncation_bound=truncation_bound)


def _check_region(q_lo, q_hi):
    if not 0.0 < q_lo < q_hi < 1.0:
        raise ParameterError(f"need 0 < q_lo < q_hi < 1, got {q_lo}, {q_hi}")


def _outer_paths(params, cost, q_lo, q_hi, q0, cfg, rng):
    """Exact log-odds simulation of the first-stage exit.

    Returns (exit_time, exit_belief, discounted_cost_integral) arrays;
    paths still inside at t_max stop there with their current belief.
    A constant cost integrates in closed form; any other cost by the
    trapezoid rule on the steps, the last one ending at the exit time.
    """
    if params.sigma <= 0:
        raise ParameterError("sigma must be positive to simulate the belief")
    n, dt, rho = cfg.n_paths, cfg.dt, params.rho
    s = params.spread / params.sigma
    s2dt = s * s * dt
    half = 0.5 * s2dt  # the drift per step, +half under theta = 1
    vol = s * math.sqrt(dt)
    z_lo = _logit(q_lo)
    w = _logit(q_hi) - z_lo  # the strip's width in log-odds

    u = rng.random((n + 1) // 2 if cfg.antithetic else n)
    if cfg.antithetic:
        u = np.concatenate([u, 1.0 - u])[:n]
    tau = np.full(n, cfg.t_max)
    q_exit = np.empty(n)
    # the live paths: their ids, the n_up with theta = 1 (u < q0) first so
    # that the drift is two slice updates, and their heights above z_lo;
    # the ids, not the positions, index the outputs and antithetic pairs
    up = u < q0
    live = np.concatenate([np.flatnonzero(up), np.flatnonzero(~up)])
    n_up = int(np.count_nonzero(up))
    x = np.full(n, _logit(q0) - z_lo)
    trapezoid = not isinstance(cost, ConstantCost)
    if trapezoid:
        cost_int = np.zeros(n)
        c_prev = np.full(n, cost_eval(cost, params, q0))

    buf = np.empty((2, n))  # the screen's scratch rows
    for step in range(int(round(cfg.t_max / dt))):
        if live.size == 0:
            break
        t = step * dt
        y = _normals(rng, live, n, cfg.antithetic)
        y *= vol
        y[:n_up] += half
        y[n_up:] -= half
        y += x
        # exit low if u < p_lo, high if 1 - u < p_hi; p_lo and p_hi are
        # below their one-barrier terms, which screen out most paths cheaply
        u = rng.random(live.size)
        near = _screen(x, y, u, w, half, buf[0, : live.size], buf[1, : live.size])
        p_lo, p_hi = _exit_probs(x[near], y[near], w, s2dt)
        u = u[near]
        lo = u < p_lo
        hi = ~lo & (1.0 - u < p_hi)
        out = lo | hi
        k, hi = near[out], hi[out]
        stay = np.ones(live.size, dtype=bool)
        if k.size:
            # bridge first passage: t + dt*S/(dt+S), S ~ IG(a dt/c, a^2/s^2);
            # the floor on c and the clip only bound an end on the barrier
            b = np.where(hi, w, 0.0)
            a, c = np.abs(x[k] - b), np.abs(y[k] - b)
            S = rng.wald(a * dt / np.maximum(c, 1e-12 * a), (a / s) ** 2)
            ids = live[k]
            tau[ids] = t + dt * np.clip(S / (dt + S), 0.0, 1.0)
            q_exit[ids] = np.where(hi, q_hi, q_lo)
            stay[k] = False
        if trapezoid:
            t_end = np.where(stay, t + dt, tau[live])
            q_end = np.where(stay, _expit(y + z_lo), q_exit[live])
            c_end = cost_eval(cost, params, q_end)
            cost_int[live] += 0.5 * (
                math.exp(-rho * t) * c_prev + np.exp(-rho * t_end) * c_end
            ) * (t_end - t)
            c_prev = c_end[stay]
        n_up = int(np.count_nonzero(stay[:n_up]))
        live, x = live[stay], y[stay]

    q_exit[live] = _expit(x + z_lo)
    if not trapezoid:
        cost_int = cost.c_i / rho * -np.expm1(-rho * tau)
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
    _check_region(q_lo, q_hi)
    cfg.validate(params.rho)
    if q0 <= q_lo or q0 >= q_hi:
        return MCEstimate(obstacle_eval(ob, q0), 0.0, cfg.n_paths, 0.0)
    rng = _rng(cfg.seed)
    tau, q_exit, cost_int = _outer_paths(params, cost, q_lo, q_hi, q0, cfg, rng)
    g_exit = ob.on_grid(q_exit)
    payoff = -cost_int + np.exp(-params.rho * tau) * g_exit
    bound = math.exp(-params.rho * cfg.t_max) * max(params.h, params.mu)
    return _aggregate(payoff, bound, cfg.antithetic)


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
    cfg.validate()
    if q0 <= poisson_q_b(params, lam, r):
        return MCEstimate(params.mu - r, 0.0, cfg.n_paths, 0.0)
    q0s = np.full(cfg.n_paths, q0)
    return _aggregate(_nested_poisson_paths(params, lam, r, q0s, _rng(cfg.seed)), 0.0)


def mc_value_nested_gaussian(
    params: ModelParams, sigma_tilde: float, r: float, q0, cfg: SimConfig
) -> MCEstimate:
    """Event-exact valuation of the refined Gaussian nested problem.

    Running utility rho e^{-rho t}(theta h + (1-theta) l) until the first
    q <= q_b, then payoff mu - r.  q0 may be an array (one start per
    path).  There is no time horizon, so the truncation bound is 0.
    """
    if not (0.0 < sigma_tilde <= params.sigma) or not (0.0 < r < params.mu - params.l):
        raise ParameterError(f"invalid Gaussian spec sigma_tilde={sigma_tilde}, r={r}")
    cfg.validate()
    q0s = np.full(cfg.n_paths, q0) if np.isscalar(q0) else np.asarray(q0, dtype=float)
    values = _gaussian_paths_values(params, sigma_tilde, r, q0s, _rng(cfg.seed))
    return _aggregate(values, 0.0)


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
    _check_region(q_lo, q_hi)
    cfg.validate(params.rho)
    if q0 <= q_lo:
        return MCEstimate(params.mu, 0.0, cfg.n_paths, 0.0)
    if q0 >= q_hi:
        # immediate hand-off to the nested stage
        tau = np.zeros(cfg.n_paths)
        q_exit = np.full(cfg.n_paths, q0)
        cost_int = np.zeros(cfg.n_paths)
    else:
        tau, q_exit, cost_int = _outer_paths(
            params, cost, q_lo, q_hi, q0, cfg, _rng(cfg.seed)
        )

    disc = np.exp(-params.rho * tau)
    low = q_exit <= q_lo
    value = -cost_int
    value[low] += disc[low] * params.mu

    hi_idx = np.flatnonzero(~low)
    if hi_idx.size:
        # a child of the seed, so no other seed's stream is reused
        rng = _rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        if isinstance(refined, PoissonSignal):
            nested = _nested_poisson_paths(
                params, refined.lam, refined.r, q_exit[hi_idx], rng
            )
        else:
            nested = _gaussian_paths_values(
                params, refined.sigma_tilde, refined.r, q_exit[hi_idx], rng
            )
        value[hi_idx] += disc[hi_idx] * nested
    bound = math.exp(-params.rho * cfg.t_max) * max(params.h, params.mu)
    return _aggregate(value, bound, cfg.antithetic)


def _nested_poisson_paths(params, lam, r, q0s, rng) -> np.ndarray:
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


def _gaussian_paths_values(params, sigma_tilde, r, q0s, rng) -> np.ndarray:
    """Per-path discounted values of the nested Gaussian policy.

    From log-odds distance d > 0 above q_b, the belief hits q_b with
    probability (1 - q0)/(1 - q_b), at a time ~ IG(2d/s^2, d^2/s^2) under
    either theta, and E[theta | hit] = q_b; a path that never hits has
    theta = 1 and collects h.
    """
    q_b = gaussian_q_b(params, sigma_tilde, r)
    s2 = (params.spread / sigma_tilde) ** 2
    value = np.full(q0s.size, params.h)
    idx = np.flatnonzero(q0s < 1.0)
    d = _logit(q0s[idx]) - _logit(q_b)
    value[idx[~(d > 0.0)]] = params.mu - r
    idx, d = idx[d > 0.0], d[d > 0.0]
    hit = rng.random(idx.size) < (1.0 - q0s[idx]) / (1.0 - q_b)
    d = d[hit]
    disc = np.exp(-params.rho * rng.wald(2.0 * d / s2, d * d / s2))
    running = q_b * params.h + (1.0 - q_b) * params.l
    value[idx[hit]] = running * (1.0 - disc) + disc * (params.mu - r)
    return value
