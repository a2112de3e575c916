"""Monte Carlo engine for belief paths and policy valuation.

Beliefs are simulated in log-odds z = log(q/(1-q)), with no Euler step
and no clamping.  Given the true value theta, z is a Brownian motion with
drift s^2 (theta - 1/2) and volatility s = (h - l)/sigma, so the first
stage draws how many paths have theta = 1, Binomial(n_paths, q0) as the
paths are exchangeable, and steps z exactly.  Between two steps the path
may still have left the exploration region.  Whether it did, and through
which barrier first, follows the method of images for
the Brownian bridge in a strip (Borodin & Salminen 2002, Handbook of
Brownian Motion): the one-barrier probability exp(-2 a c / (s^2 dt)) (a, c
the distances of the two endpoints to the barrier), less the paths that
touch the other barrier first, plus those that touch it after that, and
so on, summed until the terms fall below 2^-53.  The exit time inside the
step is drawn from the one-barrier bridge's first-passage law (Glasserman
2004, Monte Carlo Methods in Financial Engineering, section 6.4) and
accepted with the ratio of the strip's first-passage density to the
half-line's, which is at most 1; a rejected time is drawn again.  The
exit belief is the barrier itself.  So for a constant cost the first
stage is exact in law at any dt, however narrow the region; only the
trapezoid integral of another cost along the path depends on dt.

The paths advance in numpy passes of at most _BLOCK path-steps.  With m
<= _BLOCK live paths a pass runs K = min(_BLOCK // m, steps left) steps
of all of them at once; with more, one step of each chunk of _BLOCK of
them.  A pass draws a (K, m) block of normals and uniforms for its m
paths, gets the positions with one cumsum, tests every path-step for an
exit with the bridge law above, and writes each path's first exit to the
next output record, so the records come in exit order.  A path
that exits in substep j leaves the draws of its later substeps unused;
they are independent of everything up to its exit, so throwing them away
leaves the law of the exit unchanged.  The pass then draws one proposal
for each exit time inside its substep; the rejected ones wait, and are
drawn again together once _BLOCK of them wait, and at the end.  A path's
proposals are independent of every other path, so the wait leaves their
law unchanged too.  Every other per-path loop (a constant cost's
integral, the nested stages, the payoffs and the variance) runs over
slices of _BLOCK paths, so no temporary grows with n_paths: the only
n-long arrays are the paths' own state and one payoff array.  Only the
assignment of draws to steps and slices, and so a fixed-seed estimate,
depends on _BLOCK.

The nested problems need no time stepping.  Poisson: the belief is
constant until the first jump, which arrives at an Exp(lam) time and
reveals the truth.  Gaussian: the belief reaches the stopping threshold
q_b with probability (1 - q0)/(1 - q_b), after an inverse-Gaussian time
whose law is the same under both values of theta; otherwise the path
never stops and the value is h.

All estimators are deterministic for a fixed seed: one single-threaded
numpy SFC64 stream per stage, a generator with cheap normal and uniform
draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ConstantCost,
    CostSpec,
    GaussianSignal,
    Irreversible,
    ParameterError,
    PoissonSignal,
    _check_belief,
    _check_count,
    _check_sigma,
    cost_eval,
)
from .obstacles import ObstacleFn, obstacle_eval


# the first stage's horizon in units of 1/rho: paths still exploring at
# t = HORIZON/rho stop there, which biases the value by at most
# exp(-HORIZON) max(h, mu)
HORIZON = 20.0

# the most first-stage steps, HORIZON/rho/dt, a config may ask for (dt >=
# 2e-6 at rho = 1): a path that stays inside costs at least one numpy pass
# per _BLOCK of its steps, so far more steps run for hours
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings, the sim.* config keys.

    n_paths: paths per estimate, at least 2 for a standard error.
    dt: the first stage's time step, in the time unit of 1/rho;
        validate refuses more than MAX_STEPS steps to the horizon.  It
        sets the cost per path: the exits are exact in law at any dt, and
        only a non-constant cost's trapezoid integral depends on it.
    seed: the non-negative seed of each stage's SFC64 stream.
    """

    n_paths: int = 100_000
    dt: float = 1e-2
    seed: int = 12345

    def __post_init__(self):
        _check_count(self, "n_paths", "seed")

    def validate(self, rho: Optional[float] = None) -> None:
        """Check the path count and seed; given rho, also the time step of
        the outer stage against its horizon HORIZON/rho (the event-exact
        nested stages take no step)."""
        if self.n_paths < 2:  # one path has no standard error
            raise ParameterError(f"sim.n_paths must be at least 2, got {self.n_paths}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if rho is None:
            return
        if not self.dt > 0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        steps = HORIZON / rho / self.dt  # the stepping loop runs round(steps)
        if steps > MAX_STEPS:
            raise ParameterError(
                f"sim.dt = {self.dt} makes {HORIZON:g}/rho/dt = {steps:.3g} "
                f"steps, above the cap of {MAX_STEPS}"
            )
        if round(steps) == 0:
            raise ParameterError(
                f"{HORIZON:g}/rho/dt must round to at least one step, got {steps}"
            )


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo value estimate.

    mean: the mean discounted payoff over the paths, in value units.
    std_err: the standard error of `mean`, the sample sd over sqrt(n_paths).
    n_paths: the paths simulated.
    truncation_bound: a bound on |bias| from stopping paths at the
        horizon, exp(-HORIZON) max(h, mu); 0 where nothing is truncated (the
        event-exact nested stages, or a start outside the region).
    """

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
    # exp(-z) overflows to inf far below the strip, where 1/inf = 0 is right
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _exit_sides(x, y, u, w, half, v):
    """The path-steps from x to y, of variance v = 2 half, that leave the
    strip (0, w): their indices, and whether each leaves through w.  With
    _exit_probs' p_lo and p_hi, a step exits through 0 if u < p_lo and
    through w if 1 - u < p_hi.  Both lie below their one-barrier bridge
    terms exp(-x y/half) and exp(-(w - x)(w - y)/half), so a step may exit
    only if log(u) half + x y < 0 or log(1 - u) half + (w - x)(w - y) < 0,
    and the image series are summed for those steps alone.  u may be 0,
    whose log is -inf; 1 - u is exact on the generator's 2^-53 grid, so
    log(1 - u) stands in for the slower log1p(-u)."""
    with np.errstate(divide="ignore"):
        near = np.flatnonzero(
            (np.log(u) * half + x * y < 0.0)
            | (np.log(1.0 - u) * half + (w - x) * (w - y) < 0.0)
        )
    p_lo, p_hi = _exit_probs(x[near], y[near], w, v)
    u = u[near]
    lo = u < p_lo
    hi = ~lo & (1.0 - u < p_hi)
    out = lo | hi
    return near[out], hi[out]


# an image series stops once a bound on its next term is below this: beyond
# it the terms fall at least geometrically, and their sum is below the
# rounding of a probability near 1
_TAIL = 2.0 ** -53


def _exit_probs(x, y, w, v):
    """Probabilities that a Brownian bridge from x to y, of variance v,
    leaves the strip (0, w) first through 0 and first through w.

    Method of images (Borodin & Salminen 2002, Handbook of Brownian
    Motion): through 0 it is

        sum_{k>=0} exp(-2 (x + kw)(y + kw)/v) - sum_{k>=1} exp(-2 kw (kw + y - x)/v),

    summed until its terms fall below _TAIL, and through w the same series
    of the mirrored bridge from w - x to w - y.  The series for 0 holds
    for y > 0, the one for w for y < w; an end beyond a barrier has left
    for sure, through the other barrier with that barrier's probability.
    """
    # with each series' end clipped to where it holds, and the start into
    # [0, w], no exponent is positive; a start outside is a void substep
    # after an exit, whose probabilities are never read
    xc = np.clip(x, 0.0, w)
    p_lo = _first_through_0(xc, np.maximum(y, 0.0), w, v)
    p_hi = _first_through_0(w - xc, np.maximum(w - y, 0.0), w, v)
    return np.where(y <= 0.0, 1.0 - p_hi, p_lo), np.where(y >= w, 1.0 - p_lo, p_hi)


def _first_through_0(x, y, w, v):
    """The series of _exit_probs through 0, for x in [0, w] and y >= 0.
    An entry stops once its next negative term, the larger one of the next
    pair, is below _TAIL: (x + kw)(y + kw) exceeds kw (kw + y - x) by
    xy + 2kwx >= 0."""
    c = -2.0 / v
    p = np.exp(c * x * y)
    rows = slice(None)
    k = 1
    while True:
        kw = k * w
        neg = np.exp(c * kw * (kw + y - x))
        more = neg >= _TAIL
        if not more.any():
            return p
        rows, x, y, neg = _compact(more, rows, x, y, neg)
        p[rows] += np.exp(c * (x + kw) * (y + kw)) - neg
        k += 1


def _strip_ratio(a, t, w, s2):
    """n^strip / n^half at time t: the density of first leaving the strip
    (0, w) through a barrier b, from a start at distance a < w from b, over
    the first-passage density to b alone, for a Brownian motion of
    variance s2 per unit time.  It lies in [0, 1].

    The strip's density is an image series of half-line ones (Borodin &
    Salminen 2002), so with E_k = 2 k^2 w^2/(s2 t) and u_k = 2 k w a/(s2 t)

        r = 1 + sum_{k>=1} e^{-E_k} (2 cosh u_k - 4 E_k sinh(u_k)/u_k).

    Each image pair is summed as e^{u-E} ((1 + e^{-2u}) - (2kw/a)(1 - e^{-2u}))
    with expm1 for 1 - e^{-2u}: u <= E since a <= w, so nothing overflows,
    and the difference stays accurate as a -> 0.
    """
    with np.errstate(divide="ignore"):
        c = 2.0 * w / (s2 * t)  # inf at t = 0, where every term is 0
    # pair k + 1 is at most e^{-k(k+1) E_1} (2 + 4 (k+1)^2 E_1), which
    # x e^{-x} <= 1/e bounds by 8 e^{-k(k+1) E_1/2}, E_1 = c w; an entry
    # stops once that is below _TAIL, that is once k(k+1) c > c_stop
    c_stop = 2.0 * math.log(8.0 / _TAIL) / w
    r = np.ones_like(a)
    rows = slice(None)
    k = 1
    while True:
        kw = k * w
        outer = np.exp(-k * c * (kw - a))  # e^{u - E}
        gap = -np.expm1(-2.0 * k * c * a)  # 1 - e^{-2u}
        r[rows] += outer * ((2.0 - gap) - (2.0 * kw / a) * gap)
        more = k * (k + 1) * c <= c_stop
        if not more.any():
            # a sum near 0 may round below it
            return np.clip(r, 0.0, 1.0)
        rows, a, c = _compact(more, rows, a, c)
        k += 1


def _compact(more, rows, *arrays):
    """The series' entries still summed: `arrays` cut to where `more`
    holds, and `rows`, their places in the sum (slice(None) before any
    cut), cut with them.  They are cut only once at most half are left, as
    gathering the rest costs about one more term for all; until then an
    entry that is done takes further terms, each below _TAIL."""
    if 2 * np.count_nonzero(more) > more.size:
        return (rows, *arrays)
    keep = np.flatnonzero(more)
    return (keep if isinstance(rows, slice) else rows[keep], *(x[keep] for x in arrays))


def _exit_times(a, c, w, s2, dt, rng):
    """One proposal round of in-step exit times for bridges of one step dt
    that leave the strip (0, w) first through a barrier b; a and c are the
    distances of the step's start and end to b.  Returns the proposed times
    and which of them are accepted.

    The proposal is the one-barrier bridge's first passage dt S/(dt + S),
    S ~ IG(a dt/c, a^2/s2) (Glasserman 2004, section 6.4), where the floor
    on c and the clip only bound an end on the barrier.  Its density is
    that of the strip over _strip_ratio, so a draw is accepted with that
    ratio; the caller draws the rejected ones again.
    """
    S = rng.wald(a * dt / np.maximum(c, 1e-12 * a), a * a / s2)
    t = dt * np.clip(S / (dt + S), 0.0, 1.0)
    return t, rng.random(a.size) < _strip_ratio(a, t, w, s2)


# path-steps per numpy pass of _outer_paths (see the module docstring), and
# paths per slice of every other per-path loop; 8192 doubles are 64 KB, so
# the temporaries of a pass or a slice stay below glibc's mmap threshold
_BLOCK = 8192


def _slices(n):
    """Consecutive slices of at most _BLOCK paths that cover range(n)."""
    return (slice(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK))


def _aggregate(payoffs: np.ndarray, truncation_bound: float) -> MCEstimate:
    n = payoffs.size
    # reproducible: the mean is numpy's pairwise sum, and the squared
    # deviations add up the pairwise sums of the _BLOCK slices in order, so
    # no temporary is n long
    mean = float(np.sum(payoffs) / n)
    var = sum(float(np.sum((payoffs[sl] - mean) ** 2)) for sl in _slices(n)) / (n - 1)
    std_err = math.sqrt(var / n)
    return MCEstimate(mean=mean, std_err=std_err, n_paths=n, truncation_bound=truncation_bound)


def _check_region(q_lo, q_hi, q0):
    if not 0.0 < q_lo < q_hi < 1.0:
        raise ParameterError(f"need 0 < q_lo < q_hi < 1, got {q_lo}, {q_hi}")
    _check_belief(q0)


def _outer_paths(params, cost, q_lo, q_hi, q0, cfg, rng):
    """Exact log-odds simulation of the first-stage exit.

    Returns (exit_time, exit_belief, discounted_cost_integral) arrays of
    records in exit order; the paths still inside at the horizon HORIZON/rho
    stop there with their current belief, in the last records.
    A constant cost integrates in closed form; any other cost by the
    trapezoid rule on the steps, the last one ending at the exit time.
    """
    _check_sigma(params)
    n, dt, rho = cfg.n_paths, cfg.dt, params.rho
    t_max = HORIZON / rho
    s = params.spread / params.sigma
    s2dt = s * s * dt
    half = 0.5 * s2dt  # the drift per step, +half under theta = 1
    vol = s * math.sqrt(dt)
    z_lo = _logit(q_lo)
    w = _logit(q_hi) - z_lo  # the strip's width in log-odds

    # a pass writes its exits to the records from r on.  The m live paths
    # hold the first m slots, the n_up with theta = 1 first so that the
    # drift is two slice updates: their heights x above z_lo and, for a
    # trapezoid, their cost integrals so far and their last costs.  The
    # paths are exchangeable, so one binomial draw gives the first n_up
    # slots theta = 1
    tau, q_exit = np.full(n, t_max), np.empty(n)
    r, n_up = 0, int(rng.binomial(n, q0))
    x = np.full(n, _logit(q0) - z_lo)
    trapezoid = not isinstance(cost, ConstantCost)
    if trapezoid:
        cost_int, run = np.empty(n), np.zeros(n)
        c_prev = np.full(n, cost_eval(cost, params, q0))

    # the exits whose proposals were rejected, as arrays (records, a, c), a
    # and c the distances of the exit substep's ends to the barrier left
    # through; tau holds the substep's start until a proposal is accepted
    waiting = []

    def draw_exits(recs, a, c):
        t_in, ok = _exit_times(a, c, w, s * s, dt, rng)
        done, t_in = recs[ok], t_in[ok]
        if trapezoid:
            # the exit substep's trapezoid, from its start, a from the
            # barrier, to the exit time and belief
            t0, q = tau[done], q_exit[done]
            x0 = np.where(q == q_hi, w - a[ok], a[ok])
            cost_int[done] += 0.5 * t_in * (
                np.exp(-rho * t0) * cost_eval(cost, params, _expit(x0 + z_lo))
                + np.exp(-rho * (t0 + t_in)) * cost_eval(cost, params, q)
            )
        tau[done] += t_in
        if not ok.all():
            waiting.append((recs[~ok], a[~ok], c[~ok]))

    def redraw():
        batch = [np.concatenate(v) for v in zip(*waiting)]
        waiting.clear()
        draw_exits(*batch)

    n_steps = int(round(t_max / dt))

    def advance(start, mc, nu, K, t, kept):
        """A pass: K substeps of the live slots [start, start + mc), nu of
        them with theta = 1, in (K, mc) arrays that flatten substep by
        substep.  The paths that stay move to the slots from kept on;
        returns how many stay, and how many of those have theta = 1."""
        nonlocal r
        cols = slice(start, start + mc)
        # row 0 of pos the start, row j + 1 the end of substep j
        pos = np.empty((K + 1, mc))
        y = pos[1:]
        rng.standard_normal((K, mc), out=y)
        y *= vol
        y[:, :nu] += half
        y[:, nu:] -= half
        y[0] += x[cols]
        if K > 1:  # a one-row cumsum is the identity, and slow
            np.cumsum(y, axis=0, out=y)
        pos[0] = x[cols]
        xs, ys = pos[:-1].ravel(), y.ravel()
        k, hi = _exit_sides(xs, ys, rng.random(K * mc), w, half, s2dt)
        col = k % mc
        if K > 1:
            # each path's first exit: k runs substep by substep, so a path's
            # first index is its earliest exit, and its later ones are void
            col, first = np.unique(col, return_index=True)
            k, hi = k[first], hi[first]
        j = k // mc  # the exit substep
        recs = slice(r, r + k.size)
        if k.size:
            b = np.where(hi, w, 0.0)  # the barrier left through
            tau[recs] = t + dt * j
            q_exit[recs] = np.where(hi, q_hi, q_lo)
            if trapezoid:
                cost_int[recs] = run[cols][col]  # the slot's integral so far
            draw_exits(np.arange(r, recs.stop), np.abs(xs[k] - b), np.abs(ys[k] - b))
            r = recs.stop
        if trapezoid:
            # each slot's trapezoids over its whole substeps, all K or the j
            # before its exit, into its integral and an exit's record;
            # draw_exits adds the exit substep's once its time is final
            t_sub = t + dt * np.arange(K + 1)  # substep j spans t_sub[j : j + 2]
            c_end = cost_eval(cost, params, _expit(y + z_lo))
            c_start = np.concatenate([c_prev[cols][None], c_end[:-1]])
            disc = np.exp(-rho * t_sub)
            term = 0.5 * (disc[:-1, None] * c_start + disc[1:, None] * c_end)
            term *= np.diff(t_sub)[:, None]
            whole = np.full(mc, K)
            whole[col] = j
            np.copyto(term, 0.0, where=np.arange(K)[:, None] >= whole)
            sums = term.sum(axis=0)
            cost_int[recs] += sums[col]
            run[cols] += sums
        stay = np.ones(mc, dtype=bool)
        stay[col] = False
        # the slots before kept + count(stay) <= start + mc are read
        # already, so the staying paths move forward in place; y[-1][stay],
        # not y[-1, stay]: numpy's fast path is 1-d masks
        dest = slice(kept, kept + int(np.count_nonzero(stay)))
        if trapezoid:
            c_prev[dest], run[dest] = c_end[-1][stay], run[cols][stay]
        x[dest] = y[-1][stay]
        return dest.stop, int(np.count_nonzero(stay[:nu]))

    m, step = n, 0
    while step < n_steps and m:
        K = min(max(1, _BLOCK // m), n_steps - step)
        kept = kept_up = 0  # the paths that stay, moved to the front
        for start in range(0, m, _BLOCK):
            mc = min(_BLOCK, m - start)
            kept, up = advance(start, mc, min(max(n_up - start, 0), mc), K, step * dt, kept)
            kept_up += up
            if sum(v[0].size for v in waiting) >= _BLOCK:
                redraw()
        m, n_up = kept, kept_up
        step += K

    while waiting:
        redraw()
    for sl in _slices(m):  # slot i is record r + i
        q_exit[r:][sl] = _expit(x[sl] + z_lo)
    if trapezoid:
        cost_int[r:] = run[:m]
    else:
        del x  # so that cost_int takes its memory
        cost_int = np.empty(n)
        for sl in _slices(n):
            cost_int[sl] = cost.c_i / rho * -np.expm1(-rho * tau[sl])
    return tau, q_exit, cost_int


def mc_value_outer(
    cost: CostSpec,
    ob: ObstacleFn,
    q_lo: float,
    q_hi: float,
    q0: float,
    cfg: SimConfig,
) -> MCEstimate:
    """Discounted value of the threshold policy: explore on (q_lo, q_hi),
    collect the obstacle at the first exit."""
    params = ob.params
    _check_region(q_lo, q_hi, q0)
    cfg.validate(params.rho)
    if q0 <= q_lo or q0 >= q_hi:
        return MCEstimate(obstacle_eval(ob, q0), 0.0, cfg.n_paths, 0.0)
    rng = _rng(cfg.seed)
    tau, q_exit, payoff = _outer_paths(params, cost, q_lo, q_hi, q0, cfg, rng)
    # the cost integral becomes the payoff in place, a slice at a time
    for sl in _slices(cfg.n_paths):
        payoff[sl] = np.exp(-params.rho * tau[sl]) * ob.on_grid(q_exit[sl]) - payoff[sl]
    return _aggregate(payoff, math.exp(-HORIZON) * max(params.h, params.mu))


def mc_value_nested_poisson(ob: ObstacleFn, q0: float, cfg: SimConfig) -> MCEstimate:
    """Event-exact nested valuation in a Poisson regime's ObstacleFn.

    Before the first jump the belief is constant, so the running utility
    integrates in closed form; the jump reveals the truth (to 1 with
    probability q0), after which the path either stays forever (payoff h)
    or stops and returns (payoff mu - r).  Stops immediately below q_b.
    """
    if not isinstance(ob.regime, PoissonSignal):
        raise ParameterError(f"nested Poisson value needs a Poisson regime, got {ob.regime!r}")
    return _nested_estimate(ob, q0, cfg)


def mc_value_nested_gaussian(ob: ObstacleFn, q0: float, cfg: SimConfig) -> MCEstimate:
    """Event-exact nested valuation in a Gaussian regime's ObstacleFn.

    Running utility rho e^{-rho t}(theta h + (1-theta) l) until the first
    q <= q_b, then payoff mu - r.  There is no time horizon, so the
    truncation bound is 0.
    """
    if not isinstance(ob.regime, GaussianSignal):
        raise ParameterError(f"nested Gaussian value needs a Gaussian regime, got {ob.regime!r}")
    return _nested_estimate(ob, q0, cfg)


def _nested_estimate(ob: ObstacleFn, q0: float, cfg: SimConfig) -> MCEstimate:
    _check_belief(q0)
    cfg.validate()
    if q0 <= ob.q_b:
        return MCEstimate(ob.params.mu - ob.regime.r, 0.0, cfg.n_paths, 0.0)
    return _aggregate(_nested_payoffs(ob, q0, cfg.n_paths, _rng(cfg.seed)), 0.0)


def _nested_payoffs(ob: ObstacleFn, q0: float, n: int, rng) -> np.ndarray:
    """The discounted nested values of n paths from the belief q0, drawn a
    slice of _BLOCK paths at a time."""
    payoff = np.empty(n)
    for sl in _slices(n):
        payoff[sl] = _nested_values(ob, np.full(sl.stop - sl.start, q0), rng)
    return payoff


def mc_value_composed(
    cost: CostSpec,
    ob: ObstacleFn,
    q_lo: float,
    q_hi: float,
    q0: float,
    cfg: SimConfig,
) -> MCEstimate:
    """Two-stage objective: explore, then either take mu at the lower exit
    or hand the exit belief to the nested simulator at the upper exit."""
    params = ob.params
    if isinstance(ob.regime, Irreversible):
        raise ParameterError("composed value needs a refined-signal regime")
    _check_region(q_lo, q_hi, q0)
    cfg.validate(params.rho)
    if q0 <= q_lo:
        return MCEstimate(params.mu, 0.0, cfg.n_paths, 0.0)
    if q0 >= q_hi:
        # every path hands q0 to the nested stage at t = 0, so nothing is
        # truncated
        return _aggregate(_nested_payoffs(ob, q0, cfg.n_paths, _nested_rng(cfg.seed)), 0.0)
    tau, q_exit, payoff = _outer_paths(params, cost, q_lo, q_hi, q0, cfg, _rng(cfg.seed))
    rng = _nested_rng(cfg.seed)
    # the cost integral becomes the payoff in place, a slice at a time
    for sl in _slices(cfg.n_paths):
        q = q_exit[sl]
        low = q <= q_lo
        value = np.where(low, params.mu, 0.0)
        hi = np.flatnonzero(~low)
        value[hi] = _nested_values(ob, q[hi], rng)
        payoff[sl] = np.exp(-params.rho * tau[sl]) * value - payoff[sl]
    return _aggregate(payoff, math.exp(-HORIZON) * max(params.h, params.mu))


def _nested_rng(seed: int) -> np.random.Generator:
    """The nested stage's stream of a composed estimate: a child of the
    seed, so no other seed's stream is reused."""
    return _rng(np.random.SeedSequence(seed).spawn(1)[0])


def _nested_values(ob: ObstacleFn, q0s, rng) -> np.ndarray:
    """Per-path discounted values of the nested policy of a refined
    regime from the beliefs q0s: mu - r at or below q_b.

    Poisson: the running utility of the constant belief until an Exp(lam)
    jump reveals the truth, then h or mu - r.  Gaussian: from log-odds
    distance d > 0 above q_b, the belief hits q_b with probability
    (1 - q0)/(1 - q_b), at a time ~ IG(2d/s^2, d^2/s^2) under either
    theta, and E[theta | hit] = q_b; a path that never hits has theta = 1
    and collects h.
    """
    p, q_b, ret = ob.params, ob.q_b, ob.params.mu - ob.regime.r
    if isinstance(ob.regime, PoissonSignal):
        value = np.full(q0s.size, ret)
        idx = np.flatnonzero(q0s > q_b)
        if idx.size:
            t_jump = rng.exponential(1.0 / ob.regime.lam, size=idx.size)
            to_high = rng.random(idx.size) < q0s[idx]
            disc = np.exp(-p.rho * t_jump)
            running = (q0s[idx] * p.h + (1.0 - q0s[idx]) * p.l) * (1.0 - disc)
            value[idx] = running + disc * np.where(to_high, p.h, ret)
        return value
    s2 = (p.spread / ob.regime.sigma_tilde) ** 2
    value = np.full(q0s.size, p.h)
    idx = np.flatnonzero(q0s < 1.0)
    d = _logit(q0s[idx]) - _logit(q_b)
    value[idx[~(d > 0.0)]] = ret
    idx, d = idx[d > 0.0], d[d > 0.0]
    hit = rng.random(idx.size) < (1.0 - q0s[idx]) / (1.0 - q_b)
    d = d[hit]
    disc = np.exp(-p.rho * rng.wald(2.0 * d / s2, d * d / s2))
    running = q_b * p.h + (1.0 - q_b) * p.l
    value[idx[hit]] = running * (1.0 - disc) + disc * ret
    return value
