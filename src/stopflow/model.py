"""Primitive parameters, information-cost functions and the formulas of the
refined stage's constants (obstacles.ObstacleFn collects them per regime).

Everything here is immutable after construction and safe to share between
concurrent callers.  All derived quantities are evaluated in double
precision; powers with non-integer exponents go through exp/log so that the
q -> 0, 1 limits stay finite.  Cost rates, the nested Gaussian branch and
`_qpow` take a belief or an array of beliefs; a scalar in gives a float
out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class ParameterError(ValueError):
    """Raised when model or signal parameters violate their constraints."""


@dataclass(frozen=True)
class ModelParams:
    """Market / learning primitives: discount rate, signal volatility and
    the three product values with 0 < l < mu < h."""

    rho: float
    sigma: float
    h: float
    l: float
    mu: float

    def __post_init__(self):
        if not self.rho > 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if not (0 < self.l < self.mu < self.h):
            raise ParameterError(
                f"need 0 < l < mu < h, got l={self.l}, mu={self.mu}, h={self.h}"
            )

    @property
    def spread(self) -> float:
        return self.h - self.l

    @property
    def p_hat(self) -> float:
        """Kink of the immediate-choice payoff, (mu - l)/(h - l)."""
        return (self.mu - self.l) / (self.h - self.l)


# ---------------------------------------------------------------------------
# Information costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantCost:
    """C(q) = c_i: one cost rate at every belief, in value units per unit
    time.  The only cost with a closed form (closed_form.smooth_fit)."""

    c_i: float

    def __post_init__(self):
        if not self.c_i > 0:
            raise ParameterError(f"constant cost rate must be positive, got {self.c_i}")

    def __call__(self, params: ModelParams, q):
        return self.c_i if np.ndim(q) == 0 else np.full(np.shape(q), self.c_i)


@dataclass(frozen=True)
class VarianceCost:
    """C(q) = scale * Var[Theta | q] = scale * q(1-q)(h-l)^2.

    Vanishes at q in {0, 1}, so the usual positive lower bound on the cost
    rate fails there.
    """

    scale: float = 1.0

    def __post_init__(self):
        if self.scale < 0:
            raise ParameterError(f"scale must be >= 0, got {self.scale}")

    def __call__(self, params: ModelParams, q):
        return self.scale * q * (1.0 - q) * params.spread**2


@dataclass(frozen=True)
class StdDevVarianceCost:
    """C(q) = scale * sqrt(Var[Theta | q]) = scale * sqrt(q(1-q)) (h-l)."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale < 0:
            raise ParameterError(f"scale must be >= 0, got {self.scale}")

    def __call__(self, params: ModelParams, q):
        return self.scale * np.sqrt(np.maximum(q * (1.0 - q), 0.0)) * params.spread


CostSpec = ConstantCost | VarianceCost | StdDevVarianceCost


def cost_eval(cost: CostSpec, params: ModelParams, q):
    """Cost rate C(q) for any cost variant; total on q in [0, 1].

    q is a belief (float out) or an array of beliefs (array out)."""
    qa = np.asarray(q, dtype=float)
    # written so that a nan belief fails the check too
    if qa.size and not (qa.min() >= 0.0 and qa.max() <= 1.0):
        raise ParameterError(f"belief must lie in [0, 1], got {q}")
    c = cost(params, qa)
    return float(c) if qa.ndim == 0 else c


# ---------------------------------------------------------------------------
# Second-stage (refined signal) regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Irreversible:
    """Single-decision regime: no refined signal, no return option."""


@dataclass(frozen=True)
class PoissonSignal:
    """Truth-revealing Poisson arrival with rate lam; return fee r."""

    lam: float
    r: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ParameterError(f"Poisson intensity must be positive, got {self.lam}")


@dataclass(frozen=True)
class GaussianSignal:
    """Refined Gaussian signal with smaller volatility sigma_tilde; fee r."""

    sigma_tilde: float
    r: float

    def __post_init__(self):
        if not self.sigma_tilde > 0:
            raise ParameterError(
                f"refined volatility must be positive, got {self.sigma_tilde}"
            )


RefinedSignalSpec = Irreversible | PoissonSignal | GaussianSignal


def _check_fee(params: ModelParams, r: float) -> None:
    if not 0.0 < r < params.mu - params.l:
        raise ParameterError(
            f"return fee must satisfy 0 < r < mu - l = {params.mu - params.l}, got r={r}"
        )


def _check_sigma(params: ModelParams) -> None:
    # the PDE and the smooth-fit exponents need a noisy first-stage signal
    if params.sigma == 0:
        raise ParameterError("sigma = 0 is degenerate: use model.degenerate_value")


# ---------------------------------------------------------------------------
# Refined-stage constants
# ---------------------------------------------------------------------------

def exponent_k(params: ModelParams, sigma: Optional[float] = None) -> float:
    """k = sqrt(1 + 8 rho (sigma/(h-l))^2); always > 1 for sigma > 0."""
    s = params.sigma if sigma is None else sigma
    return math.sqrt(1.0 + 8.0 * params.rho * (s / params.spread) ** 2)


def poisson_l_tilde(params: ModelParams, lam: float, r: float) -> float:
    """Effective low value under the Poisson return option,
    rho/(rho+lam) * l + lam/(rho+lam) * (mu - r)."""
    w = lam / (params.rho + lam)
    return (1.0 - w) * params.l + w * (params.mu - r)


def poisson_q_b(params: ModelParams, lam: float, r: float) -> float:
    """Nested stopping threshold rho(mu-l-r)/(lam(h-mu+r) + rho(h-l))."""
    num = params.rho * (params.mu - params.l - r)
    den = lam * ((params.h - params.mu) + r) + params.rho * params.spread
    return num / den


def gaussian_q_b(params: ModelParams, sigma_tilde: float, r: float) -> float:
    k_t = exponent_k(params, sigma_tilde)
    m = 0.5 * (1.0 - k_t)
    a = params.l - params.mu + r
    return (a * m) / (params.spread * (1.0 - m) + a)


def gaussian_log_d_b(params: ModelParams, sigma_tilde: float, r: float) -> float:
    """log d_b, d_b the coefficient of the decaying basis term in the
    Gaussian nested value, fixed by smooth fit at the nested threshold.
    Kept in logs: d_b under- or overflows once k_tilde reaches the hundreds."""
    m = 0.5 * (1.0 - exponent_k(params, sigma_tilde))
    q_b = gaussian_q_b(params, sigma_tilde, r)
    gap = (params.mu - r) - (q_b * params.h + (1.0 - q_b) * params.l)
    return math.log(gap) - m * math.log(q_b) - (1.0 - m) * math.log1p(-q_b)


def _qpow(q, a: float, b: float, log_c: float = 0.0):
    """c q^a (1-q)^b, summed in logs so that huge or tiny factors cannot
    over- or underflow on their own; exact limits at q = 0 and 1 for
    nonzero a, b.

    q is a float or an array.  Floats stay on the math module, which is
    much faster than numpy on single values."""
    if np.ndim(q) == 0:
        q = float(q)
        lq = math.log(q) if q > 0.0 else -math.inf
        lp = math.log1p(-q) if q < 1.0 else -math.inf
        try:
            return math.exp(log_c + a * lq + b * lp)
        except OverflowError:
            return math.inf
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(log_c + a * np.log(q) + b * np.log1p(-q))


def gaussian_branch(params: ModelParams, m: float, log_d_b: float, q):
    """ODE branch q h + (1-q) l + d_b q^m (1-q)^{1-m} of the nested
    Gaussian value, valid for q > q_b; m = (1 - k_tilde)/2."""
    return q * params.h + (1.0 - q) * params.l + _qpow(q, m, 1.0 - m, log_d_b)


def gaussian_branch_slope(params: ModelParams, m: float, log_d_b: float, q: float) -> float:
    """Derivative h - l - (q - m) d_b q^{m-1} (1-q)^{-m} of the branch."""
    return params.spread - (q - m) * _qpow(q, m - 1.0, -m, log_d_b)


def _gaussian_q_prime(params: ModelParams, m: float, log_d_b: float) -> float:
    # unique root of V_B(q) = mu on (q_b, 1).  V_B is convex and increasing
    # there, so Newton from q = 1 falls monotonically onto the root; its
    # first step lands on p_hat, where the line q h + (1-q) l reaches mu
    q = params.p_hat
    for _ in range(200):
        f = gaussian_branch(params, m, log_d_b, q) - params.mu
        if not f > 0.0:
            break
        step = f / gaussian_branch_slope(params, m, log_d_b, q)
        q -= step
        if step <= 4e-16 * q:
            break
    return q


def degenerate_value(params: ModelParams, q: float) -> float:
    """Value when the first-stage signal is perfectly revealing (sigma = 0):
    the belief jumps to the truth at time zero, so V(q) = q h + (1-q) mu."""
    return q * params.h + (1.0 - q) * params.mu
