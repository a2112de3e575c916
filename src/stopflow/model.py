"""Primitive parameters, information-cost functions and derived constants.

Everything here is immutable after construction and safe to share between
concurrent callers.  All derived quantities are evaluated in double
precision; powers with non-integer exponents go through exp/log so that the
q -> 0, 1 limits stay finite.  Cost rates, the nested Gaussian branch and
`_power` take a belief or an array of beliefs; a scalar in gives a float
out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

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
    c_i: float

    def __post_init__(self):
        if not self.c_i > 0:
            raise ParameterError(f"constant cost rate must be positive, got {self.c_i}")

    def __call__(self, params: ModelParams, q):
        return self.c_i if np.ndim(q) == 0 else np.full(np.shape(q), self.c_i)

    violates_lower_bound = False


@dataclass(frozen=True)
class VarianceCost:
    """C(q) = scale * Var[Theta | q] = scale * q(1-q)(h-l)^2.

    Vanishes at q in {0, 1}, so the usual positive lower bound on the cost
    rate fails there; solvers flag this in their metadata.
    """

    scale: float = 1.0

    def __post_init__(self):
        if self.scale < 0:
            raise ParameterError(f"scale must be >= 0, got {self.scale}")

    def __call__(self, params: ModelParams, q):
        return self.scale * q * (1.0 - q) * params.spread**2

    violates_lower_bound = True


@dataclass(frozen=True)
class StdDevVarianceCost:
    """C(q) = scale * sqrt(Var[Theta | q]) = scale * sqrt(q(1-q)) (h-l)."""

    scale: float = 1.0

    def __post_init__(self):
        if self.scale < 0:
            raise ParameterError(f"scale must be >= 0, got {self.scale}")

    def __call__(self, params: ModelParams, q):
        return self.scale * np.sqrt(np.maximum(q * (1.0 - q), 0.0)) * params.spread

    violates_lower_bound = True


@dataclass(frozen=True)
class TabulatedCost:
    """Piecewise-linear cost through sorted (q, cost) nodes on [0, 1]."""

    nodes: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        nodes = tuple((float(q), float(c)) for q, c in self.nodes)
        if len(nodes) < 2:
            raise ParameterError("tabulated cost needs at least two nodes")
        qs = [q for q, _ in nodes]
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ParameterError("tabulated cost nodes must be strictly increasing in q")
        if qs[0] < 0 or qs[-1] > 1:
            raise ParameterError("tabulated cost nodes must lie in [0, 1]")
        if any(c < 0 for _, c in nodes):
            raise ParameterError("tabulated costs must be >= 0")
        object.__setattr__(self, "nodes", nodes)

    def __call__(self, params: ModelParams, q):
        qs, cs = zip(*self.nodes)
        return np.interp(q, qs, cs)

    @property
    def violates_lower_bound(self) -> bool:
        return any(c <= 0 for _, c in self.nodes)


CostSpec = ConstantCost | VarianceCost | StdDevVarianceCost | TabulatedCost


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


def _check_fee(params: ModelParams, r: float, allow_limit_fee: bool) -> None:
    hi = params.mu - params.l
    if allow_limit_fee:
        ok = 0.0 < r <= hi
    else:
        ok = 0.0 < r < hi
    if not ok:
        raise ParameterError(
            f"return fee must satisfy 0 < r < mu - l = {hi}, got r={r}"
        )


# ---------------------------------------------------------------------------
# Derived constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivedConstants:
    """Constants appearing in the closed-form solutions.

    Fields that do not apply to the regime are None, never sentinel
    numbers, so that e.g. a Poisson threshold cannot silently leak into
    an irreversible computation.
    """

    k: float
    p_hat: float
    k_tilde: Optional[float] = None
    l_tilde: Optional[float] = None
    q_b: Optional[float] = None
    d_b: Optional[float] = None
    q_prime: Optional[float] = None


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


def gaussian_d_b(params: ModelParams, sigma_tilde: float, r: float) -> float:
    """Coefficient of the decaying basis term in the Gaussian nested value,
    fixed by smooth fit at the nested threshold."""
    k_t = exponent_k(params, sigma_tilde)
    m = 0.5 * (1.0 - k_t)
    q_b = gaussian_q_b(params, sigma_tilde, r)
    gap = (params.mu - r) - (q_b * params.h + (1.0 - q_b) * params.l)
    return gap / _power(q_b, m) / _power(1.0 - q_b, 1.0 - m)


def gaussian_d_b_alt(params: ModelParams, sigma_tilde: float, r: float) -> float:
    """Independent expression for the same coefficient (used as a
    cross-check):  (mu-l-r)/((1+k)/2) * [((1+k)/2)(h-mu+r) /
    (-(1-k)/2 (mu-l-r))]^{(1-k)/2}."""
    k_t = exponent_k(params, sigma_tilde)
    m = 0.5 * (1.0 - k_t)
    a = params.mu - params.l - r
    base = ((1.0 - m) * (params.h - params.mu + r)) / (-m * a)
    return a / (1.0 - m) * _power(base, m)


def _power(x, p: float):
    """x**p via exp/log for x > 0; exact limits at x = 0.

    x is a float or an array.  Scalars stay on the math module, which is
    much faster than numpy on single values (the smooth-fit Newton solve
    evaluates its basis one point at a time)."""
    if np.ndim(x) == 0:
        x = float(x)
        if x == 0.0:
            if p > 0:
                return 0.0
            if p == 0:
                return 1.0
            return math.inf
        try:
            return math.exp(p * math.log(x))
        except OverflowError:
            return math.inf
    if p == 0:
        return np.ones(np.shape(x))
    # log(0) = -inf gives the exact limits 0 (p > 0) and inf (p < 0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(p * np.log(x))


def gaussian_branch(params: ModelParams, m: float, d_b: float, q):
    """ODE branch q h + (1-q) l + d_b q^m (1-q)^{1-m} of the nested
    Gaussian value, valid for q > q_b; m = (1 - k_tilde)/2."""
    return q * params.h + (1.0 - q) * params.l + d_b * _power(q, m) * _power(1.0 - q, 1.0 - m)


def _gaussian_q_prime(params: ModelParams, sigma_tilde: float, r: float) -> float:
    # unique root of V_B(q) = mu on (q_b, 1); bracketed bisection
    q_b = gaussian_q_b(params, sigma_tilde, r)
    m = 0.5 * (1.0 - exponent_k(params, sigma_tilde))
    d_b = gaussian_d_b(params, sigma_tilde, r)
    lo, hi = q_b, 1.0 - 1e-15
    f_lo = gaussian_branch(params, m, d_b, max(lo, 1e-300)) - params.mu
    if f_lo > 0:  # numerically already above mu at q_b; root collapses to q_b
        return q_b
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gaussian_branch(params, m, d_b, mid) - params.mu <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def derive_constants(
    params: ModelParams,
    refined: RefinedSignalSpec,
    allow_limit_fee: bool = False,
) -> DerivedConstants:
    """Populate every constant applicable to the regime.

    Rejects sigma = 0 (the degenerate case has its own closed form, see
    :func:`degenerate_value`), r >= mu - l, and sigma_tilde > sigma.
    """
    if params.sigma == 0:
        raise ParameterError("sigma = 0 is degenerate; use degenerate_value instead")
    k = exponent_k(params)
    p_hat = params.p_hat

    if isinstance(refined, Irreversible):
        return DerivedConstants(k=k, p_hat=p_hat)

    if isinstance(refined, PoissonSignal):
        _check_fee(params, refined.r, allow_limit_fee)
        l_t = poisson_l_tilde(params, refined.lam, refined.r)
        q_b = poisson_q_b(params, refined.lam, refined.r)
        q_prime = (params.mu - l_t) / (params.h - l_t)
        return DerivedConstants(
            k=k, p_hat=p_hat, l_tilde=l_t, q_b=q_b, q_prime=q_prime
        )

    if isinstance(refined, GaussianSignal):
        _check_fee(params, refined.r, allow_limit_fee)
        if refined.sigma_tilde > params.sigma:
            raise ParameterError(
                f"sigma_tilde={refined.sigma_tilde} exceeds sigma={params.sigma}"
            )
        k_t = exponent_k(params, refined.sigma_tilde)
        q_b = gaussian_q_b(params, refined.sigma_tilde, refined.r)
        d_b = gaussian_d_b(params, refined.sigma_tilde, refined.r)
        q_prime = _gaussian_q_prime(params, refined.sigma_tilde, refined.r)
        return DerivedConstants(
            k=k, p_hat=p_hat, k_tilde=k_t, q_b=q_b, d_b=d_b, q_prime=q_prime
        )

    raise ParameterError(f"unknown refined-signal spec {refined!r}")


def degenerate_value(params: ModelParams, q: float) -> float:
    """Value when the first-stage signal is perfectly revealing (sigma = 0):
    the belief jumps to the truth at time zero, so V(q) = q h + (1-q) mu."""
    return q * params.h + (1.0 - q) * params.mu
