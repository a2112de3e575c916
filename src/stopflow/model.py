"""Primitive parameters, information-cost functions, the refined-signal
regimes and their checks, and the power-law primitives (exponent_k,
exponents, _qpow) that the refined stage and the closed form are written
in.  The refined stage's constants themselves are derived in
obstacles.ObstacleFn.create.

Everything here is immutable after construction and safe to share between
concurrent callers.  All derived quantities are evaluated in double
precision; powers with non-integer exponents go through exp/log so that the
q -> 0, 1 limits stay finite.  Cost rates and `_qpow` take a belief or an
array of beliefs; a scalar in gives a float out.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


class ParameterError(ValueError):
    """Raised when model or signal parameters violate their constraints."""


def _check_finite(record) -> None:
    """Refuses a record with a nan or infinite field: each record's range
    checks let some through, and on them the solvers fail or never stop."""
    for name, value in vars(record).items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _check_count(record, *names) -> None:
    """Refuses a named count field that operator.index rejects, such as
    nan, 1000.5 or 100.0, which numpy would meet with a bare TypeError."""
    for name in names:
        value = getattr(record, name)
        try:
            operator.index(value)
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {value!r}") from None


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
        _check_finite(self)
        if not self.rho > 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if not (0 < self.l < self.mu < self.h):
            raise ParameterError(
                f"need 0 < l < mu < h, got l={self.l}, mu={self.mu}, h={self.h}"
            )
        # a signal this weak against h - l (h above about 9e8 at the other
        # defaults) is sigma = 0 to double precision: FD stalls, and k - 1,
        # the closed form's boundaries and FD's ((h - l)/sigma)^2 under- or
        # overflow
        if self.sigma > 0 and exponent_k(self) == 1.0:
            raise ParameterError(
                f"sigma/(h - l) = {self.sigma / self.spread:.3g} rounds "
                "k = sqrt(1 + 8 rho (sigma/(h - l))^2) to 1, as at sigma = 0"
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
        _check_finite(self)
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
        _check_finite(self)
        if self.scale < 0:
            raise ParameterError(f"scale must be >= 0, got {self.scale}")

    def __call__(self, params: ModelParams, q):
        return self.scale * q * (1.0 - q) * params.spread**2


@dataclass(frozen=True)
class StdDevVarianceCost:
    """C(q) = scale * sqrt(Var[Theta | q]) = scale * sqrt(q(1-q)) (h-l)."""

    scale: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if self.scale < 0:
            raise ParameterError(f"scale must be >= 0, got {self.scale}")

    def __call__(self, params: ModelParams, q):
        return self.scale * np.sqrt(np.maximum(q * (1.0 - q), 0.0)) * params.spread


CostSpec = ConstantCost | VarianceCost | StdDevVarianceCost


def _check_belief(q) -> np.ndarray:
    """q, a belief or a sequence of them, as a float array; a ParameterError
    names the beliefs outside [0, 1]."""
    qa = np.asarray(q, dtype=float)
    bad = qa[~((qa >= 0.0) & (qa <= 1.0))]  # nan fails both comparisons
    if bad.size:
        raise ParameterError(f"belief must lie in [0, 1], got {bad.tolist()}")
    return qa


def cost_eval(cost: CostSpec, params: ModelParams, q):
    """Cost rate C(q) for any cost variant; total on q in [0, 1].

    q is a belief (float out) or an array of beliefs (array out)."""
    qa = _check_belief(q)
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
        _check_finite(self)
        if not self.lam > 0:
            raise ParameterError(f"Poisson intensity must be positive, got {self.lam}")


@dataclass(frozen=True)
class GaussianSignal:
    """Refined Gaussian signal with smaller volatility sigma_tilde; fee r."""

    sigma_tilde: float
    r: float

    def __post_init__(self):
        _check_finite(self)
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
# Power-law primitives
# ---------------------------------------------------------------------------

def exponent_k(params: ModelParams, sigma: Optional[float] = None) -> float:
    """k = sqrt(1 + 8 rho (sigma/(h-l))^2); always > 1 for sigma > 0."""
    return exponents(params, sigma)[0]


def exponents(
    params: ModelParams, sigma: Optional[float] = None
) -> Tuple[float, float, float]:
    """(k, k^2 - 1, k - 1) of exponent_k, the last two free of cancellation:
    k^2 - 1 = 8 rho (sigma/(h-l))^2 and k - 1 = (k^2 - 1)/(1 + k)."""
    s = params.sigma if sigma is None else sigma
    k2m1 = 8.0 * params.rho * (s / params.spread) ** 2
    k = math.sqrt(1.0 + k2m1)
    return k, k2m1, k2m1 / (1.0 + k)


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


def degenerate_value(params: ModelParams, q: float) -> float:
    """Value when the first-stage signal is perfectly revealing (sigma = 0):
    the belief jumps to the truth at time zero, so V(q) = q h + (1-q) mu."""
    return q * params.h + (1.0 - q) * params.mu
