"""Stopping payoffs ("obstacles") for the outer problem.

Each regime yields an obstacle on [0, 1]: the irreversible piecewise-linear
payoff, or max(mu, V_B) with V_B the nested continuation value of keeping
the unknown product under the refined signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    GaussianSignal,
    Irreversible,
    ModelParams,
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
    _check_fee,
    _gaussian_q_prime,
    exponent_k,
    gaussian_branch,
    gaussian_branch_slope,
    gaussian_log_d_b,
    gaussian_q_b,
    poisson_l_tilde,
    poisson_q_b,
)


def g_irreversible(params: ModelParams, q):
    """max(mu, q h + (1-q) l), kinked at p_hat."""
    return np.maximum(params.mu, q * params.h + (1.0 - q) * params.l)


@dataclass(frozen=True)
class ObstacleFn:
    """A regime's stopping payoff, callable on beliefs, and the one record
    of the refined stage's constants, which create() computes.

    Its value, its slope and, in the refined regimes, the nested value V_B
    all read the fields below.  A field that does not apply to the regime
    is None, never a sentinel number, so that e.g. a Poisson threshold
    cannot silently leak into an irreversible computation.

    low: where the obstacle's line q h + (1-q) low ends at q = 0: l, or
        l_tilde under the Poisson return option.
    q_b: the nested stopping threshold (refined regimes).
    k_tilde, log_d_b: the refined exponent and log of the decaying basis
        coefficient of the Gaussian nested value.
    q_prime: the crossing V_B(q') = mu (refined regimes).
    """

    params: ModelParams
    regime: RefinedSignalSpec
    low: float
    q_b: Optional[float] = None
    k_tilde: Optional[float] = None
    log_d_b: Optional[float] = None
    q_prime: Optional[float] = None

    @classmethod
    def create(cls, params: ModelParams, regime: RefinedSignalSpec) -> "ObstacleFn":
        """Every constant the regime uses.  Rejects r outside (0, mu - l)
        and sigma_tilde > sigma."""
        if isinstance(regime, Irreversible):
            return cls(params, regime, params.l)
        if not isinstance(regime, (PoissonSignal, GaussianSignal)):
            raise ParameterError(f"unknown refined-signal spec {regime!r}")
        _check_fee(params, regime.r)
        if isinstance(regime, PoissonSignal):
            low = poisson_l_tilde(params, regime.lam, regime.r)
            q_prime = (params.mu - low) / (params.h - low)
            return cls(params, regime, low, poisson_q_b(params, regime.lam, regime.r),
                       q_prime=q_prime)
        st = regime.sigma_tilde
        if st > params.sigma:
            raise ParameterError(f"sigma_tilde={st} exceeds sigma={params.sigma}")
        k_t = exponent_k(params, st)
        log_d_b = gaussian_log_d_b(params, st, regime.r)
        q_prime = _gaussian_q_prime(params, 0.5 * (1.0 - k_t), log_d_b)
        return cls(params, regime, params.l, gaussian_q_b(params, st, regime.r),
                   k_t, log_d_b, q_prime)

    def __call__(self, q: float) -> float:
        return obstacle_eval(self, q)

    def on_grid(self, qs: np.ndarray) -> np.ndarray:
        return obstacle_eval(self, np.asarray(qs, dtype=float))

    def nested(self, q):
        """V_B of a refined regime: the immediate return mu - r up to q_b,
        then the line q h + (1-q) l_tilde (Poisson) or the Gaussian ODE
        branch, which is C^1 at q_b and equal to h at q = 1.  Both sides
        are evaluated; a float belief gives a float."""
        p = self.params
        if self.k_tilde is None:
            branch = q * p.h + (1.0 - q) * self.low
        else:
            branch = gaussian_branch(p, 0.5 * (1.0 - self.k_tilde), self.log_d_b, q)
        v = np.where(q <= self.q_b, p.mu - self.regime.r, branch)
        return float(v) if v.ndim == 0 else v

    def slope(self, q: float) -> float:
        """Right-hand obstacle slope, the smooth-fit target at the upper
        boundary (only meaningful to the right of the crossing point)."""
        if self.k_tilde is not None:
            return gaussian_branch_slope(
                self.params, 0.5 * (1.0 - self.k_tilde), self.log_d_b, q
            )
        return self.params.h - self.low


def obstacle_eval(ob: ObstacleFn, q):
    """G~(q): irreversible payoff, or max(mu, V_B(q)) in refined regimes.

    One pass over an array of beliefs, with the regime constants taken
    from ob; a float belief gives a float."""
    if isinstance(ob.regime, Irreversible):
        g = g_irreversible(ob.params, q)
    else:
        g = np.maximum(ob.params.mu, ob.nested(q))
    return float(g) if np.ndim(g) == 0 else g


def crossing_point(ob: ObstacleFn) -> float:
    """Belief where the obstacle switches off its flat mu branch: the
    derived q' in the refined regimes, the kink p_hat otherwise."""
    return ob.params.p_hat if ob.q_prime is None else ob.q_prime
