"""Stopping payoffs ("obstacles") for the outer problem.

Each regime yields an obstacle on [0, 1]: the irreversible piecewise-linear
payoff, or max(mu, V_B) with V_B the nested continuation value of keeping
the unknown product under the refined signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DerivedConstants,
    Irreversible,
    ModelParams,
    PoissonSignal,
    RefinedSignalSpec,
    derive_constants,
    gaussian_branch,
    gaussian_branch_slope,
)


def g_irreversible(params: ModelParams, q):
    """max(mu, q h + (1-q) l), kinked at p_hat."""
    return np.maximum(params.mu, q * params.h + (1.0 - q) * params.l)


@dataclass(frozen=True)
class ObstacleFn:
    """Bundles regime, params and derived constants; callable on beliefs.

    The one owner of a regime's stopping payoff: its value, its slope and,
    in the refined regimes, the nested value V_B, all read from the
    constants."""

    params: ModelParams
    regime: RefinedSignalSpec
    constants: DerivedConstants

    @classmethod
    def create(cls, params: ModelParams, regime: RefinedSignalSpec) -> "ObstacleFn":
        return cls(params=params, regime=regime, constants=derive_constants(params, regime))

    def __call__(self, q: float) -> float:
        return obstacle_eval(self, q)

    def on_grid(self, qs: np.ndarray) -> np.ndarray:
        return obstacle_eval(self, np.asarray(qs, dtype=float))

    def nested(self, q):
        """V_B of a refined regime: the immediate return mu - r up to q_b,
        then the line q h + (1-q) l_tilde (Poisson) or the Gaussian ODE
        branch, which is C^1 at q_b and equal to h at q = 1.  Both sides
        are evaluated; a float belief gives a float."""
        p, c = self.params, self.constants
        if isinstance(self.regime, PoissonSignal):
            branch = q * p.h + (1.0 - q) * c.l_tilde
        else:
            branch = gaussian_branch(p, 0.5 * (1.0 - c.k_tilde), c.log_d_b, q)
        v = np.where(q <= c.q_b, p.mu - self.regime.r, branch)
        return float(v) if v.ndim == 0 else v

    def slope(self, q: float) -> float:
        """Right-hand obstacle slope, the smooth-fit target at the upper
        boundary (only meaningful to the right of the crossing point)."""
        p, c = self.params, self.constants
        if c.k_tilde is not None:
            return gaussian_branch_slope(p, 0.5 * (1.0 - c.k_tilde), c.log_d_b, q)
        return p.h - (p.l if c.l_tilde is None else c.l_tilde)


def obstacle_eval(ob: ObstacleFn, q):
    """G~(q): irreversible payoff, or max(mu, V_B(q)) in refined regimes.

    One pass over an array of beliefs, with the regime constants taken
    from ob.constants; a float belief gives a float."""
    if isinstance(ob.regime, Irreversible):
        g = g_irreversible(ob.params, q)
    else:
        g = np.maximum(ob.params.mu, ob.nested(q))
    return float(g) if np.ndim(g) == 0 else g


def crossing_point(ob: ObstacleFn) -> float:
    """Belief where the obstacle switches off its flat mu branch: the
    derived q' in the refined regimes, the kink p_hat otherwise."""
    q_prime = ob.constants.q_prime
    return ob.params.p_hat if q_prime is None else q_prime
