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
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
    _power,
    derive_constants,
    exponent_k,
    gaussian_branch,
    gaussian_d_b,
    gaussian_q_b,
    poisson_l_tilde,
    poisson_q_b,
)


def g_irreversible(params: ModelParams, q):
    """max(mu, q h + (1-q) l), kinked at p_hat."""
    return np.maximum(params.mu, q * params.h + (1.0 - q) * params.l)


def _nested(params: ModelParams, r: float, q_b: float, branch, q):
    """V_B: the immediate return mu - r up to q_b, the regime's branch above.
    Both sides are evaluated; a float belief gives a float."""
    v = np.where(q <= q_b, params.mu - r, branch)
    return float(v) if v.ndim == 0 else v


def vb_poisson(params: ModelParams, lam: float, r: float, q):
    """Nested value under the truth-revealing Poisson signal: mu - r on
    [0, q_b], then the line q h + (1-q) l_tilde."""
    if not (0.0 < r < params.mu - params.l):
        raise ParameterError(f"return fee must lie in (0, mu - l), got {r}")
    if not lam > 0:
        raise ParameterError(f"Poisson intensity must be positive, got {lam}")
    l_t = poisson_l_tilde(params, lam, r)
    return _nested(params, r, poisson_q_b(params, lam, r), q * params.h + (1.0 - q) * l_t, q)


def vb_gaussian(params: ModelParams, sigma_tilde: float, r: float, q):
    """Nested value under the refined Gaussian signal; C^1 at q_b by
    construction and equal to h at q = 1 (the power term vanishes there)."""
    if not (0.0 < r < params.mu - params.l):
        raise ParameterError(f"return fee must lie in (0, mu - l), got {r}")
    if not (0.0 < sigma_tilde <= params.sigma):
        raise ParameterError(
            f"need 0 < sigma_tilde <= sigma, got {sigma_tilde} vs {params.sigma}"
        )
    m = 0.5 * (1.0 - exponent_k(params, sigma_tilde))
    branch = gaussian_branch(params, m, gaussian_d_b(params, sigma_tilde, r), q)
    return _nested(params, r, gaussian_q_b(params, sigma_tilde, r), branch, q)


def vb_gaussian_slope(params: ModelParams, sigma_tilde: float, r: float, q: float) -> float:
    """Analytic derivative of the ODE branch of the Gaussian nested value."""
    k_t = exponent_k(params, sigma_tilde)
    m = 0.5 * (1.0 - k_t)
    d_b = gaussian_d_b(params, sigma_tilde, r)
    return params.spread + d_b * _power(q, m - 1.0) * _power(1.0 - q, -m) * (m - q)


@dataclass(frozen=True)
class ObstacleFn:
    """Bundles regime, params and derived constants; callable on beliefs."""

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

    def slope(self, q: float) -> float:
        """Right-hand obstacle slope, the smooth-fit target at the upper
        boundary (only meaningful to the right of the crossing point)."""
        p = self.params
        if isinstance(self.regime, Irreversible):
            return p.spread
        if isinstance(self.regime, PoissonSignal):
            return p.h - self.constants.l_tilde
        return vb_gaussian_slope(p, self.regime.sigma_tilde, self.regime.r, q)


def obstacle_eval(ob: ObstacleFn, q):
    """G~(q): irreversible payoff, or max(mu, V_B(q)) in refined regimes.

    One pass over an array of beliefs, with the regime constants taken
    from ob.constants; a float belief gives a float."""
    p, c = ob.params, ob.constants
    if isinstance(ob.regime, Irreversible):
        g = g_irreversible(p, q)
    else:
        if isinstance(ob.regime, PoissonSignal):
            branch = q * p.h + (1.0 - q) * c.l_tilde
        else:
            branch = gaussian_branch(p, 0.5 * (1.0 - c.k_tilde), c.d_b, q)
        g = np.maximum(p.mu, _nested(p, ob.regime.r, c.q_b, branch, q))
    return float(g) if np.ndim(g) == 0 else g


def crossing_point(ob: ObstacleFn) -> float:
    """Belief where the obstacle switches off its flat mu branch: the
    derived q' in the refined regimes, the kink p_hat otherwise."""
    q_prime = ob.constants.q_prime
    return ob.params.p_hat if q_prime is None else q_prime
