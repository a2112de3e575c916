"""Stopping payoffs ("obstacles") for the outer problem, and the refined
stage's constants they are built from.

Each regime yields an obstacle on [0, 1]: the irreversible piecewise-linear
payoff, or max(mu, V_B) with V_B the nested continuation value of keeping
the unknown product under the refined signal.  This module is the one
place where V_B's constants are derived: ObstacleFn.create computes them
(the Poisson l_tilde and q_b, the Gaussian k_tilde, q_b and log d_b, and
the crossing q'), and the finite differences, the closed form, Monte Carlo
and the limit ladders all read them from the ObstacleFn.
"""

from __future__ import annotations

import math
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
    _qpow,
    exponents,
)


@dataclass(frozen=True)
class ObstacleFn:
    """A regime's stopping payoff, evaluated by obstacle_eval and on_grid,
    and the one record of the refined stage's constants, which create()
    computes.

    Its value, its slope and, in the refined regimes, the nested value V_B
    all read the fields below.  A field that does not apply to the regime
    is None, never a sentinel number, so that e.g. a Poisson threshold
    cannot silently leak into an irreversible computation.

    low: where the obstacle's line q h + (1-q) low ends at q = 0: l, or
        l_tilde under the Poisson return option.
    q_b: the nested stopping threshold (refined regimes).
    k_tilde, m, log_d_b: the refined exponent, the power
        m = (1 - k_tilde)/2 = -(k_tilde - 1)/2 of q in the decaying basis
        q^m (1-q)^(1-m), with k_tilde - 1 free of cancellation, and the log
        of that basis's coefficient in the Gaussian nested value.
    q_prime: the crossing V_B(q') = mu (refined regimes).
    """

    params: ModelParams
    regime: RefinedSignalSpec
    low: float
    q_b: Optional[float] = None
    k_tilde: Optional[float] = None
    m: Optional[float] = None
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
        r = regime.r
        if isinstance(regime, PoissonSignal):
            # l_tilde = rho/(rho+lam) l + lam/(rho+lam) (mu - r), and the
            # threshold rho(mu-l-r)/(lam(h-mu+r) + rho(h-l))
            lam, rho = regime.lam, params.rho
            w = lam / (rho + lam)
            low = (1.0 - w) * params.l + w * (params.mu - r)
            q_b = (rho * (params.mu - params.l - r)) / (
                lam * ((params.h - params.mu) + r) + rho * params.spread
            )
            return cls(params, regime, low, q_b,
                       q_prime=(params.mu - low) / (params.h - low))
        st = regime.sigma_tilde
        if st > params.sigma:
            raise ParameterError(f"sigma_tilde={st} exceeds sigma={params.sigma}")
        # V_B = q h + (1-q) l + d_b q^m (1-q)^{1-m} above q_b, m = (1-k_tilde)/2;
        # smooth fit at q_b fixes q_b and d_b.  d_b is kept in logs: it under-
        # or overflows once k_tilde reaches the hundreds
        h, l, mu = params.h, params.l, params.mu
        k_t, _, km1 = exponents(params, st)
        if k_t == 1.0:  # too weak a signal for double precision, as in ModelParams
            raise ParameterError(
                f"sigma_tilde/(h - l) = {st / params.spread:.3g} rounds k_tilde to 1"
            )
        m = -0.5 * km1
        a = l - mu + r
        q_b = (a * m) / (params.spread * (1.0 - m) + a)
        gap = (mu - r) - (q_b * h + (1.0 - q_b) * l)
        log_d_b = math.log(gap) - m * math.log(q_b) - (1.0 - m) * math.log1p(-q_b)
        # q' is the unique root of V_B(q) = mu on (q_b, 1).  V_B is convex
        # and increasing there, so Newton from q = 1 falls monotonically onto
        # the root; its first step lands on p_hat, where q h + (1-q) l = mu
        q = params.p_hat
        for _ in range(200):
            f = q * h + (1.0 - q) * l + _qpow(q, m, 1.0 - m, log_d_b) - mu
            if not f > 0.0:
                break
            step = f / (params.spread - (q - m) * _qpow(q, m - 1.0, -m, log_d_b))
            q -= step
            if step <= 4e-16 * q:
                break
        return cls(params, regime, l, q_b, k_t, m, log_d_b, q)

    def on_grid(self, qs: np.ndarray) -> np.ndarray:
        return obstacle_eval(self, np.asarray(qs, dtype=float))

    def nested(self, q):
        """V_B of a refined regime: the immediate return mu - r up to q_b,
        then the line q h + (1-q) l_tilde (Poisson) or the Gaussian ODE
        branch, which is C^1 at q_b and equal to h at q = 1.  Both sides
        are evaluated; a float belief gives a float."""
        p = self.params
        branch = q * p.h + (1.0 - q) * self.low
        if self.m is not None:
            # the Gaussian ODE branch adds d_b q^m (1-q)^{1-m}
            branch = branch + _qpow(q, self.m, 1.0 - self.m, self.log_d_b)
        v = np.where(q <= self.q_b, p.mu - self.regime.r, branch)
        return float(v) if v.ndim == 0 else v

    def slope(self, q: float) -> float:
        """Right-hand obstacle slope, the smooth-fit target at the upper
        boundary (only meaningful to the right of the crossing point):
        h - low, less (q - m) d_b q^{m-1} (1-q)^{-m} on the Gaussian branch."""
        slope = self.params.h - self.low
        if self.m is not None:
            m = self.m
            slope = slope - (q - m) * _qpow(q, m - 1.0, -m, self.log_d_b)
        return slope


def obstacle_eval(ob: ObstacleFn, q):
    """G~(q): irreversible payoff, or max(mu, V_B(q)) in refined regimes.

    One pass over an array of beliefs, with the regime constants taken
    from ob; a float belief gives a float."""
    if isinstance(ob.regime, Irreversible):
        # max(mu, q h + (1-q) l), kinked at p_hat
        g = np.maximum(ob.params.mu, q * ob.params.h + (1.0 - q) * ob.params.l)
    else:
        g = np.maximum(ob.params.mu, ob.nested(q))
    return float(g) if np.ndim(g) == 0 else g


def crossing_point(ob: ObstacleFn) -> float:
    """Belief where the obstacle switches off its flat mu branch: the
    derived q' in the refined regimes, the kink p_hat otherwise."""
    return ob.params.p_hat if ob.q_prime is None else ob.q_prime
