"""Semi-explicit constant-cost solutions via the smooth-fit system.

The homogeneous ODE  rho W = a(q) W''  for W = V + C/rho has the basis
    v1(q) = q^{(1-k)/2} (1-q)^{(1+k)/2},
    v2(q) = q^{(1+k)/2} (1-q)^{(1-k)/2}.
In the log-odds z = log(q/(1-q)) these are e^{-kappa z}/(2cosh(z/2)) and
e^{kappa z}/(2cosh(z/2)) with kappa = k/2, so chi(z) = 2cosh(z/2) W solves

    chi'' = kappa^2 chi.

Value mu + C/rho and zero slope at the lower boundary z_lo give
chi(z) = R cosh(kappa (z - z_lo) + beta) with tanh(beta) = tanh(z_lo/2)/k.
Above the crossing point z_c the obstacle maps to a sum of exponentials
X(z) = 2cosh(z/2)(G(q) + C/rho): (low + C/rho) e^{-z/2} +
(h + C/rho) e^{z/2} for a line through low = l or l_tilde, plus d_b
e^{-k_tilde z/2} for the Gaussian nested value.  Smooth fit at z_hi =
z_lo + w reads

    slope:  kappa tanh(kappa w + beta) = X'/X (z_hi)
    value:  log(2cosh(z_lo/2)(mu + C/rho)) - log cosh(beta)
            + log cosh(kappa w + beta) = log X(z_hi).

Matching X in value and slope at z_hi fixes chi(z) = X(z_hi) cosh(kappa
(z - z_hi) + gamma)/cosh(gamma) with kappa tanh(gamma) = X'/X (z_hi); the
lower slope condition  kappa z - beta(z) = kappa z_hi - gamma  then has one
root z_lo (the left side increases with slope at least (k^2 - 1)/(2k)), and
the value equation reduces to M(z_hi) = log(min W) - log(mu + C/rho) = 0,
which increases in z_hi (dM/dz_hi = (kappa - gamma')(tanh gamma - tanh
beta) > 0) and is negative at z_c.  Both scalar equations are solved by
bracketed Newton with these analytic derivatives; the outer one starts at
z_c + delta, delta the width of the small-region parabola.  All of it is
in logs with k - 1 carried without cancellation, so exponents k in the
hundreds, k -> 1 and boundaries at q ~ 1e-12 stay finite.  No grid solve
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import (
    ModelParams,
    ParameterError,
    RefinedSignalSpec,
    _qpow,
    exponent_k,
)
from .obstacles import ObstacleFn, crossing_point, obstacle_eval

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SmoothFitSolution:
    q_lo: float
    q_hi: float
    d1: float
    d2: float
    residual_sup: float
    regime: RefinedSignalSpec
    c_i: float


class SmoothFitError(RuntimeError):
    def __init__(self, msg: str, history):
        super().__init__(msg)
        self.residual_history = history


def basis_eval(k: float, q: float) -> Tuple[float, float, float, float]:
    """(v1, v2, v1', v2') at q in (0, 1).

    Derivatives use the factorized forms v1' = q^{m-1}(1-q)^{-m}(m - q)
    and v2' = (1-q)^{m-1} q^{-m} (1 - m - q), with m = (1-k)/2.
    """
    if not 0.0 < q < 1.0:
        raise ParameterError(f"basis defined on (0, 1), got q={q}")
    m = 0.5 * (1.0 - k)
    v1 = _qpow(q, m, 1.0 - m)
    v2 = _qpow(q, 1.0 - m, m)
    dv1 = _qpow(q, m - 1.0, -m) * (m - q)
    dv2 = _qpow(q, -m, m - 1.0) * (1.0 - m - q)
    return v1, v2, dv1, dv2


def _logcosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - _LN2


def _logit(q: float) -> float:
    return math.log(q) - math.log1p(-q)


def _expit(z: float) -> Tuple[float, float]:
    """(q, 1 - q) for the log-odds z, each to full relative precision."""
    e = math.exp(-abs(z))
    small = e / (1.0 + e)
    return (1.0 - small, small) if z > 0 else (small, 1.0 - small)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class _Exponents:
    """k = 2 kappa, with k^2 - 1 and k - 1 free of cancellation."""

    k: float
    k2m1: float
    km1: float

    @classmethod
    def of(cls, params: ModelParams) -> "_Exponents":
        k2m1 = 8.0 * params.rho * (params.sigma / params.spread) ** 2
        k = exponent_k(params)
        return cls(k, k2m1, k2m1 / (1.0 + k))

    def beta(self, z: float) -> Tuple[float, float]:
        """beta(z) = atanh(tanh(z/2)/k) = log((k-1+2q)/(k-1+2(1-q)))/2,
        and the derivative k (k^2-1)/(2 (k-1+2q)(k-1+2(1-q))) of kappa z - beta."""
        q, p = _expit(z)
        a, b = self.km1 + 2.0 * q, self.km1 + 2.0 * p
        return 0.5 * math.log(a / b), 0.5 * self.k * self.k2m1 / (a * b)


# X(z) = sum_i exp(log_amp_i + rate_i z); each term also carries
# kappa - rate_i and kappa + rate_i, both computed without cancellation
_Term = Tuple[float, float, float, float]


def _branch_eval(terms: Sequence[_Term], z: float) -> Tuple[float, float, float]:
    """(log X, gamma, 1 - gamma'/kappa) at z, where kappa tanh(gamma) = X'/X."""
    e = [a + c * z for c, a, _, _ in terms]
    top = max(e)
    w = [math.exp(x - top) for x in e]
    minus = sum(t[2] * wi for t, wi in zip(terms, w))
    plus = sum(t[3] * wi for t, wi in zip(terms, w))
    both = sum(t[2] * t[3] * wi for t, wi in zip(terms, w))
    sw = sum(w)
    return top + math.log(sw), 0.5 * math.log(plus / minus), both * sw / (plus * minus)


def _increasing_root(fun, z: float, lo: float, hi: float) -> float:
    """Root of an increasing function on (lo, hi) by Newton from z; fun
    returns (value, slope).  A step that leaves the bracket bisects it,
    or, while hi is infinite, at most doubles the distance to the first lo."""
    base = lo
    for _ in range(200):
        f, df = fun(z)
        if f == 0.0:
            break
        if f > 0.0:
            hi = z
        else:
            lo = z
        zn = z - f / df if df > 0.0 else math.inf
        if hi == math.inf:
            zn = min(zn, 2.0 * z - base)
        elif not lo < zn < hi:
            zn = 0.5 * (lo + hi)
        if zn == z or abs(zn - z) <= 4e-16 * abs(z):
            break
        z = zn
    return z


def _solve_system(ob: ObstacleFn, c_i: float):
    """Boundaries of the smooth-fit system; see the module docstring."""
    params = ob.params
    ex = _Exponents.of(params)
    kap = 0.5 * ex.k
    cr = c_i / params.rho
    terms = _branch_terms(ob, ex, cr)
    log_amp = math.log(params.mu + cr)
    crossing = crossing_point(ob)
    z_c = _logit(crossing)
    bound = 0.5 * math.log((2.0 + ex.km1) / ex.km1)  # |beta| < atanh(1/k)
    z_lo = z_c
    history: List[float] = []

    def lower_slope(z, c):
        beta, slope = ex.beta(z)
        return kap * z - beta - c, slope

    def value_gap(z_hi):
        # M(z_hi), with z_lo the root of kappa z - beta(z) = kappa z_hi - gamma
        nonlocal z_lo
        lx, gamma, ratio = _branch_eval(terms, z_hi)
        c = kap * z_hi - gamma
        z_lo = _increasing_root(
            lambda z: lower_slope(z, c), z_lo, (c - bound) / kap, (c + bound) / kap
        )
        beta, _ = ex.beta(z_lo)
        m = lx - _logcosh(gamma) + _logcosh(beta) - _LN2 - _logcosh(0.5 * z_lo) - log_amp
        history.append(abs(m))
        # tanh(gamma) - tanh(beta), without cancellation when both near -1 or 1
        dtanh = math.sinh(gamma - beta) * math.exp(-_logcosh(gamma) - _logcosh(beta))
        return m, kap * ratio * dtanh

    # small-region estimate: a parabola of curvature (rho mu + C)/a(q_c)
    # tangent to both obstacle branches spans 2 delta in z
    slope_c = crossing * (1.0 - crossing) * ob.slope(crossing)
    delta = 2.0 * slope_c / ((params.mu + cr) * ex.k2m1)
    # M < 0 at z_c
    z_hi = _increasing_root(value_gap, z_c + min(delta, 1.0), z_c, math.inf)

    lr, beta = _lower_coeffs(ex, log_amp, z_lo)
    q_lo = _expit(z_lo)[0]
    q_hi, p_hi = _expit(z_hi)

    def value_and_slope(z):
        # W and dW/dz from chi = R cosh(kappa (z - z_lo) + beta)
        u = kap * (z - z_lo) + beta
        w = math.exp(lr + _logcosh(u) - _logcosh(0.5 * z))
        return w - cr, w * (kap * math.tanh(u) - 0.5 * math.tanh(0.5 * z))

    # the four smooth-fit equations in log-odds: values, and dV/dz
    # = q(1-q) V'(q), whose rounding stays a few ulps of h + C/rho
    v_lo, s_lo = value_and_slope(z_lo)
    v_hi, s_hi = value_and_slope(z_hi)
    res = max(
        abs(v_lo - params.mu), abs(s_lo),
        abs(v_hi - ob(q_hi)), abs(s_hi - q_hi * p_hi * ob.slope(q_hi)),
    )
    # the acceptance bar is 1e-9 * scale; keep a 2x margin below it
    if not res <= 5e-10 * (params.h + cr):
        raise SmoothFitError(
            f"smooth-fit residual {res:.3e} above 5e-10 (h + C/rho)", history
        )
    d1 = _exp(lr + kap * z_lo - beta)
    d2 = _exp(lr - kap * z_lo + beta)
    return q_lo, q_hi, d1, d2, res


def _lower_coeffs(ex: _Exponents, log_amp: float, z_lo: float) -> Tuple[float, float]:
    """(log(R/2), beta) of chi = R cosh(kappa (z - z_lo) + beta), the ODE
    solution with value exp(log_amp) and zero slope at z_lo."""
    beta, _ = ex.beta(z_lo)
    return _logcosh(0.5 * z_lo) + log_amp - _logcosh(beta), beta


def _branch_terms(ob: ObstacleFn, ex: _Exponents, cr: float) -> List[_Term]:
    """X(z) = 2cosh(z/2)(G(q) + C/rho) above the crossing point: the line
    (low + C/rho) e^{-z/2} + (h + C/rho) e^{z/2} with low = l, or l_tilde
    under the Poisson return option, plus d_b e^{-k_tilde z/2} for the
    Gaussian nested value."""
    p, c = ob.params, ob.constants
    kap = 0.5 * ex.k
    low = p.l if c.l_tilde is None else c.l_tilde
    terms = [
        (-0.5, math.log(low + cr), kap + 0.5, 0.5 * ex.km1),
        (0.5, math.log(p.h + cr), 0.5 * ex.km1, kap + 0.5),
    ]
    if c.k_tilde is not None:
        # kappa - kappa_tilde = (k^2 - k_tilde^2)/(2 (k + k_tilde)), where
        # k^2 - k_tilde^2 = 8 rho (sigma - sigma_tilde)(sigma + sigma_tilde)/(h-l)^2
        st = ob.regime.sigma_tilde
        k2_gap = 8.0 * p.rho * (p.sigma - st) * (p.sigma + st)
        kap_gap = 0.5 * k2_gap / p.spread**2 / (ex.k + c.k_tilde)
        kap_t = 0.5 * c.k_tilde
        terms.append((-kap_t, c.log_d_b, kap + kap_t, kap_gap))
    return terms


def smooth_fit(params: ModelParams, c_i: float, regime: RefinedSignalSpec) -> SmoothFitSolution:
    """Boundaries for the constant cost rate c_i against the regime's
    obstacle, whose crossing point, value and slope come from ObstacleFn."""
    if not c_i > 0:
        raise ParameterError("cost rate must be positive")
    q_lo, q_hi, d1, d2, res = _solve_system(ObstacleFn.create(params, regime), c_i)
    return SmoothFitSolution(q_lo, q_hi, d1, d2, res, regime, c_i)


def eval_closed_form(sol: SmoothFitSolution, ob: ObstacleFn, q):
    """Piecewise value: mu, then the ODE branch, then the obstacle branch.
    The cost rate comes from sol, the parameters from ob.  One pass over
    an array of beliefs; a float belief gives a float."""
    if sol.regime != ob.regime:
        raise ParameterError(f"solution for {sol.regime!r}, obstacle for {ob.regime!r}")
    params, cr = ob.params, sol.c_i / ob.params.rho
    q = np.asarray(q, dtype=float)
    v = np.where(q <= sol.q_lo, params.mu, obstacle_eval(ob, q))
    ode = (q > sol.q_lo) & (q < sol.q_hi)
    if ode.any():
        ex = _Exponents.of(params)
        z_lo = _logit(sol.q_lo)
        lr, beta = _lower_coeffs(ex, math.log(params.mu + cr), z_lo)
        z = np.log(q[ode]) - np.log1p(-q[ode])
        x = 0.5 * ex.k * (z - z_lo) + beta
        # log cosh(x) - log cosh(z/2), each as logaddexp(x, -x) - log 2
        log_ratio = np.logaddexp(x, -x) - np.logaddexp(0.5 * z, -0.5 * z)
        v[ode] = np.exp(lr + log_ratio) - cr
    return float(v) if v.ndim == 0 else v
