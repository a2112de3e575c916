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
beta) > 0) and is negative at z_c.  The unknowns are the offsets u_lo =
z_lo - z_c and u_hi = z_hi - z_c, with X's amplitudes shifted to z_c once,
so kappa (u_hi - u_lo) and gamma - beta never come from the difference of
two O(1) log-odds, and a region far narrower than ulp(z) kappa keeps the
precision of its offsets.  Both scalar equations are solved by bracketed
Newton with these analytic derivatives; the outer one starts at u_hi =
delta, the width of the small-region parabola.  All of it is in logs with
k - 1 carried without cancellation, so exponents k in the hundreds of
thousands, k -> 1 and boundaries at q ~ 1e-12 stay finite.  No grid solve
is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import (
    ConstantCost,
    CostSpec,
    ParameterError,
    _check_sigma,
    _qpow,
    exponents,
)
from .obstacles import ObstacleFn, crossing_point, obstacle_eval

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SmoothFitSolution:
    """The smooth-fit solution for a constant cost, from smooth_fit.

    q_lo, q_hi: the free boundaries, beliefs in (0, 1), rounded to double.
    z_c: the crossing point of ob in log-odds z = log(q/(1-q)).
    u_lo, u_hi: the free boundaries as offsets z - z_c from it.
    kappa, beta, log_r: on (q_lo, q_hi), V + c_i/rho = R cosh(x) /
        (2cosh(z/2)) with x = kappa (z - z_c - u_lo) + beta and log_r =
        log(R/2).
    residual_sup: the largest absolute residual of the four smooth-fit
        equations, the values and the log-odds slopes q(1-q) V' at both
        boundaries, in value units, evaluated on the offsets.
    ob: the obstacle that was fitted, with the model parameters.
    c_i: the cost rate, in value units per unit time.
    """

    q_lo: float
    q_hi: float
    z_c: float
    u_lo: float
    u_hi: float
    kappa: float
    beta: float
    log_r: float
    residual_sup: float
    ob: ObstacleFn
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


@dataclass(frozen=True)
class _Exponents:
    """k = 2 kappa, with k^2 - 1 and k - 1 free of cancellation."""

    k: float
    k2m1: float
    km1: float

    def beta(self, z: float) -> Tuple[float, float]:
        """beta(z) = atanh(tanh(z/2)/k) = log((k-1+2q)/(k-1+2(1-q)))/2,
        and the derivative k (k^2-1)/(2 (k-1+2q)(k-1+2(1-q))) of kappa z - beta."""
        q, p = _expit(z)
        a, b = self.km1 + 2.0 * q, self.km1 + 2.0 * p
        return 0.5 * math.log(a / b), 0.5 * self.k * self.k2m1 / (a * b)


# X = sum_i exp(log_amp_i + rate_i u) at the offset u = z - z_c, the
# amplitudes shifted to z_c; each term also carries kappa - rate_i and
# kappa + rate_i, both computed without cancellation
_Term = Tuple[float, float, float, float]


def _branch_eval(terms: Sequence[_Term], u: float) -> Tuple[float, float, float]:
    """(log X, gamma, 1 - gamma'/kappa) at u, where kappa tanh(gamma) = X'/X."""
    e = [a + c * u for c, a, _, _ in terms]
    top = max(e)
    # plain running sums from 0 in term order; sum() compensates its
    # rounding from Python 3.12 on
    minus = plus = both = sw = 0.0
    for (_, _, km, kp), x in zip(terms, e):
        w = math.exp(x - top)
        minus += km * w
        plus += kp * w
        both += km * kp * w
        sw += w
    return top + math.log(sw), 0.5 * math.log(plus / minus), both * sw / (plus * minus)


def _increasing_root(fun, u: float, lo: float, hi: float, z_c: float) -> float:
    """Root of an increasing function of the offset u on (lo, hi) by Newton
    from u; fun returns (value, slope).  A step that leaves the bracket
    bisects it, or, while hi is infinite, at most doubles the distance to
    the first lo.  The iteration stops on a step below 4e-16 |z_c + u|, a
    relative step in z, and the root returned is the last u evaluated,
    unless the 200 steps run out."""
    base = lo
    for _ in range(200):
        f, df = fun(u)
        if f == 0.0:
            break
        if f > 0.0:
            hi = u
        else:
            lo = u
        un = u - f / df if df > 0.0 else math.inf
        if hi == math.inf:
            un = min(un, 2.0 * u - base)
        elif not lo < un < hi:
            un = 0.5 * (lo + hi)
        if un == u or abs(un - u) <= 4e-16 * abs(z_c + u):
            break
        u = un
    return u


def _solve_system(ob: ObstacleFn, c_i: float) -> SmoothFitSolution:
    """The smooth-fit solution in offsets from the crossing point; see the
    module docstring."""
    params = ob.params
    ex = _Exponents(*exponents(params))
    kap = 0.5 * ex.k
    cr = c_i / params.rho
    crossing = crossing_point(ob)
    z_c = _logit(crossing)
    terms = _branch_terms(ob, ex, cr, z_c)
    log_amp = math.log(params.mu + cr)
    bound = 0.5 * math.log((2.0 + ex.km1) / ex.km1)  # |beta| < atanh(1/k)
    u_lo = 0.0
    history: List[float] = []
    c = 0.0  # the right side kappa u_hi - gamma of the lower slope condition
    last_u = last_beta = math.nan  # lower_slope's last u and beta(z_c + u)

    def lower_slope(u):
        nonlocal last_u, last_beta
        beta, slope = ex.beta(z_c + u)
        last_u, last_beta = u, beta
        return kap * u - beta - c, slope

    def value_gap(u_hi):
        # M(z_c + u_hi), with u_lo the root of kappa u - beta = kappa u_hi - gamma
        nonlocal u_lo, c
        lx, gamma, ratio = _branch_eval(terms, u_hi)
        c = kap * u_hi - gamma
        u_lo = _increasing_root(lower_slope, u_lo, (c - bound) / kap, (c + bound) / kap, z_c)
        # the root is the last u evaluated, unless the iteration ran out
        beta = last_beta if last_u == u_lo else ex.beta(z_c + u_lo)[0]
        lc_gamma, lc_beta = _logcosh(gamma), _logcosh(beta)
        m = lx - lc_gamma + lc_beta - _LN2 - _logcosh(0.5 * (z_c + u_lo)) - log_amp
        history.append(abs(m))
        # tanh(gamma) - tanh(beta), without cancellation when both near -1 or 1
        dtanh = math.sinh(gamma - beta) * math.exp(-lc_gamma - lc_beta)
        return m, kap * ratio * dtanh

    # small-region estimate: a parabola of curvature (rho mu + C)/a(q_c)
    # tangent to both obstacle branches spans 2 delta in z
    slope_c = crossing * (1.0 - crossing) * ob.slope(crossing)
    delta = 2.0 * slope_c / ((params.mu + cr) * ex.k2m1)
    # M < 0 at u_hi = 0
    u_hi = _increasing_root(value_gap, min(delta, 1.0), 0.0, math.inf, z_c)

    # chi = R cosh(kappa (u - u_lo) + beta): value mu + C/rho, zero slope at u_lo
    beta = ex.beta(z_c + u_lo)[0]
    log_r = _logcosh(0.5 * (z_c + u_lo)) + log_amp - _logcosh(beta)

    def value_and_slope(u):
        # V and dV/dz on the offsets, as eval_closed_form reads them
        x = kap * (u - u_lo) + beta
        w = math.exp(log_r + _logcosh(x) - _logcosh(0.5 * (z_c + u)))
        return w - cr, w * (kap * math.tanh(x) - 0.5 * math.tanh(0.5 * (z_c + u)))

    # the four smooth-fit equations in log-odds: values, and dV/dz
    # = q(1-q) V'(q), whose rounding stays a few ulps of h + C/rho
    q_lo = _expit(z_c + u_lo)[0]
    q_hi, p_hi = _expit(z_c + u_hi)
    v_lo, s_lo = value_and_slope(u_lo)
    v_hi, s_hi = value_and_slope(u_hi)
    res = max(
        abs(v_lo - params.mu), abs(s_lo),
        abs(v_hi - obstacle_eval(ob, q_hi)), abs(s_hi - q_hi * p_hi * ob.slope(q_hi)),
    )
    # the acceptance bar is 1e-9 * scale; keep a 2x margin below it
    if not res <= 5e-10 * (params.h + cr):
        raise SmoothFitError(
            f"smooth-fit residual {res:.3e} above 5e-10 (h + C/rho)", history
        )
    return SmoothFitSolution(q_lo, q_hi, z_c, u_lo, u_hi, kap, beta, log_r, res, ob, c_i)


def _branch_terms(ob: ObstacleFn, ex: _Exponents, cr: float, z_c: float) -> List[_Term]:
    """X(z) = 2cosh(z/2)(G(q) + C/rho) above the crossing point, as terms in
    the offset u = z - z_c: the line (low + C/rho) e^{-z/2} + (h + C/rho)
    e^{z/2} with low = l, or l_tilde under the Poisson return option, plus
    d_b e^{-k_tilde z/2} for the Gaussian nested value."""
    p = ob.params
    kap = 0.5 * ex.k
    terms = [
        (-0.5, math.log(ob.low + cr) - 0.5 * z_c, kap + 0.5, 0.5 * ex.km1),
        (0.5, math.log(p.h + cr) + 0.5 * z_c, 0.5 * ex.km1, kap + 0.5),
    ]
    if ob.k_tilde is not None:
        # kappa - kappa_tilde = (k^2 - k_tilde^2)/(2 (k + k_tilde)), where
        # k^2 - k_tilde^2 = 8 rho (sigma - sigma_tilde)(sigma + sigma_tilde)/(h-l)^2
        st = ob.regime.sigma_tilde
        k2_gap = 8.0 * p.rho * (p.sigma - st) * (p.sigma + st)
        kap_gap = 0.5 * k2_gap / p.spread**2 / (ex.k + ob.k_tilde)
        kap_t = 0.5 * ob.k_tilde
        terms.append((-kap_t, ob.log_d_b - kap_t * z_c, kap + kap_t, kap_gap))
    return terms


def require_closed_form(cost: CostSpec) -> None:
    """Reject a cost that has no closed form: any but a constant one."""
    if not isinstance(cost, ConstantCost):
        raise ParameterError(f"closed form needs a constant cost, got {cost!r}")


def smooth_fit(cost: CostSpec, ob: ObstacleFn) -> SmoothFitSolution:
    """Boundaries for a constant cost against ob's obstacle, whose crossing
    point, value and slope come from ob.  Rejects any other cost
    (require_closed_form) and sigma = 0, where k = 1 and the system
    degenerates."""
    require_closed_form(cost)
    _check_sigma(ob.params)
    return _solve_system(ob, cost.c_i)


def eval_closed_form(sol: SmoothFitSolution, q):
    """Piecewise value: mu, then the ODE branch, then the obstacle branch
    of sol.ob.  One pass over an array of beliefs; a float belief gives a
    float."""
    ob = sol.ob
    cr = sol.c_i / ob.params.rho
    q = np.asarray(q, dtype=float)
    v = np.where(q <= sol.q_lo, ob.params.mu, obstacle_eval(ob, q))
    ode = (q > sol.q_lo) & (q < sol.q_hi)
    if ode.any():
        z = np.log(q[ode]) - np.log1p(-q[ode])
        x = sol.kappa * ((z - sol.z_c) - sol.u_lo) + sol.beta
        # log cosh(x) - log cosh(z/2), each as logaddexp(x, -x) - log 2
        log_ratio = np.logaddexp(x, -x) - np.logaddexp(0.5 * z, -0.5 * z)
        v[ode] = np.exp(sol.log_r + log_ratio) - cr
    return float(v) if v.ndim == 0 else v
