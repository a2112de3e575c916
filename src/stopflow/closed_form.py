"""Semi-explicit solutions for every cost via the smooth-fit system.

The perpetual cost Pi(q) = E_q int_0^inf e^{-rho t} C(q_t) dt of a cost
(model.Perpetual) solves rho Pi - a(q) Pi'' = C, so W = V + Pi solves the
homogeneous ODE  rho W = a(q) W''  for every cost; a constant cost has
Pi = C/rho.  Its basis is
    v1(q) = q^{(1-k)/2} (1-q)^{(1+k)/2},
    v2(q) = q^{(1+k)/2} (1-q)^{(1-k)/2}.
In the log-odds z = log(q/(1-q)) these are e^{-kappa z}/(2cosh(z/2)) and
e^{kappa z}/(2cosh(z/2)) with kappa = k/2, so chi(z) = 2cosh(z/2) W solves

    chi'' = kappa^2 chi.

Value mu + Pi and slope Pi_z = dPi/dz at the lower boundary z_lo give
chi(z) = R cosh(kappa (z - z_lo) + beta) with tanh(beta) = (tanh(z_lo/2) +
delta)/k, delta = 2 Pi_z/(mu + Pi); delta = 0 for a constant cost.  Above
the crossing point z_c the target is X(z) = 2cosh(z/2)(G(q) + Pi): (low +
level) e^{-z/2} + (h + level) e^{z/2} for a line through low = l or
l_tilde, plus d_b e^{-k_tilde z/2} for the Gaussian nested value, plus
2cosh(z/2)(Pi - level) = psi(z), Pi's rate-0 term or green integral.
Smooth fit at z_hi = z_lo + w reads

    slope:  kappa tanh(kappa w + beta) = X'/X (z_hi)
    value:  log(2cosh(z_lo/2)(mu + Pi(z_lo))) - log cosh(beta)
            + log cosh(kappa w + beta) = log X(z_hi).

Matching X in value and slope at z_hi fixes chi(z) = X(z_hi) cosh(kappa
(z - z_hi) + gamma)/cosh(gamma) with kappa tanh(gamma) = X'/X (z_hi); the
lower slope condition  kappa z - beta(z) = kappa z_hi - gamma  then has one
root z_lo.  Its left side increases with slope at least ((k^2 - 1)/(2k))
mu/(mu + Pi): with A = 2cosh(z/2)(mu + Pi), kappa^2 A - A'' = (k^2 - 1)
cosh(z/2) mu/2 + (4/s^2) cosh(z/2) C > 0.  Both 2cosh(z/2) and psi have
log-slopes inside (-1/2, 1/2) (the variance cost's psi is a convolution of
the log-concave e^{-kappa |z|} and sech(z/2)), so |beta| < atanh(1/k), the
bracket of that root, for every cost.  The value equation reduces to
M(z_hi) = log(min chi/A) = 0, which increases in z_hi (dM/dz_hi = (kappa -
gamma')(tanh gamma - tanh beta) > 0, as kappa^2 X - X'' > 0 term by term)
and is negative at z_c.  The unknowns are the offsets u_lo = z_lo - z_c and
u_hi = z_hi - z_c, with X's amplitudes shifted to z_c once, so kappa (u_hi
- u_lo) and gamma - beta never come from the difference of two O(1)
log-odds, and a region far narrower than ulp(z) kappa keeps the precision
of its offsets.  Both scalar equations are solved by bracketed Newton with
these analytic derivatives; the outer one starts at u_hi = delta, the width
of the small-region parabola.  All of it is in logs with k - 1 carried
without cancellation, so exponents k in the hundreds of thousands, k -> 1
and boundaries at q ~ 1e-12 stay finite.  Pi's representation is built
once per solve, and no grid solve is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .model import (
    CostSpec,
    ParameterError,
    Perpetual,
    _check_sigma,
    _qpow,
    exponents,
)
from .obstacles import ObstacleFn, crossing_point, obstacle_eval

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SmoothFitSolution:
    """The smooth-fit solution for a cost, from smooth_fit.

    q_lo, q_hi: the free boundaries, beliefs in (0, 1), rounded to double.
    z_c: the crossing point of ob in log-odds z = log(q/(1-q)).
    u_lo, u_hi: the free boundaries as offsets z - z_c from it.
    kappa, beta, log_r: on (q_lo, q_hi), V + Pi = R cosh(x) / (2cosh(z/2))
        with x = kappa (z - z_c - u_lo) + beta and log_r = log(R/2), Pi the
        cost's perpetual cost.
    residual_sup: the largest absolute residual of the four smooth-fit
        equations, the values and the log-odds slopes q(1-q) V' at both
        boundaries, in value units, evaluated on the offsets.
    ob: the obstacle that was fitted, with the model parameters.
    cost: the information cost.
    per: its perpetual cost Pi, as the solver built it.
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
    cost: CostSpec
    per: Perpetual


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


# X = sum_i exp(log_amp_i + rate_i u) at the offset u = z - z_c, the
# amplitudes shifted to z_c; each term also carries kappa - rate_i and
# kappa + rate_i, both computed without cancellation
_Term = Tuple[float, float, float, float]


def _branch_eval(terms: Sequence[_Term], u: float, green=None) -> Tuple[float, float, float]:
    """(log X, gamma, 1 - gamma'/kappa) at u, where kappa tanh(gamma) = X'/X.
    green(u), when given, adds its (psi, kappa psi - psi', kappa psi + psi',
    kappa^2 psi - psi'') to X."""
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
    if green is not None:
        w, lo, hi, src = green(u)
        scale = math.exp(-top)
        minus += lo * scale
        plus += hi * scale
        both += src * scale
        sw += w * scale
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


def _solve_system(ob: ObstacleFn, cost: CostSpec) -> SmoothFitSolution:
    """The smooth-fit solution in offsets from the crossing point; see the
    module docstring."""
    params = ob.params
    k, k2m1, km1 = exponents(params)
    kap = 0.5 * k
    per = cost.perpetual(params)
    crossing = crossing_point(ob)
    z_c = _logit(crossing)
    terms = _branch_terms(ob, k, km1, per, z_c)
    green = None if per.green is None else (lambda u: per.green.sums(z_c + u))
    mu = params.mu
    flat = (per.level, 0.0, 0.0, 0.0)
    varies = per.varies
    bound = 0.5 * math.log((2.0 + km1) / km1)  # |beta| < atanh(1/k)
    u_lo = beta = log_amp = 0.0  # those of the last M evaluated
    history: List[float] = []
    c = 0.0  # the right side kappa u_hi - gamma of the lower slope condition
    last_u = beta_u = pi_u = math.nan  # lower_slope's last u, beta and Pi

    def perpetual(u):
        # Pi, Pi_z and the anchor's ratios delta = 2 Pi_z/(mu + Pi) and
        # 4 Pi_zz/(mu + Pi) at z_c + u; exactly (c_i/rho, 0.0, 0.0, 0.0)
        # for a constant cost, without a quadrature
        if not varies:
            return flat
        pi, pi_z, pi_zz = per.at(z_c + u)
        return pi, pi_z, 2.0 * pi_z / (mu + pi), 4.0 * pi_zz / (mu + pi)

    def lower_slope(u):
        # kappa u - beta - c and its slope at z = z_c + u: tanh(beta) =
        # (tanh(z/2) + delta)/k with delta = 2 Pi_z/(mu + Pi), as e^{2 beta}
        # = a/b = (k-1+2q+delta)/(k-1+2(1-q)-delta); the slope is k (k^2 - 1
        # + 2 delta (1-2q) - 4 Pi_zz/(mu + Pi))/(2 a b).  Pi's terms are
        # exact zeros for a constant cost
        nonlocal last_u, beta_u, pi_u
        q, p = _expit(z_c + u)
        pi, _, delta, curv = perpetual(u)
        a, b = km1 + 2.0 * q + delta, km1 + 2.0 * p - delta
        top = k2m1 + 2.0 * delta * (p - q) - curv
        last_u, beta_u, pi_u = u, 0.5 * math.log(a / b), pi
        return kap * u - beta_u - c, 0.5 * k * top / (a * b)

    def value_gap(u_hi):
        # M(z_c + u_hi), with u_lo the root of kappa u - beta = kappa u_hi - gamma
        nonlocal u_lo, beta, log_amp, c
        lx, gamma, ratio = _branch_eval(terms, u_hi, green)
        c = kap * u_hi - gamma
        u_lo = _increasing_root(lower_slope, u_lo, (c - bound) / kap, (c + bound) / kap, z_c)
        if last_u != u_lo:  # the iteration ran out
            lower_slope(u_lo)
        beta, log_amp = beta_u, math.log(mu + pi_u)
        lc_gamma, lc_beta = _logcosh(gamma), _logcosh(beta)
        m = lx - lc_gamma + lc_beta - _LN2 - _logcosh(0.5 * (z_c + u_lo)) - log_amp
        history.append(abs(m))
        # tanh(gamma) - tanh(beta), without cancellation when both near -1 or 1
        dtanh = math.sinh(gamma - beta) * math.exp(-lc_gamma - lc_beta)
        return m, kap * ratio * dtanh

    # small-region estimate: a parabola of curvature rho (mu + Pi)/a(q_c),
    # (rho mu + C)/a(q_c) for a constant cost, tangent to both obstacle
    # branches spans 2 delta in z
    slope_c = crossing * (1.0 - crossing) * ob.slope(crossing)
    delta = 2.0 * slope_c / ((mu + perpetual(0.0)[0]) * k2m1)
    # M < 0 at u_hi = 0; u_lo, beta and log_amp are those of the last M
    # evaluated, at the root returned unless the iteration ran out
    u_hi = _increasing_root(value_gap, min(delta, 1.0), 0.0, math.inf, z_c)

    # chi = R cosh(kappa (u - u_lo) + beta): value mu + Pi, slope Pi_z at u_lo
    log_r = _logcosh(0.5 * (z_c + u_lo)) + log_amp - _logcosh(beta)

    def value_and_slope(u):
        # V, dV/dz and Pi on the offsets, as eval_closed_form reads them
        x = kap * (u - u_lo) + beta
        w = math.exp(log_r + _logcosh(x) - _logcosh(0.5 * (z_c + u)))
        pi, pi_z, _, _ = perpetual(u)
        return w - pi, w * (kap * math.tanh(x) - 0.5 * math.tanh(0.5 * (z_c + u))) - pi_z, pi

    # the four smooth-fit equations in log-odds: values, and dV/dz
    # = q(1-q) V'(q), whose rounding stays a few ulps of h + Pi
    q_lo = _expit(z_c + u_lo)[0]
    q_hi, p_hi = _expit(z_c + u_hi)
    v_lo, s_lo, pi_lo = value_and_slope(u_lo)
    v_hi, s_hi, pi_hi = value_and_slope(u_hi)
    res = max(
        abs(v_lo - params.mu), abs(s_lo),
        abs(v_hi - obstacle_eval(ob, q_hi)), abs(s_hi - q_hi * p_hi * ob.slope(q_hi)),
    )
    # the acceptance bar is 1e-9 * scale; keep a 2x margin below it
    if not res <= 5e-10 * (params.h + max(pi_lo, pi_hi)):
        raise SmoothFitError(f"smooth-fit residual {res:.3e} above 5e-10 (h + Pi)", history)
    return SmoothFitSolution(q_lo, q_hi, z_c, u_lo, u_hi, kap, beta, log_r, res, ob, cost, per)


def _branch_terms(
    ob: ObstacleFn, k: float, km1: float, per: Perpetual, z_c: float
) -> List[_Term]:
    """X(z) = 2cosh(z/2)(G(q) + Pi) above the crossing point, as terms in the
    offset u = z - z_c: the line (low + level) e^{-z/2} + (h + level)
    e^{z/2} with low = l, or l_tilde under the Poisson return option, plus
    d_b e^{-k_tilde z/2} for the Gaussian nested value, plus Pi's constant
    psi0 at rate 0.  Pi's green integral is added by _branch_eval."""
    p = ob.params
    kap = 0.5 * k
    cr = per.level
    terms = [
        (-0.5, math.log(ob.low + cr) - 0.5 * z_c, kap + 0.5, 0.5 * km1),
        (0.5, math.log(p.h + cr) + 0.5 * z_c, 0.5 * km1, kap + 0.5),
    ]
    if ob.k_tilde is not None:
        # kappa - kappa_tilde = (k^2 - k_tilde^2)/(2 (k + k_tilde)), where
        # k^2 - k_tilde^2 = 8 rho (sigma - sigma_tilde)(sigma + sigma_tilde)/(h-l)^2
        st = ob.regime.sigma_tilde
        k2_gap = 8.0 * p.rho * (p.sigma - st) * (p.sigma + st)
        kap_gap = 0.5 * k2_gap / p.spread**2 / (k + ob.k_tilde)
        kap_t = 0.5 * ob.k_tilde
        terms.append((-kap_t, ob.log_d_b - kap_t * z_c, kap + kap_t, kap_gap))
    if per.psi0 > 0.0:
        terms.append((0.0, math.log(per.psi0), kap, kap))
    return terms


def smooth_fit(cost: CostSpec, ob: ObstacleFn) -> SmoothFitSolution:
    """Boundaries for `cost` against ob's obstacle, whose crossing point,
    value and slope come from ob, and the cost's perpetual Pi.  Rejects
    sigma = 0, where k = 1 and the system degenerates."""
    _check_sigma(ob.params)
    return _solve_system(ob, cost)


def eval_closed_form(sol: SmoothFitSolution, q):
    """Piecewise value: mu, then the ODE branch less Pi(q), then the
    obstacle branch of sol.ob.  One pass over an array of beliefs; a float
    belief gives a float."""
    ob = sol.ob
    q = np.asarray(q, dtype=float)
    v = np.where(q <= sol.q_lo, ob.params.mu, obstacle_eval(ob, q))
    ode = (q > sol.q_lo) & (q < sol.q_hi)
    if ode.any():
        z = np.log(q[ode]) - np.log1p(-q[ode])
        x = sol.kappa * ((z - sol.z_c) - sol.u_lo) + sol.beta
        # log cosh(x) - log cosh(z/2), each as logaddexp(x, -x) - log 2
        log_ratio = np.logaddexp(x, -x) - np.logaddexp(0.5 * z, -0.5 * z)
        v[ode] = np.exp(sol.log_r + log_ratio) - sol.per.at(z)[0]
    return float(v) if v.ndim == 0 else v
