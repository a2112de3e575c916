import math

import pytest

from stopflow import (
    ConstantCost,
    GaussianSignal,
    ModelParams,
    PoissonSignal,
    exponent_k,
    obstacle_eval,
)

# shared benchmark instance: rho=1, l=1, h=9, mu=5, sigma=5, c_i=1,
# second stage either lambda=2 (Poisson) or sigma_tilde=1 (Gaussian), fee 1


@pytest.fixture
def params():
    return ModelParams(rho=1.0, sigma=5.0, h=9.0, l=1.0, mu=5.0)


@pytest.fixture
def cost():
    return ConstantCost(1.0)


@pytest.fixture
def poisson():
    return PoissonSignal(lam=2.0, r=1.0)


@pytest.fixture
def gaussian():
    return GaussianSignal(sigma_tilde=1.0, r=1.0)


# Gaussian instances with k_tilde in the tens of thousands and more, where
# the coefficient d_b itself under- or overflows a double: the first gave
# d_b = 0.0, the second a ZeroDivisionError, before d_b was kept in logs
LARGE_K_TILDE = {
    "d_b-underflow": (
        dict(rho=83.13, sigma=62.44, h=1.3223, l=1.2797, mu=1.2916),
        GaussianSignal(sigma_tilde=45.86, r=0.01069),
    ),
    "zero-division": (
        dict(rho=43.36, sigma=684.3, h=3.3928, l=3.3555, mu=3.3657),
        GaussianSignal(sigma_tilde=380.3, r=0.004525),
    ),
}


@pytest.fixture(params=list(LARGE_K_TILDE))
def large_k_tilde(request):
    """(model keys, refined signal) of one LARGE_K_TILDE instance."""
    return LARGE_K_TILDE[request.param]


def basis_coefficients(sol):
    """(d1, d2) with V = d1 v1 + d2 v2 - C/rho on the region of the
    smooth-fit solution `sol`, in the basis of basis_eval: chi = R cosh(x)
    with x = kappa (z - z_lo) + beta expands into (R/2) e^{kappa z_lo - beta}
    e^{-kappa z} + (R/2) e^{beta - kappa z_lo} e^{kappa z}."""
    z_lo = sol.z_c + sol.u_lo
    return (
        math.exp(sol.log_r + sol.kappa * z_lo - sol.beta),
        math.exp(sol.log_r - sol.kappa * z_lo + sol.beta),
    )


def gaussian_d_b_alt(params, sigma_tilde, r):
    """Independent expression for the Gaussian coefficient d_b, a
    cross-check of ObstacleFn.log_d_b:  (mu-l-r)/((1+k)/2) *
    [((1+k)/2)(h-mu+r) / (-(1-k)/2 (mu-l-r))]^{(1-k)/2}."""
    m = 0.5 * (1.0 - exponent_k(params, sigma_tilde))
    a = params.mu - params.l - r
    base = ((1.0 - m) * (params.h - params.mu + r)) / (-m * a)
    return a / (1.0 - m) * math.exp(m * math.log(base))


def threshold_value(cost, ob, q_lo, q_hi, q0):
    """Value of exploring on (q_lo, q_hi) at `cost`, in closed form: in
    log-odds the belief is a Brownian motion with drift nu = s^2 (theta -
    1/2) and volatility s that exits exactly at the barriers, so each side's
    discounted exit weight is a ratio of sinh terms (Borodin & Salminen
    2002, 3.0.5), and the cost paid until the exit is Pi(q0) less the
    weighted Pi at the barriers, Pi the cost's perpetual cost."""
    params = ob.params
    per = cost.perpetual(params)
    s2 = (params.spread / params.sigma) ** 2
    z_lo, z_hi, z0 = (math.log(q / (1.0 - q)) for q in (q_lo, q_hi, q0))
    w, x = z_hi - z_lo, z0 - z_lo
    g_hi = obstacle_eval(ob, q_hi) + per.at(z_hi)[0]
    g_lo = obstacle_eval(ob, q_lo) + per.at(z_lo)[0]
    value = -per.at(z0)[0]
    for p_theta, theta in ((q0, 1.0), (1.0 - q0, 0.0)):
        nu = s2 * (theta - 0.5)
        gamma = math.sqrt(nu * nu + 2.0 * params.rho * s2) / s2
        l_hi = math.exp(nu * (w - x) / s2) * math.sinh(gamma * x) / math.sinh(gamma * w)
        l_lo = math.exp(-nu * x / s2) * math.sinh(gamma * (w - x)) / math.sinh(gamma * w)
        value += p_theta * (g_hi * l_hi + g_lo * l_lo)
    return value
