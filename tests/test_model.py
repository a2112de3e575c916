"""Parameter validation and the refined stage's closed-form constants.

Reference numbers were recomputed independently at 40-digit precision
from the defining formulas and frozen here.
"""

import math

import numpy as np
import pytest

from stopflow import (
    ConstantCost,
    GaussianSignal,
    Irreversible,
    ModelParams,
    ObstacleFn,
    ParameterError,
    PoissonSignal,
    StdDevVarianceCost,
    VarianceCost,
    cost_eval,
    degenerate_value,
    exponent_k,
    gaussian_log_d_b,
    gaussian_q_b,
    poisson_l_tilde,
    poisson_q_b,
)
from conftest import gaussian_d_b_alt


K_REF = 2.0310096011589901
K_TILDE_REF = 1.0606601717798212
QB_GAUSS_REF = 0.017355806567725903
DB_GAUSS_REF = 2.5761888956328719
QPRIME_GAUSS_REF = 0.25047724039614356


class TestModelParams:
    def test_valid_instance(self, params):
        assert params.spread == 8.0
        assert params.p_hat == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rho=1.0, sigma=5.0, h=9.0, l=5.0, mu=5.0),  # l = mu
            dict(rho=1.0, sigma=5.0, h=5.0, l=1.0, mu=5.0),  # mu = h
            dict(rho=1.0, sigma=5.0, h=9.0, l=-1.0, mu=5.0),  # l < 0
            dict(rho=0.0, sigma=5.0, h=9.0, l=1.0, mu=5.0),  # rho = 0
            dict(rho=1.0, sigma=-1.0, h=9.0, l=1.0, mu=5.0),  # sigma < 0
        ],
    )
    def test_invalid_instances(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    def test_sigma_zero_allowed_for_degenerate_case(self):
        p = ModelParams(rho=1.0, sigma=0.0, h=9.0, l=1.0, mu=5.0)
        assert degenerate_value(p, 0.5) == 7.0


class TestExponent:
    def test_reference_value(self, params):
        assert exponent_k(params) == pytest.approx(K_REF, abs=1e-14)

    def test_increases_with_sigma(self, params):
        ks = [exponent_k(params, s) for s in (1.0, 2.0, 5.0, 10.0)]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_always_above_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            l = rng.uniform(0.1, 5.0)
            mu = l + rng.uniform(0.1, 5.0)
            h = mu + rng.uniform(0.1, 5.0)
            p = ModelParams(
                rho=rng.uniform(0.1, 10.0), sigma=rng.uniform(0.1, 10.0),
                h=h, l=l, mu=mu,
            )
            assert exponent_k(p) > 1.0


class TestPoissonConstants:
    def test_l_tilde_reference(self, params):
        assert poisson_l_tilde(params, 2.0, 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_q_b_reference(self, params):
        assert poisson_q_b(params, 2.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_l_tilde_monotone_in_lambda(self, params):
        # with mu - r = 4 > l = 1 the blend moves toward mu - r
        vals = [poisson_l_tilde(params, lam, 1.0) for lam in (0.5, 1, 2, 4, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_l_tilde_decreases_with_fee(self, params):
        vals = [poisson_l_tilde(params, 2.0, r) for r in (0.5, 1.0, 2.0, 3.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_l_tilde_limits(self, params):
        assert poisson_l_tilde(params, 1e-12, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert poisson_l_tilde(params, 1e12, 1.0) == pytest.approx(4.0, abs=1e-10)

    def test_q_b_lambda_limits(self, params):
        # lambda -> 0: (mu - l - r)/(h - l); lambda -> infinity: 0
        assert poisson_q_b(params, 1e-9, 1.0) == pytest.approx(3.0 / 8.0, rel=1e-6)
        assert poisson_q_b(params, 1e9, 1.0) < 1e-8


class TestGaussianConstants:
    def test_k_tilde_reference(self, params):
        assert exponent_k(params, 1.0) == pytest.approx(K_TILDE_REF, abs=1e-14)

    def test_q_b_reference(self, params):
        assert gaussian_q_b(params, 1.0, 1.0) == pytest.approx(
            QB_GAUSS_REF, abs=1e-14
        )

    def test_d_b_reference(self, params):
        assert math.exp(gaussian_log_d_b(params, 1.0, 1.0)) == pytest.approx(
            DB_GAUSS_REF, abs=1e-12
        )

    def test_two_d_b_formulas_agree_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            l = rng.uniform(0.1, 3.0)
            mu = l + rng.uniform(0.2, 4.0)
            h = mu + rng.uniform(0.2, 4.0)
            sigma = rng.uniform(0.5, 10.0)
            p = ModelParams(
                rho=rng.uniform(0.1, 5.0), sigma=sigma, h=h, l=l, mu=mu
            )
            sigma_tilde = rng.uniform(0.05, 0.95) * sigma
            r = rng.uniform(0.05, 0.95) * (mu - l)
            a = math.exp(gaussian_log_d_b(p, sigma_tilde, r))
            b = gaussian_d_b_alt(p, sigma_tilde, r)
            assert a == pytest.approx(b, rel=1e-10)


    def test_large_k_tilde_stays_finite(self, large_k_tilde):
        kw, refined = large_k_tilde
        p = ModelParams(**kw)
        d = ObstacleFn.create(p, refined)
        assert d.k_tilde > 1e4
        for x in (d.k_tilde, d.q_b, d.log_d_b, d.q_prime):
            assert math.isfinite(x)
        # the branch term is negligible at p_hat, so V_B crosses mu there
        assert d.q_b < d.q_prime
        assert d.q_prime == pytest.approx(p.p_hat, abs=1e-12)
        v = d.nested(d.q_prime)
        assert v == pytest.approx(p.mu, abs=1e-14 * p.h)


class TestObstacleConstants:
    """The refined stage's constants, as ObstacleFn.create computes them."""

    def test_irreversible_has_no_nested_fields(self, params):
        ob = ObstacleFn.create(params, Irreversible())
        assert exponent_k(params) == pytest.approx(K_REF, abs=1e-14)
        assert ob.low == params.l
        assert ob.q_b is None and ob.k_tilde is None and ob.log_d_b is None
        assert ob.q_prime is None

    def test_poisson_fields(self, params, poisson):
        ob = ObstacleFn.create(params, poisson)
        assert ob.low == pytest.approx(3.0, abs=1e-12)
        assert ob.q_b == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert ob.q_prime == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert ob.k_tilde is None and ob.log_d_b is None

    def test_gaussian_fields(self, params, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        assert ob.low == params.l
        assert ob.k_tilde == pytest.approx(K_TILDE_REF, abs=1e-14)
        assert ob.q_b == pytest.approx(QB_GAUSS_REF, abs=1e-12)
        assert math.exp(ob.log_d_b) == pytest.approx(DB_GAUSS_REF, abs=1e-12)
        assert ob.q_prime == pytest.approx(QPRIME_GAUSS_REF, abs=1e-9)

    def test_accepts_sigma_zero(self, poisson):
        # no constant of the refined stage reads sigma; the solvers that
        # need sigma > 0 reject it themselves
        p = ModelParams(rho=1.0, sigma=0.0, h=9.0, l=1.0, mu=5.0)
        ob = ObstacleFn.create(p, poisson)
        assert ob.q_b == pytest.approx(1.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("refined", [
        PoissonSignal(lam=2.0, r=4.0), GaussianSignal(sigma_tilde=1.0, r=4.0),
    ], ids=["poisson", "gaussian"])
    def test_rejects_excessive_fee(self, params, refined):
        with pytest.raises(ParameterError, match="return fee"):
            ObstacleFn.create(params, refined)

    def test_rejects_sigma_tilde_above_sigma(self, params):
        with pytest.raises(ParameterError, match="exceeds sigma"):
            ObstacleFn.create(params, GaussianSignal(sigma_tilde=6.0, r=1.0))

    def test_rejects_unknown_regime(self, params):
        with pytest.raises(ParameterError, match="unknown refined-signal spec"):
            ObstacleFn.create(params, "poisson")


class TestCosts:
    def test_constant(self, params):
        assert cost_eval(ConstantCost(2.5), params, 0.3) == 2.5

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            ConstantCost(0.0)

    def test_variance_two_moment_identity(self, params):
        # q(1-q)(h-l)^2 is the conditional variance of the payoff:
        # E[X^2] - E[X]^2 with X in {h, l} at probability q
        cost = VarianceCost(1.0)
        for q in (0.1, 0.25, 0.5, 0.9):
            ex2 = q * params.h**2 + (1 - q) * params.l**2
            ex = q * params.h + (1 - q) * params.l
            assert cost_eval(cost, params, q) == pytest.approx(ex2 - ex**2, rel=1e-12)

    def test_variance_vanishes_at_certainty(self, params):
        assert cost_eval(VarianceCost(1.0), params, 0.0) == 0.0
        assert cost_eval(VarianceCost(1.0), params, 1.0) == 0.0

    def test_stddev_is_sqrt_of_variance(self, params):
        v = cost_eval(VarianceCost(1.0), params, 0.3)
        s = cost_eval(StdDevVarianceCost(1.0), params, 0.3)
        assert s == pytest.approx(math.sqrt(v), rel=1e-12)


ALL_COSTS = [
    ConstantCost(1.5),
    VarianceCost(0.7),
    StdDevVarianceCost(0.3),
]


class TestCostArrays:
    @pytest.mark.parametrize("cost", ALL_COSTS, ids=lambda c: type(c).__name__)
    def test_array_equals_scalar_calls(self, params, cost):
        qs = np.linspace(0.0, 1.0, 101)
        values = cost_eval(cost, params, qs)
        assert isinstance(values, np.ndarray) and values.shape == qs.shape
        scalars = [cost_eval(cost, params, float(q)) for q in qs]
        assert all(isinstance(c, float) for c in scalars)
        np.testing.assert_array_equal(values, scalars)

    @pytest.mark.parametrize("cost", ALL_COSTS, ids=lambda c: type(c).__name__)
    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, math.nan])
    def test_array_rejects_belief_outside_unit_interval(self, params, cost, bad):
        qs = np.array([0.0, 0.5, bad, 1.0])
        with pytest.raises(ParameterError):
            cost_eval(cost, params, qs)


class TestDegenerateValue:
    def test_exact_blend(self, params):
        assert degenerate_value(params, 0.5) == 7.0
        assert degenerate_value(params, 0.0) == 5.0
        assert degenerate_value(params, 1.0) == 9.0
