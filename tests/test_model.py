"""Parameter validation and the refined stage's closed-form constants.

Reference numbers were recomputed independently at 40-digit precision
from the defining formulas and frozen here.
"""

import math
from decimal import Decimal, localcontext

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
    SimConfig,
    StdDevVarianceCost,
    VarianceCost,
    cost_eval,
    degenerate_value,
    exponent_k,
)
from stopflow.model import _qpow
from conftest import gaussian_d_b_alt


def _poisson(params, lam, r):
    return ObstacleFn.create(params, PoissonSignal(lam, r))


def _gaussian(params, sigma_tilde, r):
    return ObstacleFn.create(params, GaussianSignal(sigma_tilde, r))


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

    @pytest.mark.parametrize("h", [1e130, 1e200, 1e308])
    def test_signal_too_weak_for_double_precision(self, h):
        # k rounds to 1: the closed form met log(0) or 1/(k - 1) = 1/0, FD
        # overflowed (h - l)^2/sigma^2 and the Gaussian obstacle took log(0)
        with pytest.raises(ParameterError, match=r"rounds k = .* to 1, as at sigma = 0$"):
            ModelParams(rho=1.0, sigma=5.0, h=h, l=1.0, mu=5.0)

    def test_weakest_signal_accepted(self):
        # 8 rho (sigma/(h - l))^2 = 8e-16 leaves k two ulps above 1
        p = ModelParams(rho=1.0, sigma=5.0, h=5e8 + 1.0, l=1.0, mu=5.0)
        assert exponent_k(p) > 1.0

    def test_sigma_zero_allowed_for_degenerate_case(self):
        p = ModelParams(rho=1.0, sigma=0.0, h=9.0, l=1.0, mu=5.0)
        assert degenerate_value(p, 0.5) == 7.0


def _params(**kwargs):
    return ModelParams(**{**dict(rho=1.0, sigma=5.0, h=9.0, l=1.0, mu=5.0), **kwargs})


class TestNonFinite:
    """A nan or infinite number is refused where it enters: the range checks
    let these through, and mc_value_outer never returned on sigma = nan or
    h = inf.  The cases only construct, so a missing refusal fails and does
    not hang."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: _params(rho=math.inf), id="rho-inf"),
        pytest.param(lambda: _params(sigma=math.nan), id="sigma-nan"),
        pytest.param(lambda: _params(sigma=math.inf), id="sigma-inf"),
        pytest.param(lambda: _params(h=math.inf), id="h-inf"),
        pytest.param(lambda: ConstantCost(math.inf), id="constant-inf"),
        pytest.param(lambda: VarianceCost(math.nan), id="variance-nan"),
        pytest.param(lambda: VarianceCost(math.inf), id="variance-inf"),
        pytest.param(lambda: StdDevVarianceCost(math.nan), id="stddev-nan"),
        pytest.param(lambda: PoissonSignal(lam=math.inf, r=1.0), id="lambda-inf"),
        pytest.param(lambda: PoissonSignal(lam=2.0, r=math.nan), id="poisson-r-nan"),
        pytest.param(lambda: GaussianSignal(sigma_tilde=math.inf, r=1.0), id="sigma-tilde-inf"),
        pytest.param(lambda: SimConfig(dt=math.nan).validate(1.0), id="dt-nan"),
    ])
    def test_refused(self, make):
        with pytest.raises(ParameterError, match=r"got (nan|inf)$"):
            make()


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
        assert _poisson(params, 2.0, 1.0).low == pytest.approx(3.0, abs=1e-12)

    def test_q_b_reference(self, params):
        assert _poisson(params, 2.0, 1.0).q_b == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_l_tilde_monotone_in_lambda(self, params):
        # with mu - r = 4 > l = 1 the blend moves toward mu - r
        vals = [_poisson(params, lam, 1.0).low for lam in (0.5, 1, 2, 4, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_l_tilde_decreases_with_fee(self, params):
        vals = [_poisson(params, 2.0, r).low for r in (0.5, 1.0, 2.0, 3.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_l_tilde_limits(self, params):
        assert _poisson(params, 1e-12, 1.0).low == pytest.approx(1.0, abs=1e-10)
        assert _poisson(params, 1e12, 1.0).low == pytest.approx(4.0, abs=1e-10)

    def test_q_b_lambda_limits(self, params):
        # lambda -> 0: (mu - l - r)/(h - l); lambda -> infinity: 0
        assert _poisson(params, 1e-9, 1.0).q_b == pytest.approx(3.0 / 8.0, rel=1e-6)
        assert _poisson(params, 1e9, 1.0).q_b < 1e-8


class TestGaussianConstants:
    def test_k_tilde_reference(self, params):
        assert _gaussian(params, 1.0, 1.0).k_tilde == pytest.approx(K_TILDE_REF, abs=1e-14)

    def test_q_b_reference(self, params):
        assert _gaussian(params, 1.0, 1.0).q_b == pytest.approx(
            QB_GAUSS_REF, abs=1e-14
        )

    def test_d_b_reference(self, params):
        assert math.exp(_gaussian(params, 1.0, 1.0).log_d_b) == pytest.approx(
            DB_GAUSS_REF, abs=1e-12
        )

    @pytest.mark.parametrize("sigma_tilde", [1e-3, 1e-5, 1e-7])
    def test_q_b_at_a_weak_refined_signal(self, params, sigma_tilde):
        # q_b = a m/((h - l)(1 - m) + a), a = l - mu + r, m = -(k_tilde - 1)/2,
        # here in 40 digits.  With m = (1 - k_tilde)/2 in doubles, q_b was off
        # by 3e-10 relative at sigma_tilde = 1e-3 and 7e-2 at 1e-7
        with localcontext() as ctx:
            ctx.prec = 40
            rho, h, l, mu = (Decimal(x) for x in (params.rho, params.h, params.l, params.mu))
            km1 = (1 + 8 * rho * (Decimal(sigma_tilde) / (h - l)) ** 2).sqrt() - 1
            m, a = -km1 / 2, l - mu + 1  # the fee r = 1
            want = float(a * m / ((h - l) * (1 - m) + a))
        assert _gaussian(params, sigma_tilde, 1.0).q_b == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_refined_signal_too_weak_for_double_precision(self, params):
        # k_tilde rounded to 1, so q_b was 0 and log(q_b) raised ValueError
        with pytest.raises(ParameterError, match="rounds k_tilde to 1$"):
            _gaussian(params, 1e-8, 1.0)

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
            a = math.exp(_gaussian(p, sigma_tilde, r).log_d_b)
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


class TestPerpetual:
    def test_constant_cost_is_c_over_rho_exactly(self, params):
        per = ConstantCost(0.7).perpetual(params)
        pi, d1, d2 = per.at(np.linspace(-40.0, 40.0, 81))
        assert np.all(pi == 0.7 / params.rho) and not d1.any() and not d2.any()
        assert per.at(0.3) == (0.7 / params.rho, 0.0, 0.0)
        assert not per.varies

    def test_stddev_cost_is_c_over_rho_plus_s2_over_8(self, params):
        cost = StdDevVarianceCost(0.3)
        s = params.spread / params.sigma
        for q in (1e-9, 0.2, 0.5, 0.9):
            pi = cost.perpetual(params).at(math.log(q / (1.0 - q)))[0]
            assert pi == pytest.approx(cost_eval(cost, params, q) / (params.rho + s * s / 8.0), rel=1e-14)

    # (model keys, cost, the largest relative gap to FD at n = 64000 on
    # q in [0.01, 0.99]); FD's own error, which falls as n grows, sets it
    ODE_CASES = {
        "benchmark-constant": ({}, ConstantCost(1.0), 1e-9),
        "benchmark-variance": ({}, VarianceCost(1.0), 2e-7),
        "benchmark-stddev": ({}, StdDevVarianceCost(1.0), 1e-3),
        "laguerre-variance": ({"sigma": 80.0}, VarianceCost(1.0), 1e-10),
        "laguerre-stddev": ({"sigma": 80.0}, StdDevVarianceCost(1.0), 1e-8),
        "kappa-near-half-variance": ({"h": 900.0}, VarianceCost(1.0), 5e-4),
        "kappa-near-half-stddev": ({"h": 900.0}, StdDevVarianceCost(1.0), 5e-2),
    }

    @pytest.mark.parametrize("case", list(ODE_CASES))
    def test_matches_an_fd_solve_of_its_ode(self, case):
        # rho Pi - (1/2) s^2 q^2 (1-q)^2 Pi'' = C with Pi = C/rho at q = 0
        # and 1, by solve_banded; Pi is FD's limit, so FD's gap to it falls
        # from n = 16000 to 64000 until it reaches roundoff
        from stopflow.fd_solver import solve_banded

        change, cost, tol = self.ODE_CASES[case]
        params = _params(**change)
        gaps = []
        for n in (16000, 64000):
            q = np.linspace(0.0, 1.0, n + 1)
            off = 0.5 * (params.spread / params.sigma * q * (1.0 - q) * n) ** 2
            fd = solve_banded(off, params.rho + 2.0 * off, off, cost(params, q))
            inner = (q >= 0.01) & (q <= 0.99)
            pi = cost.perpetual(params).at(np.log(q[inner]) - np.log1p(-q[inner]))[0]
            gaps.append(np.abs(pi / fd[inner] - 1.0).max())
        assert gaps[1] <= tol
        if gaps[0] > 1e-9:
            assert gaps[1] < 0.7 * gaps[0]

    @pytest.mark.parametrize("kappa", [0.5 + 1e-9, 1.0155, 3.9, 14.15, 1e5])
    def test_variance_psi_slope_matches_its_values(self, kappa):
        # psi' = ((kappa psi + psi') - (kappa psi - psi'))/2 from the two
        # one-sided integrals, against a central difference of psi
        from stopflow.model import SechGreen

        green = SechGreen.create(1.0, kappa)
        z = np.array([-30.0, -2.5, -0.3, 0.0, 1.7, 2.0, 12.0])
        eps = 1e-5
        psi, lo, hi, _ = green.sums(z)
        diff = (green.sums(z + eps)[0] - green.sums(z - eps)[0]) / (2.0 * eps)
        np.testing.assert_allclose(0.5 * (hi - lo), diff, rtol=1e-7, atol=1e-9 * psi.max())

    def test_variance_quadratures_agree_where_they_hand_over(self):
        # kappa = 4 switches from closed-form tails and Gauss-Legendre on the
        # core to Gauss-Laguerre; psi moves by about 1e-9 over that kappa step
        from stopflow.model import SechGreen

        z = np.array([-40.0, -5.0, -2.0, -0.5, 0.0, 0.8, 2.0, 3.0, 25.0])
        below = SechGreen.create(1.0, math.nextafter(4.0, 0.0) - 4e-9).sums(z)
        above = SechGreen.create(1.0, 4.0).sums(z)
        for a, b in zip(below, above):
            np.testing.assert_allclose(a, b, rtol=1e-8)


class TestQpow:
    @pytest.mark.parametrize("q, a, b, log_c, expected", [
        (0.5, 2.0, 3.0, 0.0, 2.0 ** -5),
        (1e-300, -3.0, 1.0, 0.0, math.inf),  # e^2072: math.exp raises OverflowError
        (0.5, 1.0, 1.0, 800.0, math.inf),
        (0.0, 0.5, 0.5, 0.0, 0.0),
        (1.0, 0.5, -0.5, 0.0, math.inf),
    ], ids=["inside", "overflow", "overflow-log-c", "q-zero", "q-one"])
    def test_scalar_path_matches_the_array_path(self, q, a, b, log_c, expected):
        scalar = _qpow(q, a, b, log_c)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(expected, rel=1e-15)
        assert _qpow(np.array([q]), a, b, log_c)[0] == pytest.approx(scalar, rel=1e-15)


class TestDegenerateValue:
    def test_exact_blend(self, params):
        assert degenerate_value(params, 0.5) == 7.0
        assert degenerate_value(params, 0.0) == 5.0
        assert degenerate_value(params, 1.0) == 9.0
