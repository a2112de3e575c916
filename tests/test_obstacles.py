"""Stopping payoffs: the linear pick-now payoff and the nested
second-stage continuation values."""

import numpy as np
import pytest

from stopflow import (
    GaussianSignal,
    Irreversible,
    ModelParams,
    ObstacleFn,
    PoissonSignal,
    crossing_point,
    g_irreversible,
    obstacle_eval,
    poisson_l_tilde,
    vb_gaussian,
    vb_poisson,
)
from stopflow.obstacles import vb_gaussian_slope

VB_GAUSS_HALF = 6.2880944478164360  # independently recomputed at 40 digits
QPRIME_GAUSS_REF = 0.25047724039614356


class TestIrreversiblePayoff:
    def test_flat_then_linear(self, params):
        assert g_irreversible(params, 0.0) == 5.0
        assert g_irreversible(params, 0.5) == 5.0
        assert g_irreversible(params, 0.75) == 7.0
        assert g_irreversible(params, 1.0) == 9.0

    def test_kink_at_p_hat(self, params):
        ob = ObstacleFn.create(params, Irreversible())
        assert crossing_point(ob) == pytest.approx(params.p_hat, abs=1e-12)


class TestPoissonObstacle:
    def test_equals_irreversible_with_effective_low_value(self, params, poisson):
        # the return option exactly replaces l by the blend l_tilde
        l_t = poisson_l_tilde(params, poisson.lam, poisson.r)
        shifted = ModelParams(
            rho=params.rho, sigma=params.sigma, h=params.h, l=l_t, mu=params.mu
        )
        ob = ObstacleFn.create(params, poisson)
        for q in np.linspace(0.0, 1.0, 101):
            if q > 1.0 / 6.0:  # above q_b the nested value is the blended line
                assert vb_poisson(
                    params, poisson.lam, poisson.r, q
                ) == pytest.approx(q * params.h + (1 - q) * l_t, abs=1e-12)
            # the max with mu erases the flat mu - r piece entirely
            assert obstacle_eval(ob, q) == pytest.approx(
                g_irreversible(shifted, q), abs=1e-12
            )

    def test_crossing_value(self, params, poisson):
        ob = ObstacleFn.create(params, poisson)
        assert crossing_point(ob) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_obstacle_at_half(self, params, poisson):
        # q h + (1-q) l_tilde = 0.5*9 + 0.5*3
        assert vb_poisson(params, poisson.lam, poisson.r, 0.5) == pytest.approx(6.0)


class TestGaussianObstacle:
    def test_reference_point(self, params, gaussian):
        v = vb_gaussian(params, gaussian.sigma_tilde, gaussian.r, 0.5)
        assert v == pytest.approx(VB_GAUSS_HALF, abs=1e-12)

    def test_flat_below_threshold(self, params, gaussian):
        # below q_b the holder returns immediately: value mu - r
        assert vb_gaussian(params, gaussian.sigma_tilde, gaussian.r, 0.001) == (
            pytest.approx(4.0, abs=1e-12)
        )

    def test_dominates_both_exits(self, params, gaussian):
        st, r = gaussian.sigma_tilde, gaussian.r
        for q in np.linspace(0.0, 1.0, 201):
            v = vb_gaussian(params, st, r, q)
            keep = q * params.h + (1 - q) * params.l
            assert v >= keep - 1e-10
            assert v >= params.mu - r - 1e-10

    def test_convex_on_dense_grid(self, params, gaussian):
        qs = np.linspace(0.0, 1.0, 10_001)
        vs = np.array(
            [vb_gaussian(params, gaussian.sigma_tilde, gaussian.r, q) for q in qs]
        )
        second = vs[:-2] - 2.0 * vs[1:-1] + vs[2:]
        assert second.min() >= -1e-9

    def test_slope_matches_central_difference(self, params, gaussian):
        st, r = gaussian.sigma_tilde, gaussian.r
        eps = 1e-6
        for q in (0.05, 0.2, 0.5, 0.9):
            num = (
                vb_gaussian(params, st, r, q + eps)
                - vb_gaussian(params, st, r, q - eps)
            ) / (2 * eps)
            assert vb_gaussian_slope(params, st, r, q) == pytest.approx(
                num, abs=1e-6
            )

    def test_crossing_value(self, params, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        assert crossing_point(ob) == pytest.approx(QPRIME_GAUSS_REF, abs=1e-9)


class TestObstacleEval:
    def test_takes_max_with_safe_choice(self, params, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        # left of the crossing the safe payoff mu wins
        assert obstacle_eval(ob, 0.1) == 5.0
        # right of it the nested continuation value wins
        assert obstacle_eval(ob, 0.5) == pytest.approx(VB_GAUSS_HALF, abs=1e-12)

    @pytest.mark.parametrize("regime", ["irreversible", "poisson", "gaussian"])
    def test_grid_endpoints_exact(self, params, poisson, gaussian, regime):
        # the Gaussian power term is evaluated on both sides of q_b, so
        # q = 0 sees an infinite branch that the flat side must mask exactly
        refined = {"irreversible": Irreversible(), "poisson": poisson,
                   "gaussian": gaussian}[regime]
        ob = ObstacleFn.create(params, refined)
        g = ob.on_grid(np.array([0.0, 1.0]))
        assert g[0] == params.mu
        assert g[1] == params.h
        assert ob(0.0) == params.mu
        assert ob(1.0) == params.h

    def test_grid_eval_matches_scalar(self, params, poisson, gaussian):
        # the scalar path takes exp/log from the math module, the array
        # path from numpy; they may differ by a few ulp of the power term
        qs = np.linspace(0.0, 1.0, 1001)
        for refined in (Irreversible(), poisson, gaussian):
            ob = ObstacleFn.create(params, refined)
            np.testing.assert_allclose(
                ob.on_grid(qs), [obstacle_eval(ob, float(q)) for q in qs],
                rtol=0, atol=1e-12,
            )
