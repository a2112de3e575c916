"""Monte Carlo cross-checks. Paths counts are kept modest here; the
full-budget comparisons live in the acceptance suite."""

import numpy as np
import pytest

from stopflow import (
    Grid,
    Irreversible,
    MCEstimate,
    ModelParams,
    ObstacleFn,
    ParameterError,
    SimConfig,
    mc_value_composed,
    mc_value_nested_gaussian,
    mc_value_nested_poisson,
    mc_value_outer,
    simulate_belief_path,
    smooth_fit,
    solve_vi,
    vb_gaussian,
)

CFG = SimConfig(n_paths=20_000, dt=1e-3, t_max=20.0, seed=7)


class TestConfig:
    def test_rejects_short_horizon(self, params):
        with pytest.raises(ParameterError):
            SimConfig(t_max=5.0).validate(params.rho)

    def test_rejects_bad_dt(self, params):
        with pytest.raises(ParameterError):
            SimConfig(dt=0.0).validate(params.rho)


class TestBeliefPath:
    def test_stops_at_threshold(self, params):
        rng = np.random.default_rng(3)
        tau, q, cost_int = simulate_belief_path(
            params, 0.5, CFG, lambda x: x <= 0.4 or x >= 0.6, rng=rng
        )
        assert tau > 0
        assert q <= 0.4 + 0.1 or q >= 0.6 - 0.1
        assert cost_int == 0.0

    def test_cost_integral_positive_with_cost(self, params, cost):
        rng = np.random.default_rng(3)
        _, _, ci = simulate_belief_path(
            params, 0.5, CFG, lambda x: x <= 0.3 or x >= 0.7, cost=cost, rng=rng
        )
        assert ci > 0.0


class TestOuter:
    def test_deterministic_per_seed(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        a = mc_value_outer(params, cost, ob, 0.4, 0.6, 0.5, CFG)
        b = mc_value_outer(params, cost, ob, 0.4, 0.6, 0.5, CFG)
        assert a == b

    def test_seed_changes_estimate(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        a = mc_value_outer(params, cost, ob, 0.4, 0.6, 0.5, CFG)
        cfg2 = SimConfig(n_paths=CFG.n_paths, seed=8)
        b = mc_value_outer(params, cost, ob, 0.4, 0.6, 0.5, cfg2)
        assert a.mean != b.mean

    def test_instant_stop_outside_region(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        est = mc_value_outer(params, cost, ob, 0.4, 0.6, 0.2, CFG)
        assert est == MCEstimate(5.0, 0.0, CFG.n_paths, 0.0)
        est = mc_value_outer(params, cost, ob, 0.4, 0.6, 0.8, CFG)
        assert est.mean == pytest.approx(0.8 * 9 + 0.2 * 1)
        assert est.std_err == 0.0

    def test_matches_solver_value(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        sol = solve_vi(params, cost, ob, Grid(n=2000))
        est = mc_value_outer(params, cost, ob, sol.q_lo, sol.q_hi, 0.5, CFG)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        z = abs(est.mean - truth) / est.std_err
        assert z < 4.0

    def test_antithetic_reduces_stderr(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        plain = mc_value_outer(params, cost, ob, 0.4, 0.6, 0.5, CFG)
        anti_cfg = SimConfig(n_paths=CFG.n_paths, seed=CFG.seed, antithetic=True)
        anti = mc_value_outer(params, cost, ob, 0.4, 0.6, 0.5, anti_cfg)
        assert anti.std_err < plain.std_err


class TestNested:
    def test_poisson_matches_obstacle(self, params, poisson):
        est = mc_value_nested_poisson(params, poisson.lam, poisson.r, 0.5, CFG)
        # linear obstacle value at 0.5 with l_tilde = 3 is exactly 6
        z = abs(est.mean - 6.0) / est.std_err
        assert z < 4.0

    def test_poisson_instant_stop_below_qb(self, params, poisson):
        est = mc_value_nested_poisson(params, poisson.lam, poisson.r, 0.1, CFG)
        assert est.mean == 4.0
        assert est.std_err == 0.0

    def test_gaussian_matches_closed_form(self, params, gaussian):
        est = mc_value_nested_gaussian(
            params, gaussian.sigma_tilde, gaussian.r, 0.5, CFG
        )
        truth = vb_gaussian(params, gaussian.sigma_tilde, gaussian.r, 0.5)
        # Euler discretisation bias at dt = 1e-3 stays within a couple cents
        allow = 3 * est.std_err + 2e-2
        assert abs(est.mean - truth) <= allow


class TestComposed:
    def test_below_lower_boundary_is_deterministic(self, params, cost, poisson):
        est = mc_value_composed(params, cost, poisson, 0.4, 0.6, 0.2, CFG)
        assert est.mean == 5.0
        assert est.std_err == 0.0

    def test_rejects_irreversible_regime(self, params, cost):
        with pytest.raises(ParameterError):
            mc_value_composed(params, cost, Irreversible(), 0.4, 0.6, 0.5, CFG)

    def test_matches_solver_value(self, params, cost, poisson):
        ob = ObstacleFn.create(params, poisson)
        sol = solve_vi(params, cost, ob, Grid(n=2000))
        est = mc_value_composed(
            params, cost, poisson, sol.q_lo, sol.q_hi, 0.5, CFG
        )
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        allow = 3 * est.std_err + 2e-2
        assert abs(est.mean - truth) <= allow
