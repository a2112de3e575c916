"""Monte Carlo cross-checks. Paths counts are kept modest here; the
full-budget comparisons live in the acceptance suite."""

import numpy as np
import pytest

from stopflow import (
    ConstantCost,
    GaussianSignal,
    Grid,
    Irreversible,
    MCEstimate,
    ModelParams,
    ObstacleFn,
    ParameterError,
    PoissonSignal,
    SimConfig,
    VarianceCost,
    mc_value_composed,
    mc_value_nested_gaussian,
    mc_value_nested_poisson,
    mc_value_outer,
    smooth_fit,
    solve_vi,
)
from stopflow import simulate
from stopflow.simulate import _nested_values, _outer_paths, _rng

CFG = SimConfig(n_paths=20_000, dt=1e-3, t_max=20.0, seed=7)


class TestConfig:
    def test_rejects_short_horizon(self, params):
        with pytest.raises(ParameterError):
            SimConfig(t_max=5.0).validate(params.rho)

    def test_rejects_bad_dt(self, params):
        with pytest.raises(ParameterError):
            SimConfig(dt=0.0).validate(params.rho)

    @pytest.mark.parametrize("dt", [100.0, 40.0])
    def test_rejects_a_dt_with_no_step(self, params, dt):
        # t_max/dt = 0.2 or 0.5 rounds to zero Euler steps
        with pytest.raises(ParameterError, match="at least one step"):
            SimConfig(dt=dt).validate(params.rho)
        SimConfig(dt=dt).validate()  # the nested stages read no dt

    def test_rejects_negative_seed(self, params, poisson):
        cfg = SimConfig(n_paths=10, seed=-1)
        with pytest.raises(ParameterError, match="seed"):
            cfg.validate()
        with pytest.raises(ParameterError, match="seed"):
            mc_value_nested_poisson(ObstacleFn.create(params, poisson), 0.5, cfg)

    def test_nested_targets_ignore_the_horizon(self, params, poisson, gaussian):
        # neither nested stage steps in time, so t_max and dt are not read
        cfg = SimConfig(n_paths=2000, t_max=5.0, dt=0.0, seed=3)
        est = mc_value_nested_poisson(ObstacleFn.create(params, poisson), 0.5, cfg)
        assert abs(est.mean - 6.0) <= 3 * est.std_err
        ob = ObstacleFn.create(params, gaussian)
        est = mc_value_nested_gaussian(ob, 0.5, cfg)
        assert abs(est.mean - ob.nested(0.5)) <= 3 * est.std_err
        with pytest.raises(ParameterError):
            mc_value_nested_gaussian(ob, 0.5, SimConfig(n_paths=0))


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

    def test_exact_at_coarse_step(self, params, cost):
        # no discretisation bias to hide: an Euler scheme is about -31 se
        # off here, the log-odds bridge kernel agrees at dt = 1e-2
        ob = ObstacleFn.create(params, Irreversible())
        sol = solve_vi(params, cost, ob, Grid(n=4000))
        cfg = SimConfig(n_paths=100_000, dt=1e-2, seed=7)
        est = mc_value_outer(params, cost, ob, sol.q_lo, sol.q_hi, 0.5, cfg)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 3 * est.std_err

    def test_exit_side_is_a_martingale_law(self, params, cost):
        # the belief is a martingale that leaves at exactly q_lo or q_hi, so
        # P(exit high) = (q0 - q_lo)/(q_hi - q_lo) at any step size; with a
        # step as wide as the strip this needs the two-barrier exit law
        q_lo, q_hi, q0 = 0.45, 0.55, 0.53
        cfg = SimConfig(n_paths=100_000, dt=4e-2, seed=11)
        _, q_exit, _ = _outer_paths(params, cost, q_lo, q_hi, q0, cfg, _rng(cfg.seed))
        assert set(np.unique(q_exit)) == {q_lo, q_hi}
        p = (q0 - q_lo) / (q_hi - q_lo)
        frac = np.mean(q_exit == q_hi)
        assert abs(frac - p) <= 4 * np.sqrt(p * (1 - p) / cfg.n_paths)

    @pytest.mark.parametrize("cost_case", ["constant", "variance"])
    def test_unbiased_across_seeds(self, params, cost_case):
        # one fixed-seed z-score can pass by luck; the mean of 20 does not
        cost = VarianceCost(1.0) if cost_case == "variance" else ConstantCost(1.0)
        ob = ObstacleFn.create(params, Irreversible())
        sol = solve_vi(params, cost, ob, Grid(n=4000))
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        zs = []
        for seed in range(1, 21):
            cfg = SimConfig(n_paths=20_000, seed=seed)
            est = mc_value_outer(params, cost, ob, sol.q_lo, sol.q_hi, 0.5, cfg)
            zs.append((est.mean - truth) / est.std_err)
        # the mean of 20 unit z-scores has standard deviation 0.22
        assert abs(np.mean(zs)) < 0.7

    def test_state_dependent_cost_matches_solver(self, params):
        cost = VarianceCost(1.0)
        ob = ObstacleFn.create(params, Irreversible())
        sol = solve_vi(params, cost, ob, Grid(n=2000))
        est = mc_value_outer(params, cost, ob, sol.q_lo, sol.q_hi, 0.5, CFG)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 4 * est.std_err

    def test_rejects_region_outside_unit_interval(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        for q_lo, q_hi in ((0.6, 0.4), (0.0, 0.6), (0.4, 1.0)):
            with pytest.raises(ParameterError):
                mc_value_outer(params, cost, ob, q_lo, q_hi, 0.5, CFG)


class TestNested:
    def test_poisson_matches_obstacle(self, params, poisson):
        est = mc_value_nested_poisson(ObstacleFn.create(params, poisson), 0.5, CFG)
        # linear obstacle value at 0.5 with l_tilde = 3 is exactly 6
        z = abs(est.mean - 6.0) / est.std_err
        assert z < 4.0

    def test_poisson_instant_stop_below_qb(self, params, poisson):
        est = mc_value_nested_poisson(ObstacleFn.create(params, poisson), 0.1, CFG)
        assert est.mean == 4.0
        assert est.std_err == 0.0

    def test_gaussian_matches_closed_form(self, params, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        est = mc_value_nested_gaussian(ob, 0.5, CFG)
        assert abs(est.mean - ob.nested(0.5)) <= 3 * est.std_err

    @pytest.mark.parametrize("nested, refined", [
        (mc_value_nested_poisson, Irreversible()),
        (mc_value_nested_poisson, GaussianSignal(sigma_tilde=1.0, r=1.0)),
        (mc_value_nested_gaussian, Irreversible()),
        (mc_value_nested_gaussian, PoissonSignal(lam=2.0, r=1.0)),
    ], ids=["poisson-irreversible", "poisson-gaussian", "gaussian-irreversible",
            "gaussian-poisson"])
    def test_rejects_the_wrong_regime(self, params, nested, refined):
        ob = ObstacleFn.create(params, refined)
        with pytest.raises(ParameterError, match="regime"):
            nested(ob, 0.5, CFG)


    def test_gaussian_hit_fraction(self, params, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        q_b = ob.q_b
        n = 100_000
        for q0 in (0.3, 0.5, 0.9):
            values = _nested_values(ob, np.full(n, q0), _rng(5))
            # a path that never reaches q_b collects h; every stopped one less
            frac = np.mean(values < params.h)
            p = (1.0 - q0) / (1.0 - q_b)
            assert abs(frac - p) <= 4 * np.sqrt(p * (1 - p) / n)

    def test_gaussian_unbiased_across_seeds(self, params, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        truth = ob.nested(0.5)
        zs = []
        for seed in range(1, 21):
            cfg = SimConfig(n_paths=20_000, seed=seed)
            est = mc_value_nested_gaussian(ob, 0.5, cfg)
            zs.append((est.mean - truth) / est.std_err)
        # the mean of 20 unit z-scores has standard deviation 0.22
        assert abs(np.mean(zs)) < 0.7

    def test_gaussian_exact_edges_and_determinism(self, params, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        est = mc_value_nested_gaussian(ob, ob.q_b, CFG)
        assert est == MCEstimate(params.mu - gaussian.r, 0.0, CFG.n_paths, 0.0)
        est = mc_value_nested_gaussian(ob, 1.0, CFG)
        assert est == MCEstimate(params.h, 0.0, CFG.n_paths, 0.0)
        a = mc_value_nested_gaussian(ob, 0.5, CFG)
        assert a == mc_value_nested_gaussian(ob, 0.5, CFG)
        assert a.truncation_bound == 0.0


    @pytest.mark.parametrize("q0_is_q_b", [True, False])
    def test_gaussian_at_or_below_qb_is_exact(self, params, q0_is_q_b):
        # the mean of 1000 copies of mu - r = 4.3 rounds to
        # 4.299999999999998, with se 5.6e-17
        ob = ObstacleFn.create(params, GaussianSignal(sigma_tilde=1.0, r=0.7))
        q0 = ob.q_b if q0_is_q_b else 0.5 * ob.q_b
        cfg = SimConfig(n_paths=1000, seed=7)
        est = mc_value_nested_gaussian(ob, q0, cfg)
        assert est == MCEstimate(params.mu - 0.7, 0.0, 1000, 0.0)

    def test_poisson_runs_at_sigma_zero(self, poisson):
        # the nested stage never reads the first-stage sigma
        p = ModelParams(rho=1.0, sigma=0.0, h=9.0, l=1.0, mu=5.0)
        cfg = SimConfig(n_paths=1000, seed=7)
        est = mc_value_nested_poisson(ObstacleFn.create(p, poisson), 0.5, cfg)
        assert est.n_paths == 1000 and est.std_err > 0.0
        assert abs(est.mean - 6.0) <= 4 * est.std_err


class TestComposed:
    def test_below_lower_boundary_is_deterministic(self, params, cost, poisson):
        ob = ObstacleFn.create(params, poisson)
        est = mc_value_composed(params, cost, ob, 0.4, 0.6, 0.2, CFG)
        assert est.mean == 5.0
        assert est.std_err == 0.0

    def test_rejects_irreversible_regime(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        with pytest.raises(ParameterError, match="composed value needs a refined-signal regime"):
            mc_value_composed(params, cost, ob, 0.4, 0.6, 0.5, CFG)

    def test_deterministic_per_seed(self, params, cost, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        a = mc_value_composed(params, cost, ob, 0.4, 0.6, 0.5, CFG)
        b = mc_value_composed(params, cost, ob, 0.4, 0.6, 0.5, CFG)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_nested_stream_is_no_other_seeds_first_stage(
        self, monkeypatch, params, cost, poisson, seed
    ):
        seen = []

        def spy(s):
            seen.append(s)
            return _rng(s)

        monkeypatch.setattr(simulate, "_rng", spy)
        cfg = SimConfig(n_paths=2000, dt=1e-2, seed=seed)
        mc_value_composed(params, cost, ObstacleFn.create(params, poisson), 0.4, 0.6, 0.5, cfg)
        assert seen[0] == seed  # the first stage keeps the seed's own stream
        nested = _rng(seen[1]).random(64)
        for other in (seed, seed + 1):
            assert not np.array_equal(nested, _rng(other).random(64))

    def test_gaussian_matches_solver_value(self, params, cost, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        sol = solve_vi(params, cost, ob, Grid(n=2000))
        est = mc_value_composed(params, cost, ob, sol.q_lo, sol.q_hi, 0.5, CFG)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 3 * est.std_err

    def test_matches_solver_value(self, params, cost, poisson):
        ob = ObstacleFn.create(params, poisson)
        sol = solve_vi(params, cost, ob, Grid(n=2000))
        est = mc_value_composed(params, cost, ob, sol.q_lo, sol.q_hi, 0.5, CFG)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 3 * est.std_err
