"""Monte Carlo cross-checks. Paths counts are kept modest here; the
full-budget comparisons live in the acceptance suite."""

import numpy as np
import pytest

from stopflow import (
    ConstantCost,
    Grid,
    Irreversible,
    MCEstimate,
    ModelParams,
    ObstacleFn,
    ParameterError,
    SimConfig,
    VarianceCost,
    gaussian_q_b,
    mc_value_composed,
    mc_value_nested_gaussian,
    mc_value_nested_poisson,
    mc_value_outer,
    smooth_fit,
    solve_vi,
)
from stopflow import simulate
from stopflow.simulate import _gaussian_paths_values, _normals, _outer_paths, _rng

CFG = SimConfig(n_paths=20_000, dt=1e-3, t_max=20.0, seed=7)


class TestConfig:
    def test_rejects_short_horizon(self, params):
        with pytest.raises(ParameterError):
            SimConfig(t_max=5.0).validate(params.rho)

    def test_rejects_bad_dt(self, params):
        with pytest.raises(ParameterError):
            SimConfig(dt=0.0).validate(params.rho)

    def test_rejects_negative_seed(self, params, poisson):
        cfg = SimConfig(n_paths=10, seed=-1)
        with pytest.raises(ParameterError, match="seed"):
            cfg.validate()
        with pytest.raises(ParameterError, match="seed"):
            mc_value_nested_poisson(params, poisson.lam, poisson.r, 0.5, cfg)

    def test_nested_targets_ignore_the_horizon(self, params, poisson, gaussian):
        # neither nested stage steps in time, so t_max and dt are not read
        cfg = SimConfig(n_paths=2000, t_max=5.0, dt=0.0, seed=3)
        est = mc_value_nested_poisson(params, poisson.lam, poisson.r, 0.5, cfg)
        assert abs(est.mean - 6.0) <= 3 * est.std_err
        est = mc_value_nested_gaussian(params, gaussian.sigma_tilde, gaussian.r, 0.5, cfg)
        truth = ObstacleFn.create(params, gaussian).nested(0.5)
        assert abs(est.mean - truth) <= 3 * est.std_err
        with pytest.raises(ParameterError):
            mc_value_nested_gaussian(params, 1.0, 1.0, 0.5, SimConfig(n_paths=0))


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

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_exit_side_is_a_martingale_law(self, params, cost, antithetic):
        # the belief is a martingale that leaves at exactly q_lo or q_hi, so
        # P(exit high) = (q0 - q_lo)/(q_hi - q_lo) at any step size; with a
        # step as wide as the strip this needs the two-barrier exit law
        q_lo, q_hi, q0 = 0.45, 0.55, 0.53
        cfg = SimConfig(n_paths=100_000, dt=4e-2, seed=11, antithetic=antithetic)
        _, q_exit, _ = _outer_paths(params, cost, q_lo, q_hi, q0, cfg, _rng(cfg.seed))
        assert set(np.unique(q_exit)) == {q_lo, q_hi}
        p = (q0 - q_lo) / (q_hi - q_lo)
        frac = np.mean(q_exit == q_hi)
        assert abs(frac - p) <= 4 * np.sqrt(p * (1 - p) / cfg.n_paths)

    @pytest.mark.parametrize("n", [9, 10])
    def test_antithetic_pairs_follow_ids(self, n):
        # the kernel keeps its live paths in theta order, not id order; path
        # k and path k + ceil(n/2) must still draw opposite normals
        half = (n + 1) // 2
        live = np.random.default_rng(3).permutation(n)[1:]
        z = _normals(_rng(5), live, n, antithetic=True)
        by_id = dict(zip(live.tolist(), z.tolist()))
        shared = [k for k in range(n // 2) if k in by_id and k + half in by_id]
        assert len(shared) >= n // 2 - 1
        for k in shared:
            assert by_id[k] == -by_id[k + half] != 0.0
        # one draw per pair that still has a live path
        assert len(set(map(abs, z.tolist()))) == len(set((live % half).tolist()))

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 1001])
    def test_antithetic_normals_match_sorted_pairing(self, n):
        # reference: one draw per live pair, in increasing pair order
        def reference(rng, idx, n):
            half = (n + 1) // 2
            pairs, slot = np.unique(idx % half, return_inverse=True)
            w = rng.standard_normal(pairs.size)[slot]
            return np.where(idx < half, w, -w)

        perm = np.random.default_rng(n)
        for size in {1, n // 2, n - 1, n} - {0}:
            live = perm.permutation(n)[:size]
            got = _normals(_rng(11), live, n, antithetic=True)
            assert np.array_equal(got, reference(_rng(11), live, n))

    @pytest.mark.parametrize("cost_case", ["constant", "variance", "antithetic"])
    def test_unbiased_across_seeds(self, params, cost_case):
        # one fixed-seed z-score can pass by luck; the mean of 20 does not
        cost = VarianceCost(1.0) if cost_case == "variance" else ConstantCost(1.0)
        ob = ObstacleFn.create(params, Irreversible())
        sol = solve_vi(params, cost, ob, Grid(n=4000))
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        zs = []
        for seed in range(1, 21):
            cfg = SimConfig(
                n_paths=20_000, seed=seed, antithetic=cost_case == "antithetic"
            )
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
        truth = ObstacleFn.create(params, gaussian).nested(0.5)
        assert abs(est.mean - truth) <= 3 * est.std_err


    def test_gaussian_hit_fraction(self, params, gaussian):
        st, r = gaussian.sigma_tilde, gaussian.r
        q_b = gaussian_q_b(params, st, r)
        n = 100_000
        for q0 in (0.3, 0.5, 0.9):
            values = _gaussian_paths_values(params, st, r, np.full(n, q0), _rng(5))
            # a path that never reaches q_b collects h; every stopped one less
            frac = np.mean(values < params.h)
            p = (1.0 - q0) / (1.0 - q_b)
            assert abs(frac - p) <= 4 * np.sqrt(p * (1 - p) / n)

    def test_gaussian_unbiased_across_seeds(self, params, gaussian):
        st, r = gaussian.sigma_tilde, gaussian.r
        truth = ObstacleFn.create(params, gaussian).nested(0.5)
        zs = []
        for seed in range(1, 21):
            cfg = SimConfig(n_paths=20_000, seed=seed)
            est = mc_value_nested_gaussian(params, st, r, 0.5, cfg)
            zs.append((est.mean - truth) / est.std_err)
        # the mean of 20 unit z-scores has standard deviation 0.22
        assert abs(np.mean(zs)) < 0.7

    def test_gaussian_exact_edges_and_determinism(self, params, gaussian):
        st, r = gaussian.sigma_tilde, gaussian.r
        q_b = gaussian_q_b(params, st, r)
        est = mc_value_nested_gaussian(params, st, r, q_b, CFG)
        assert est == MCEstimate(params.mu - r, 0.0, CFG.n_paths, 0.0)
        est = mc_value_nested_gaussian(params, st, r, 1.0, CFG)
        assert est == MCEstimate(params.h, 0.0, CFG.n_paths, 0.0)
        a = mc_value_nested_gaussian(params, st, r, 0.5, CFG)
        assert a == mc_value_nested_gaussian(params, st, r, 0.5, CFG)
        assert a.truncation_bound == 0.0


class TestComposed:
    def test_below_lower_boundary_is_deterministic(self, params, cost, poisson):
        est = mc_value_composed(params, cost, poisson, 0.4, 0.6, 0.2, CFG)
        assert est.mean == 5.0
        assert est.std_err == 0.0

    def test_rejects_irreversible_regime(self, params, cost):
        with pytest.raises(ParameterError):
            mc_value_composed(params, cost, Irreversible(), 0.4, 0.6, 0.5, CFG)

    def test_deterministic_per_seed(self, params, cost, gaussian):
        a = mc_value_composed(params, cost, gaussian, 0.4, 0.6, 0.5, CFG)
        b = mc_value_composed(params, cost, gaussian, 0.4, 0.6, 0.5, CFG)
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
        mc_value_composed(params, cost, poisson, 0.4, 0.6, 0.5, cfg)
        assert seen[0] == seed  # the first stage keeps the seed's own stream
        nested = _rng(seen[1]).random(64)
        for other in (seed, seed + 1):
            assert not np.array_equal(nested, _rng(other).random(64))

    def test_gaussian_matches_solver_value(self, params, cost, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        sol = solve_vi(params, cost, ob, Grid(n=2000))
        est = mc_value_composed(
            params, cost, gaussian, sol.q_lo, sol.q_hi, 0.5, CFG
        )
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 3 * est.std_err

    def test_matches_solver_value(self, params, cost, poisson):
        ob = ObstacleFn.create(params, poisson)
        sol = solve_vi(params, cost, ob, Grid(n=2000))
        est = mc_value_composed(
            params, cost, poisson, sol.q_lo, sol.q_hi, 0.5, CFG
        )
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 3 * est.std_err
