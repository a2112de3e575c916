"""Monte Carlo cross-checks. Paths counts are kept modest here; the
full-budget comparisons live in the acceptance suite."""

import math
import tracemalloc
from dataclasses import replace

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
    StdDevVarianceCost,
    VarianceCost,
    mc_value_composed,
    mc_value_nested_gaussian,
    mc_value_nested_poisson,
    mc_value_outer,
    smooth_fit,
    solve_vi,
)
from stopflow import simulate
from stopflow.simulate import (
    HORIZON,
    MAX_STEPS,
    _exit_probs,
    _nested_values,
    _outer_paths,
    _rng,
    _strip_ratio,
)

from conftest import threshold_value

CFG = SimConfig(n_paths=20_000, dt=1e-3, seed=7)


class TestConfig:
    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_rejects_fewer_than_two_paths(self, n_paths):
        # one path reported std_err = 0, so any estimate gave z = inf
        with pytest.raises(ParameterError, match=f"^sim.n_paths must be at least 2, got {n_paths}$"):
            SimConfig(n_paths=n_paths).validate()
        SimConfig(n_paths=2).validate()

    def test_rejects_bad_dt(self, params):
        with pytest.raises(ParameterError):
            SimConfig(dt=0.0).validate(params.rho)

    @pytest.mark.parametrize("dt", [100.0, 40.0])
    def test_rejects_a_dt_with_no_step(self, params, dt):
        # a horizon of 20/dt = 0.2 or 0.5 steps rounds to zero steps
        with pytest.raises(ParameterError, match="at least one step"):
            SimConfig(dt=dt).validate(params.rho)
        SimConfig(dt=dt).validate()  # the nested stages read no dt

    def test_the_horizon_follows_rho(self):
        # 20/rho: a small rho runs at dt = 1e-3, until its steps pass the cap
        SimConfig(dt=1e-3).validate(0.5)
        with pytest.raises(ParameterError, match="2e\\+07 steps, above the cap"):
            SimConfig(dt=1e-3).validate(1e-3)

    def test_rejects_a_dt_above_the_step_cap(self, params):
        # dt = 1e-12 asked for 2e13 steps, which ran without end
        with pytest.raises(ParameterError, match="^sim.dt = 1e-12 makes 20/rho/dt = 2e"):
            SimConfig(dt=1e-12).validate(params.rho)
        SimConfig(dt=HORIZON / MAX_STEPS).validate(params.rho)
        SimConfig(dt=1e-12).validate()  # the nested stages read no dt

    @pytest.mark.parametrize("field, value, shown", [
        ("n_paths", math.nan, "nan"),
        ("n_paths", 1000.5, "1000.5"),
        ("seed", 1.5, "1.5"),
    ])
    def test_refuses_a_non_integer_count(self, field, value, shown):
        # each passed validate's range checks and reached numpy as a bare
        # TypeError
        with pytest.raises(ParameterError, match=rf"^{field} must be an integer, got {shown}$"):
            SimConfig(**{field: value})

    def test_rejects_negative_seed(self, params, poisson):
        cfg = SimConfig(n_paths=10, seed=-1)
        with pytest.raises(ParameterError, match="seed"):
            cfg.validate()
        with pytest.raises(ParameterError, match="seed"):
            mc_value_nested_poisson(ObstacleFn.create(params, poisson), 0.5, cfg)

    def test_nested_targets_ignore_the_horizon(self, params, poisson, gaussian):
        # neither nested stage steps in time, so dt is not read
        cfg = SimConfig(n_paths=2000, dt=0.0, seed=3)
        est = mc_value_nested_poisson(ObstacleFn.create(params, poisson), 0.5, cfg)
        assert abs(est.mean - 6.0) <= 3 * est.std_err
        ob = ObstacleFn.create(params, gaussian)
        est = mc_value_nested_gaussian(ob, 0.5, cfg)
        assert abs(est.mean - ob.nested(0.5)) <= 3 * est.std_err
        with pytest.raises(ParameterError):
            mc_value_nested_gaussian(ob, 0.5, SimConfig(n_paths=0))


class TestInputs:
    @pytest.mark.parametrize("q0", [-0.1, 1.5, math.nan])
    @pytest.mark.parametrize("target", ["outer", "composed", "nested_poisson", "nested_gaussian"])
    def test_rejects_a_start_belief_outside_the_unit_interval(
        self, params, cost, poisson, gaussian, target, q0
    ):
        # outer returned h q0 + l (1 - q0) at 1.5 and each nested stage a
        # number at nan, all with zero standard error
        cfg = SimConfig(n_paths=1000, seed=3)
        ob = ObstacleFn.create(params, gaussian if target == "nested_gaussian" else poisson)
        with pytest.raises(ParameterError, match=r"^belief must lie in \[0, 1\], got \["):
            if target in ("outer", "composed"):
                getattr(simulate, f"mc_value_{target}")(cost, ob, 0.4, 0.6, q0, cfg)
            else:
                getattr(simulate, f"mc_value_{target}")(ob, q0, cfg)

    @pytest.mark.parametrize("estimate", [mc_value_outer, mc_value_composed])
    def test_sigma_zero_is_refused_as_by_the_solver(self, cost, poisson, estimate):
        params = ModelParams(rho=1.0, sigma=0.0, h=9.0, l=1.0, mu=5.0)
        ob = ObstacleFn.create(params, poisson)
        with pytest.raises(ParameterError) as solver:
            solve_vi(cost, ob, Grid(n=100))
        with pytest.raises(ParameterError) as mc:
            estimate(cost, ob, 0.4, 0.6, 0.5, CFG)
        assert str(mc.value) == str(solver.value)


class TestOuter:
    def test_deterministic_per_seed(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        a = mc_value_outer(cost, ob, 0.4, 0.6, 0.5, CFG)
        b = mc_value_outer(cost, ob, 0.4, 0.6, 0.5, CFG)
        assert a == b

    def test_seed_changes_estimate(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        a = mc_value_outer(cost, ob, 0.4, 0.6, 0.5, CFG)
        cfg2 = SimConfig(n_paths=CFG.n_paths, seed=8)
        b = mc_value_outer(cost, ob, 0.4, 0.6, 0.5, cfg2)
        assert a.mean != b.mean

    def test_instant_stop_outside_region(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        est = mc_value_outer(cost, ob, 0.4, 0.6, 0.2, CFG)
        assert est == MCEstimate(5.0, 0.0, CFG.n_paths, 0.0)
        est = mc_value_outer(cost, ob, 0.4, 0.6, 0.8, CFG)
        assert est.mean == pytest.approx(0.8 * 9 + 0.2 * 1)
        assert est.std_err == 0.0

    def test_matches_solver_value(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        sol = solve_vi(cost, ob, Grid(n=2000))
        est = mc_value_outer(cost, ob, sol.q_lo, sol.q_hi, 0.5, CFG)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        z = abs(est.mean - truth) / est.std_err
        assert z < 4.0

    def test_exact_at_coarse_step(self, params, cost):
        # no discretisation bias to hide: an Euler scheme is about -31 se
        # off here, the log-odds bridge kernel agrees at dt = 1e-2
        ob = ObstacleFn.create(params, Irreversible())
        sol = solve_vi(cost, ob, Grid(n=4000))
        cfg = SimConfig(n_paths=100_000, dt=1e-2, seed=7)
        est = mc_value_outer(cost, ob, sol.q_lo, sol.q_hi, 0.5, cfg)
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
        sol = solve_vi(cost, ob, Grid(n=4000))
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        zs = []
        for seed in range(1, 21):
            cfg = SimConfig(n_paths=20_000, seed=seed)
            est = mc_value_outer(cost, ob, sol.q_lo, sol.q_hi, 0.5, cfg)
            zs.append((est.mean - truth) / est.std_err)
        # the mean of 20 unit z-scores has standard deviation 0.22
        assert abs(np.mean(zs)) < 0.7

    def test_state_dependent_cost_matches_solver(self, params):
        cost = VarianceCost(1.0)
        ob = ObstacleFn.create(params, Irreversible())
        sol = solve_vi(cost, ob, Grid(n=2000))
        est = mc_value_outer(cost, ob, sol.q_lo, sol.q_hi, 0.5, CFG)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 4 * est.std_err

    def test_rejects_region_outside_unit_interval(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        for q_lo, q_hi in ((0.6, 0.4), (0.0, 0.6), (0.4, 1.0)):
            with pytest.raises(ParameterError):
                mc_value_outer(cost, ob, q_lo, q_hi, 0.5, CFG)


def pooled_z(cost, ob, q_lo, q_hi, q0, dt, estimate=mc_value_outer):
    """The bias of an estimate of the threshold policy, mc_value_outer or
    mc_value_composed, against threshold_value, pooled over seeds 1 to 20 of
    2e4 paths, in pooled standard errors.  The composed estimate collects
    mu at q_lo and the nested value at q_hi, which is the obstacle there."""
    truth = threshold_value(cost, ob, q_lo, q_hi, q0)
    return pooled_bias(
        lambda seed: estimate(cost, ob, q_lo, q_hi, q0, SimConfig(n_paths=20_000, dt=dt, seed=seed)),
        truth,
    )


def pooled_bias(estimate, truth):
    """The bias of estimate(seed) against truth, pooled over seeds 1 to 20,
    in pooled standard errors."""
    bias, var = 0.0, 0.0
    for seed in range(1, 21):
        est = estimate(seed)
        bias += est.mean - truth
        var += est.std_err ** 2
    return bias / math.sqrt(var)


# the n = 4000 FD boundaries of the benchmark instance, constant cost 1
REGIONS = {
    "irreversible": (Irreversible(), 0.447875, 0.551125),
    "poisson": (PoissonSignal(lam=2.0, r=1.0), 0.303125, 0.365125),
    "gaussian": (GaussianSignal(sigma_tilde=1.0, r=1.0), 0.232375, 0.269875),
}


class TestBlockKernel:
    """_outer_paths advances m live paths in numpy passes of at most _BLOCK
    path-steps: max(1, _BLOCK // m) steps at once, or one step of a chunk
    of _BLOCK paths."""

    # (case, seed) -> (mean, std_err) as float.hex(), at the defaults but
    # 2e4 paths; the outputs come in exit order, and the composed estimate's
    # nested draws follow that order
    RECORDED = {
        ("outer-constant", 3): ("0x1.46912effb38f7p+2", "0x1.87f8d27bf6f3dp-10"),
        ("outer-constant", 4): ("0x1.46a0e49338fc5p+2", "0x1.876d9cf749c31p-10"),
        ("outer-variance", 3): ("0x1.41f65609a8b28p+2", "0x1.ddf77b74f2843p-12"),
        ("outer-variance", 4): ("0x1.41f958e0197e9p+2", "0x1.df5d026454105p-12"),
        ("composed-gaussian", 3): ("0x1.40f1e53eb2addp+2", "0x1.7603f1c358836p-7"),
        ("composed-gaussian", 4): ("0x1.407c1662d0988p+2", "0x1.775d66d96d5f0p-7"),
    }

    # (cost, seed) -> (fsum(tau), fsum(cost_int)) as float.hex() and the
    # count of exits through q_hi, of 2e4 paths from 0.5 at the defaults:
    # the constant cost on the irreversible region, the variance cost on
    # its narrow one.  No order of the records changes them, so they pin
    # each path's draws and arithmetic, not the order the exits are written in
    ORDER_FREE = {
        ("constant", 1): ("0x1.509669d5aa77fp+8", "0x1.4bed5e346610ep+8", 10114),
        ("constant", 2): ("0x1.4d7099090445ep+8", "0x1.48cf253310e3cp+8", 10107),
        ("variance", 1): ("0x1.cd5c35c54ef91p+4", "0x1.cc9a6a8eab029p+8", 10062),
        ("variance", 2): ("0x1.cfaee58a309fcp+4", "0x1.cee8c4323b701p+8", 9960),
    }

    @pytest.mark.parametrize("case, seed", list(RECORDED))
    def test_fixed_seed_estimates_are_pinned(self, params, gaussian, case, seed):
        estimate, cost, regime, q_lo, q_hi, q0 = {
            "outer-constant": (mc_value_outer, ConstantCost(1.0), Irreversible(), 0.45, 0.55, 0.5),
            "outer-variance": (mc_value_outer, VarianceCost(1.0), Irreversible(), 0.485, 0.515, 0.5),
            "composed-gaussian": (mc_value_composed, ConstantCost(1.0), gaussian, 0.23, 0.27, 0.25),
        }[case]
        ob = ObstacleFn.create(params, regime)
        est = estimate(cost, ob, q_lo, q_hi, q0, SimConfig(n_paths=20_000, seed=seed))
        assert (est.mean.hex(), est.std_err.hex()) == self.RECORDED[case, seed]

    @pytest.mark.parametrize("case, seed", list(ORDER_FREE))
    def test_order_free_sums_are_pinned(self, params, case, seed):
        cost, q_lo, q_hi = {
            "constant": (ConstantCost(1.0), *REGIONS["irreversible"][1:]),
            "variance": (VarianceCost(1.0), 0.48479, 0.51518),
        }[case]
        cfg = SimConfig(n_paths=20_000, seed=seed)
        tau, q_exit, cost_int = _outer_paths(params, cost, q_lo, q_hi, 0.5, cfg, _rng(seed))
        sums = math.fsum(tau).hex(), math.fsum(cost_int).hex()
        assert (*sums, int(np.count_nonzero(q_exit == q_hi))) == self.ORDER_FREE[case, seed]

    def test_records_come_in_exit_order(self, monkeypatch, params, cost):
        # with one path-step per pass, the passes run step by step, so an
        # exit time never falls by more than a step from one record to the
        # next; the paths still inside at the horizon 20/rho = 1 come last
        monkeypatch.setattr(simulate, "_BLOCK", 1)
        cfg = SimConfig(n_paths=100, dt=0.05, seed=5)
        fast = replace(params, rho=20.0)
        tau, q_exit, _ = _outer_paths(fast, cost, 0.2, 0.8, 0.5, cfg, _rng(cfg.seed))
        inside = (q_exit > 0.2) & (q_exit < 0.8)
        n_in = int(inside.sum())
        assert 0 < n_in < cfg.n_paths and inside[-n_in:].all() and np.all(tau[inside] == 1.0)
        assert np.all(np.diff(tau[~inside]) >= -cfg.dt * (1.0 + 1e-9))

    @pytest.mark.parametrize("cost", [ConstantCost(1.0), VarianceCost(1.0)], ids=["constant", "variance"])
    def test_blocks_keep_the_law_of_the_exit(self, monkeypatch, params, cost):
        # at 2000 paths every pass runs K >= 4 steps; its exit time, side
        # and cost integral must have the law of passes of one step over
        # chunks of 256 paths
        _, q_lo, q_hi = REGIONS["irreversible"]
        runs = {}
        for block in (256, simulate._BLOCK):
            monkeypatch.setattr(simulate, "_BLOCK", block)
            out = [
                _outer_paths(params, cost, q_lo, q_hi, 0.5, cfg, _rng(cfg.seed))
                for cfg in (SimConfig(n_paths=2000, seed=seed) for seed in range(1, 61))
            ]
            tau, q_exit, cost_int = (np.concatenate(a) for a in zip(*out))
            runs[block] = (tau, q_exit == q_hi, cost_int)
        for chunked, blocked in zip(runs[256], runs[simulate._BLOCK]):
            se = math.hypot(chunked.std(), blocked.std()) / math.sqrt(chunked.size)
            assert abs(chunked.mean() - blocked.mean()) <= 4.0 * se

    def test_a_pass_stops_at_the_horizon(self, monkeypatch, params, cost):
        # three paths that cannot leave in 50 steps: at rho = 400 the
        # horizon 20/rho is 0.05, so one pass of K = 50, not _BLOCK // 3,
        # and each stops there where it is
        drawn = []

        class Counting(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                drawn.append(size)
                return super().standard_normal(size, *args, **kwargs)

        monkeypatch.setattr(simulate, "_rng", lambda seed: Counting(np.random.SFC64(seed)))
        cfg = SimConfig(n_paths=3, dt=1e-3, seed=5)
        fast = replace(params, rho=400.0)
        tau, q_exit, _ = _outer_paths(fast, cost, 0.01, 0.99, 0.5, cfg, simulate._rng(5))
        assert drawn == [(50, 3)]
        assert np.all(tau == 0.05) and np.all((q_exit > 0.01) & (q_exit < 0.99))

    @pytest.mark.parametrize("estimate, regime, q0", [
        pytest.param(mc_value_outer, "irreversible", 0.47, id="irreversible-0.47"),
        pytest.param(mc_value_outer, "irreversible", 0.5, id="irreversible-0.5"),
        pytest.param(mc_value_outer, "irreversible", 0.53, id="irreversible-0.53"),
        pytest.param(mc_value_outer, "poisson", 0.334, id="poisson-0.334"),
        pytest.param(mc_value_outer, "gaussian", 0.251, id="gaussian-0.251"),
        pytest.param(mc_value_composed, "poisson", 0.334, id="composed-poisson-0.334"),
        pytest.param(mc_value_composed, "gaussian", 0.251, id="composed-gaussian-0.251"),
    ])
    def test_matches_the_threshold_closed_form(self, params, cost, estimate, regime, q0):
        # no FD in the loop: 20 seeds of 2e4 paths, mostly in block mode,
        # pooled against the exact value of the same threshold policy; the
        # composed estimate hands its upper exits to the nested stage in
        # slices
        refined, q_lo, q_hi = REGIONS[regime]
        ob = ObstacleFn.create(params, refined)
        assert abs(pooled_z(cost, ob, q_lo, q_hi, q0, SimConfig().dt, estimate)) <= 3.0

    @pytest.mark.parametrize("cost", [VarianceCost(1.0), StdDevVarianceCost(1.0)],
                             ids=["variance", "stddev"])
    def test_every_cost_matches_the_threshold_closed_form(self, params, cost):
        # a state-dependent cost's running integral against the exact value
        # of the same policy, from the cost's perpetual cost Pi, on the
        # cost's own smooth-fit region (pooled z 1.5 and 0.3 here)
        ob = ObstacleFn.create(params, Irreversible())
        sol = smooth_fit(cost, ob)
        assert abs(pooled_z(cost, ob, sol.q_lo, sol.q_hi, 0.5, SimConfig().dt)) <= 3.0

    @pytest.mark.parametrize("dt", [1e-3, 1e-2, 5e-2])
    @pytest.mark.parametrize(
        "q_lo, q_hi", [(0.4477, 0.5512), (0.48479, 0.51518)], ids=["wide", "narrow"]
    )
    @pytest.mark.parametrize("regime", list(REGIONS))
    def test_exact_in_law_at_any_step(self, params, cost, regime, q_lo, q_hi, dt):
        # the benchmark instance's smooth-fit region and its variance-cost
        # FD region, where 2 w^2/(s^2 dt) runs from 134 down to 0.23; the
        # first image terms with a one-barrier exit time are 46 to 650
        # pooled se off in the narrow region from dt = 5e-3, and 99 in the
        # wide one at 5e-2 (20 seeds of 1e5 paths)
        ob = ObstacleFn.create(params, REGIONS[regime][0])
        assert abs(pooled_z(cost, ob, q_lo, q_hi, 0.5, dt)) <= 3.0

    @pytest.mark.parametrize("regime", list(REGIONS))
    def test_threshold_closed_form_matches_fd(self, params, cost, regime):
        # the reference above agrees with an FD solve of the same instance
        refined, _, _ = REGIONS[regime]
        ob = ObstacleFn.create(params, refined)
        sol = solve_vi(cost, ob, Grid(n=4000))
        for q0 in np.linspace(sol.q_lo, sol.q_hi, 5)[1:-1]:
            value = threshold_value(cost, ob, sol.q_lo, sol.q_hi, q0)
            assert value == pytest.approx(np.interp(q0, sol.grid.nodes, sol.values), abs=1e-5)


def strip_ratio_by_eigenfunctions(a, t, w, s2, n_terms=400):
    """_strip_ratio from the sine series of the strip's first-passage
    density, which converges fast where the image series is slow."""
    n = np.arange(1, n_terms + 1)
    strip = math.pi * s2 / w ** 2 * np.sum(
        n * np.sin(n * math.pi * a / w) * np.exp(-((n * math.pi) ** 2) * s2 * t / (2 * w * w))
    )
    half = a / math.sqrt(2 * math.pi * s2 * t ** 3) * math.exp(-a * a / (2 * s2 * t))
    return strip / half


def exit_probs_by_brute_force(x, y, w, v, seed, n_bridges=50_000, n_sub=100):
    """_exit_probs and their standard errors from Brownian bridges of n_sub
    substeps.  A substep of variance v/n_sub cannot reach both barriers
    (exp(-2 w^2 n_sub/v) is below 1e-80 here), so its one-barrier crossing
    probabilities are exact, and each bridge adds the probability of each
    side being the first crossed."""
    rng = _rng(seed)
    dv = v / n_sub
    frac = np.linspace(0.0, 1.0, n_sub + 1)
    firsts = []
    for _ in range(n_bridges // 5000):
        walk = np.cumsum(rng.standard_normal((5000, n_sub)) * math.sqrt(dv), axis=1)
        walk = np.concatenate([np.zeros((5000, 1)), walk], axis=1)
        z = x + walk - frac * (walk[:, -1:] - (y - x))  # pinned at x and y
        start, end = z[:, :-1], z[:, 1:]
        # a product <= 0 has crossed for sure: exp >= 1 is clipped to 1
        p0 = np.exp(np.maximum(-2.0 * start * end / dv, -800.0).clip(max=0.0))
        pw = np.exp(np.maximum(-2.0 * (w - start) * (w - end) / dv, -800.0).clip(max=0.0))
        inside = np.cumprod(np.maximum(1.0 - p0 - pw, 0.0), axis=1)
        inside = np.concatenate([np.ones((5000, 1)), inside[:, :-1]], axis=1)
        firsts.append(np.stack([(inside * p0).sum(axis=1), (inside * pw).sum(axis=1)]))
    first = np.concatenate(firsts, axis=1)
    return first.mean(axis=1), first.std(axis=1) / math.sqrt(first.shape[1])


class TestImageSeries:
    """The two-barrier terms of the first-stage kernel, checked against
    independent computations."""

    @pytest.mark.parametrize("x, y", [(0.3, 0.5), (0.9, 0.8), (0.5, -0.2), (0.4, 1.3)])
    def test_exit_probs_match_brute_force_bridges(self, x, y):
        # at 2 w^2/v = 2 the first image terms alone read 0.011-0.015 low
        w, v = 1.0, 1.0
        p_lo, p_hi = _exit_probs(np.array([x]), np.array([y]), w, v)
        mean, se = exit_probs_by_brute_force(x, y, w, v, seed=17)
        assert abs(p_lo[0] - mean[0]) <= 4.0 * se[0]
        assert abs(p_hi[0] - mean[1]) <= 4.0 * se[1]

    def test_exit_probs_leave_the_survival_of_the_sine_series(self):
        # a bridge that stays inside has density p_strip(x, y)/p_free(x, y),
        # p_strip from its own, independent series
        w, v = 0.3, 0.1
        x, y = np.meshgrid(np.linspace(0.01, 0.29, 8), np.linspace(0.01, 0.29, 8))
        x, y = x.ravel(), y.ravel()
        n = np.arange(1, 200)[:, None]
        p_strip = 2.0 / w * np.sum(
            np.sin(n * math.pi * x / w) * np.sin(n * math.pi * y / w)
            * np.exp(-((n * math.pi / w) ** 2) * v / 2.0), axis=0)
        p_free = np.exp(-((y - x) ** 2) / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
        p_lo, p_hi = _exit_probs(x, y, w, v)
        assert np.allclose(p_lo + p_hi + p_strip / p_free, 1.0, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("ratio", [0.05, 0.3, 1.0, 3.0, 10.0])
    def test_strip_ratio_matches_the_sine_series(self, ratio):
        # ratio = w^2/(s^2 t); a -> 0 is where the naive (1 +- 2kw/a) pair
        # cancels
        w, s2 = 0.4, 2.56
        t = w * w / (s2 * ratio)
        a = w * np.array([1e-9, 1e-6, 0.01, 0.2, 0.5, 0.8, 0.99])
        r = _strip_ratio(a, np.full(a.size, t), w, s2)
        want = [strip_ratio_by_eigenfunctions(ai, t, w, s2) for ai in a]
        assert r == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_strip_ratio_is_a_probability_everywhere(self):
        # starts from 1e-300 to next to the other barrier, and w^2/(s^2 t)
        # from 1e-2 to 1e3 and on to t = 1e-300 and t = 0; the cosh/sinh form
        # overflowed, and a warning is an error here
        w, s2 = 0.4, 2.56
        a = w * np.array([1e-300, 1e-12, 1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-12])
        t = np.concatenate([w * w / (s2 * np.logspace(-2, 3, 11)), [1e-300, 0.0]])
        a, t = (g.ravel() for g in np.meshgrid(a, t))
        r = _strip_ratio(a, t, w, s2)
        assert np.all(np.isfinite(r)) and np.all((r >= 0.0) & (r <= 1.0))
        assert np.all(r[t <= 1e-300] == 1.0)  # no time to reach the far barrier

    def test_series_match_twelve_terms_on_the_narrow_region(self, params):
        # the variance-cost region (0.48479, 0.51518) at dt = 1e-2, where one
        # step can reach both barriers: each entry stops on its own bound,
        # after 6 image terms or 8 pairs at most, and the tails it drops do
        # not show against 12 terms.  Step ends up to 6 w on and exit times
        # over three decades stop the entries at many terms, so the live
        # ones are cut more than once
        s2, dt = (params.spread / params.sigma) ** 2, 1e-2
        z_lo, z_hi = (math.log(q / (1.0 - q)) for q in (0.48479, 0.51518))
        w = z_hi - z_lo
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(0.0, w, 5000), [0.0, w, w, 0.5 * w]])
        y = np.maximum(x + w * rng.uniform(-1.0, 6.0, x.size), 0.0)
        y[-4:] = [0.0, 0.0, w, 3.0 * w]
        c = -2.0 / (s2 * dt)
        want = np.exp(c * x * y)
        for k in range(1, 13):
            kw = k * w
            want += np.exp(c * (x + kw) * (y + kw)) - np.exp(c * kw * (kw + y - x))
        got = simulate._first_through_0(x, y, w, s2 * dt)
        assert np.abs(got - want).max() <= 2.0 ** -52

        a = w * np.concatenate([rng.uniform(0.0, 1.0, 5000), [1e-9, 0.5, 1.0 - 1e-9]])
        t = dt * np.concatenate([10.0 ** rng.uniform(-3.0, 0.0, 5000), [1e-9, 1.0, 1.0]])
        c = 2.0 * w / (s2 * t)
        want = np.ones_like(a)
        for k in range(1, 13):
            gap = -np.expm1(-2.0 * k * c * a)
            want += np.exp(-k * c * (k * w - a)) * ((2.0 - gap) - (2.0 * k * w / a) * gap)
        got = _strip_ratio(a, t, w, s2)
        assert np.abs(got - np.clip(want, 0.0, 1.0)).max() <= 2.0 ** -52


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

    @pytest.mark.parametrize("q0", [0.3, 0.5, 0.7])
    def test_poisson_unbiased_across_seeds(self, params, poisson, q0):
        # 20 seeds of 2e4 paths, three slices of draws each, pooled against
        # the exact nested value
        ob = ObstacleFn.create(params, poisson)
        z = pooled_bias(
            lambda seed: mc_value_nested_poisson(ob, q0, SimConfig(n_paths=20_000, seed=seed)),
            ob.nested(q0),
        )
        assert abs(z) <= 3.0

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
        est = mc_value_composed(cost, ob, 0.4, 0.6, 0.2, CFG)
        assert est.mean == 5.0
        assert est.std_err == 0.0

    def test_above_the_region_truncates_nothing(self, params, cost, gaussian):
        # every path starts in the nested stage, which has no horizon; the
        # bound read exp(-20) max(h, mu) here
        ob = ObstacleFn.create(params, gaussian)
        est = mc_value_composed(cost, ob, 0.23, 0.27, 0.5, CFG)
        assert est.truncation_bound == 0.0
        assert abs(est.mean - ob.nested(0.5)) <= 3 * est.std_err

    def test_rejects_irreversible_regime(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        with pytest.raises(ParameterError, match="composed value needs a refined-signal regime"):
            mc_value_composed(cost, ob, 0.4, 0.6, 0.5, CFG)

    def test_deterministic_per_seed(self, params, cost, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        a = mc_value_composed(cost, ob, 0.4, 0.6, 0.5, CFG)
        b = mc_value_composed(cost, ob, 0.4, 0.6, 0.5, CFG)
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
        mc_value_composed(cost, ObstacleFn.create(params, poisson), 0.4, 0.6, 0.5, cfg)
        assert seen[0] == seed  # the first stage keeps the seed's own stream
        nested = _rng(seen[1]).random(64)
        for other in (seed, seed + 1):
            assert not np.array_equal(nested, _rng(other).random(64))

    def test_gaussian_matches_solver_value(self, params, cost, gaussian):
        ob = ObstacleFn.create(params, gaussian)
        sol = solve_vi(cost, ob, Grid(n=2000))
        est = mc_value_composed(cost, ob, sol.q_lo, sol.q_hi, 0.5, CFG)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 3 * est.std_err

    def test_matches_solver_value(self, params, cost, poisson):
        ob = ObstacleFn.create(params, poisson)
        sol = solve_vi(cost, ob, Grid(n=2000))
        est = mc_value_composed(cost, ob, sol.q_lo, sol.q_hi, 0.5, CFG)
        truth = np.interp(0.5, sol.grid.nodes, sol.values)
        assert abs(est.mean - truth) <= 3 * est.std_err


class TestSlices:
    """Every per-path loop runs over slices of at most _BLOCK paths, and
    nothing else grows with n_paths."""

    @pytest.mark.parametrize("n", [2, simulate._BLOCK, simulate._BLOCK + 1])
    @pytest.mark.parametrize("target", ["outer", "composed", "nested-poisson", "nested-gaussian"])
    def test_any_path_count(self, params, cost, poisson, target, n):
        # the fewest paths validate accepts, one full slice, and a full
        # slice plus a slice of one
        cfg = SimConfig(n_paths=n, seed=3)
        refined, q_lo, q_hi = REGIONS["gaussian"]
        ob_g = ObstacleFn.create(params, refined)
        est = {
            "outer": lambda: mc_value_outer(
                cost, ObstacleFn.create(params, Irreversible()), *REGIONS["irreversible"][1:], 0.5, cfg),
            "composed": lambda: mc_value_composed(cost, ob_g, q_lo, q_hi, 0.251, cfg),
            "nested-poisson": lambda: mc_value_nested_poisson(
                ObstacleFn.create(params, poisson), 0.5, cfg),
            "nested-gaussian": lambda: mc_value_nested_gaussian(ob_g, 0.5, cfg),
        }[target]()
        assert est.n_paths == n
        assert math.isfinite(est.mean) and math.isfinite(est.std_err)
        # two nested paths can both end at h
        assert est.std_err >= 0.0 if n == 2 else est.std_err > 0.0

    # per estimate: its n-long arrays, and the most _BLOCK-long arrays of
    # doubles that its working set holds at once, whatever n_paths is
    MEMORY = {
        # the payoffs; a slice of draws
        "nested-poisson": (1, 12),
        "nested-gaussian": (1, 12),
        # the payoffs: every path starts in the nested stage
        "composed-above": (1, 12),
        # tau, q_exit and x, whose memory the cost integral, made the payoff
        # in place, takes over: no id array ties a path to its record; a
        # pass's positions, uniforms and exit-screen temporaries, its exits
        # and the waiting exit-time proposals
        "outer-constant": (3, 32),
        # and the slots' cost integrals and c_prev, then the records' cost
        # integrals; most paths leave within a few steps, so exits fill
        # whole passes and proposals wait in bulk
        "outer-variance-narrow": (6, 32),
    }

    @staticmethod
    def peak(params, case, n):
        """The tracemalloc peak of one estimate of n paths, in bytes."""
        cfg = SimConfig(n_paths=n, seed=5)
        run = {
            "nested-poisson": lambda: mc_value_nested_poisson(
                ObstacleFn.create(params, PoissonSignal(lam=2.0, r=1.0)), 0.5, cfg),
            "nested-gaussian": lambda: mc_value_nested_gaussian(
                ObstacleFn.create(params, REGIONS["gaussian"][0]), 0.5, cfg),
            "composed-above": lambda: mc_value_composed(
                ConstantCost(1.0), ObstacleFn.create(params, REGIONS["gaussian"][0]),
                *REGIONS["gaussian"][1:], 0.5, cfg),
            "outer-constant": lambda: mc_value_outer(
                ConstantCost(1.0), ObstacleFn.create(params, Irreversible()),
                *REGIONS["irreversible"][1:], 0.5, cfg),
            "outer-variance-narrow": lambda: mc_value_outer(
                VarianceCost(1.0), ObstacleFn.create(params, Irreversible()),
                0.48479, 0.51518, 0.5, cfg),
        }[case]
        run()  # lazy imports and caches, outside the trace
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("case", list(MEMORY))
    def test_peak_is_the_state_and_a_fixed_working_set(self, params, case):
        # at 1e5 paths the state is 8 bytes per path per n-long array; an
        # n-long temporary would add 8e5 bytes.  Before slicing the peaks
        # were 8.1, 7.0, 13.1, 7.0 and 9.0 times 8n
        arrays, blocks = self.MEMORY[case]
        n = 100_000
        assert self.peak(params, case, n) <= 8 * (arrays * n + blocks * simulate._BLOCK)

    @pytest.mark.parametrize("case", list(MEMORY))
    def test_peak_grows_by_the_state_alone(self, params, case):
        # each added path costs its state arrays and nothing more
        arrays, _ = self.MEMORY[case]
        n = 100_000
        grown = self.peak(params, case, 2 * n) - self.peak(params, case, n)
        assert grown <= 8 * (arrays + 0.25) * n
