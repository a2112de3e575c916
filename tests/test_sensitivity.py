"""Parameter sweeps, direction checks, and limit ladders."""

import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stopflow import (
    ConstantCost,
    GaussianSignal,
    Instance,
    Irreversible,
    ModelParams,
    ObstacleFn,
    ParameterError,
    PoissonSignal,
    StdDevVarianceCost,
    VarianceCost,
    check_monotonicity,
    figure4_dataset,
    limit_diagnostics,
    smooth_fit,
    sweep,
)
from stopflow.sensitivity import CLAIMS, LIMITS, limit_ladder


@pytest.fixture
def inst(params, cost):
    return Instance(params=params, cost=cost)


class TestSweep:
    def test_rows_sorted_and_solved(self, inst):
        res = sweep(inst, "rho", [2.0, 0.5, 1.0])
        vals = [r.value for r in res.rows]
        assert vals == [0.5, 1.0, 2.0]
        assert all(not r.failed for r in res.rows)
        assert all(r.q_lo < r.q_hi for r in res.rows)

    def test_each_distinct_value_solved_once(self, inst):
        res = sweep(inst, "rho", [2.0, 1.0, 2.0, 1.0])
        assert res == sweep(inst, "rho", [1.0, 2.0])

    def test_unknown_parameter_rejected(self, inst):
        with pytest.raises(ParameterError):
            sweep(inst, "gamma", [1.0])

    def test_empty_value_list_rejected(self, inst):
        with pytest.raises(ParameterError, match="^sweep needs at least one value$"):
            sweep(inst, "rho", [])

    def test_failure_rows_marked(self, inst):
        # mu outside (l, h) makes the row instance invalid
        res = sweep(inst, "mu", [4.0, 5.0, 42.0])
        assert not res.rows[0].failed and not res.rows[1].failed
        assert res.rows[2].failed
        assert res.rows[2].error

    def test_boundary_uncertainty_skips_failed_rows(self, inst):
        # the failed row has no residual to read
        res = sweep(inst, "mu", [4.0, 5.0, 42.0])
        assert res.rows[2].failed
        solved = [max(r.residual, 1e-9) for r in res.rows[:2]]
        assert res.boundary_uncertainty() == max(solved)

    def test_empty_fd_region_is_a_failed_row(self, params):
        inst = Instance(params=params, cost=VarianceCost(1.0))
        res = sweep(inst, "sigma", [5.0, 80.0], method="fd")
        assert [r.failed for r in res.rows] == [False, True]
        assert res.rows[1].error == "exploration region narrower than the grid (n = 4000)"

    @pytest.mark.parametrize("param,cost,refined,method,message", [
        ("r", ConstantCost(1.0), Irreversible(), "closed_form",
         "r needs a refined-signal regime"),
        ("lambda", ConstantCost(1.0), GaussianSignal(1.0, 1.0), "closed_form",
         "lambda needs a Poisson regime"),
        ("sigma_tilde", ConstantCost(1.0), PoissonSignal(2.0, 1.0), "closed_form",
         "sigma_tilde needs a Gaussian regime"),
        ("rho", ConstantCost(1.0), Irreversible(), "newton",
         "unknown method 'newton', want 'fd' or 'closed_form'"),
    ], ids=["r-irreversible", "lambda-gaussian", "sigma_tilde-poisson", "unknown-method"])
    def test_inapplicable_sweep_rejected_before_solving(
        self, params, param, cost, refined, method, message
    ):
        inst = Instance(params=params, cost=cost, refined=refined)
        with pytest.raises(ParameterError) as info:
            sweep(inst, param, [1.0, 2.0], method=method)
        assert str(info.value) == message

    @pytest.mark.parametrize("cost", [VarianceCost(1.0), StdDevVarianceCost(1.0)],
                             ids=["variance", "stddev"])
    def test_c_i_scales_every_cost(self, params, cost):
        # c_i is each cost's one parameter: the rows keep the base's cost
        # class, solve in closed form, and the cost claim holds
        res = sweep(Instance(params=params, cost=cost), "c_i", [0.5, 1.0, 2.0])
        assert all(r.method == "closed_form" and not r.failed for r in res.rows)
        one = smooth_fit(cost, ObstacleFn.create(params, Irreversible()))
        assert (res.rows[1].q_lo, res.rows[1].q_hi) == (one.q_lo, one.q_hi)
        assert check_monotonicity(res, "prop_cost") == ()

    def test_fd_method(self, inst):
        res = sweep(inst, "c_i", [0.5, 1.0], method="fd")
        assert all(r.method == "fd" for r in res.rows)
        cf = sweep(inst, "c_i", [0.5, 1.0], method="closed_form")
        for a, b in zip(res.rows, cf.rows):
            assert a.q_lo == pytest.approx(b.q_lo, abs=2 * inst.grid.dq)
            assert a.q_hi == pytest.approx(b.q_hi, abs=2 * inst.grid.dq)


class TestMonotonicity:
    @pytest.mark.parametrize(
        "claim,param,values,method",
        [
            ("prop_rho", "rho", [0.5, 1.0, 2.0, 4.0], "closed_form"),
            ("prop_sigma", "sigma", [3.0, 5.0, 8.0], "closed_form"),
            ("prop_cost", "c_i", [0.5, 1.0, 2.0, 4.0], "closed_form"),
            ("prop_mu", "mu", [3.0, 5.0, 7.0], "closed_form"),
            # the one-sided claims leave q_hi (h) or q_lo (l) unjudged
            ("prop_h_one_sided", "h", [6.0, 9.0, 12.0, 20.0], "closed_form"),
            ("prop_l_one_sided", "l", [0.5, 1.0, 2.0, 3.0], "closed_form"),
            # FD rows: the slack is two grid steps
            ("prop_l_one_sided", "l", [0.5, 1.0, 2.0, 3.0], "fd"),
        ],
    )
    def test_claims_hold(self, inst, claim, param, values, method):
        # a failed row would be a violation, so every row solved too
        assert check_monotonicity(sweep(inst, param, values, method=method), claim) == ()

    @pytest.mark.parametrize("method", ["closed_form", "fd"])
    @pytest.mark.parametrize(
        "refined", [PoissonSignal(lam=2.0, r=1.0), GaussianSignal(sigma_tilde=1.0, r=1.0)],
        ids=["poisson", "gaussian"],
    )
    def test_refined_rho_claim_leaves_q_hi_unjudged(self, params, cost, refined, method):
        # the refined crossing point moves towards p_hat with rho, and q_hi
        # with it: "down" once failed on every pair of this sweep
        res = sweep(Instance(params, cost, refined), "rho", [0.5, 1, 2, 4, 8, 16], method=method)
        assert res.rows[-1].q_hi > res.rows[0].q_hi
        assert check_monotonicity(res, "prop_rho") == ()

    def test_cs_claim_holds(self, params, cost):
        inst = Instance(
            params=params, cost=cost, refined=PoissonSignal(lam=2.0, r=1.0)
        )
        assert check_monotonicity(sweep(inst, "r", [0.5, 1.0, 2.0]), "prop_cs") == ()

    def test_failed_row_violates_every_claim(self, inst):
        # the solved rows still agree with the claim; the failed one alone
        # makes it fail, and the violations name it and why
        res = sweep(inst, "rho", [0.5, 1.0, 2.0])
        broken = replace(res.rows[1], q_lo=math.nan, q_hi=math.nan, width=math.nan,
                         residual=math.nan, failed=True, error="no solve")
        res = replace(res, rows=(res.rows[0], broken, res.rows[2]))
        assert check_monotonicity(res, "prop_rho") == ((1.0, "no solve"),)

    def test_claim_param_mismatch_rejected(self, inst):
        res = sweep(inst, "rho", [0.5, 1.0])
        with pytest.raises(ParameterError):
            check_monotonicity(res, "prop_sigma")

    def test_unknown_claim_rejected(self, inst):
        res = sweep(inst, "rho", [0.5, 1.0])
        with pytest.raises(ParameterError):
            check_monotonicity(res, "prop_nonsense")

    def test_detects_violation(self, inst):
        # claim the wrong direction on purpose: exploration narrows in rho,
        # so prop_mu's "both up" must fail on a rho-like shape; easiest is
        # to relabel a real mu sweep run downward
        res = sweep(inst, "mu", [3.0, 5.0, 7.0])
        assert check_monotonicity(res, "prop_mu") == ()
        # reversed directions on the same data must be flagged
        flipped = replace(
            res,
            rows=tuple(
                replace(r, q_lo=-r.q_lo, q_hi=-r.q_hi) for r in res.rows
            ),
        )
        assert check_monotonicity(flipped, "prop_mu") == (
            (3.0, 5.0, "q_lo"), (3.0, 5.0, "q_hi"), (5.0, 7.0, "q_lo"), (5.0, 7.0, "q_hi"),
        )


def _claim_bases(regime, n, seed):
    """n seeded random constant-cost instances of `regime`: l in (0.1, 5),
    mu - l and h - mu in (0.01, 3), log-uniform sigma in (0.1, 100), rho in
    (0.01, 100), c in (0.01, 10) and lambda in (0.01, 100), sigma_tilde and r
    uniform fractions 0.05-0.95 of sigma and mu - l."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(n):
        l = rng.uniform(0.1, 5.0)
        mu = l + rng.uniform(0.01, 3.0)
        h = mu + rng.uniform(0.01, 3.0)
        sigma, rho = log_uniform(0.1, 100.0), log_uniform(0.01, 100.0)
        c_i, lam = log_uniform(0.01, 10.0), log_uniform(0.01, 100.0)
        f_sigma, f_r = rng.uniform(0.05, 0.95, size=2)
        refined = {
            "none": Irreversible(),
            "poisson": PoissonSignal(lam=lam, r=f_r * (mu - l)),
            "gaussian": GaussianSignal(sigma_tilde=f_sigma * sigma, r=f_r * (mu - l)),
        }[regime]
        yield Instance(ModelParams(rho=rho, sigma=sigma, h=h, l=l, mu=mu), ConstantCost(c_i), refined)


def _param_value(base, param):
    if param == "c_i":
        return base.cost.c_i
    if param == "r":
        return base.refined.r
    return getattr(base.params, param)


@pytest.mark.parametrize("regime", ["none", "poisson", "gaussian"])
def test_claims_hold_on_random_instances(regime):
    # each direction CLAIMS asserts in the regime, by a central difference
    # of +-1e-4 relative.  On 1000 instances per regime (seeds 11-13) the
    # irreversible directions fail beyond the slack only for q_hi in the
    # refined regimes: rho "down" on 589 Poisson and 466 Gaussian
    # instances, mu "up" on 10 and 44, l "down" on 5 Gaussian ones
    seed = {"none": 1, "poisson": 2, "gaussian": 3}[regime]
    for base in _claim_bases(regime, 100, seed):
        for claim, (param, _, _) in CLAIMS.items():
            if param == "r" and regime == "none":
                continue
            value = _param_value(base, param)
            res = sweep(base, param, [value * (1.0 - 1e-4), value * (1.0 + 1e-4)])
            assert check_monotonicity(res, claim) == (), (claim, base)


class TestLimits:
    def test_rho_ladder_approaches_kink(self, inst):
        tab = limit_diagnostics(inst, "rho")
        assert tab.target_lo == tab.target_hi == 0.5
        assert not any(r.failed for r in tab.rows)
        assert tab.decreasing_lo and tab.decreasing_hi
        assert tab.rows[-1].dist_lo < 0.05 and tab.rows[-1].dist_hi < 0.05

    def test_cost_ladder(self, inst):
        tab = limit_diagnostics(inst, "c_i")
        assert tab.rows[-1].dist_lo < 0.05 and tab.rows[-1].dist_hi < 0.05

    def test_l_to_mu_ladder(self, inst):
        tab = limit_diagnostics(inst, "l_to_mu")
        assert not any(r.failed for r in tab.rows)
        assert tab.decreasing_lo and tab.decreasing_hi
        assert tab.rows[-1].dist_lo < 0.05 and tab.rows[-1].dist_hi < 0.05

    @pytest.mark.parametrize("which", ["sigma", "c_i"])
    @pytest.mark.parametrize(
        "refined,crossing",
        [(PoissonSignal(lam=2.0, r=1.0), 1.0 / 3.0), (GaussianSignal(sigma_tilde=1.0, r=1.0), 0.2505)],
        ids=["poisson", "gaussian"],
    )
    def test_refined_ladders_approach_the_crossing_point(self, params, cost, refined, crossing, which):
        # the region shrinks onto the refined obstacle's crossing, not p_hat
        tab = limit_diagnostics(Instance(params=params, cost=cost, refined=refined), which)
        assert tab.target_lo == tab.target_hi == pytest.approx(crossing, abs=1e-4)
        assert not any(r.failed for r in tab.rows)
        assert tab.decreasing_lo and tab.decreasing_hi
        assert tab.rows[-1].dist_lo < 1e-3 and tab.rows[-1].dist_hi < 1e-3

    @pytest.mark.parametrize(
        "refined",
        [PoissonSignal(lam=2.0, r=1.0), GaussianSignal(sigma_tilde=1.0, r=1.0)],
        ids=["poisson", "gaussian"],
    )
    def test_l_to_mu_ladder_refined_rungs_are_valid(self, params, cost, refined):
        # the fee scales with mu - l, so no rung leaves 0 < r < mu - l
        base = Instance(params=params, cost=cost, refined=refined)
        tab = limit_diagnostics(base, "l_to_mu")
        assert not any(r.failed for r in tab.rows), [r.error for r in tab.rows]
        assert tab.rows[-1].dist_lo < 0.05 and tab.rows[-1].dist_hi < 0.05

    def test_h_to_inf_ladder(self, inst):
        tab = limit_diagnostics(inst, "h_to_inf")
        # full market coverage in the limit: q_lo -> 0 and q_hi -> 1
        assert not any(r.failed for r in tab.rows)
        assert tab.decreasing_lo and tab.decreasing_hi
        assert tab.rows[-1].dist_lo < 0.05 and tab.rows[-1].dist_hi < 0.05
        # far below any grid cell: q_lo ~ 4e-7, 4e-10, 2.4e-12 on the top rungs
        assert [r.dist_lo < 1e-6 for r in tab.rows] == [False, False, True, True, True]

    @pytest.mark.parametrize("h", [5000.0, 20000.0, 60000.0])
    def test_h_to_inf_ladder_needs_three_rungs(self, params, cost, h):
        # the rungs are capped at 1e4 mu = 5e4, so from h = 1e3 mu on fewer
        # than the three the verdict reads remain; before, the check
        # always reported FAIL failed=[]
        base = Instance(params=replace(params, h=h), cost=cost)
        with pytest.raises(ParameterError, match=rf"h_to_inf: h = {h:g} leaves [12] rungs"):
            limit_ladder(base, "h_to_inf")

    def test_h_to_inf_ladder_below_the_refusal(self, params, cost):
        base = Instance(params=replace(params, h=4999.0), cost=cost)
        assert limit_ladder(base, "h_to_inf")[1] == [4999.0, 49990.0, 50000.0]
        assert limit_diagnostics(base, "h_to_inf").passed

    @pytest.mark.parametrize("cost", [ConstantCost(1.0), VarianceCost(1.0)],
                             ids=["constant", "variance"])
    def test_closed_form_refusal_is_a_failed_rung(self, params, cost, gaussian):
        # from sigma = 1e8 (Gaussian) the region is a few ulps of q wide and
        # the closed form refuses every rung on its residual bar; the ladder
        # records each rung and fails
        base = Instance(replace(params, sigma=1e8), cost, gaussian)
        tab = limit_diagnostics(base, "sigma")
        assert [r.scale for r in tab.rows] == [1e8 * 4.0**i for i in range(5)]
        assert all(r.failed and math.isnan(r.dist_lo) for r in tab.rows)
        assert all(re.fullmatch(r"smooth-fit residual \S+ above 5e-10 \(h \+ Pi\)", r.error)
                   for r in tab.rows)
        assert not tab.passed

    def test_lambda_ladder(self, params, cost):
        inst = Instance(
            params=params, cost=cost, refined=PoissonSignal(lam=2.0, r=1.0)
        )
        tab = limit_diagnostics(inst, "lambda")
        assert tab.rows[0].dist_lo < 1e-5
        assert tab.rows[-1].dist_hi < 1e-5

    def test_unknown_ladder_rejected(self, inst):
        with pytest.raises(ParameterError, match="^unknown limit ladder 'gamma', want one of"):
            limit_diagnostics(inst, "gamma")

    def test_lambda_requires_poisson(self, inst):
        with pytest.raises(ParameterError) as info:
            limit_diagnostics(inst, "lambda")
        assert str(info.value) == "lambda needs a Poisson regime"


# Every limit ladder of LIMITS on the benchmark instance (rho=1, sigma=5, h=9,
# l=1, mu=5, c_i=1) under each cost and regime whose base it can run: the
# rows (scale, distances, failed, error; null for a failed row's distance),
# the decrease flags and the verdict
LADDERS = json.loads((Path(__file__).parent / "data" / "limit_regression.json").read_text())
LADDER_COSTS = {
    "constant": ConstantCost(1.0), "variance": VarianceCost(1.0),
    "stddev": StdDevVarianceCost(1.0),
}
LADDER_REGIMES = {
    "none": Irreversible(), "poisson": PoissonSignal(lam=2.0, r=1.0),
    "gaussian": GaussianSignal(sigma_tilde=1.0, r=1.0),
}


def _ladder_base(cost, regime):
    params = ModelParams(rho=1.0, sigma=5.0, h=9.0, l=1.0, mu=5.0)
    return Instance(params, LADDER_COSTS[cost], LADDER_REGIMES[regime])


@pytest.mark.parametrize(
    "entry", LADDERS, ids=[f"{e['which']}-{e['cost']}-{e['regime']}" for e in LADDERS]
)
def test_limit_regression_table(entry):
    tab = limit_diagnostics(_ladder_base(entry["cost"], entry["regime"]), entry["which"])
    assert (tab.target_lo, tab.target_hi) == pytest.approx(
        (entry["target_lo"], entry["target_hi"]), rel=1e-13, abs=0.0
    )
    assert len(tab.rows) == len(entry["rows"])
    for row, want in zip(tab.rows, entry["rows"]):
        assert (row.scale, row.failed, row.error) == (
            pytest.approx(want["scale"], rel=1e-13, abs=0.0), want["failed"], want["error"]
        )
        # rel 1e-13 as in the closed-form table; a distance |q - target|
        # also carries the roundoff of the boundary, an ulp of the target
        for name, target in (("dist_lo", tab.target_lo), ("dist_hi", tab.target_hi)):
            got = getattr(row, name)
            if want[name] is None:
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want[name], rel=1e-13, abs=2 * math.ulp(target))
    assert (tab.decreasing_lo, tab.decreasing_hi, tab.passed) == (
        entry["decreasing_lo"], entry["decreasing_hi"], entry["passed"]
    )


def test_limit_regression_table_covers_every_runnable_base():
    recorded = {(e["which"], e["cost"], e["regime"]) for e in LADDERS}
    for key in itertools.product(LIMITS, LADDER_COSTS, LADDER_REGIMES):
        if key not in recorded:
            which, cost, regime = key
            with pytest.raises(ParameterError) as info:
                limit_diagnostics(_ladder_base(cost, regime), which)
            assert (which, str(info.value)) == ("lambda", "lambda needs a Poisson regime")


class TestFigure4:
    def test_shapes_and_monotonicity(self, params, cost, gaussian):
        rev, star = figure4_dataset(Instance(params, cost, gaussian))
        # 1e-3, 0.1, ..., 3.9 and mu - l - 1e-3
        assert len(rev.rows) == 41
        # starred (irreversible) boundaries do not depend on R: one solution
        assert star == smooth_fit(cost, ObstacleFn.create(params, Irreversible()))
        lo = [r.q_lo for r in rev.rows]
        hi = [r.q_hi for r in rev.rows]
        wid = [r.width for r in rev.rows]
        # raising the return fee weakens the second-stage option, pushing
        # both boundaries up toward the irreversible pair and widening
        # the exploration region
        assert all(b >= a - 1e-9 for a, b in zip(lo, lo[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(hi, hi[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(wid, wid[1:]))
        # as the return fee fills the whole gap the option dies and the
        # reversible pair converges to the irreversible one
        assert abs(rev.rows[-1].q_lo - star.q_lo) < 0.05
        assert abs(rev.rows[-1].q_hi - star.q_hi) < 0.05

    @pytest.mark.parametrize("mu", [1.201, 1.3, 2.3001, 5.0])
    def test_fee_grid_inside_and_each_fee_once(self, cost, gaussian, mu):
        # mu = 1.3: arange reached mu - l itself, an invalid fee; mu = 1.201:
        # the tenth 0.2 and mu - l - 1e-3 differed by rounding alone
        p = ModelParams(rho=1.0, sigma=5.0, h=9.0, l=1.0, mu=mu)
        rev, _ = figure4_dataset(Instance(p, cost, gaussian))
        fees = [r.value for r in rev.rows]
        assert fees[0] == 1e-3 and p.mu - p.l - 1e-3 in fees
        assert all(0.0 < a < b < p.mu - p.l for a, b in zip(fees, fees[1:]))
        assert len({"%.8g" % r for r in fees}) == len(fees)
        assert not any(r.failed for r in rev.rows)

    @pytest.mark.parametrize("cost", [VarianceCost(1.0), StdDevVarianceCost(1.0)],
                             ids=["variance", "stddev"])
    def test_solves_every_cost(self, params, cost, gaussian):
        # every fee row in closed form, toward the irreversible pair
        rev, star = figure4_dataset(Instance(params, cost, gaussian))
        assert len(rev.rows) == 41 and not rev.failed
        assert star == smooth_fit(cost, ObstacleFn.create(params, Irreversible()))
        assert check_monotonicity(rev, "prop_cs") == ()
        assert abs(rev.rows[-1].q_lo - star.q_lo) < 0.01
        assert abs(rev.rows[-1].q_hi - star.q_hi) < 0.01

    @pytest.mark.parametrize("refined", [Irreversible(), PoissonSignal(lam=2.0, r=1.0)],
                             ids=["irreversible", "poisson"])
    def test_needs_a_gaussian_regime(self, params, cost, refined):
        with pytest.raises(ParameterError) as info:
            figure4_dataset(Instance(params, cost, refined))
        assert str(info.value) == "figure4: sigma_tilde needs a Gaussian regime"

    def test_region_brackets_obstacle_kink(self, params, cost):
        from stopflow import crossing_point

        inst = Instance(
            params=params, cost=cost, refined=GaussianSignal(sigma_tilde=1.0, r=1.0)
        )
        res = sweep(inst, "r", [1.0])
        ob = ObstacleFn.create(params, inst.refined)
        kink = crossing_point(ob)
        assert res.rows[0].q_lo < kink < res.rows[0].q_hi
