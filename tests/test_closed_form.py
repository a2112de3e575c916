"""Smooth-fit solutions built from the two homogeneous power solutions."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stopflow
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
    eval_closed_form,
    exponent_k,
    fd_solver,
    limit_diagnostics,
    obstacle_eval,
    smooth_fit,
    sensitivity,
)
from stopflow.closed_form import basis_eval

from conftest import basis_coefficients, threshold_value

K_REF = 2.0310096011589901

# smooth_fit on 140 constant-cost instances, recorded before the Newton
# evaluations were restructured: the Figure-4 fee grid and its irreversible
# reference, the bench's five proposition sweeps, and the rungs of the rho,
# sigma, c_i, l_to_mu and h_to_inf ladders in all three regimes; then the
# same ladder rungs for the variance and stddev costs (key "cost"), recorded
# when the closed form first solved them
REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "closed_form_regression.json").read_text()
)
COSTS = {"constant": ConstantCost, "variance": VarianceCost, "stddev": StdDevVarianceCost}
REGIMES = {
    "irreversible": Irreversible(), "poisson": PoissonSignal(lam=2.0, r=1.0),
    "gaussian": GaussianSignal(sigma_tilde=1.0, r=1.0),
}


def _regime(row):
    if row["regime"] == "poisson":
        return PoissonSignal(lam=row["lam"], r=row["r"])
    if row["regime"] == "gaussian":
        return GaussianSignal(sigma_tilde=row["sigma_tilde"], r=row["r"])
    return Irreversible()


def value_scale(sol):
    """h + Pi at the larger of its values at the two boundaries, the scale
    of the residual bar: h + c_i/rho for a constant cost."""
    return sol.ob.params.h + max(sol.per.at(sol.z_c + u)[0] for u in (sol.u_lo, sol.u_hi))


@pytest.mark.parametrize(
    "row", REGRESSION, ids=[f"{i}-{row['source']}" for i, row in enumerate(REGRESSION)]
)
def test_regression_table(row):
    # rel 1e-13 leaves room for a libm that differs by an ulp.  residual_sup
    # is itself roundoff in the value scale h + Pi, so an ulp there can
    # move it by a few ulps of that scale: it gets an absolute floor of 1e-14
    # of the scale, 5e4 below the acceptance bar of 5e-10.  A variance row
    # also carries its quadrature's roundoff, a few 1e-16 of Pi
    params = ModelParams(*(row[k] for k in ("rho", "sigma", "h", "l", "mu")))
    cost = COSTS[row.get("cost", "constant")](row["c_i"])
    sol = smooth_fit(cost, ObstacleFn.create(params, _regime(row)))
    assert sol.q_lo == pytest.approx(row["q_lo"], rel=1e-13, abs=0.0)
    assert sol.q_hi == pytest.approx(row["q_hi"], rel=1e-13, abs=0.0)
    assert sol.residual_sup == pytest.approx(
        row["residual_sup"], rel=1e-13, abs=1e-14 * value_scale(sol)
    )


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("cost", list(COSTS))
def test_value_is_the_threshold_policy_value(params, cost, regime):
    # inside the region the smooth-fit value is the expected discounted
    # payoff of exploring until the first exit, with the cost paid on the
    # way, Pi(q0) - E[e^{-rho tau} Pi(q_tau)]: sinh exit weights, no ODE
    cost, ob = COSTS[cost](1.0), ObstacleFn.create(params, REGIMES[regime])
    sol = smooth_fit(cost, ob)
    for q0 in np.linspace(sol.q_lo, sol.q_hi, 7)[1:-1]:
        want = threshold_value(cost, ob, sol.q_lo, sol.q_hi, q0)
        assert eval_closed_form(sol, q0) == pytest.approx(want, rel=0.0, abs=1e-13 * value_scale(sol))


class TestBasis:
    def test_derivatives_match_central_difference(self):
        eps = 1e-6
        for k in (1.3, K_REF, 4.0):
            for q in (0.1, 0.35, 0.72, 0.9):
                v1, v2, d1, d2 = basis_eval(k, q)
                v1p = basis_eval(k, q + eps)[0]
                v1m = basis_eval(k, q - eps)[0]
                v2p = basis_eval(k, q + eps)[1]
                v2m = basis_eval(k, q - eps)[1]
                assert d1 == pytest.approx((v1p - v1m) / (2 * eps), rel=1e-7)
                assert d2 == pytest.approx((v2p - v2m) / (2 * eps), rel=1e-7)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_refuses_a_belief_at_an_end(self, q):
        with pytest.raises(ParameterError, match="^basis defined on \\(0, 1\\), got q="):
            basis_eval(K_REF, q)

    def test_basis_symmetry(self):
        # swapping q with 1-q swaps the two solutions
        k = K_REF
        v1, v2, _, _ = basis_eval(k, 0.3)
        w1, w2, _, _ = basis_eval(k, 0.7)
        assert v1 == pytest.approx(w2, rel=1e-13)
        assert v2 == pytest.approx(w1, rel=1e-13)


class TestIrreversible:
    def test_residual_and_order(self, params, cost):
        sol = smooth_fit(cost, ObstacleFn.create(params, Irreversible()))
        assert sol.residual_sup <= 1e-9 * (params.h + cost.c_i / params.rho)
        assert 0.0 < sol.q_lo < params.p_hat < sol.q_hi < 1.0

    def test_value_matching_and_smooth_pasting(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        sol = smooth_fit(cost, ob)
        eps = 1e-7
        for qb in (sol.q_lo, sol.q_hi):
            v = eval_closed_form(sol, qb)
            assert v == pytest.approx(obstacle_eval(ob, qb), abs=1e-8)
            # C^1 across the boundary: interior slope equals obstacle slope
            inner = qb + eps if qb == sol.q_lo else qb - eps
            slope_in = (
                eval_closed_form(sol, inner) - eval_closed_form(sol, qb)
            ) / (inner - qb)
            slope_ob = (
                obstacle_eval(ob, inner + eps) - obstacle_eval(ob, inner - eps)
            ) / (2 * eps) if qb == sol.q_lo else params.h - params.l
            if qb == sol.q_lo:
                slope_ob = 0.0
            assert slope_in == pytest.approx(slope_ob, abs=1e-4)

    def test_particular_part_at_interior(self, params, cost):
        # deep inside the exploration region the value exceeds the
        # obstacle but stays below the full-information payoff
        ob = ObstacleFn.create(params, Irreversible())
        sol = smooth_fit(cost, ob)
        q = 0.5
        v = eval_closed_form(sol, q)
        assert obstacle_eval(ob, q) < v < q * params.h + (1 - q) * params.mu

    def test_outside_region_returns_obstacle(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        sol = smooth_fit(cost, ob)
        assert eval_closed_form(sol, 0.01) == pytest.approx(5.0, abs=1e-12)
        assert eval_closed_form(sol, 0.99) == pytest.approx(
            obstacle_eval(ob, 0.99), abs=1e-12
        )


@pytest.mark.parametrize("regime", [Irreversible(), PoissonSignal(lam=2.0, r=1.0)])
def test_sigma_zero_rejected_as_the_fd_solver_rejects_it(regime):
    # k = 1 at sigma = 0: the closed form has no exploration region
    p = ModelParams(rho=1.0, sigma=0.0, h=9.0, l=1.0, mu=5.0)
    with pytest.raises(ParameterError) as cf:
        smooth_fit(ConstantCost(1.0), ObstacleFn.create(p, regime))
    with pytest.raises(ParameterError) as fd:
        fd_solver.solve_vi(ConstantCost(1.0), ObstacleFn.create(p, regime))
    assert "sigma = 0" in str(cf.value)
    assert str(cf.value) == str(fd.value)


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("cost", list(COSTS))
def test_every_cost_agrees_with_fd(params, cost, regime):
    # the boundaries within 2 dq of FD at n = 16000 (measured: within 1
    # dq), and the values within FD's discretisation error (measured: at
    # most 1.4e-8 h)
    cost, ob = COSTS[cost](1.0), ObstacleFn.create(params, REGIMES[regime])
    sol = smooth_fit(cost, ob)
    fd = fd_solver.solve_vi(cost, ob, fd_solver.Grid(16000))
    dq = fd.grid.dq
    assert abs(sol.q_lo - fd.q_lo) <= 2 * dq and abs(sol.q_hi - fd.q_hi) <= 2 * dq
    assert sol.residual_sup <= 5e-10 * value_scale(sol)
    gap = np.abs(eval_closed_form(sol, fd.grid.nodes) - fd.values).max()
    assert gap <= 1e-7 * params.h


class TestPoisson:
    def test_narrower_than_irreversible(self, params, cost, poisson):
        irr = smooth_fit(cost, ObstacleFn.create(params, Irreversible()))
        poi = smooth_fit(cost, ObstacleFn.create(params, poisson))
        # better downside exit makes stopping attractive sooner, and the
        # region re-centers on the shifted obstacle kink at 1/3
        assert poi.q_hi - poi.q_lo < irr.q_hi - irr.q_lo
        assert poi.q_lo < 1.0 / 3.0 < poi.q_hi


class TestGaussian:
    def test_residual(self, params, cost, gaussian):
        sol = smooth_fit(cost, ObstacleFn.create(params, gaussian))
        assert sol.residual_sup <= 1e-9 * (params.h + cost.c_i / params.rho)
        assert 0.0 < sol.q_lo < sol.q_hi < 1.0

    def test_large_k_tilde_solves(self, large_k_tilde):
        # k_tilde in the tens of thousands and more, with regions 7e-14 to
        # 2e-11 wide in log-odds: both were refused on the residual bar
        # while the width came from the difference of two O(1) log-odds
        kw, refined = large_k_tilde
        params = ModelParams(**kw)
        sol = smooth_fit(ConstantCost(1.0), ObstacleFn.create(params, refined))
        assert sol.u_lo < 0.0 < sol.u_hi
        assert sol.residual_sup <= 5e-10 * (params.h + 1.0 / params.rho)


# 50-digit roots of the smooth-fit system at k from 1e3 to 5e4, written by
# tests/data/make_smooth_fit_roots.py (which needs mpmath) with each
# instance's condition: the largest move of a root, in its ulps, for one ulp
# of mu, h, l, rho or sigma
ROOTS = json.loads((Path(__file__).parent / "data" / "smooth_fit_roots.json").read_text())


class TestLargeK:
    @pytest.mark.parametrize(
        "row", ROOTS, ids=[f"{r['regime']}-k{r['k']:.0f}" for r in ROOTS]
    )
    def test_boundaries_match_the_exact_roots(self, row):
        # a few ulps, plus the rounding of the inputs: an ill-conditioned
        # instance moves its roots by up to 230 ulps per ulp of mu
        params = ModelParams(*(row[k] for k in ("rho", "sigma", "h", "l", "mu")))
        sol = smooth_fit(ConstantCost(row["c_i"]), ObstacleFn.create(params, _regime(row)))
        for got, root in ((sol.q_lo, float(row["q_lo"])), (sol.q_hi, float(row["q_hi"]))):
            assert abs(got - root) <= (4.0 + 8.0 * row["cond"]) * math.ulp(root)
        assert sol.residual_sup <= 5e-10 * (params.h + row["c_i"] / params.rho)

    def test_residual_is_stable_to_the_crossing_point(self, params, cost):
        # the limit_sigma rung sigma = 1280 (Gaussian): the residual read
        # 6.5e-13 or 6.9e-11 depending on a few ulps of the crossing point
        # q' that seeds the solve
        p = replace(params, sigma=1280.0)
        ob = ObstacleFn.create(p, GaussianSignal(sigma_tilde=1.0, r=1.0))
        scale = p.h + cost.c_i / p.rho
        for ulps in range(-3, 4):
            q = ob.q_prime
            for _ in range(abs(ulps)):
                q = math.nextafter(q, math.copysign(1.0, ulps))
            sol = smooth_fit(cost, replace(ob, q_prime=q))
            assert sol.residual_sup <= 1e-12 * scale


class TestEvalClosedForm:
    @pytest.mark.parametrize("regime", ["irreversible", "poisson", "gaussian"])
    def test_array_matches_scalar(self, params, cost, poisson, gaussian, regime):
        refined = {"irreversible": Irreversible(), "poisson": poisson,
                   "gaussian": gaussian}[regime]
        sol = smooth_fit(cost, ObstacleFn.create(params, refined))
        qs = np.linspace(0.0, 1.0, 1001)
        got = eval_closed_form(sol, qs)
        want = np.array([eval_closed_form(sol, float(q)) for q in qs])
        assert type(eval_closed_form(sol, 0.5)) is float
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # inside the region, against d1 v1 + d2 v2 - C/rho from the basis
        ode = (qs > sol.q_lo) & (qs < sol.q_hi)
        assert ode.sum() > 30
        k = exponent_k(params)
        basis = [basis_eval(k, float(q))[:2] for q in qs[ode]]
        d1, d2 = basis_coefficients(sol)
        ref = [d1 * v1 + d2 * v2 - cost.c_i / params.rho for v1, v2 in basis]
        np.testing.assert_allclose(got[ode], ref, rtol=1e-12, atol=0.0)

    def test_evaluates_the_fitted_obstacle(self, params, cost, poisson):
        # the solution carries the obstacle it fitted, so no other one can
        # be paired with it
        ob = ObstacleFn.create(params, poisson)
        sol = smooth_fit(cost, ob)
        assert sol.ob == ob
        assert eval_closed_form(sol, 0.99) == obstacle_eval(ob, 0.99)


class TestExponent:
    def test_k_reference(self, params):
        assert exponent_k(params) == pytest.approx(K_REF, abs=1e-14)


class TestLimitRungs:
    @staticmethod
    def _every_rung_solves(monkeypatch, base, which):
        solved = []

        def recording(cost, ob):
            sol = smooth_fit(cost, ob)
            solved.append(sol)
            return sol

        monkeypatch.setattr(sensitivity, "smooth_fit", recording)
        tab = limit_diagnostics(base, which)
        assert not any(r.failed for r in tab.rows), [r.error for r in tab.rows]
        assert tab.passed
        assert len(solved) == len(tab.rows) == 5
        for sol in solved:
            assert sol.residual_sup <= 5e-10 * value_scale(sol)
            assert 0.0 < sol.q_lo < sol.q_hi < 1.0

    @pytest.mark.parametrize("which", ["rho", "sigma", "c_i", "l_to_mu", "h_to_inf"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_every_rung_solves_in_closed_form(self, monkeypatch, params, cost, regime, which):
        self._every_rung_solves(monkeypatch, Instance(params, cost, REGIMES[regime]), which)

    @pytest.mark.parametrize("which", ["rho", "sigma", "c_i", "l_to_mu", "h_to_inf"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("cost", ["variance", "stddev"])
    def test_every_rung_of_a_varying_cost_solves(self, monkeypatch, params, cost, regime, which):
        # every ladder of the variance and stddev costs passes at the
        # defaults, which FD failed where the region was narrower than dq
        base = Instance(params, COSTS[cost](1.0), REGIMES[regime])
        self._every_rung_solves(monkeypatch, base, which)

    @pytest.mark.parametrize(
        "change,regime,q_lo,q_hi",
        [
            ({"h": 90.0}, Irreversible(), 0.0004689460483961331, 0.8655484689579804),
            ({"sigma": 320.0}, Irreversible(), 0.49998697920434826, 0.5000130207203014),
            ({"l": 4.96875}, Irreversible(), 0.007745481600216651, 0.0077584014810475315),
            ({}, GaussianSignal(sigma_tilde=1.0, r=1.0), 0.2322509186813715, 0.2699840935202789),
            ({}, PoissonSignal(lam=2.0, r=1.0), 0.30294431018252205, 0.36534017479354725),
        ],
        ids=["h90", "sigma320", "l4.96875", "gaussian-base", "poisson-base"],
    )
    def test_matches_earlier_roots(self, change, regime, q_lo, q_hi):
        # boundaries of the q-coordinate Newton solve these rungs had before
        p = ModelParams(**{**dict(rho=1.0, sigma=5.0, h=9.0, l=1.0, mu=5.0), **change})
        sol = smooth_fit(ConstantCost(1.0), ObstacleFn.create(p, regime))
        assert sol.q_lo == pytest.approx(q_lo, abs=1e-12)
        assert sol.q_hi == pytest.approx(q_hi, abs=1e-12)

    def test_h_to_inf_resolves_tiny_lower_boundary(self):
        # h = 5e4: q_lo ~ 2.4e-12, far below any grid the FD solver runs on
        p = ModelParams(rho=1.0, sigma=5.0, h=5e4, l=1.0, mu=5.0)
        sol = smooth_fit(ConstantCost(1.0), ObstacleFn.create(p, Irreversible()))
        assert 2.3e-12 < sol.q_lo < 2.5e-12
        assert sol.residual_sup <= 5e-10 * (p.h + 1.0)

    def test_never_runs_the_grid_solver(self, monkeypatch, params, cost):
        calls = []

        def forbidden(*args, **kwargs):
            calls.append(args)
            raise AssertionError("smooth_fit ran solve_vi")

        monkeypatch.setattr(fd_solver, "solve_vi", forbidden)
        monkeypatch.setattr(sensitivity, "solve_vi", forbidden)
        for regime in (Irreversible(), PoissonSignal(2.0, 1.0), GaussianSignal(1.0, 1.0)):
            smooth_fit(cost, ObstacleFn.create(params, regime))
            for which in ("sigma", "h_to_inf"):
                tab = limit_diagnostics(Instance(params, ConstantCost(1.0), regime), which)
                assert not any(r.failed for r in tab.rows)
        assert not calls


def test_import_leaves_out_scipy():
    # numpy covers every solve; scipy would cost import time and resident
    # memory on every command
    src = os.path.dirname(os.path.dirname(os.path.abspath(stopflow.__file__)))
    code = (
        "import sys, stopflow.cli; "
        "sys.exit(any(m.startswith('scipy') for m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
