"""Finite-difference variational-inequality solver."""

from dataclasses import replace

import numpy as np
import pytest

from stopflow import (
    ConstantCost,
    Grid,
    Irreversible,
    ObstacleFn,
    extract_boundaries,
    obstacle_eval,
    pde_residual,
    solve_vi,
)


def _solve(params, cost, refined=Irreversible(), n=1000):
    ob = ObstacleFn.create(params, refined)
    return solve_vi(params, cost, ob, Grid(n=n))


class TestBasics:
    def test_boundary_values_pinned(self, params, cost):
        sol = _solve(params, cost)
        assert sol.values[0] == 5.0
        assert sol.values[-1] == 9.0

    def test_information_has_value(self, params, cost):
        # at q = 0.5 acting blind pays 5; learning first pays more
        sol = _solve(params, cost)
        qs = sol.grid.nodes
        i = np.searchsorted(qs, 0.5)
        assert qs[i] == 0.5
        assert sol.values[i] > 5.0

    def test_dominates_obstacle(self, params, cost):
        sol = _solve(params, cost)
        assert np.all(sol.values >= sol.obstacle - 1e-12)

    def test_convex_and_monotone(self, params, cost):
        sol = _solve(params, cost)
        dq = sol.grid.dq
        v = sol.values
        second = (v[:-2] - 2 * v[1:-1] + v[2:]) / dq**2
        assert second.min() >= -1e-6
        assert np.all(np.diff(v) >= -1e-12)

    def test_complementarity_gap(self, params, cost):
        sol = _solve(params, cost)
        assert sol.complementarity_gap <= 1e-7

    def test_iterations_reported(self, params, cost):
        sol = _solve(params, cost)
        assert sol.iterations >= 1


class TestBoundaries:
    def test_two_sided_exploration_region(self, params, cost):
        sol = _solve(params, cost)
        assert 0.0 < sol.q_lo < params.p_hat < sol.q_hi < 1.0
        assert (sol.q_lo, sol.q_hi) == extract_boundaries(sol)

    def test_free_inside_contact_outside(self, params, cost):
        sol = _solve(params, cost)
        qs = sol.grid.nodes
        mid = 0.5 * (sol.q_lo + sol.q_hi)
        i = int(np.argmin(np.abs(qs - mid)))
        assert sol.values[i] > sol.obstacle[i]
        j = int(np.argmin(np.abs(qs - 0.5 * sol.q_lo)))
        assert sol.values[j] == pytest.approx(sol.obstacle[j], abs=1e-9)

    def test_grid_refinement_boundaries(self, params, cost):
        coarse = _solve(params, cost, n=500)
        fine = _solve(params, cost, n=4000)
        dq = 1.0 / 500
        assert abs(coarse.q_lo - fine.q_lo) <= 2 * dq
        assert abs(coarse.q_hi - fine.q_hi) <= 2 * dq

    def test_value_converges_under_refinement(self, params, cost):
        # dyadic refinement: error vs finest level should shrink at
        # least linearly in dq
        sols = {n: _solve(params, cost, n=n) for n in (500, 1000, 2000, 4000)}
        ref = sols[4000]
        errs = []
        for n in (500, 1000, 2000):
            step = 4000 // n
            errs.append(np.max(np.abs(sols[n].values - ref.values[::step])))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.0
        assert errs[2] < errs[0]


class TestMethods:
    def test_pure_stopping_when_cost_huge(self, params):
        sol = _solve(params, ConstantCost(1e6), n=500)
        np.testing.assert_allclose(sol.values, sol.obstacle, atol=1e-9)
        assert sol.q_lo == pytest.approx(0.5, abs=1e-3)
        assert sol.q_hi == pytest.approx(0.5, abs=1e-3)


class TestResidual:
    def test_residual_matches_stored_values(self, params, cost):
        sol = _solve(params, cost)
        sup, gap = pde_residual(sol)
        assert sup == pytest.approx(sol.pde_residual_sup, abs=1e-14)
        assert gap == pytest.approx(sol.complementarity_gap, abs=1e-14)

    def test_detects_corrupted_solution(self, params, cost):
        sol = _solve(params, cost)
        bad = sol.values.copy()
        bad[len(bad) // 2] += 0.05
        _, gap = pde_residual(replace(sol, values=bad))
        assert gap > 0.01


class TestRegimes:
    def test_option_to_return_adds_value(self, params, cost, poisson):
        irr = _solve(params, cost)
        rev = _solve(params, cost, refined=poisson)
        assert np.all(rev.values >= irr.values - 1e-9)
        assert np.max(rev.values - irr.values) > 1e-3

    def test_obstacle_stored_correctly(self, params, cost, poisson):
        ob = ObstacleFn.create(params, poisson)
        sol = _solve(params, cost, refined=poisson, n=500)
        qs = sol.grid.nodes
        for i in (0, 125, 250, 400, 500):
            assert sol.obstacle[i] == pytest.approx(
                obstacle_eval(ob, float(qs[i])), abs=1e-12
            )
