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
from stopflow.fd_solver import _cr_factor, _solve_linear, solve_banded


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


def _fd_rows(n, rho=1.0, coef=0.32):
    """Interior off-diagonal weights a/dq^2 of the benchmark operator, a
    smooth running cost and a kinked obstacle on n intervals."""
    qs = np.linspace(0.0, 1.0, n + 1)
    off = coef * (qs * (1.0 - qs)) ** 2 * n**2
    c = 1.0 + qs
    g = 5.0 + 4.0 * np.maximum(qs - 0.5, 0.0)
    return rho, off[1:n], c, g


def _thomas(left, diag, right, rhs):
    """Tridiagonal elimination without pivoting, in plain Python; row i is
    diag[i] x[i] - left[i] x[i-1] - right[i] x[i+1]."""
    m = len(diag)
    cp, dp = [0.0] * m, [0.0] * m
    for i in range(m):
        den = diag[i] + (left[i] * cp[i - 1] if i else 0.0)
        cp[i] = -right[i] / den if i < m - 1 else 0.0
        dp[i] = (rhs[i] + (left[i] * dp[i - 1] if i else 0.0)) / den
    x = [0.0] * m
    for i in reversed(range(m)):
        x[i] = dp[i] - (cp[i] * x[i + 1] if i < m - 1 else 0.0)
    return np.array(x)


class TestBlockSolve:
    """`_solve_linear` solves one cyclic-reduction block per run of active
    nodes; both are checked against a direct solve."""

    N = 40

    @pytest.mark.parametrize(
        "runs",
        [
            [],
            [(17, 18)],
            [(17, 19)],
            [(5, 12)],
            [(5, 13)],
            [(3, 6), (10, 20), (25, 30)],
            [(1, 4), (36, 40)],
            [(1, 40)],
        ],
        ids=["empty", "one", "two", "odd", "even", "three-runs", "ends", "all"],
    )
    def test_matches_dense_solve(self, runs):
        n = self.N
        rho, off, c, g = _fd_rows(n)
        active = np.zeros(n - 1, dtype=bool)
        for lo, hi in runs:  # grid nodes lo..hi-1
            active[lo - 1 : hi - 1] = True
        # full system: identity rows off the active set
        mat = np.eye(n + 1)
        rhs = g.copy()
        for i in np.flatnonzero(active) + 1:
            mat[i, i - 1 : i + 2] = (-off[i - 1], rho + 2.0 * off[i - 1], -off[i - 1])
            rhs[i] = -c[i]
        want = np.linalg.solve(mat, rhs)
        got = _solve_linear(rho, off, c, g, active, 1.0 / n, n)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        fixed = np.ones(n + 1, dtype=bool)
        fixed[1:n] = ~active
        assert np.array_equal(got[fixed], g[fixed])

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 16001])
    def test_solve_banded(self, m):
        rho, off, _, _ = _fd_rows(m + 1)
        rng = np.random.default_rng(m)
        # unequal off-diagonals, so a transposed factor would fail too
        left, right = off, off * rng.uniform(0.5, 1.0, m)
        diag = rho + left + right
        rhs = rng.normal(size=m)
        got = solve_banded(_cr_factor(left, diag, right), rhs)
        if m <= 64:
            mat = np.diag(diag) - np.diag(left[1:], -1) - np.diag(right[:-1], 1)
            want = np.linalg.solve(mat, rhs)
        else:
            # a dense matrix would take 2 GB here
            want = _thomas(left.tolist(), diag.tolist(), right.tolist(), rhs.tolist())
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
