"""Finite-difference variational-inequality solver."""

import json
from pathlib import Path

import numpy as np
import pytest

from stopflow import (
    ConstantCost,
    GaussianSignal,
    Grid,
    Irreversible,
    ModelParams,
    ObstacleFn,
    ParameterError,
    PoissonSignal,
    SmoothFitError,
    StdDevVarianceCost,
    VarianceCost,
    cost_eval,
    fd_solver,
    obstacle_eval,
    smooth_fit,
    solve_vi,
)
from stopflow.fd_solver import (
    _branches,
    _prolong_active,
    _second_difference,
    _solve_linear,
    _solve_multilevel,
    _solve_policy,
    _sweep,
    _window,
    extract_boundaries,
    solve_banded,
)

REGIMES = {
    "irreversible": Irreversible(),
    "poisson": PoissonSignal(lam=2.0, r=1.0),
    "gaussian": GaussianSignal(sigma_tilde=1.0, r=1.0),
}


def _solve(params, cost, refined=Irreversible(), n=1000):
    ob = ObstacleFn.create(params, refined)
    return solve_vi(cost, ob, Grid(n=n))


def _grid_arrays(cost, ob, n):
    """(a, C, G) at the n + 1 grid nodes, evaluated as solve_vi does."""
    params = ob.params
    qs = Grid(n=n).nodes
    a = 0.5 * (params.spread / params.sigma) ** 2 * qs**2 * (1.0 - qs) ** 2
    return a, cost_eval(cost, params, qs), ob.on_grid(qs)


class TestBasics:
    def test_grid_refuses_a_non_integer_size(self):
        # Grid(100.0) passed the range check and reached np.linspace as a
        # bare TypeError
        with pytest.raises(ParameterError, match=r"^n must be an integer, got 100\.0$"):
            Grid(100.0)

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

    # the gap is diagonal-scaled, in value units: it measures the settled
    # policy's solve to roundoff of V (~1e-15), not ulp(V) * a / dq^2
    def test_complementarity_gap(self, params, cost):
        sol = _solve(params, cost)
        assert sol.complementarity_gap <= 1e-12

    @pytest.mark.parametrize("n", [4000, 16000, 64000])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_complementarity_gap_fine_grids(self, params, cost, regime, n):
        sol = _solve(params, cost, refined=REGIMES[regime], n=n)
        assert sol.complementarity_gap <= 1e-12

    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_complementarity_gap_sigma2(self, regime):
        # a wide region: the unscaled gap of the same solve reads ~2e-7
        params = ModelParams(rho=1.0, sigma=2.0, h=9.0, l=1.0, mu=5.0)
        sol = _solve(params, ConstantCost(1.0), refined=REGIMES[regime], n=16000)
        assert sol.complementarity_gap <= 1e-12

    def test_iterations_reported(self, params, cost):
        sol = _solve(params, cost)
        assert sol.iterations >= 1


class TestBoundaries:
    def test_two_sided_exploration_region(self, params, cost):
        sol = _solve(params, cost)
        assert 0.0 < sol.q_lo < params.p_hat < sol.q_hi < 1.0
        assert (sol.q_lo, sol.q_hi) == extract_boundaries(sol.grid.nodes, sol.active)

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


class TestConvergence:
    """The boundaries read off the settled policy stay within two cells of
    the smooth-fit closed form as the grid is refined."""

    @pytest.mark.parametrize("n", [500, 4000, 16000])
    @pytest.mark.parametrize("c_i", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("sigma", [2.0, 5.0, 20.0])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_boundaries_within_2dq_of_closed_form(self, regime, sigma, c_i, n):
        params = ModelParams(rho=1.0, sigma=sigma, h=9.0, l=1.0, mu=5.0)
        try:
            cf = smooth_fit(ConstantCost(c_i), ObstacleFn.create(params, REGIMES[regime]))
        except SmoothFitError:
            pytest.skip("no smooth-fit solution for this instance")
        try:
            sol = _solve(params, ConstantCost(c_i), refined=REGIMES[regime], n=n)
        except ParameterError as exc:
            # the settled policy is empty, which solve_vi rejects: that may
            # only happen to a region under two cells wide
            assert str(exc) == f"exploration region narrower than the grid (n = {n})"
            assert cf.q_hi - cf.q_lo <= 2.0 / n
            return
        assert abs(sol.q_lo - cf.q_lo) <= 2.0 / n
        assert abs(sol.q_hi - cf.q_hi) <= 2.0 / n


class TestMethods:
    def test_pure_stopping_when_cost_huge(self, params):
        # nothing explores: V = G everywhere, and solve_vi rejects the
        # empty policy
        cost = ConstantCost(1e6)
        ob = ObstacleFn.create(params, Irreversible())
        a, c, g = _grid_arrays(cost, ob, 500)
        v, active, _, _, _ = _solve_multilevel(params.rho, a, c, g)
        assert not active.any()
        np.testing.assert_allclose(v, g, atol=1e-9)
        with pytest.raises(ParameterError, match="narrower than the grid"):
            _solve(params, cost, n=500)


class TestResidual:
    """`_branches` is the one residual: policy iteration classifies with it
    and `solve_vi` reports it on the final values."""

    def _coefficients(self, params, cost, n=1000):
        return _grid_arrays(cost, ObstacleFn.create(params, Irreversible()), n)

    def test_residual_matches_stored_values(self, params, cost):
        sol = _solve(params, cost)
        a, c, g = self._coefficients(params, cost)
        r_pde, vg = _branches(params.rho, a, c, g, sol.values, sol.grid.dq)
        assert np.max(np.abs(np.minimum(r_pde, vg))) == sol.complementarity_gap
        # V = G exactly off the active set, and the PDE holds on it
        assert not vg[~sol.active].any()
        assert np.max(np.abs(r_pde[sol.active])) <= 1e-12

    def test_detects_corrupted_solution(self, params, cost):
        sol = _solve(params, cost)
        a, c, g = self._coefficients(params, cost)
        bad = sol.values.copy()
        bad[len(bad) // 2] += 0.05
        r_pde, vg = _branches(params.rho, a, c, g, bad, sol.grid.dq)
        assert np.max(np.abs(np.minimum(r_pde, vg))) > 0.01


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


class TestMultilevel:
    """The coarse-to-fine ladder only picks the starting active set; the
    discrete solution is the one a cold start reaches."""

    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize(
        "sigma, cost",
        [
            (5.0, ConstantCost(1.0)),
            (40.0, ConstantCost(1.0)),
            (80.0, ConstantCost(1.0)),
            (5.0, VarianceCost(1.0)),
        ],
        ids=["5.0", "40.0", "80.0", "5.0-variance"],
    )
    def test_matches_single_level_cold_start(self, regime, sigma, cost):
        # at sigma = 40 and 80 the coarse levels come out empty and the
        # next level takes its sweep from the empty policy
        params = ModelParams(rho=1.0, sigma=sigma, h=9.0, l=1.0, mu=5.0)
        n = 4000
        ob = ObstacleFn.create(params, REGIMES[regime])
        a, c, g = _grid_arrays(cost, ob, n)
        v, active, _, _, _ = _solve_multilevel(params.rho, a, c, g)
        cold, cold_active, _ = _solve_policy(
            params.rho, a, c, g, 1.0 / n, np.zeros(n - 1, dtype=bool), 2 * n + 100
        )
        assert np.array_equal(v, np.maximum(cold, g))
        assert np.array_equal(active, cold_active)

    def test_empty_level_restarts_from_the_empty_policy(self, monkeypatch, poisson):
        # sigma = 20: the region (0.331, 0.335) comes out empty up to
        # n = 250, and one sweep from the empty policy finds it at n = 500
        params = ModelParams(rho=1.0, sigma=20.0, h=9.0, l=1.0, mu=5.0)
        ob = ObstacleFn.create(params, poisson)
        sweeps = {}  # grid size -> (policy in, policy out) of each sweep

        def spy(rho, a, off, c, g, dq, active):
            v, out = _sweep(rho, a, off, c, g, dq, active)
            sweeps.setdefault(len(g) - 1, []).append((active, out))
            return v, out

        monkeypatch.setattr(fd_solver, "_sweep", spy)
        _solve_multilevel(params.rho, *_grid_arrays(ConstantCost(1.0), ob, 4000))
        assert list(sweeps) == [62, 125, 250, 500, 1000, 2000, 4000]
        # the coarsest level starts from the empty policy and settles there
        assert not any(start.any() or out.any() for start, out in sweeps[62])
        # each level after an empty one takes one sweep from the empty policy
        for n in (125, 250, 500):
            ((start, out),) = sweeps[n]
            assert start.shape == (n - 1,) and not start.any()
            assert out.any() == (n == 500)
        for n in (1000, 2000):
            assert np.array_equal(sweeps[n][0][0], _prolong_active(sweeps[n // 2][0][1], n))

    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("n", [4000, 16000])
    def test_mirrored_obstacle(self, params, cost, regime, n):
        # q -> 1 - q puts the obstacle's flat piece on the right; the
        # empty policy's first sweep finds the region wherever it lies
        ob = ObstacleFn.create(params, REGIMES[regime])
        a, c, g = _grid_arrays(cost, ob, n)
        v, active, _, _, sweeps = _solve_multilevel(params.rho, a, c, g)
        mv, m_active, _, _, m_sweeps = _solve_multilevel(params.rho, a[::-1], c[::-1], g[::-1])
        assert active.any() and np.array_equal(m_active, active[::-1])
        assert np.max(np.abs(mv - v[::-1])) <= 1e-10 * np.max(np.abs(v))
        assert m_sweeps <= sweeps + 1

    def test_one_grid_evaluation_per_solve(self, monkeypatch, params, gaussian):
        calls = []  # (function, nodes) of each grid evaluation
        on_grid = ObstacleFn.on_grid

        def obstacle_spy(ob, qs):
            calls.append(("on_grid", len(qs)))
            return on_grid(ob, qs)

        def cost_spy(cost, p, q):
            calls.append(("cost_eval", np.size(q)))
            return cost_eval(cost, p, q)

        monkeypatch.setattr(ObstacleFn, "on_grid", obstacle_spy)
        monkeypatch.setattr(fd_solver, "cost_eval", cost_spy)
        _solve(params, VarianceCost(1.0), refined=gaussian, n=4000)
        assert sorted(calls) == [("cost_eval", 4001), ("on_grid", 4001)]

    @pytest.mark.parametrize(
        "n, sizes",
        [
            (500, [62, 125, 250, 500]),
            (4000, [62] + [125 << k for k in range(6)]),
            (16000, [62] + [125 << k for k in range(8)]),
            (16001, [62, 125, 250, 500, 1000, 2000, 4000, 8000, 16001]),
        ],
    )
    @pytest.mark.parametrize(
        "regime, cost",
        [
            ("irreversible", ConstantCost(1.0)),
            ("poisson", VarianceCost(1.0)),
            ("gaussian", StdDevVarianceCost(1.0)),
        ],
    )
    def test_level_views_equal_a_fresh_evaluation(
        self, monkeypatch, params, n, sizes, regime, cost
    ):
        # level k reads every 2^k-th node of the finest grid's arrays; they
        # must be the arrays of the level's own nodes i 2^k / n, bit for bit,
        # and those of its own uniform grid on [0, 1] when 2^k divides n
        levels = {}  # grid size -> (a, c, g) of its sweeps

        def spy(rho, a, off, c, g, dq, active):
            levels[len(g) - 1] = (a, c, g)
            return _sweep(rho, a, off, c, g, dq, active)

        monkeypatch.setattr(fd_solver, "_sweep", spy)
        _solve(params, cost, refined=REGIMES[regime], n=n)
        ob = ObstacleFn.create(params, REGIMES[regime])
        assert list(levels) == sizes
        coef = 0.5 * (params.spread / params.sigma) ** 2
        for m, (a, c, g) in levels.items():
            stride = 1 << sizes[::-1].index(m)
            qs = np.linspace(0.0, 1.0, m + 1) if m * stride == n else np.arange(m + 1) * (stride / n)
            assert np.array_equal(a, coef * qs**2 * (1.0 - qs) ** 2)
            assert np.array_equal(c, cost_eval(cost, params, qs))
            assert np.array_equal(g, ob.on_grid(qs))

    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_sweeps_at_n16000(self, params, cost, regime):
        # the ladder starts at 62 intervals: a few sweeps there, one per
        # level in between, 1-2 on the finest
        sol = _solve(params, cost, refined=REGIMES[regime], n=16000)
        assert sol.iterations <= 15

    @pytest.mark.parametrize("regime", list(REGIMES))
    @pytest.mark.parametrize("n", [4001, 5000, 12500, 16001])
    def test_any_n_matches_single_level_cold_start(self, params, cost, n, regime):
        # the ladder runs for every n: one that halved n only while n was
        # even took 16 to 836 sweeps here
        ob = ObstacleFn.create(params, REGIMES[regime])
        a, c, g = _grid_arrays(cost, ob, n)
        v, active, _, _, iterations = _solve_multilevel(params.rho, a, c, g)
        cold, cold_active, _ = _solve_policy(
            params.rho, a, c, g, 1.0 / n, np.zeros(n - 1, dtype=bool), 2 * n + 100
        )
        assert iterations <= 15
        assert np.array_equal(v, np.maximum(cold, g))
        assert np.array_equal(active, cold_active)

    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_warm_levels_take_one_sweep(self, monkeypatch, params, cost, regime):
        solves = {}  # grid size -> block solves

        def spy(rho, off, c, g, active):
            n = len(g) - 1
            solves[n] = solves.get(n, 0) + 1
            return _solve_linear(rho, off, c, g, active)

        monkeypatch.setattr(fd_solver, "_solve_linear", spy)
        sol = _solve(params, cost, refined=REGIMES[regime], n=16000)
        assert list(solves) == [62] + [125 << k for k in range(8)]
        assert [solves[n] for n in list(solves)[1:-1]] == [1] * 7
        assert sum(solves.values()) == sol.iterations

    def test_convergence_error_reports_the_last_gap(self, params, cost):
        ob = ObstacleFn.create(params, Irreversible())
        a, c, g = _grid_arrays(cost, ob, 1000)
        active, off = np.zeros(999, dtype=bool), a[1:1000] / 1e-3**2
        for _ in range(3):  # a cold start needs far more than 3 sweeps
            v, active = _sweep(params.rho, a, off, c, g, 1e-3, active)
        r_pde, vg = _branches(params.rho, a, c, g, v, 1e-3)
        with pytest.raises(fd_solver.ConvergenceError) as err:
            _solve_policy(params.rho, a, c, g, 1e-3, np.zeros(999, dtype=bool), 3)
        assert err.value.last_residual == np.max(np.abs(np.minimum(r_pde, vg))) > 1e-4

    @pytest.mark.parametrize("n", [32, 33])
    @pytest.mark.parametrize("p, q", [(1, 1), (3, 7), (10, 15), (14, 15)])
    def test_prolong_pads_one_cell(self, p, q, n):
        # coarse nodes p..q of 16 intervals -> fine nodes 2p-1..2q+1 of the
        # next level, 32 intervals or, when the stride does not divide, 33
        coarse = np.zeros(15, dtype=bool)
        coarse[p - 1 : q] = True
        fine = _prolong_active(coarse, n)
        assert fine.size == n - 1
        assert np.array_equal(np.flatnonzero(fine) + 1, np.arange(2 * p - 1, 2 * q + 2))


def _reference_policy(rho, a, c, g, dq, active, max_iter):
    """Policy iteration whose every sweep takes two rounds of iterative
    refinement, with the runs found in plain Python."""
    n = len(g) - 1
    off = a[1:n] / dq**2
    prev = None
    for it in range(1, max_iter + 1):
        runs = []
        for i in (np.flatnonzero(active) + 1).tolist():
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1])
        v = g.copy()
        for lo, hi in runs:
            o = off[lo - 1 : hi - 1]
            rhs = -c[lo:hi]
            rhs[0] += o[0] * g[lo - 1]
            rhs[-1] += o[-1] * g[hi]
            v[lo:hi] = solve_banded(o, rho + 2.0 * o, o, rhs)
        for _ in range(2):
            r_act = -c[1:n] - rho * v[1:n] + off * ((v[2:] - v[1:-1]) + (v[:-2] - v[1:-1]))
            for lo, hi in runs:
                o = off[lo - 1 : hi - 1]
                v[lo:hi] += solve_banded(o, rho + 2.0 * o, o, r_act[lo - 1 : hi - 1])
        r_pde = (rho * v[1:n] - a[1:n] * _second_difference(v, dq) + c[1:n]) / (rho + 2.0 * off)
        new_active = r_pde <= v[1:n] - g[1:n]
        if np.array_equal(new_active, active) or (
            prev is not None and np.array_equal(new_active, prev)
        ):
            return v, active, it
        prev, active = active, new_active
    raise AssertionError("reference policy iteration did not settle")


class TestRefineOnce:
    """Sweeps take the raw block solve and nothing refines it: iterative
    refinement on every sweep settles on the same policy in the same
    sweeps, so the boundaries are the same and the values differ only by
    the raw solve's rounding."""

    @pytest.mark.parametrize("n", [500, 4000, 16000])
    @pytest.mark.parametrize("sigma", [2.0, 5.0, 20.0])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_matches_refining_every_sweep(self, monkeypatch, regime, sigma, n):
        # on the solve below solve_vi, which also returns an empty policy
        # (sigma = 20, n = 500, Gaussian); the same policy gives the same
        # boundaries
        params = ModelParams(rho=1.0, sigma=sigma, h=9.0, l=1.0, mu=5.0)
        ob = ObstacleFn.create(params, REGIMES[regime])
        arrays = _grid_arrays(ConstantCost(1.0), ob, n)
        v, active, _, _, iters = _solve_multilevel(params.rho, *arrays)
        monkeypatch.setattr(fd_solver, "_solve_policy", _reference_policy)
        ref_v, ref_active, _, _, ref_iters = _solve_multilevel(params.rho, *arrays)
        assert np.array_equal(active, ref_active)
        assert iters == ref_iters
        assert np.max(np.abs(v - ref_v)) <= 1e-9

    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_banded_calls_at_n16000(self, monkeypatch, params, cost, regime):
        # one block solve per run of active nodes and sweep, nothing more
        calls, blocks = [], []

        def counted(*args):
            calls.append(args)
            return solve_banded(*args)

        def spy(rho, off, c, g, active):
            # runs of active nodes: one start and one end each
            blocks.append(np.count_nonzero(np.diff(active, prepend=False, append=False)) // 2)
            return _solve_linear(rho, off, c, g, active)

        monkeypatch.setattr(fd_solver, "solve_banded", counted)
        monkeypatch.setattr(fd_solver, "_solve_linear", spy)
        sol = _solve(params, cost, refined=REGIMES[regime], n=16000)
        assert len(blocks) == sol.iterations
        assert blocks[-1] == 1
        assert len(calls) == sum(blocks)


def _full_sweep(rho, a, off, c, g, dq, active):
    """The sweep that classifies every interior node, as before sweeps were
    windowed: with it in place of `_sweep`, solve_vi is the earlier solver."""
    v = _solve_linear(rho, off, c, g, active)
    r_pde, vg = _branches(rho, a, c, g, v, dq)
    return v, r_pde <= vg


def _assert_same_solve(sol, ref):
    # the same values and policy give the same _branches, PDE residual too
    assert np.array_equal(sol.values, ref.values)
    assert np.array_equal(sol.active, ref.active)
    assert (sol.q_lo, sol.q_hi, sol.iterations) == (ref.q_lo, ref.q_hi, ref.iterations)
    assert sol.complementarity_gap == ref.complementarity_gap


class TestWindowedSweep:
    """A sweep classifies only the nodes from one before the active run to
    one after it; the residual pass after the ladder checks every other
    node.  Each solve is compared bit for bit with the one whose sweeps
    classify the whole grid."""

    @pytest.mark.parametrize(
        "runs",
        [[], [(1, 2)], [(1, 4)], [(37, 40)], [(39, 40)], [(18, 22)], [(1, 3), (36, 40)]],
        ids=["empty", "first", "from-first", "to-last", "last", "kink", "both-ends"],
    )
    def test_one_sweep_matches_the_full_sweep(self, runs):
        # grid nodes lo..hi-1.  Off the window the full sweep reads the
        # obstacle alone: there it explores where G itself has a negative
        # PDE branch, near the kink, and nowhere else
        n = 40
        params = ModelParams(rho=1.0, sigma=5.0, h=9.0, l=1.0, mu=5.0)
        ob = ObstacleFn.create(params, Irreversible())
        a, c, g = _grid_arrays(ConstantCost(1.0), ob, n)
        active = np.zeros(n - 1, dtype=bool)
        for lo, hi in runs:
            active[lo - 1 : hi - 1] = True
        args = (params.rho, a, a[1:n] * n**2, c, g, 1.0 / n, active)
        v, new = _sweep(*args)
        v_full, new_full = _full_sweep(*args)
        assert np.array_equal(v, v_full)
        w = _window(active)
        assert np.array_equal(new[w], new_full[w])
        off_window = np.ones(n - 1, dtype=bool)
        off_window[w] = False
        r_pde, _ = _branches(params.rho, a, c, g, g, 1.0 / n)
        assert not new[off_window].any()
        assert np.array_equal(new_full[off_window], r_pde[off_window] <= 0.0)

    @pytest.mark.parametrize(
        "regime, last, sweeps",
        [("irreversible", 3929, 68), ("poisson", 3848, 66), ("gaussian", 3671, 65)],
    )
    def test_run_from_the_first_interior_node(self, monkeypatch, regime, last, sweeps):
        # the stddev h_to_inf rung h = 900: q_lo is the half-cell, so the
        # window has no node before the run
        params = ModelParams(rho=1.0, sigma=5.0, h=900.0, l=1.0, mu=5.0)
        cost = StdDevVarianceCost(1.0)
        sol = _solve(params, cost, refined=REGIMES[regime], n=4000)
        idx = np.flatnonzero(sol.active)
        assert (idx[0], idx[-1], sol.iterations) == (0, last, sweeps)
        assert sol.q_lo == 1.25e-4
        monkeypatch.setattr(fd_solver, "_sweep", _full_sweep)
        _assert_same_solve(sol, _solve(params, cost, refined=REGIMES[regime], n=4000))

    def test_unresolved_region(self, monkeypatch, gaussian):
        # sigma = 80: the coarse levels come out empty and classify the
        # whole level; n = 4000 settles empty too, which solve_vi rejects.
        # Each level after an empty one takes one sweep from the empty policy
        params = ModelParams(rho=1.0, sigma=80.0, h=9.0, l=1.0, mu=5.0)
        ob = ObstacleFn.create(params, gaussian)
        arrays = _grid_arrays(ConstantCost(1.0), ob, 4000)
        fine = _solve(params, ConstantCost(1.0), refined=gaussian, n=16000)
        coarse = _solve_multilevel(params.rho, *arrays)
        assert fine.iterations == 11 and fine.active.any()
        assert not coarse[1].any()
        with pytest.raises(ParameterError, match=r"narrower than the grid \(n = 4000\)"):
            _solve(params, ConstantCost(1.0), refined=gaussian, n=4000)
        monkeypatch.setattr(fd_solver, "_sweep", _full_sweep)
        _assert_same_solve(fine, _solve(params, ConstantCost(1.0), refined=gaussian, n=16000))
        for got, want in zip(coarse, _solve_multilevel(params.rho, *arrays)):
            assert np.array_equal(got, want)

    def test_second_region_is_not_connected(self, monkeypatch, params, cost):
        # a second convex kink near q = 0.875 explores on its own, out of
        # the first region's window: the residual pass must find it
        on_grid = ObstacleFn.on_grid
        monkeypatch.setattr(
            ObstacleFn, "on_grid",
            lambda ob, qs: np.maximum(on_grid(ob, qs), 9.0 + 40.0 * (qs - 0.9)),
        )
        settled = []  # the values and policy each solve reads its boundaries from

        def spy(*args):
            settled.append(_solve_multilevel(*args))
            return settled[-1]

        monkeypatch.setattr(fd_solver, "_solve_multilevel", spy)
        with pytest.raises(RuntimeError, match="not connected"):
            _solve(params, cost, n=4000)
        monkeypatch.setattr(fd_solver, "_sweep", _full_sweep)
        with pytest.raises(RuntimeError, match="not connected"):
            _solve(params, cost, n=4000)
        (values, active, *_), (ref_values, ref_active, *_) = settled
        edges = np.flatnonzero(np.diff(active, prepend=False, append=False)) + 1
        assert edges.tolist() == [1792, 2205, 3379, 3592]  # two runs of nodes
        assert np.array_equal(active, ref_active)
        assert np.array_equal(values, ref_values)


# solve_vi on 144 instances, recorded before the sweeps were windowed: the
# benchmark instance with sigma in {2, 5, 20, 80}, four costs, three
# regimes and n in {500, 4096, 16000}
FD_REGRESSION = json.loads((Path(__file__).parent / "data" / "fd_regression.json").read_text())
COSTS = {
    "constant-0.3": ConstantCost(0.3),
    "constant-3": ConstantCost(3.0),
    "variance": VarianceCost(1.0),
    "stddev": StdDevVarianceCost(1.0),
}


@pytest.mark.parametrize(
    "row", FD_REGRESSION,
    ids=[f"{r['sigma']}-{r['cost']}-{r['regime']}-{r['n']}" for r in FD_REGRESSION],
)
def test_regression_table(row):
    # sweeps and nodes exactly; values to rel 1e-12, room for a libm that
    # differs by an ulp in the obstacle
    params = ModelParams(rho=1.0, sigma=row["sigma"], h=9.0, l=1.0, mu=5.0)
    cost, refined = COSTS[row["cost"]], REGIMES[row["regime"]]
    if row["first"] is None:
        # the settled policy is empty: solve_vi rejects it, so the sweeps
        # are read off the solve below it
        with pytest.raises(ParameterError, match="narrower than the grid"):
            _solve(params, cost, refined=refined, n=row["n"])
        arrays = _grid_arrays(cost, ObstacleFn.create(params, refined), row["n"])
        _, active, _, _, iterations = _solve_multilevel(params.rho, *arrays)
        assert iterations == row["iterations"]
        assert not active.any()
        return
    sol = _solve(params, cost, refined=refined, n=row["n"])
    assert sol.iterations == row["iterations"]
    idx = np.flatnonzero(sol.active) + 1
    first, last = int(idx[0]), int(idx[-1])
    assert (first, last) == (row["first"], row["last"])
    assert sol.values[first] == pytest.approx(row["v_first"], rel=1e-12, abs=0.0)
    assert sol.values[last] == pytest.approx(row["v_last"], rel=1e-12, abs=0.0)


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
    nodes; both it and `solve_banded` are checked against a direct solve."""

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
        got = _solve_linear(rho, off, c, g, active)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        fixed = np.ones(n + 1, dtype=bool)
        fixed[1:n] = ~active
        assert np.array_equal(got[fixed], g[fixed])

    # sizes around the reduction floor of 31 unknowns (31 runs no level, 32
    # and 63 one, 64 two), the largest block of a benchmark pass (1657) and
    # the padded sizes 2^p - 1 and 2^p; each also with rho = 1e-10 against
    # off ~ n^2, where every row is dominant by 1e-10 only
    SIZES = [1, 2, 3, 30, 31, 32, 33, 63, 64, 65, 1657, 2047, 2048, 16001]

    @pytest.mark.parametrize(
        "m, rho",
        [pytest.param(m, 1.0, id=str(m)) for m in SIZES]
        + [pytest.param(m, 1e-10, id=f"{m}-weak") for m in SIZES],
    )
    def test_solve_banded(self, m, rho):
        rho, off, _, _ = _fd_rows(m + 1, rho)
        rng = np.random.default_rng(m)
        # unequal off-diagonals, so a transposed factor would fail too
        left, right = off, off * rng.uniform(0.5, 1.0, m)
        diag = rho + left + right
        rhs = rng.normal(size=m)
        got = solve_banded(left, diag, right, rhs)
        if m <= 65:
            mat = np.diag(diag) - np.diag(left[1:], -1) - np.diag(right[:-1], 1)
            want = np.linalg.solve(mat, rhs)
        else:
            # a dense matrix would take 2 GB at m = 16001
            want = _thomas(left.tolist(), diag.tolist(), right.tolist(), rhs.tolist())
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
