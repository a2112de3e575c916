"""Smooth-fit solutions built from the two homogeneous power solutions."""

import os
import subprocess
import sys

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
    SmoothFitError,
    basis_eval,
    eval_closed_form,
    exponent_k,
    fd_solver,
    limit_diagnostics,
    obstacle_eval,
    smooth_fit,
    sensitivity,
)

K_REF = 2.0310096011589901


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

    def test_basis_symmetry(self):
        # swapping q with 1-q swaps the two solutions
        k = K_REF
        v1, v2, _, _ = basis_eval(k, 0.3)
        w1, w2, _, _ = basis_eval(k, 0.7)
        assert v1 == pytest.approx(w2, rel=1e-13)
        assert v2 == pytest.approx(w1, rel=1e-13)


class TestIrreversible:
    def test_residual_and_order(self, params, cost):
        sol = smooth_fit(params, cost.c_i, Irreversible())
        assert sol.residual_sup <= 1e-9 * (params.h + cost.c_i / params.rho)
        assert 0.0 < sol.q_lo < params.p_hat < sol.q_hi < 1.0

    def test_value_matching_and_smooth_pasting(self, params, cost):
        sol = smooth_fit(params, cost.c_i, Irreversible())
        ob = ObstacleFn.create(params, Irreversible())
        eps = 1e-7
        for qb in (sol.q_lo, sol.q_hi):
            v = eval_closed_form(sol, ob, qb)
            assert v == pytest.approx(obstacle_eval(ob, qb), abs=1e-8)
            # C^1 across the boundary: interior slope equals obstacle slope
            inner = qb + eps if qb == sol.q_lo else qb - eps
            slope_in = (
                eval_closed_form(sol, ob, inner) - eval_closed_form(sol, ob, qb)
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
        sol = smooth_fit(params, cost.c_i, Irreversible())
        ob = ObstacleFn.create(params, Irreversible())
        q = 0.5
        v = eval_closed_form(sol, ob, q)
        assert obstacle_eval(ob, q) < v < q * params.h + (1 - q) * params.mu

    def test_outside_region_returns_obstacle(self, params, cost):
        sol = smooth_fit(params, cost.c_i, Irreversible())
        ob = ObstacleFn.create(params, Irreversible())
        assert eval_closed_form(sol, ob, 0.01) == pytest.approx(5.0, abs=1e-12)
        assert eval_closed_form(sol, ob, 0.99) == pytest.approx(
            obstacle_eval(ob, 0.99), abs=1e-12
        )


class TestPoisson:
    def test_narrower_than_irreversible(self, params, cost, poisson):
        irr = smooth_fit(params, cost.c_i, Irreversible())
        poi = smooth_fit(params, cost.c_i, poisson)
        # better downside exit makes stopping attractive sooner, and the
        # region re-centers on the shifted obstacle kink at 1/3
        assert poi.q_hi - poi.q_lo < irr.q_hi - irr.q_lo
        assert poi.q_lo < 1.0 / 3.0 < poi.q_hi


class TestGaussian:
    def test_residual(self, params, cost, gaussian):
        sol = smooth_fit(params, cost.c_i, gaussian)
        assert sol.residual_sup <= 1e-9 * (params.h + cost.c_i / params.rho)
        assert 0.0 < sol.q_lo < sol.q_hi < 1.0

    def test_large_k_tilde_fails_with_finite_residual(self, large_k_tilde):
        # the regions are narrower than double precision can place, so the
        # solve fails, but on a finite residual rather than on nan
        kw, refined = large_k_tilde
        with pytest.raises(SmoothFitError) as err:
            smooth_fit(ModelParams(**kw), 1.0, refined)
        assert np.all(np.isfinite(err.value.residual_history))
        assert "nan" not in str(err.value)


class TestEvalClosedForm:
    @pytest.mark.parametrize("regime", ["irreversible", "poisson", "gaussian"])
    def test_array_matches_scalar(self, params, cost, poisson, gaussian, regime):
        refined = {"irreversible": Irreversible(), "poisson": poisson,
                   "gaussian": gaussian}[regime]
        sol = smooth_fit(params, cost.c_i, refined)
        ob = ObstacleFn.create(params, refined)
        qs = np.linspace(0.0, 1.0, 1001)
        got = eval_closed_form(sol, ob, qs)
        want = np.array([eval_closed_form(sol, ob, float(q)) for q in qs])
        assert type(eval_closed_form(sol, ob, 0.5)) is float
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # inside the region, against d1 v1 + d2 v2 - C/rho from the basis
        ode = (qs > sol.q_lo) & (qs < sol.q_hi)
        assert ode.sum() > 30
        k = exponent_k(params)
        basis = [basis_eval(k, float(q))[:2] for q in qs[ode]]
        ref = [sol.d1 * v1 + sol.d2 * v2 - cost.c_i / params.rho for v1, v2 in basis]
        np.testing.assert_allclose(got[ode], ref, rtol=1e-12, atol=0.0)

    def test_rejects_obstacle_of_another_regime(self, params, cost, poisson):
        sol = smooth_fit(params, cost.c_i, Irreversible())
        with pytest.raises(ParameterError):
            eval_closed_form(sol, ObstacleFn.create(params, poisson), 0.5)


class TestExponent:
    def test_k_reference(self, params):
        assert exponent_k(params) == pytest.approx(K_REF, abs=1e-14)


class TestLimitRungs:
    @pytest.mark.parametrize("which", ["rho", "sigma", "c_i", "l_to_mu", "h_to_inf"])
    @pytest.mark.parametrize(
        "regime",
        [Irreversible(), PoissonSignal(lam=2.0, r=1.0), GaussianSignal(sigma_tilde=1.0, r=1.0)],
        ids=["irreversible", "poisson", "gaussian"],
    )
    def test_every_rung_solves_in_closed_form(self, monkeypatch, params, cost, regime, which):
        solved = []

        def recording(p, c_i, reg):
            sol = smooth_fit(p, c_i, reg)
            solved.append((p, c_i, sol))
            return sol

        monkeypatch.setattr(sensitivity, "smooth_fit", recording)
        tab = limit_diagnostics(Instance(params=params, cost=cost, refined=regime), which)
        assert not any(r.failed for r in tab.rows), [r.error for r in tab.rows]
        assert len(solved) == len(tab.rows) == 5
        for p, c_i, sol in solved:
            assert sol.residual_sup <= 5e-10 * (p.h + c_i / p.rho)
            assert 0.0 < sol.q_lo < sol.q_hi < 1.0

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
        sol = smooth_fit(p, 1.0, regime)
        assert sol.q_lo == pytest.approx(q_lo, abs=1e-12)
        assert sol.q_hi == pytest.approx(q_hi, abs=1e-12)

    def test_h_to_inf_resolves_tiny_lower_boundary(self):
        # h = 5e4: q_lo ~ 2.4e-12, far below any grid the FD solver runs on
        p = ModelParams(rho=1.0, sigma=5.0, h=5e4, l=1.0, mu=5.0)
        sol = smooth_fit(p, 1.0, Irreversible())
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
            smooth_fit(params, cost.c_i, regime)
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
