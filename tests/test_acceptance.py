"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single pass/fail
line, and enforces the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from stopflow import (
    ConstantCost,
    GaussianSignal,
    Grid,
    Instance,
    Irreversible,
    ModelParams,
    ObstacleFn,
    PoissonSignal,
    SimConfig,
    check_monotonicity,
    degenerate_value,
    eval_closed_form,
    exponent_k,
    figure4_dataset,
    limit_diagnostics,
    mc_value_composed,
    mc_value_nested_gaussian,
    mc_value_nested_poisson,
    mc_value_outer,
    smooth_fit,
    solve_vi,
    sweep,
)
from stopflow.closed_form import basis_eval

from conftest import basis_coefficients, gaussian_d_b_alt

PARAMS = ModelParams(rho=1.0, sigma=5.0, h=9.0, l=1.0, mu=5.0)
COST = ConstantCost(1.0)
POISSON = PoissonSignal(lam=2.0, r=1.0)
GAUSSIAN = GaussianSignal(sigma_tilde=1.0, r=1.0)
REGIMES = (Irreversible(), POISSON, GAUSSIAN)


def _report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_c1_closed_form_constants():
    t0 = time.monotonic()
    ob = ObstacleFn.create(PARAMS, POISSON)
    ok = abs(ob.low - 3.0) <= 1e-12 and abs(ob.q_b - 1.0 / 6.0) <= 1e-12

    rng = np.random.default_rng(42)
    for _ in range(20):
        l = rng.uniform(0.1, 3.0)
        mu = l + rng.uniform(0.2, 4.0)
        h = mu + rng.uniform(0.2, 4.0)
        sigma = rng.uniform(0.5, 10.0)
        st = rng.uniform(0.05, 0.95) * sigma
        r = rng.uniform(0.05, 0.95) * (mu - l)
        p = ModelParams(rho=1.0, sigma=sigma, h=h, l=l, mu=mu)
        a = math.exp(ObstacleFn.create(p, GaussianSignal(st, r)).log_d_b)
        b = gaussian_d_b_alt(p, st, r)
        ok = ok and abs(a - b) <= 1e-10 * max(abs(a), abs(b))
    elapsed = time.monotonic() - t0
    _report(1, "closed-form constants", ok and elapsed < 1.0)


def test_c2_three_way_method_agreement():
    t0 = time.monotonic()
    ok = True
    cfg = SimConfig(n_paths=100_000, dt=1e-3, seed=20240815)
    for regime in REGIMES:
        ob = ObstacleFn.create(PARAMS, regime)
        fd = solve_vi(COST, ob, Grid(n=4000))
        cf = smooth_fit(COST, ObstacleFn.create(PARAMS, regime))
        qs = fd.grid.nodes
        cf_vals = np.array(
            [eval_closed_form(cf, float(q)) for q in qs]
        )
        ok = ok and np.max(np.abs(fd.values - cf_vals)) <= 5e-3
        dq = fd.grid.dq
        ok = ok and abs(fd.q_lo - cf.q_lo) <= 2 * dq
        ok = ok and abs(fd.q_hi - cf.q_hi) <= 2 * dq
        for q0 in (0.3, 0.5, 0.7):
            est = mc_value_outer(COST, ob, fd.q_lo, fd.q_hi, q0, cfg)
            truth = float(np.interp(q0, qs, fd.values))
            # outside the region the estimate is the obstacle itself (se = 0)
            # and FD interpolates the same obstacle: allow rounding only
            ok = ok and abs(est.mean - truth) <= 3 * est.std_err + 1e-12 * abs(truth)
    elapsed = time.monotonic() - t0
    _report(2, "three-way method agreement", ok and elapsed < 120.0)


def test_c3_smooth_fit_residuals():
    ok = True
    scale = PARAMS.h + COST.c_i / PARAMS.rho
    k = exponent_k(PARAMS)
    cases = [(regime, 1.0) for regime in REGIMES]
    cases += [(Irreversible(), c) for c in (0.25, 2.0, 8.0)]
    for regime, c_i in cases:
        sol = smooth_fit(ConstantCost(c_i), ObstacleFn.create(PARAMS, regime))
        ok = ok and sol.residual_sup <= 1e-9 * (PARAMS.h + c_i / PARAMS.rho)
        # one-sided slopes: basis derivative inside, obstacle slope outside
        if isinstance(regime, GaussianSignal):
            slope_hi = ObstacleFn.create(PARAMS, regime).slope(sol.q_hi)
        elif isinstance(regime, PoissonSignal):
            slope_hi = PARAMS.h - ObstacleFn.create(PARAMS, regime).low
        else:
            slope_hi = PARAMS.h - PARAMS.l
        d1, d2 = basis_coefficients(sol)
        for qb, outside in ((sol.q_lo, 0.0), (sol.q_hi, slope_hi)):
            _, _, dv1, dv2 = basis_eval(k, qb)
            inside = d1 * dv1 + d2 * dv2
            ok = ok and abs(inside - outside) <= 1e-8
    _report(3, "smooth-fit residuals and pasting", ok)


def test_c4_value_function_structure():
    ok = True
    for regime in (Irreversible(), POISSON):
        for c in (0.5, 1.0, 2.0):
            ob = ObstacleFn.create(PARAMS, regime)
            sol = solve_vi(ConstantCost(c), ob, Grid(n=2000))
            v, g = sol.values, sol.obstacle
            ok = ok and np.min(np.diff(v, 2)) >= -1e-8 * PARAMS.spread
            ok = ok and np.min(np.diff(v)) >= -1e-10
            ok = ok and np.all(v >= g)
            # the settled policy's PDE rows, as grid node numbers
            free = np.flatnonzero(sol.active) + 1
            # contact set = two boundary intervals around one free interval
            ok = ok and free.size > 0
            ok = ok and np.all(np.diff(free) == 1)
            ok = ok and free[0] > 0 and free[-1] < len(v) - 1
            # V = G on the contact set, V > G strictly inside the free one
            contact = np.ones(len(v), dtype=bool)
            contact[free] = False
            ok = ok and np.array_equal(v[contact], g[contact])
            ok = ok and np.all(v[free[1:-1]] > g[free[1:-1]])
    _report(4, "convex monotone value, two-interval contact set", ok)


def test_c5_monotonicity_suite():
    t0 = time.monotonic()
    base = Instance(params=PARAMS, cost=COST)
    checks = [
        (base, "rho", [0.5, 1.0, 2.0, 4.0], "prop_rho"),
        (base, "sigma", [2.0, 3.5, 5.0, 8.0], "prop_sigma"),
        (base, "c_i", [0.25, 0.5, 1.0, 2.0, 4.0], "prop_cost"),
        (base, "mu", [2.0, 3.5, 5.0, 6.5, 8.0], "prop_mu"),
        (
            Instance(params=PARAMS, cost=COST, refined=POISSON),
            "r",
            [0.5, 1.0, 2.0, 3.0, 3.5],
            "prop_cs",
        ),
    ]
    ok = True
    for inst, param, values, claim in checks:
        res = sweep(inst, param, values)
        ok = ok and not check_monotonicity(res, claim)
    elapsed = time.monotonic() - t0
    _report(5, "boundary monotonicity in parameters", ok and elapsed < 300.0)


def test_c6_limit_suite():
    base = Instance(params=PARAMS, cost=COST)
    ok = True
    for which in ("rho", "sigma", "c_i", "l_to_mu", "h_to_inf"):
        ok = ok and limit_diagnostics(base, which).passed
    tab = limit_diagnostics(
        Instance(params=PARAMS, cost=COST, refined=POISSON), "lambda"
    )
    ok = ok and tab.passed
    _report(6, "boundary limits along parameter ladders", ok)


def test_c7_fee_sweep_shape():
    t0 = time.monotonic()
    rev, star = figure4_dataset(Instance(PARAMS, COST, GAUSSIAN))
    rows = rev.rows
    ok = all(not r.failed for r in rows)
    slack = 2.0 * rev.boundary_uncertainty()
    ok = ok and all(b.q_lo >= a.q_lo - slack for a, b in zip(rows, rows[1:]))
    ok = ok and all(b.q_hi >= a.q_hi - slack for a, b in zip(rows, rows[1:]))
    ok = ok and all(b.width >= a.width - slack for a, b in zip(rows, rows[1:]))
    ok = ok and rows[0].value == pytest.approx(1e-3) and rows[0].width < 0.02
    ok = ok and rows[-1].value == pytest.approx(PARAMS.mu - PARAMS.l - 1e-3)
    ok = ok and abs(rows[-1].q_lo - star.q_lo) < 0.01
    ok = ok and abs(rows[-1].q_hi - star.q_hi) < 0.01
    elapsed = time.monotonic() - t0
    _report(7, "fee sweep shape and convergence", ok and elapsed < 120.0)


def test_c8_nested_mc_oracles():
    cfg = SimConfig(n_paths=100_000, dt=1e-3, seed=31337)

    t0 = time.monotonic()
    est = mc_value_nested_poisson(ObstacleFn.create(PARAMS, POISSON), 0.5, cfg)
    ok = abs(est.mean - 6.0) <= 3 * est.std_err
    ok = ok and time.monotonic() - t0 < 10.0

    ob = ObstacleFn.create(PARAMS, GAUSSIAN)
    est = mc_value_nested_gaussian(ob, 0.5, cfg)
    truth = ob.nested(0.5)
    ok = ok and abs(est.mean - truth) <= 3 * est.std_err

    ob = ObstacleFn.create(PARAMS, POISSON)
    fd = solve_vi(COST, ob, Grid(n=2000))
    est = mc_value_composed(COST, ob, fd.q_lo, fd.q_hi, 0.5, cfg)
    truth = float(np.interp(0.5, fd.grid.nodes, fd.values))
    ok = ok and abs(est.mean - truth) <= 3 * est.std_err
    _report(8, "nested and composed Monte Carlo oracles", ok)


def test_c9_degenerate_noise_free_case():
    ok = degenerate_value(
        ModelParams(rho=1.0, sigma=0.0, h=9.0, l=1.0, mu=5.0), 0.5
    ) == 7.0
    ok = ok and all(
        degenerate_value(
            ModelParams(rho=1.0, sigma=0.0, h=9.0, l=1.0, mu=5.0), q
        ) == q * 9.0 + (1 - q) * 5.0
        for q in (0.0, 0.25, 0.5, 0.75, 1.0)
    )
    _report(9, "noise-free degenerate value", ok)
