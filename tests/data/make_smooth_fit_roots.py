"""Write smooth_fit_roots.json: 50-digit roots of the constant-cost smooth-fit
system at large exponents k, for tests/test_closed_form.py.

Needs mpmath, which stopflow does not depend on; the tests read only the
JSON.  Every constant is derived here from the model parameters in 50-digit
arithmetic, independently of ObstacleFn and closed_form: k and k_tilde, the
Poisson l_tilde, the Gaussian q_b and d_b.  In log-odds z the two unknowns
z_lo < z_hi solve

    log(2cosh(z_lo/2)(mu + C/rho)) - log cosh(beta) + log cosh(x) = log X(z_hi)
    kappa tanh(x) = X'(z_hi)/X(z_hi)

with kappa = k/2, tanh(beta) = tanh(z_lo/2)/k, x = kappa (z_hi - z_lo) + beta
and X(z) = (low + C/rho) e^{-z/2} + (h + C/rho) e^{z/2} [+ d_b e^{-k_tilde z/2}].
Newton (mpmath.findroot) starts from smooth_fit's boundaries; the roots are
recorded once the residual is below 1e-40.  Each instance also records its
condition: the largest move of either root, in ulps of that root, when one
of mu, h, l, rho and sigma moves by one part in 2^52.  An instance whose
boundaries hang on a near-tie of the obstacle's branches can move a hundred
ulps for one ulp of mu, so no double solver can place it closer.

Run from the repository root:  PYTHONPATH=src python tests/data/make_smooth_fit_roots.py
"""

import json
import math
from pathlib import Path

import mpmath as mp

from stopflow import (
    ConstantCost, GaussianSignal, Irreversible, ModelParams, ObstacleFn,
    PoissonSignal, smooth_fit,
)

mp.mp.dps = 50

BENCH = dict(rho=1.0, h=9.0, l=1.0, mu=5.0)
# the benchmark instance at k of about 1e3, 1e4 and 5e4 in each regime, then
# large-k instances of a seeded sample of the box l in (0.1, 5), mu - l and
# h - mu in (0.01, 3), log-uniform sigma in (0.1, 1000), rho in (0.01, 100),
# c in (0.01, 10) and lambda in (0.01, 100), sigma_tilde and r uniform
# fractions 0.05-0.95 of sigma and mu - l, and the Gaussian d_b-underflow
# instance of tests/conftest.py
INSTANCES = [
    *(
        (dict(BENCH, sigma=sigma), 1.0, regime)
        for sigma in (2828.0, 28280.0, 141400.0)
        for regime in (
            dict(type="none"),
            dict(type="poisson", lam=2.0, r=1.0),
            dict(type="gaussian", sigma_tilde=1.0, r=1.0),
        )
    ),
    (dict(rho=32.141810158373275, sigma=232.38961990782093, h=6.888595358197901,
          l=4.290403568920126, mu=6.8296367911482125), 0.01067011868685363, dict(type="none")),
    (dict(rho=21.911827992761626, sigma=242.06844135017477, h=4.689153880602884,
          l=4.054505574753957, mu=4.576462354127237), 0.5996861853671969, dict(type="none")),
    (dict(rho=65.17042188898448, sigma=550.5552616829771, h=3.318166825479283,
          l=2.078949905638931, mu=3.1642845460316886), 0.0703484093611755, dict(type="none")),
    (dict(rho=71.22898784526679, sigma=975.3926083538462, h=4.151031389111264,
          l=2.5237771305471783, mu=4.0190941130663935), 3.020139535937265, dict(type="none")),
    (dict(rho=2.6498346094560947, sigma=368.16315503400153, h=3.8576681518507816,
          l=3.318153557731849, mu=3.3400508966422433), 0.037336059822467654,
     dict(type="poisson", lam=0.08847145557549958, r=0.012995144066299627)),
    (dict(rho=25.741101445888237, sigma=207.41145587175004, h=5.500466442243884,
          l=4.886976424662672, mu=4.935350388540125), 0.3464168884292068,
     dict(type="poisson", lam=0.188170767568589, r=0.041097818165942254)),
    (dict(rho=29.052313143812363, sigma=773.9629531846747, h=4.570014572685291,
          l=3.3711431158925755, mu=3.797681658473211), 0.020903837064455817,
     dict(type="poisson", lam=7.682753384603898, r=0.14000211295278414)),
    (dict(rho=61.86024966038395, sigma=920.0559034067547, h=5.414392983725398,
          l=4.254762035543148, mu=5.331645746376939), 1.0388890557551453,
     dict(type="poisson", lam=1.5657968598966305, r=0.1348588975425022)),
    (dict(rho=0.2499167396775231, sigma=657.3871478580205, h=4.958238773344752,
          l=4.643784337836817, mu=4.660283990201866), 1.7100860602932058,
     dict(type="gaussian", sigma_tilde=77.91895655832425, r=0.005438203763782711)),
    (dict(rho=16.930104568257356, sigma=221.96562628028025, h=4.685355844053946,
          l=4.229199419920948, mu=4.357103321806622), 5.930896197159159,
     dict(type="gaussian", sigma_tilde=140.58547244203604, r=0.1008593307623483)),
    (dict(rho=30.934824277775583, sigma=718.9802357186084, h=2.4612269169460492,
          l=1.0782740087063785, mu=1.6801985324209365), 0.32234266400518435,
     dict(type="gaussian", sigma_tilde=194.04817286410477, r=0.1084739058113172)),
    (dict(rho=67.46693522712137, sigma=993.6687199002761, h=5.98262230423057,
          l=4.2357799408437, mu=4.28499438595136), 0.012163786253512294,
     dict(type="gaussian", sigma_tilde=374.57113864234924, r=0.007601721188646118)),
    (dict(rho=83.13, sigma=62.44, h=1.3223, l=1.2797, mu=1.2916), 1.0,
     dict(type="gaussian", sigma_tilde=45.86, r=0.01069)),
]


def _terms(p, c_i, regime):
    """(k, mu + C/rho, [(rate, amplitude)] of X), all from the parameters."""
    rho, sigma, h, l, mu = (mp.mpf(p[k]) for k in ("rho", "sigma", "h", "l", "mu"))
    cr = mp.mpf(c_i) / rho
    k = mp.sqrt(1 + 8 * rho * sigma**2 / (h - l) ** 2)
    low = l
    if regime["type"] == "poisson":
        lam, r = mp.mpf(regime["lam"]), mp.mpf(regime["r"])
        low = (rho * l + lam * (mu - r)) / (rho + lam)
    terms = [(mp.mpf(-0.5), low + cr), (mp.mpf(0.5), h + cr)]
    if regime["type"] == "gaussian":
        st, r = mp.mpf(regime["sigma_tilde"]), mp.mpf(regime["r"])
        k_t = mp.sqrt(1 + 8 * rho * st**2 / (h - l) ** 2)
        m = (1 - k_t) / 2
        a = l - mu + r
        q_b = a * m / ((h - l) * (1 - m) + a)
        gap = (mu - r) - (q_b * h + (1 - q_b) * l)
        terms.append((-k_t / 2, gap / (q_b**m * (1 - q_b) ** (1 - m))))
    return k, mu + cr, terms


def roots(p, c_i, regime, z0):
    """The 50-digit boundaries (q_lo, q_hi) and k, by Newton from z0."""
    k, amp, terms = _terms(p, c_i, regime)
    kap = k / 2

    def equations(z_lo, z_hi):
        beta = mp.atanh(mp.tanh(z_lo / 2) / k)
        x = kap * (z_hi - z_lo) + beta
        X = mp.fsum(a * mp.exp(c * z_hi) for c, a in terms)
        dX = mp.fsum(c * a * mp.exp(c * z_hi) for c, a in terms)
        return [
            mp.log(2 * mp.cosh(z_lo / 2) * amp) - mp.log(mp.cosh(beta))
            + mp.log(mp.cosh(x)) - mp.log(X),
            kap * mp.tanh(x) - dX / X,
        ]

    z_lo, z_hi = mp.findroot(equations, tuple(map(mp.mpf, z0)), tol=mp.mpf(10) ** -90)
    assert max(abs(f) for f in equations(z_lo, z_hi)) < mp.mpf(10) ** -40
    expit = lambda z: 1 / (1 + mp.exp(-z))
    return expit(z_lo), expit(z_hi), k


def _regime(regime):
    if regime["type"] == "poisson":
        return PoissonSignal(lam=regime["lam"], r=regime["r"])
    if regime["type"] == "gaussian":
        return GaussianSignal(sigma_tilde=regime["sigma_tilde"], r=regime["r"])
    return Irreversible()


def main():
    rows = []
    for p, c_i, regime in INSTANCES:
        sol = smooth_fit(ConstantCost(c_i), ObstacleFn.create(ModelParams(**p), _regime(regime)))
        logit = lambda q: math.log(q) - math.log1p(-q)
        z0 = (logit(sol.q_lo), logit(sol.q_hi))
        q_lo, q_hi, k = roots(p, c_i, regime, z0)
        cond = 0.0
        for name in ("mu", "h", "l", "rho", "sigma"):
            moved = roots(dict(p, **{name: p[name] * (1.0 + 2.0**-52)}), c_i, regime, z0)
            for old, new in zip((q_lo, q_hi), moved):
                cond = max(cond, float(abs(new - old)) / math.ulp(float(old)))
        rows.append(dict(
            **{name: p[name] for name in ("rho", "sigma", "h", "l", "mu")}, c_i=c_i,
            regime=regime["type"], **{key: v for key, v in regime.items() if key != "type"},
            k=float(k), cond=round(cond, 1), q_lo=mp.nstr(q_lo, 50), q_hi=mp.nstr(q_hi, 50),
        ))
    path = Path(__file__).parent / "smooth_fit_roots.json"
    path.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")


if __name__ == "__main__":
    main()
