"""Primitive parameters, information-cost functions and each cost's
perpetual cost Pi, the refined-signal regimes and their checks, and the
power-law primitives (exponent_k, exponents, _qpow) that the refined stage
and the closed form are written in.  The refined stage's constants themselves are derived in
obstacles.ObstacleFn.create.

Everything here is immutable after construction and safe to share between
concurrent callers.  All derived quantities are evaluated in double
precision; powers with non-integer exponents go through exp/log so that the
q -> 0, 1 limits stay finite.  Cost rates and `_qpow` take a belief or an
array of beliefs; a scalar in gives a float out.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np


class ParameterError(ValueError):
    """Raised when model or signal parameters violate their constraints."""


def _check_finite(record) -> None:
    """Refuses a record with a nan or infinite field: each record's range
    checks let some through, and on them the solvers fail or never stop."""
    for name, value in vars(record).items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _check_count(record, *names) -> None:
    """Refuses a named count field that operator.index rejects, such as
    nan, 1000.5 or 100.0, which numpy would meet with a bare TypeError."""
    for name in names:
        value = getattr(record, name)
        try:
            operator.index(value)
        except TypeError:
            raise ParameterError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ModelParams:
    """Market / learning primitives: discount rate, signal volatility and
    the three product values with 0 < l < mu < h."""

    rho: float
    sigma: float
    h: float
    l: float
    mu: float

    def __post_init__(self):
        _check_finite(self)
        if not self.rho > 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if not (0 < self.l < self.mu < self.h):
            raise ParameterError(
                f"need 0 < l < mu < h, got l={self.l}, mu={self.mu}, h={self.h}"
            )
        # a signal this weak against h - l (h above about 9e8 at the other
        # defaults) is sigma = 0 to double precision: FD stalls, and k - 1,
        # the closed form's boundaries and FD's ((h - l)/sigma)^2 under- or
        # overflow
        if self.sigma > 0 and exponent_k(self) == 1.0:
            raise ParameterError(
                f"sigma/(h - l) = {self.sigma / self.spread:.3g} rounds "
                "k = sqrt(1 + 8 rho (sigma/(h - l))^2) to 1, as at sigma = 0"
            )

    @property
    def spread(self) -> float:
        return self.h - self.l

    @property
    def p_hat(self) -> float:
        """Kink of the immediate-choice payoff, (mu - l)/(h - l)."""
        return (self.mu - self.l) / (self.h - self.l)


# ---------------------------------------------------------------------------
# Information costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantCost:
    """C(q) = c_i: one cost rate at every belief, in value units per unit
    time."""

    c_i: float

    def __post_init__(self):
        _check_finite(self)
        if not self.c_i > 0:
            raise ParameterError(f"constant cost rate must be positive, got {self.c_i}")

    def __call__(self, params: ModelParams, q):
        return self.c_i if np.ndim(q) == 0 else np.full(np.shape(q), self.c_i)

    def perpetual(self, params: ModelParams) -> "Perpetual":
        """Pi = c_i/rho."""
        return Perpetual(self.c_i / params.rho)

    def h_to_inf_q_hi(self, params: ModelParams, low: float) -> float:
        """The limit of the upper boundary as h -> inf: 1."""
        return 1.0


@dataclass(frozen=True)
class VarianceCost:
    """C(q) = scale * Var[Theta | q] = scale * q(1-q)(h-l)^2.

    Vanishes at q in {0, 1}, so the usual positive lower bound on the cost
    rate fails there.
    """

    scale: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if self.scale < 0:
            raise ParameterError(f"scale must be >= 0, got {self.scale}")

    @property
    def c_i(self) -> float:
        return self.scale

    def __call__(self, params: ModelParams, q):
        return self.scale * q * (1.0 - q) * params.spread**2

    def perpetual(self, params: ModelParams) -> "Perpetual":
        """Pi by quadrature: 2cosh(z/2) C = scale (h-l)^2 sech(z/2)/2, so the
        source is scale sigma^2 sech(z/2) and psi its SechGreen integral."""
        if self.scale == 0.0:
            return Perpetual(0.0)
        kappa = 0.5 * exponent_k(params)
        return Perpetual(0.0, green=SechGreen.create(self.scale * params.sigma**2, kappa))

    def h_to_inf_q_hi(self, params: ModelParams, low: float) -> float:
        """The limit of the upper boundary as h -> inf, with low the low end
        of the obstacle's line there: 1 - exp(-(mu - low)/(2 sigma^2 scale)),
        or 1 at scale 0.  sensitivity.limit_ladder sketches the proof."""
        if self.scale == 0.0:
            return 1.0
        return -math.expm1(-(params.mu - low) / (2.0 * params.sigma**2 * self.scale))


@dataclass(frozen=True)
class StdDevVarianceCost:
    """C(q) = scale * sqrt(Var[Theta | q]) = scale * sqrt(q(1-q)) (h-l)."""

    scale: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        if self.scale < 0:
            raise ParameterError(f"scale must be >= 0, got {self.scale}")

    @property
    def c_i(self) -> float:
        return self.scale

    def __call__(self, params: ModelParams, q):
        return self.scale * np.sqrt(np.maximum(q * (1.0 - q), 0.0)) * params.spread

    def perpetual(self, params: ModelParams) -> "Perpetual":
        """Pi = C/(rho + s^2/8) = (C/rho)(k^2 - 1)/k^2, exactly: 2cosh(z/2) C
        is the constant scale (h-l), so psi is the constant psi0."""
        _, k2m1, _ = exponents(params)
        return Perpetual(0.0, psi0=self.scale * params.spread * k2m1 / (params.rho * (1.0 + k2m1)))

    def h_to_inf_q_hi(self, params: ModelParams, low: float) -> float:
        """The limit of the upper boundary as h -> inf: 1."""
        return 1.0


# Each cost class takes one parameter, the config's cost.c_i, as its only
# field, and reads it back as `c_i`
CostSpec = ConstantCost | VarianceCost | StdDevVarianceCost


# ---------------------------------------------------------------------------
# The perpetual cost
# ---------------------------------------------------------------------------

class Perpetual(NamedTuple):
    """Pi(q) = E_q int_0^inf e^{-rho t} C(q_t) dt, the cost of exploring for
    ever from q: the bounded solution of rho Pi - (1/2) s^2 q^2 (1-q)^2 Pi''
    = C, s = (h - l)/sigma, built once per solve by the cost's perpetual
    method.  In the log-odds z = log(q/(1-q)),

        Pi = level + psi(z) / (2cosh(z/2)),
        psi'' - kappa^2 psi = -(4/s^2) cosh(z/2) (C - rho level),

    kappa = k/2, and psi = psi0 + green's integral.  A constant cost has
    psi = 0, so its Pi - level and every derivative are exact zeros.

    level: the constant part of Pi, c_i/rho for a constant cost.
    psi0: a constant part of psi (the stddev cost).
    green: the SechGreen integral of the variance cost, or None.
    """

    level: float
    psi0: float = 0.0
    green: Optional["SechGreen"] = None

    @property
    def varies(self) -> bool:
        return self.psi0 != 0.0 or self.green is not None

    def at(self, z):
        """(Pi, dPi/dz, d2Pi/dz2) at the log-odds z, a float or an array."""
        za = np.asarray(z, dtype=float)
        psi, d1, d2 = self.psi0, 0.0, 0.0
        if self.green is not None:
            w, lo, hi, src = self.green.sums(za)
            psi, d1, d2 = psi + w, 0.5 * (hi - lo), self.green.kappa**2 * w - src
        e = np.exp(-np.abs(za))
        g = np.sqrt(e) / (1.0 + e)  # sqrt(q(1-q)) = 1/(2cosh(z/2))
        t = -np.tanh(0.5 * za)  # 1 - 2q, the log-odds slope of log g, doubled
        out = (
            self.level + g * psi,
            g * (d1 + 0.5 * t * psi),
            g * (d2 + t * d1 + (0.25 - 2.0 * g * g) * psi),
        )
        return tuple(float(x) for x in out) if za.ndim == 0 else out


# sech(y/2) = 2 sum_n (-1)^n e^{-(n + 1/2)|y|}: beyond |y| = _SECH_CORE the
# first len(_SECH_N) terms leave out less than e^{-48} of the first
_SECH_CORE = 2.0
_SECH_N = np.arange(24.0)
_SECH_SIGN = np.where(_SECH_N % 2 == 0, 1.0, -1.0)
# from this kappa on, the kernel is narrow against sech's core and Gauss-
# Laguerre in kappa |z - y| resolves both; below it, Gauss-Laguerre misses
# the far peak of sech (1e-4 at z = -20 as kappa -> 1/2, with 100 nodes)
_LAGUERRE_KAPPA = 4.0
# numpy's laggauss returns nan weights at 200 nodes
_MAX_NODES = 128


@functools.lru_cache(maxsize=None)
def _gauss(rule: str, n: int):
    """Nodes and weights of an n-node Gauss rule, read-only: every caller
    shares them."""
    gauss = np.polynomial.laguerre.laggauss if rule == "laguerre" else np.polynomial.legendre.leggauss
    x, w = gauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _sech_half(y):
    """sech(y/2) = 2 e^{-|y|/2} / (1 + e^{-|y|}), which cannot overflow."""
    e = np.exp(-0.5 * np.abs(y))
    return 2.0 * e / (1.0 + e * e)


class SechGreen(NamedTuple):
    """psi = (amp/(2 kappa)) int e^{-kappa |z - y|} sech(y/2) dy, the bounded
    solution of psi'' - kappa^2 psi = -amp sech(z/2), kappa > 1/2, as
    (amp/(2 kappa)) (L(z) + L(-z)) with the one-sided integral

        L(z) = int_{-inf}^z e^{-kappa (z - y)} sech(y/2) dy.

    For kappa >= 4, L is Gauss-Laguerre in x = kappa (z - y).  Below, sech's
    exponential series gives L in closed form on z <= -2, and on z >= 2 from
    L(2); in between, L(z) = e^{-kappa (z + 2)} L(-2) plus Gauss-Legendre
    over y in [-2, z], where sech has its poles at distance pi.  `nodes`
    was doubled from 8 until two counts agreed to 1e-13 on z = -2, 0, 2.

    l_lo, l_hi: L(-2) and L(2), for kappa < 4.
    """

    amp: float
    kappa: float
    nodes: int
    l_lo: float = 0.0
    l_hi: float = 0.0

    @classmethod
    def create(cls, amp: float, kappa: float) -> "SechGreen":
        probe = np.array([-_SECH_CORE, 0.0, _SECH_CORE])
        prev = None
        n = 8
        while n <= _MAX_NODES:
            l_lo = l_hi = 0.0
            if kappa < _LAGUERRE_KAPPA:
                l_lo = float(_sech_series_below(kappa, probe[:1])[0])
                l_hi = float(_sech_core(kappa, n, probe[2:], l_lo)[0])
            green = cls(amp, kappa, n, l_lo, l_hi)
            got = green.left(probe)
            if prev is not None and np.all(np.abs(got - prev) <= 1e-13 * got):
                return green
            prev, n = got, 2 * n
        raise ParameterError(
            f"the variance cost's quadrature did not settle by {_MAX_NODES} nodes at kappa = {kappa}"
        )

    def left(self, z: np.ndarray) -> np.ndarray:
        """L on a 1-d array z."""
        k = self.kappa
        if k >= _LAGUERRE_KAPPA:
            x, w = _gauss("laguerre", self.nodes)
            return (w * _sech_half(z[:, None] - x / k)).sum(axis=1) / k
        out = np.empty_like(z)
        below, above = z <= -_SECH_CORE, z >= _SECH_CORE
        core = ~(below | above)
        out[below] = _sech_series_below(k, z[below])
        out[core] = _sech_core(k, self.nodes, z[core], self.l_lo)
        za = z[above]
        out[above] = np.exp(-k * (za - _SECH_CORE)) * self.l_hi + _sech_series_above(k, za)
        return out

    def sums(self, z):
        """(psi, kappa psi - psi', kappa psi + psi', kappa^2 psi - psi'') at
        the log-odds z, each a positive integral: amp L(z), amp L(-z) and
        the source amp sech(z/2)."""
        zs = np.atleast_1d(z)
        both = self.left(np.concatenate([zs, -zs])).reshape(2, -1)
        lo, hi = self.amp * both[0], self.amp * both[1]
        out = ((lo + hi) / (2.0 * self.kappa), lo, hi, self.amp * _sech_half(zs))
        return tuple(float(x[0]) for x in out) if np.ndim(z) == 0 else out


def _sech_core(kappa: float, nodes: int, z: np.ndarray, l_lo: float) -> np.ndarray:
    """L(z) for z in [-2, 2] from L(-2) = l_lo, by Gauss-Legendre over
    [-2, z]."""
    x, w = _gauss("legendre", nodes)
    half = 0.5 * (z + _SECH_CORE)
    y = half[:, None] * (x + 1.0) - _SECH_CORE
    kernel = np.exp(-kappa * (z[:, None] - y))
    return np.exp(-kappa * (z + _SECH_CORE)) * l_lo + half * (w * kernel * _sech_half(y)).sum(axis=1)


def _sech_series_below(kappa: float, z: np.ndarray) -> np.ndarray:
    """L(z) for z <= -2: 2 e^{z/2} sum_n (-1)^n e^{n z}/(kappa + 1/2 + n)."""
    terms = _SECH_SIGN * np.exp(np.multiply.outer(z, _SECH_N)) / (kappa + 0.5 + _SECH_N)
    return 2.0 * np.exp(0.5 * z) * terms.sum(axis=-1)


def _sech_series_above(kappa: float, z: np.ndarray) -> np.ndarray:
    """int_2^z e^{-kappa (z - y)} sech(y/2) dy for z >= 2: the series term n
    is 2 (-1)^n e^{-(n + 1/2) z} (1 - e^{-d w})/d with d = kappa - 1/2 - n
    and w = z - 2, written as -expm1(-|d| w)/|d| times an exponential that
    cannot overflow, so d -> 0 (kappa -> 1/2 as h -> inf) keeps its digits."""
    w = (z - _SECH_CORE)[:, None]
    d = kappa - 0.5 - _SECH_N
    x = np.abs(d) * w
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(x > 0.0, -np.expm1(-x) / x, 1.0) * w
    lead = -(_SECH_N + 0.5) * z[:, None] + np.maximum(-d, 0.0) * w
    return 2.0 * (_SECH_SIGN * np.exp(lead) * ratio).sum(axis=1)


def _check_belief(q) -> np.ndarray:
    """q, a belief or a sequence of them, as a float array; a ParameterError
    names the beliefs outside [0, 1]."""
    qa = np.asarray(q, dtype=float)
    bad = qa[~((qa >= 0.0) & (qa <= 1.0))]  # nan fails both comparisons
    if bad.size:
        raise ParameterError(f"belief must lie in [0, 1], got {bad.tolist()}")
    return qa


def cost_eval(cost: CostSpec, params: ModelParams, q):
    """Cost rate C(q) for any cost variant; total on q in [0, 1].

    q is a belief (float out) or an array of beliefs (array out)."""
    qa = _check_belief(q)
    c = cost(params, qa)
    return float(c) if qa.ndim == 0 else c


# ---------------------------------------------------------------------------
# Second-stage (refined signal) regimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Irreversible:
    """Single-decision regime: no refined signal, no return option."""


@dataclass(frozen=True)
class PoissonSignal:
    """Truth-revealing Poisson arrival with rate lam; return fee r."""

    lam: float
    r: float

    def __post_init__(self):
        _check_finite(self)
        if not self.lam > 0:
            raise ParameterError(f"Poisson intensity must be positive, got {self.lam}")


@dataclass(frozen=True)
class GaussianSignal:
    """Refined Gaussian signal with smaller volatility sigma_tilde; fee r."""

    sigma_tilde: float
    r: float

    def __post_init__(self):
        _check_finite(self)
        if not self.sigma_tilde > 0:
            raise ParameterError(
                f"refined volatility must be positive, got {self.sigma_tilde}"
            )


RefinedSignalSpec = Irreversible | PoissonSignal | GaussianSignal


def _check_fee(params: ModelParams, r: float) -> None:
    if not 0.0 < r < params.mu - params.l:
        raise ParameterError(
            f"return fee must satisfy 0 < r < mu - l = {params.mu - params.l}, got r={r}"
        )


def _check_sigma(params: ModelParams) -> None:
    # the PDE and the smooth-fit exponents need a noisy first-stage signal
    if params.sigma == 0:
        raise ParameterError("sigma = 0 is degenerate: use model.degenerate_value")


# ---------------------------------------------------------------------------
# Power-law primitives
# ---------------------------------------------------------------------------

def exponent_k(params: ModelParams, sigma: Optional[float] = None) -> float:
    """k = sqrt(1 + 8 rho (sigma/(h-l))^2); always > 1 for sigma > 0."""
    return exponents(params, sigma)[0]


def exponents(
    params: ModelParams, sigma: Optional[float] = None
) -> Tuple[float, float, float]:
    """(k, k^2 - 1, k - 1) of exponent_k, the last two free of cancellation:
    k^2 - 1 = 8 rho (sigma/(h-l))^2 and k - 1 = (k^2 - 1)/(1 + k)."""
    s = params.sigma if sigma is None else sigma
    k2m1 = 8.0 * params.rho * (s / params.spread) ** 2
    k = math.sqrt(1.0 + k2m1)
    return k, k2m1, k2m1 / (1.0 + k)


def _qpow(q, a: float, b: float, log_c: float = 0.0):
    """c q^a (1-q)^b, summed in logs so that huge or tiny factors cannot
    over- or underflow on their own; exact limits at q = 0 and 1 for
    nonzero a, b.

    q is a float or an array.  Floats stay on the math module, which is
    much faster than numpy on single values."""
    if np.ndim(q) == 0:
        q = float(q)
        lq = math.log(q) if q > 0.0 else -math.inf
        lp = math.log1p(-q) if q < 1.0 else -math.inf
        try:
            return math.exp(log_c + a * lq + b * lp)
        except OverflowError:
            return math.inf
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(log_c + a * np.log(q) + b * np.log1p(-q))


def degenerate_value(params: ModelParams, q: float) -> float:
    """Value when the first-stage signal is perfectly revealing (sigma = 0):
    the belief jumps to the truth at time zero, so V(q) = q h + (1-q) mu."""
    return q * params.h + (1.0 - q) * params.mu
