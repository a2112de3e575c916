"""Finite-difference solver for the outer variational inequality.

Discretizes  min(rho V - a(q) V'' + C(q), V - G) = 0  on a uniform grid
with a(q) = (1/2)((h-l)/sigma)^2 q^2 (1-q)^2 and central second
differences.  The degenerate coefficient vanishes at the endpoints, which
pins the boundary rows to the obstacle (q = 0, 1 are absorbing states).

The algorithm is policy iteration (Howard): each sweep solves a
tridiagonal system over the current continuation set and re-classifies
nodes; it terminates in finitely many sweeps on this monotone scheme.
Rows off the continuation set are the identity (V = G), so each sweep
solves one block per run of continuation nodes, by odd-even cyclic
reduction in numpy; the block is an M-matrix and strictly diagonally
dominant, so the reduction needs no pivoting (Forsyth & Vetzal 2002).

A cold start advances the continuation set one node per side per sweep,
so the solve runs up a dyadic ladder of grids: n is halved while it stays
above _LADDER_FLOOR = 100 (4000 and 16000 both start at 125 nodes), and
each level starts from the coarser level's continuation set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .model import CostSpec, ModelParams, ParameterError, cost_eval
from .obstacles import ObstacleFn

# the ladder halves n while it stays above this floor; see _solve_multilevel
_LADDER_FLOOR = 100


@dataclass(frozen=True)
class Grid:
    """Uniform grid with nodes i/n, i = 0..n."""

    n: int = 4000

    def __post_init__(self):
        if self.n < 16:
            raise ParameterError(f"grid needs at least 16 intervals, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @property
    def dq(self) -> float:
        return 1.0 / self.n


class ConvergenceError(RuntimeError):
    def __init__(self, msg: str, last_residual: float):
        super().__init__(f"{msg} (last residual {last_residual:.3e})")
        self.last_residual = last_residual


@dataclass
class ViSolution:
    grid: Grid
    values: np.ndarray
    obstacle: np.ndarray
    q_lo: Optional[float]
    q_hi: Optional[float]
    pde_residual_sup: float
    complementarity_gap: float
    iterations: int
    assumption_flags: dict = field(default_factory=dict)
    # coefficients kept for a posteriori residual recomputation
    _diffusion: np.ndarray = None
    _cost: np.ndarray = None
    _rho: float = 0.0
    contact_tol: float = 0.0


def _second_difference(v: np.ndarray, dq: float) -> np.ndarray:
    # nested differences: adjacent node values are close, so the inner
    # subtractions are exact and the cancellation error of the naive
    # three-term form (~ulp(v)/dq^2) is avoided
    fwd = v[2:] - v[1:-1]
    bwd = v[1:-1] - v[:-2]
    return (fwd - bwd) / dq**2


def _residuals(sol: ViSolution) -> Tuple[np.ndarray, np.ndarray]:
    """Interior-node PDE residual and V - G, both as arrays."""
    v, g = sol.values, sol.obstacle
    dq = sol.grid.dq
    d2 = _second_difference(v, dq)
    r_pde = sol._rho * v[1:-1] - sol._diffusion[1:-1] * d2 + sol._cost[1:-1]
    return r_pde, v - g


def solve_vi(
    params: ModelParams,
    cost: CostSpec,
    ob: ObstacleFn,
    grid: Grid = Grid(),
) -> ViSolution:
    """Solve the discrete obstacle problem and extract the free boundaries.

    Discrete complementarity at every interior node: either the operator
    residual vanishes and V >= G, or V = G and the residual is >= 0, both
    to roundoff.
    """
    if params.sigma == 0:
        raise ParameterError("sigma = 0: use model.degenerate_value, no PDE to solve")

    flags = {}
    if cost.violates_lower_bound:
        flags["cost_lower_bound_violated"] = True

    v, a, c, g, iters = _solve_multilevel(params, cost, ob, grid.n)

    # contact nodes sit exactly on the obstacle; clip roundoff below it
    v = np.maximum(v, g)
    v[0], v[-1] = g[0], g[-1]

    sol = ViSolution(
        grid=grid, values=v, obstacle=g, q_lo=None, q_hi=None,
        pde_residual_sup=0.0, complementarity_gap=0.0, iterations=iters,
        assumption_flags=flags, _diffusion=a, _cost=c, _rho=params.rho,
        contact_tol=1e-7 * params.spread,
    )
    sup, gap = pde_residual(sol)
    sol.pde_residual_sup = sup
    sol.complementarity_gap = gap
    sol.q_lo, sol.q_hi = extract_boundaries(sol)
    return sol


def _solve_multilevel(params, cost, ob, n_fine):
    """Policy iteration with a coarse-to-fine warm start.

    The exploration set only advances one node per sweep from a poor
    initial guess, so a cold start on a fine grid needs O(n) sweeps.
    Solving on a dyadically coarsened ladder first and seeding each
    finer level's active set from the coarser boundaries keeps every
    level down to a handful of sweeps.  Returns the finest level's
    (values, diffusion, cost, obstacle) and the total sweep count.

    The ladder halves n while it is even and above _LADDER_FLOOR = 100,
    so it starts at the first size that is odd or at most 100 (125 for
    both 4000 and 16000).  The coarsest level is a cold start from the
    3-node kink seed, and its sweeps grow with the region's width in
    nodes: the benchmark regions (0.04 to 0.10 wide in q) span 4 to 12
    nodes at n = 125 and take 2 to 6 sweeps (9 to 25 from n = 500).
    Every finer level takes 2 or 3 sweeps.  A coarser start gains little
    more, because a level whose grid cannot resolve the region comes out
    empty, and the next level then starts again from the kink seed.
    """
    sizes = [n_fine]
    while sizes[-1] > _LADDER_FLOOR and sizes[-1] % 2 == 0:
        sizes.append(sizes[-1] // 2)
    sizes.reverse()

    coef = 0.5 * (params.spread / params.sigma) ** 2
    active = None
    total = 0
    for n in sizes:
        qs = np.linspace(0.0, 1.0, n + 1)
        a = coef * qs**2 * (1.0 - qs) ** 2
        c = cost_eval(cost, params, qs)
        g = ob.on_grid(qs)
        if active is None or not active.any():
            active = _kink_seed(g, n)
        else:
            active = _prolong_active(active, n // 2)
        # a cold start advances one node per sweep, so 2n + 100 bounds it
        v, active, iters = _solve_policy(params.rho, a, c, g, 1.0 / n, active, 2 * n + 100)
        total += iters
    return v, a, c, g, total


def _last_flat(g) -> int:
    """Index of the last node on the obstacle's flat mu branch."""
    flat = g <= g[0] + 1e-12 * max(1.0, abs(g[0]))
    return int(np.flatnonzero(flat)[-1])


def _kink_seed(g, n) -> np.ndarray:
    """Initial active set: the interior nodes around the obstacle kink."""
    kink = min(max(_last_flat(g), 1), n - 1)
    active = np.zeros(n - 1, dtype=bool)
    active[max(kink - 2, 0) : min(kink + 1, n - 1)] = True
    return active


def _prolong_active(active, n) -> np.ndarray:
    """Map a non-empty coarse active set to the twice-finer grid, padded
    two cells."""
    fine = np.zeros(2 * n - 1, dtype=bool)
    idx = np.flatnonzero(active)
    lo = 2 * (int(idx[0]) + 1)  # coarse node -> fine node number
    hi = 2 * (int(idx[-1]) + 1)
    fine[max(lo - 2 - 1, 0) : min(hi + 2, 2 * n - 1)] = True
    return fine


def _solve_policy(
    rho, a, c, g, dq, active, max_iter
) -> Tuple[np.ndarray, np.ndarray, int]:
    n = len(g) - 1
    interior = slice(1, n)
    off = a[1:n] / dq**2
    diag = rho + 2.0 * off

    v = g.copy()
    prev = None
    last_gap = np.inf
    for it in range(1, max_iter + 1):
        v = _solve_linear(rho, off, c, g, active, dq, n)
        d2 = _second_difference(v, dq)
        r_pde = rho * v[interior] - a[interior] * d2 + c[interior]
        r_obs = v[interior] - g[interior]
        # compare the PDE row scaled by its diagonal so both branches are
        # in value units; picks the smaller (more violated) branch per node
        new_active = r_pde / diag <= r_obs
        last_gap = float(np.max(np.abs(np.minimum(r_pde / diag, r_obs))))
        if np.array_equal(new_active, active):
            return v, active, it
        if prev is not None and np.array_equal(new_active, prev):
            # two-cycle: a single node hovers exactly on the obstacle;
            # either policy satisfies complementarity to roundoff
            return v, active, it
        prev = active
        active = new_active
    raise ConvergenceError("policy iteration did not converge", last_gap)


def _solve_linear(rho, off, c, g, active, dq, n) -> np.ndarray:
    """Solve with PDE rows on the active set and V = G elsewhere.

    The identity rows split the system into one tridiagonal block per run
    of active nodes; a neighbour's off * g term moves to the right-hand
    side.  Each block is factored once and the factor serves the first
    solve and both refinement solves.
    """
    # row i (interior): (rho + 2 off_i) v_i - off_i v_{i-1} - off_i v_{i+1} = -c_i
    v = g.copy()
    nodes = np.flatnonzero(active) + 1
    if nodes.size == 0:
        return v
    # runs of consecutive active nodes, as node ranges [lo, hi)
    breaks = np.flatnonzero(np.diff(nodes) > 1)
    los = nodes[np.r_[0, breaks + 1]]
    his = nodes[np.r_[breaks, -1]] + 1
    blocks = []
    for lo, hi in zip(los.tolist(), his.tolist()):
        o = off[lo - 1 : hi - 1]
        factor = _cr_factor(o, rho + 2.0 * o, o)
        rhs = -c[lo:hi]
        rhs[0] += o[0] * g[lo - 1]
        rhs[-1] += o[-1] * g[hi]
        v[lo:hi] = solve_banded(factor, rhs)
        blocks.append((lo, hi, factor))
    # iterative refinement: the raw solve's backward error
    # (~eps * ||A|| * ||v||, with ||A|| ~ a/dq^2) is too large for the
    # unscaled complementarity check downstream.  The residual is grouped
    # so the huge off-diagonal terms cancel exactly before any rounding.
    for _ in range(2):
        fwd = v[2:] - v[1:-1]
        bwd = v[:-2] - v[1:-1]
        r_act = -c[1:n] - rho * v[1:n] + off * (fwd + bwd)
        for lo, hi, factor in blocks:
            v[lo:hi] += solve_banded(factor, r_act[lo - 1 : hi - 1])
    return v


def _cr_factor(left, diag, right):
    """Odd-even cyclic reduction of a tridiagonal matrix.

    Row i is diag[i] x[i] - left[i] x[i-1] - right[i] x[i+1]; left[0] and
    right[-1] are ignored.  The m x m system is padded with identity rows
    to 2^p - 1 unknowns, so every level has odd length: eliminating its
    even unknowns leaves each odd row both neighbours, and 2k + 1 unknowns
    reduce to k.  Returns the two sizes, the per-level multipliers and the
    reciprocal of the final 1x1 pivot.  No pivoting: meant for strictly
    diagonally dominant matrices (an M-matrix has left, right >= 0), for
    which the reduction is stable.
    """
    m = len(diag)
    size = (1 << m.bit_length()) - 1
    p, b, q = np.zeros(size), np.ones(size), np.zeros(size)
    p[1:m] = left[1:]
    b[:m] = diag
    q[: m - 1] = right[:-1]
    levels = []
    while b.size > 1:
        inv = 1.0 / b[::2]
        pe, qe = p[::2], q[::2]
        alpha = p[1::2] * inv[:-1]  # odd row on its left neighbour
        gamma = q[1::2] * inv[1:]  # odd row on its right neighbour
        levels.append((inv, pe[1:] * inv[1:], qe[:-1] * inv[:-1], alpha, gamma))
        b = b[1::2] - alpha * qe[:-1] - gamma * pe[1:]
        p = alpha * pe[:-1]
        q = gamma * qe[1:]
    return m, size, levels, 1.0 / b[0]


def solve_banded(factor, rhs) -> np.ndarray:
    """Solve a system factored by `_cr_factor` for one right-hand side."""
    m, size, levels, inv_pivot = factor
    d = np.zeros(size)
    d[:m] = rhs
    evens = []
    for *_, alpha, gamma in levels:
        evens.append(d[::2])
        d = d[1::2] + alpha * d[:-1:2] + gamma * d[2::2]
    x = d * inv_pivot
    for (inv, left, right, _, _), d_even in zip(reversed(levels), reversed(evens)):
        full = np.empty(2 * x.size + 1)
        full[1::2] = x
        full[::2] = d_even * inv
        full[2::2] += left * x
        full[:-2:2] += right * x
        x = full
    return x[:m]


def extract_boundaries(sol: ViSolution) -> Tuple[float, float]:
    """Free boundaries from the contact set, the nodes where V - G is at
    most sol.contact_tol.

    Returns midpoints between the last contact node and first exploration
    node from below (q_lo) and symmetrically from above (q_hi).  Verifies
    that the contact set is two connected boundary intervals; an empty
    exploration region signals pure stopping with q_lo = q_hi at the
    obstacle kink.
    """
    qs = sol.grid.nodes
    free = (sol.values - sol.obstacle) > sol.contact_tol
    idx = np.flatnonzero(free)
    if idx.size == 0:
        # locate the kink from the obstacle itself
        kink = float(qs[_last_flat(sol.obstacle)])
        return kink, kink
    first, last = int(idx[0]), int(idx[-1])
    if not np.all(free[first : last + 1]):
        raise RuntimeError("exploration region is not connected; refine the grid")
    q_lo = 0.5 * (qs[first - 1] + qs[first]) if first > 0 else qs[0]
    q_hi = 0.5 * (qs[last] + qs[last + 1]) if last < len(qs) - 1 else qs[-1]
    return float(q_lo), float(q_hi)


def pde_residual(sol: ViSolution) -> Tuple[float, float]:
    """Recompute (sup-norm PDE residual on the exploration set,
    complementarity gap over all interior nodes) from scratch."""
    r_pde, vg = _residuals(sol)
    free = vg[1:-1] > sol.contact_tol
    sup = float(np.max(np.abs(r_pde[free]))) if free.any() else 0.0
    gap = float(np.max(np.abs(np.minimum(r_pde, vg[1:-1]))))
    return sup, gap
