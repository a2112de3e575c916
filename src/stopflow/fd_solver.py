"""Finite-difference solver for the outer variational inequality.

Discretizes  min(rho V - a(q) V'' + C(q), V - G) = 0  on a uniform grid
with a(q) = (1/2)((h-l)/sigma)^2 q^2 (1-q)^2 and central second
differences.  The degenerate coefficient vanishes at the endpoints, which
pins the boundary rows to the obstacle (q = 0, 1 are absorbing states).

The algorithm is policy iteration (Howard): each sweep solves a
tridiagonal system over the current continuation set and re-classifies
the nodes from one before it to one after it, so its work grows with the
region, not the grid (a residual pass over the finest grid checks the
other nodes); it terminates in finitely many sweeps on this monotone
scheme.
Rows off the continuation set are the identity (V = G), so each sweep
solves one block per run of continuation nodes, by odd-even cyclic
reduction in numpy; the block is an M-matrix and strictly diagonally
dominant, so the reduction needs no pivoting (Forsyth & Vetzal 2002).
The settled policy is the discrete free boundary: the boundaries are read
off its one run of continuation nodes, and the residuals are the same
diagonal-scaled branches the sweeps classify with.

A cold start advances the continuation set one node per side per sweep,
so the solve runs up a dyadic ladder of grids: n is halved while it stays
above _LADDER_FLOOR = 100 (4000 and 16000 both start at 125 nodes).  Only
the finest level and a level that starts cold settle their policy; any
other level takes one sweep from the coarser level's continuation set.

solve_vi is the only reader of the model: it evaluates a, C and G once, on
the finest grid, and hands the arrays to _solve_multilevel(rho, a, c, g),
which runs the ladder and the residual pass on arrays alone, so any
obstacle problem of this form can call it with its own a, C and G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import CostSpec, ModelParams, ParameterError, _check_sigma, cost_eval
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
    """The discrete obstacle problem solved on `grid` by solve_vi.

    values: V at the n + 1 nodes, clipped up to the obstacle.
    obstacle: the stopping payoff G at the nodes.
    q_lo, q_hi: the free boundaries, the midpoints between the last
        contact node and the first active node, and between the last
        active node and the next contact node.  Both are the obstacle
        kink when `active` is empty; require_region rejects that.
    pde_residual_sup: the largest |PDE row| on the active set, each row
        divided by its diagonal rho + 2 a/dq^2, in value units.
    complementarity_gap: the largest |min(scaled PDE row, V - G)| over
        the interior nodes, in value units: roundoff once settled.
    iterations: policy-iteration sweeps, summed over the ladder levels.
    active: the settled policy, one bool per interior node 1..n-1: True
        where the node takes the PDE row (explores), False on contact.
    """

    grid: Grid
    values: np.ndarray
    obstacle: np.ndarray
    q_lo: Optional[float]
    q_hi: Optional[float]
    pde_residual_sup: float
    complementarity_gap: float
    iterations: int
    active: np.ndarray


def _second_difference(v: np.ndarray, dq: float) -> np.ndarray:
    # nested differences: adjacent node values are close, so the inner
    # subtractions are exact and the cancellation error of the naive
    # three-term form (~ulp(v)/dq^2) is avoided
    fwd = v[2:] - v[1:-1]
    bwd = v[1:-1] - v[:-2]
    return (fwd - bwd) / dq**2


def _branches(rho, a, c, g, v, dq) -> Tuple[np.ndarray, np.ndarray]:
    """The two branches of min(rho V - a V'' + C, V - G) at the interior
    nodes: the PDE row scaled by its diagonal rho + 2a/dq^2, so that both
    are in value units, and V - G."""
    n = len(v) - 1
    diag = rho + 2.0 * (a[1:n] / dq**2)
    r_pde = (rho * v[1:n] - a[1:n] * _second_difference(v, dq) + c[1:n]) / diag
    return r_pde, v[1:n] - g[1:n]


def solve_vi(
    params: ModelParams,
    cost: CostSpec,
    ob: ObstacleFn,
    grid: Grid = Grid(),
) -> ViSolution:
    """Solve the discrete obstacle problem and read the free boundaries
    and residuals off the settled policy.

    The diffusion a, the cost C and the obstacle G are evaluated here,
    once, on the grid's nodes; _solve_multilevel solves with those arrays
    alone and returns the settled values, policy, branches and sweeps.
    Discrete complementarity at every interior node: either the scaled
    PDE branch vanishes and V >= G, or V = G and the branch is >= 0, both
    to roundoff.  pde_residual_sup is the largest |scaled PDE branch| on
    the active set, complementarity_gap the largest |min(branches)|.
    """
    _check_sigma(params)
    qs = grid.nodes
    a = 0.5 * (params.spread / params.sigma) ** 2 * qs**2 * (1.0 - qs) ** 2
    c = cost_eval(cost, params, qs)
    g = ob.on_grid(qs)
    v, active, r_pde, vg, iters = _solve_multilevel(params.rho, a, c, g)
    sol = ViSolution(
        grid=grid, values=v, obstacle=g, q_lo=None, q_hi=None,
        pde_residual_sup=float(np.max(np.abs(r_pde[active]), initial=0.0)),
        complementarity_gap=float(np.max(np.abs(np.minimum(r_pde, vg)))),
        iterations=iters, active=active,
    )
    sol.q_lo, sol.q_hi = extract_boundaries(sol)
    return sol


def _solve_multilevel(rho, a, c, g):
    """Policy iteration with a coarse-to-fine warm start, on arrays alone.

    a, c and g are the diffusion, cost and obstacle at the n + 1 nodes i/n
    of the finest grid, n = len(g) - 1.  Returns (values clipped up to g,
    settled active set, scaled PDE branch, V - G, total sweeps), the
    branches at the interior nodes as `_branches` gives them.

    The exploration set only advances one node per sweep from a poor
    initial guess, so a cold start on a fine grid needs O(n) sweeps.
    Solving on a dyadically coarsened ladder first and seeding each
    finer level's active set from the coarser one keeps the whole solve
    to a handful of sweeps.  Level m takes every (n / m)-th node of the
    arrays.  n / m is a power of two, so linspace's node i of level m,
    i (1/m) rounded once, is the same double as its node i n / m of the
    finest grid, and the views equal a fresh evaluation on the level's
    own nodes.

    The ladder halves n while it is even and above _LADDER_FLOOR = 100,
    so it starts at the first size that is odd or at most 100 (125 for
    both 4000 and 16000).  The coarsest level is a cold start from the
    3-node kink seed and settles; its sweeps grow with the region's width
    in nodes: the benchmark regions (0.04 to 0.10 wide in q) span 4 to 12
    nodes at n = 125 and take 2 to 6 sweeps (9 to 25 from n = 500).
    Policy iteration settles on the same policy from any seed, so a level
    that only seeds the next takes one sweep from the coarser policy,
    padded one cell, and passes on the classification it gives; settling
    it, or padding two cells, costs more sweeps in all.  The finest level
    settles, in 1 or 2 sweeps on the benchmark instance.  A coarser start
    gains little more, because a level whose grid cannot resolve the
    region comes out empty, and the next level starts cold again.

    The residual pass then checks the nodes the sweeps leave on contact
    (all but the active run's window); policy iteration goes on from any
    that explore.
    """
    n_fine = len(g) - 1
    sizes = [n_fine]
    while sizes[-1] > _LADDER_FLOOR and sizes[-1] % 2 == 0:
        sizes.append(sizes[-1] // 2)
    sizes.reverse()

    active = None
    total = 0
    for n in sizes:
        nodes = slice(None, None, n_fine // n)
        a_n, c_n, g_n = a[nodes], c[nodes], g[nodes]
        cold = active is None or not active.any()
        seed = _kink_seed(g_n, n) if cold else _prolong_active(active, n // 2)
        dq = 1.0 / n
        if cold or n == n_fine:
            # a cold start advances one node per sweep, so 2n + 100 bounds it
            v, active, iters = _solve_policy(rho, a_n, c_n, g_n, dq, seed, 2 * n + 100)
        else:  # a warm coarse level only seeds the next: one policy step
            v, active = _sweep(rho, a_n, a_n[1:n] / dq**2, c_n, g_n, dq, seed)
            iters = 1
        total += iters

    while True:  # on the finest level: n = n_fine, dq = 1 / n_fine
        # contact nodes sit exactly on the obstacle; clip roundoff below it
        v = np.maximum(v, g)
        r_pde, vg = _branches(rho, a, c, g, v, dq)
        stray = r_pde <= vg
        stray[_window(active)] = False  # the last sweep classified these
        if not stray.any():
            return v, active, r_pde, vg, total
        v, active, more = _solve_policy(rho, a, c, g, dq, active | stray, 2 * n_fine + 100)
        total += more


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
    one cell: coarse nodes p..q become fine nodes 2p-1..2q+1."""
    fine = np.zeros(2 * n - 1, dtype=bool)
    idx = np.flatnonzero(active)
    lo = 2 * (int(idx[0]) + 1)  # coarse node -> fine node number
    hi = 2 * (int(idx[-1]) + 1)
    fine[lo - 2 : hi + 1] = True  # interior index = node number - 1
    return fine


def _solve_policy(
    rho, a, c, g, dq, active, max_iter
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Policy iteration from `active`: (values, settled active set, sweeps).

    Each sweep solves the current policy and gives each node of its window
    the smaller (more violated) branch of `_branches`.  The policy has
    settled when that leaves it unchanged, or in a two-cycle, where a
    single node hovers exactly on the obstacle and either policy satisfies
    complementarity to roundoff.
    """
    off = a[1 : len(g) - 1] / dq**2
    prev = None
    for it in range(1, max_iter + 1):
        v, new_active = _sweep(rho, a, off, c, g, dq, active)
        if np.array_equal(new_active, active) or (
            prev is not None and np.array_equal(new_active, prev)
        ):
            return v, active, it
        prev, active = active, new_active
    r_pde, vg = _branches(rho, a, c, g, v, dq)
    last_gap = float(np.max(np.abs(np.minimum(r_pde, vg))))
    raise ConvergenceError("policy iteration did not converge", last_gap)


def _sweep(rho, a, off, c, g, dq, active) -> Tuple[np.ndarray, np.ndarray]:
    """One policy step, off = a / dq^2 at the interior nodes: the values
    of policy `active` and the new policy, each node of _window(active) on
    its smaller branch and every other node on contact."""
    v = _solve_linear(rho, off, c, g, active)
    w = _window(active)
    nodes = slice(w.start, w.stop + 2)  # the window's stencil
    r_pde, vg = _branches(rho, a[nodes], c[nodes], g[nodes], v[nodes], dq)
    new_active = np.zeros_like(active)
    new_active[w] = r_pde <= vg
    return v, new_active


def _window(active) -> slice:
    """Interior indices from one before the first active node to one after
    the last; the whole level when `active` is empty."""
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return slice(0, active.size)
    return slice(max(int(idx[0]) - 1, 0), min(int(idx[-1]) + 2, active.size))


def _solve_linear(rho, off, c, g, active) -> np.ndarray:
    """Solve with PDE rows on the active set and V = G elsewhere.

    The identity rows split the system into one tridiagonal block per run
    of active nodes; a neighbour's off * g term moves to the right-hand
    side.
    """
    # row i (interior): (rho + 2 off_i) v_i - off_i v_{i-1} - off_i v_{i+1} = -c_i
    v = g.copy()
    # runs of active nodes: their edges alternate start, end (node number)
    pad = np.concatenate(([False], active, [False]))
    edges = np.flatnonzero(pad[1:] != pad[:-1]) + 1
    for lo, hi in zip(edges[::2].tolist(), edges[1::2].tolist()):
        o = off[lo - 1 : hi - 1]
        rhs = -c[lo:hi]
        rhs[0] += o[0] * g[lo - 1]
        rhs[-1] += o[-1] * g[hi]
        v[lo:hi] = solve_banded(o, rho + 2.0 * o, o, rhs)
    return v


def solve_banded(left, diag, right, rhs) -> np.ndarray:
    """Solve a tridiagonal system by odd-even cyclic reduction.

    Row i is diag[i] x[i] - left[i] x[i-1] - right[i] x[i+1]; left[0] and
    right[-1] are ignored.  The m x m system is padded with identity rows
    to 2^p - 1 unknowns, so every level has odd length: eliminating its
    even unknowns leaves each odd row both neighbours, and 2k + 1 unknowns
    reduce to k.  No pivoting: meant for strictly diagonally dominant
    matrices (an M-matrix has left, right >= 0), for which the reduction
    is stable.
    """
    m = len(diag)
    size = (1 << m.bit_length()) - 1
    p, b, q, d = np.zeros(size), np.ones(size), np.zeros(size), np.zeros(size)
    p[1:m] = left[1:]
    b[:m] = diag
    q[: m - 1] = right[:-1]
    d[:m] = rhs
    levels = []
    while b.size > 1:
        inv = 1.0 / b[::2]
        pe, qe = p[::2], q[::2]
        alpha = p[1::2] * inv[:-1]  # odd row on its left neighbour
        gamma = q[1::2] * inv[1:]  # odd row on its right neighbour
        levels.append((inv, pe[1:] * inv[1:], qe[:-1] * inv[:-1], d[::2]))
        b = b[1::2] - alpha * qe[:-1] - gamma * pe[1:]
        p = alpha * pe[:-1]
        q = gamma * qe[1:]
        d = d[1::2] + alpha * d[:-1:2] + gamma * d[2::2]
    x = d * (1.0 / b[0])
    for inv, lo_w, hi_w, d_even in reversed(levels):
        full = np.empty(2 * x.size + 1)
        full[1::2] = x
        full[::2] = d_even * inv
        full[2::2] += lo_w * x
        full[:-2:2] += hi_w * x
        x = full
    return x[:m]


def require_region(sol: ViSolution) -> ViSolution:
    """sol, if its settled policy explores at some node.

    An empty active set is under-resolution, not an answer: the region is
    narrower than one grid cell, and sol's boundaries are both the kink.
    """
    if not sol.active.any():
        raise ParameterError(f"exploration region narrower than the grid (n = {sol.grid.n})")
    return sol


def extract_boundaries(sol: ViSolution) -> Tuple[float, float]:
    """Free boundaries from the settled policy, sol.active.

    Returns the midpoints between the last contact node and the first
    active node (q_lo) and between the last active node and the next
    contact node (q_hi).  Verifies that the active set is one run, so
    that the contact set is two boundary intervals.  An empty active set
    means a region narrower than one cell: both boundaries are then the
    obstacle kink, which require_region rejects.
    """
    qs = sol.grid.nodes
    idx = np.flatnonzero(sol.active) + 1  # interior index -> node number
    if idx.size == 0:
        # locate the kink from the obstacle itself
        kink = float(qs[_last_flat(sol.obstacle)])
        return kink, kink
    first, last = int(idx[0]), int(idx[-1])
    if last - first + 1 != idx.size:
        raise RuntimeError("exploration region is not connected; refine the grid")
    q_lo = 0.5 * (qs[first - 1] + qs[first])
    q_hi = 0.5 * (qs[last] + qs[last + 1])
    return float(q_lo), float(q_hi)
