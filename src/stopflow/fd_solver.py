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
reduction in numpy until a level has at most _CR_FLOOR = 31 unknowns, and
Thomas elimination on Python floats for that level; the block is an
M-matrix and strictly diagonally dominant, so neither needs pivoting
(Forsyth & Vetzal 2002).
The settled policy is the discrete free boundary: the boundaries are read
off its one run of continuation nodes, and the residuals are the same
diagonal-scaled branches the sweeps classify with.

A cold start advances the continuation set one node per side per sweep,
so the solve runs up a ladder of strided views of the finest grid, for
every grid.n: level k takes every 2^k-th node, from the first stride
that leaves at most _LADDER_FLOOR = 100 intervals down to the finest
grid.  Each level starts from the coarser level's continuation set, and
the coarsest, or one after an empty set, from the empty policy, whose
first sweep classifies the whole level.  The coarsest and the finest
level settle their policy; each level in between takes one sweep.

solve_vi is the only reader of the model: it evaluates a, C and G once, on
the finest grid, and hands the arrays to _solve_multilevel(rho, a, c, g),
which runs the ladder and the residual pass on arrays alone, so any
obstacle problem of this form can call it with its own a, C and G.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import CostSpec, ParameterError, _check_count, _check_sigma, cost_eval
from .obstacles import ObstacleFn

# the ladder's coarsest level has at most this many intervals; see _solve_multilevel
_LADDER_FLOOR = 100
# solve_banded reduces a block only until a level has at most this many
# unknowns, and _thomas solves that level: a reduction level costs about 15
# numpy calls whatever its size.  Replaying the 61 block solves of one
# solve-grid pass (sizes 1 to 1657; Intel Xeon, Python 3.11, numpy 2) took
# 4.1 ms with no floor, 2.8 ms at 7, 2.4 ms at 15, 2.1 ms at 31, 1.9 ms at
# 63 and 2.1 ms at 127; one block of 31 unknowns, 54 us by full reduction,
# takes 13 us
_CR_FLOOR = 31


@dataclass(frozen=True)
class Grid:
    """Uniform grid with nodes i/n, i = 0..n."""

    n: int = 4000

    def __post_init__(self):
        _check_count(self, "n")
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
        active node and the next contact node.
    complementarity_gap: the largest |min(scaled PDE row, V - G)| over
        the interior nodes, in value units: roundoff once settled.
    iterations: policy-iteration sweeps, summed over the ladder levels.
    active: the settled policy, one bool per interior node 1..n-1: True
        where the node takes the PDE row (explores), False on contact.
    """

    grid: Grid
    values: np.ndarray
    obstacle: np.ndarray
    q_lo: float
    q_hi: float
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


def solve_vi(cost: CostSpec, ob: ObstacleFn, grid: Grid = Grid()) -> ViSolution:
    """Solve the discrete obstacle problem of ob's parameters and read the
    free boundaries and residuals off the settled policy.

    The diffusion a, the cost C and the obstacle G are evaluated here,
    once, on the grid's nodes; _solve_multilevel solves with those arrays
    alone and returns the settled values, policy, branches and sweeps.
    Discrete complementarity at every interior node: either the scaled
    PDE branch vanishes and V >= G, or V = G and the branch is >= 0, both
    to roundoff.  complementarity_gap is the largest |min(branches)|.

    An empty settled policy is under-resolution, not an answer: the region
    is narrower than one grid cell, and solve_vi raises ParameterError.
    """
    params = ob.params
    _check_sigma(params)
    qs = grid.nodes
    a = 0.5 * (params.spread / params.sigma) ** 2 * qs**2 * (1.0 - qs) ** 2
    c = cost_eval(cost, params, qs)
    g = ob.on_grid(qs)
    v, active, r_pde, vg, iters = _solve_multilevel(params.rho, a, c, g)
    if not active.any():
        raise ParameterError(f"exploration region narrower than the grid (n = {grid.n})")
    q_lo, q_hi = extract_boundaries(qs, active)
    return ViSolution(
        grid=grid, values=v, obstacle=g, q_lo=q_lo, q_hi=q_hi,
        complementarity_gap=float(np.max(np.abs(np.minimum(r_pde, vg)))),
        iterations=iters, active=active,
    )


def _solve_multilevel(rho, a, c, g):
    """Policy iteration with a coarse-to-fine warm start, on arrays alone.

    a, c and g are the diffusion, cost and obstacle at the n + 1 nodes i/n
    of the finest grid, n = len(g) - 1.  Returns (values clipped up to g,
    settled active set, scaled PDE branch, V - G, total sweeps), the
    branches at the interior nodes as `_branches` gives them.

    The exploration set only advances one node per sweep from a poor
    initial guess, so a cold start on a fine grid needs O(n) sweeps.
    Level k of the ladder is the stride view a[::2^k], c[::2^k], g[::2^k],
    with dq = 2^k / n, and the ladder runs from the first stride that
    leaves at most _LADDER_FLOOR = 100 intervals down to k = 0, for any
    n.  When 2^k divides n, linspace's node i of the level's own grid,
    i (2^k / n) rounded once, is the same double as node i 2^k of the
    finest grid, so the view equals a fresh evaluation there.  When it
    does not, the level ends at a node below q = 1, held at G like
    q = 1.  That shifts the level's policy at most near its end, and a
    policy below the finest level is only a seed: the finest level
    settles, policy iteration settles on the same policy from any seed,
    and the residual pass checks every node.

    Every level starts from the coarser level's policy, padded one cell
    by _prolong_active; the coarsest level, and any level after one that
    came out empty, starts from the empty policy.  A sweep from the empty
    policy solves V = G and classifies the whole level, so it finds the
    region wherever the obstacle puts it.  The coarsest level settles.
    One sweep moves a run at most one node per side, so an unsettled run
    would carry the cold start's O(n) sweeps up to the finest grid; at
    100 intervals or fewer, settling costs a few sweeps of a few nodes.
    Each level in between takes one sweep and passes on the
    classification it gives; settling it, or padding two cells, costs
    more sweeps in all.  The finest level settles, in 1 or 2 sweeps on
    the benchmark instance.

    The residual pass then checks the nodes the sweeps leave on contact
    (all but the active run's window); policy iteration goes on from any
    that explore.
    """
    n = len(g) - 1
    top = (n // (_LADDER_FLOOR + 1)).bit_length()  # least k with n >> k <= floor
    active = np.zeros(0, dtype=bool)
    total = 0
    for k in range(top, -1, -1):
        a_k, c_k, g_k = a[:: 1 << k], c[:: 1 << k], g[:: 1 << k]
        m, dq = len(g_k) - 1, (1 << k) / n
        seed = _prolong_active(active, m)
        if k in (top, 0):
            # a cold start advances one node per sweep, so 2m + 100 bounds it
            v, active, iters = _solve_policy(rho, a_k, c_k, g_k, dq, seed, 2 * m + 100)
        else:  # a level in between only seeds the next: one policy step
            v, active = _sweep(rho, a_k, a_k[1:m] / dq**2, c_k, g_k, dq, seed)
            iters = 1
        total += iters

    while True:  # on the finest level: k = 0, dq = 1 / n
        # contact nodes sit exactly on the obstacle; clip roundoff below it
        v = np.maximum(v, g)
        r_pde, vg = _branches(rho, a, c, g, v, dq)
        stray = r_pde <= vg
        stray[_window(active)] = False  # the last sweep classified these
        if not stray.any():
            return v, active, r_pde, vg, total
        v, active, more = _solve_policy(rho, a, c, g, dq, active | stray, 2 * n + 100)
        total += more


def _prolong_active(active, n) -> np.ndarray:
    """Map a coarse active set to the next finer level, of n intervals,
    padded one cell: coarse nodes p..q become fine nodes 2p-1..2q+1, and
    an empty set stays empty."""
    fine = np.zeros(n - 1, dtype=bool)
    idx = np.flatnonzero(active)
    if idx.size:
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
    """Solve a tridiagonal system by odd-even cyclic reduction, finished
    by Thomas elimination once a level has at most _CR_FLOOR unknowns.

    Row i is diag[i] x[i] - left[i] x[i-1] - right[i] x[i+1]; left[0] and
    right[-1] are ignored.  The m x m system is padded with identity rows
    to 2^p - 1 unknowns, so every level has odd length: eliminating its
    even unknowns leaves each odd row both neighbours, and 2k + 1 unknowns
    reduce to k.  The reduction stops at the first level of at most
    _CR_FLOOR unknowns, so a block that small runs no level at all;
    _thomas solves that level on Python floats, and the stored levels
    back-substitute.  No pivoting in either: meant for strictly diagonally
    dominant matrices (an M-matrix has left, right >= 0), for which both
    are stable.
    """
    m = len(diag)
    size = (1 << m.bit_length()) - 1
    p, b, q, d = np.zeros(size), np.ones(size), np.zeros(size), np.zeros(size)
    p[1:m] = left[1:]
    b[:m] = diag
    q[: m - 1] = right[:-1]
    d[:m] = rhs
    levels = []
    while b.size > _CR_FLOOR:
        inv = 1.0 / b[::2]
        pe, qe = p[::2], q[::2]
        alpha = p[1::2] * inv[:-1]  # odd row on its left neighbour
        gamma = q[1::2] * inv[1:]  # odd row on its right neighbour
        levels.append((inv, pe[1:] * inv[1:], qe[:-1] * inv[:-1], d[::2]))
        b = b[1::2] - alpha * qe[:-1] - gamma * pe[1:]
        p = alpha * pe[:-1]
        q = gamma * qe[1:]
        d = d[1::2] + alpha * d[:-1:2] + gamma * d[2::2]
    x = np.array(_thomas(p.tolist(), b.tolist(), q.tolist(), d.tolist()))
    for inv, lo_w, hi_w, d_even in reversed(levels):
        full = np.empty(2 * x.size + 1)
        full[1::2] = x
        full[::2] = d_even * inv
        full[2::2] += lo_w * x
        full[:-2:2] += hi_w * x
        x = full
    return x[:m]


def _thomas(p, b, q, d) -> list:
    """Thomas elimination of the rows b[i] x[i] - p[i] x[i-1] - q[i] x[i+1]
    = d[i], on lists of Python floats; p[0] and q[-1] are ignored."""
    c = y = 0.0
    cs, ys = [], []
    for pi, bi, qi, di in zip(p, b, q, d):
        den = bi - pi * c
        c = qi / den
        y = (di + pi * y) / den
        cs.append(c)
        ys.append(y)
    x = [y]
    for ci, yi in zip(reversed(cs[:-1]), reversed(ys[:-1])):
        y = yi + ci * y
        x.append(y)
    x.reverse()
    return x


def extract_boundaries(qs: np.ndarray, active: np.ndarray) -> Tuple[float, float]:
    """Free boundaries from a settled, non-empty policy `active` on the
    nodes qs.

    Returns the midpoints between the last contact node and the first
    active node (q_lo) and between the last active node and the next
    contact node (q_hi).  Verifies that the active set is one run, so
    that the contact set is two boundary intervals.
    """
    idx = np.flatnonzero(active) + 1  # interior index -> node number
    first, last = int(idx[0]), int(idx[-1])
    if last - first + 1 != idx.size:
        raise RuntimeError("exploration region is not connected; refine the grid")
    q_lo = 0.5 * (qs[first - 1] + qs[first])
    q_hi = 0.5 * (qs[last] + qs[last + 1])
    return float(q_lo), float(q_hi)
