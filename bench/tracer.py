"""Span and counter tracing of the stopflow layers, from outside the package.

`Tracer.install` replaces public names of the stopflow modules with
wrappers, in every module namespace that holds them (a name imported with
`from .model import cost_eval` lives in the importer's namespace too), and
`Tracer.uninstall` puts the originals back.  Entry points record a span
(name, layer, start, end, parent); the per-node and per-path scalars only
count calls, so that tracing does not swamp them.  Spans stay in memory;
`pass_metrics` turns one pass's spans and counts into per-layer metrics.

A name that a later version of the package no longer has is skipped and
reported in `absent`; the metrics that need it are left out, not failed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# (defining module, public name, layer).  solve_banded is scipy's, wrapped
# as fd_solver sees it; it gets a layer of its own so fd_solver.self_s
# excludes the banded solves.
SPANNED = (
    ("stopflow.cli", "main", "cli"),
    ("stopflow.sensitivity", "sweep", "sensitivity"),
    ("stopflow.sensitivity", "check_monotonicity", "sensitivity"),
    ("stopflow.sensitivity", "limit_diagnostics", "sensitivity"),
    ("stopflow.sensitivity", "figure4_dataset", "sensitivity"),
    ("stopflow.closed_form", "smooth_fit", "closed_form"),
    ("stopflow.closed_form", "smooth_fit_linear", "closed_form"),
    ("stopflow.closed_form", "smooth_fit_poisson", "closed_form"),
    ("stopflow.closed_form", "smooth_fit_gaussian", "closed_form"),
    ("stopflow.fd_solver", "solve_vi", "fd_solver"),
    ("stopflow.fd_solver", "extract_boundaries", "fd_solver"),
    ("stopflow.fd_solver", "pde_residual", "fd_solver"),
    ("stopflow.fd_solver", "solve_banded", "banded"),
    ("stopflow.obstacles", "ObstacleFn.on_grid", "obstacles"),
    ("stopflow.obstacles", "crossing_point", "obstacles"),
    ("stopflow.simulate", "mc_value_outer", "simulate"),
    ("stopflow.simulate", "mc_value_nested_poisson", "simulate"),
    ("stopflow.simulate", "mc_value_nested_gaussian", "simulate"),
    ("stopflow.simulate", "mc_value_composed", "simulate"),
    ("stopflow.simulate", "simulate_belief_path", "simulate"),
)

# scalars evaluated once per grid node or per path: counted per namespace
COUNTED = (
    ("stopflow.model", "cost_eval"),
    ("stopflow.obstacles", "obstacle_eval"),
    ("stopflow.closed_form", "basis_eval"),
)

LAYERS = ("cli", "sensitivity", "closed_form", "fd_solver", "banded", "obstacles", "simulate")

# metric -> wrapped names it needs; left out when one of them is absent
NEEDS = {
    "cli.self_s": ("main",),
    "sensitivity.self_s": ("sweep", "limit_diagnostics"),
    "sensitivity.rows": ("sweep", "limit_diagnostics"),
    "sensitivity.rows_failed": ("sweep", "limit_diagnostics"),
    "sensitivity.cf_fallbacks": ("limit_diagnostics", "solve_vi"),
    "closed_form.self_s": ("smooth_fit",),
    "closed_form.calls": ("smooth_fit",),
    "closed_form.errors": ("smooth_fit",),
    "closed_form.seed_solves": ("smooth_fit", "solve_vi"),
    "closed_form.seed_s": ("smooth_fit", "solve_vi"),
    "closed_form.basis_evals": ("basis_eval",),
    "fd_solver.self_s": ("solve_vi", "solve_banded"),
    "fd_solver.calls": ("solve_vi",),
    "fd_solver.sweeps": ("solve_vi", "ViSolution.iterations"),
    "fd_solver.banded_calls": ("solve_banded",),
    "fd_solver.banded_s": ("solve_banded",),
    "obstacles.self_s": ("ObstacleFn.on_grid",),
    "obstacles.on_grid_s": ("ObstacleFn.on_grid",),
    "obstacles.on_grid_nodes": ("ObstacleFn.on_grid",),
    "obstacles.scalar_evals": ("obstacle_eval",),
    "model.cost_evals": ("cost_eval",),
    "simulate.self_s": ("mc_value_outer", "mc_value_composed", "mc_value_nested_poisson"),
    "simulate.calls": ("mc_value_outer", "mc_value_composed", "mc_value_nested_poisson"),
    "simulate.paths": ("mc_value_outer", "mc_value_composed", "MCEstimate.n_paths"),
    "simulate.path_steps": ("mc_value_outer", "mc_value_composed"),
    "simulate.path_steps_per_s": ("mc_value_outer", "mc_value_composed"),
}


@dataclass(frozen=True)
class Span:
    trace: int
    id: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    ok: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts of the wrapped stopflow names, kept in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.absent = set()
        self._stack: List[Tuple[int, str]] = []  # open spans: (id, layer)
        self._next_id = 0
        self._trace = 0
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name; the package must already be imported."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "stopflow" or name.startswith("stopflow."))
        ]
        for home, name, layer in SPANNED:
            self._wrap(modules, home, name, lambda fn, ns, n=name, l=layer: self._span(fn, n, l))
        for home, name in COUNTED:
            self._wrap(modules, home, name, lambda fn, ns, n=name: self._count(fn, f"{n}@{ns}"))
        self._wrap_generator()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, modules, home, name, make) -> None:
        module = sys.modules.get(home)
        cls_name, _, attr = name.rpartition(".")
        owner = getattr(module, cls_name, None) if cls_name else module
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return
        if cls_name:
            # a method: patch it once, on its class
            self._patch(owner, attr, make(original, home))
            return
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, key, make(original, m.__name__))

    def _wrap_generator(self) -> None:
        """Count standard normals drawn through numpy's Generator, which the
        Euler loops draw once per live path per step."""
        import numpy as np

        tracer = self

        class CountingGenerator(np.random.Generator):
            def standard_normal(self, size=None, *args, **kwargs):
                tracer.counts["standard_normal"] += 1 if size is None else int(np.prod(size))
                return super().standard_normal(size, *args, **kwargs)

        self._patch(np.random, "Generator", CountingGenerator)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, layer):
        tracer = self
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                tracer._trace += 1  # a root span opens a new trace: one per command
            sid = tracer._next_id
            tracer._next_id += 1
            parent, parent_layer = tracer._stack[-1] if tracer._stack else (None, None)
            tracer._stack.append((sid, layer))
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(Span(tracer._trace, sid, parent, name, layer, start, end, ok))
            if on_result is not None:
                on_result(tracer, args, result, parent_layer != layer)
            return result

        return wrapper

    def _count(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add_field(self, key, obj, field) -> None:
        value = getattr(obj, field, None)
        if value is None:
            self.absent.add(f"{type(obj).__name__}.{field}")
        else:
            self.counts[key] += value

    # -- metrics ------------------------------------------------------------

    def take(self):
        """Hand over and clear the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def pass_metrics(self, spans: List[Span], counts: Counter, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced pass that took `wall_s` seconds."""
        by_id = {s.id: s for s in spans}
        child_s = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_s[s.parent] += s.duration
        self_s = defaultdict(float)
        for s in spans:
            self_s[s.layer] += s.duration - child_s[s.id]

        def ancestors(s):
            while s.parent is not None:
                s = by_id[s.parent]
                yield s

        def named(name):
            return [s for s in spans if s.name == name]

        # spans entering a layer from another one: the layer's calls
        entries = [
            s for s in spans
            if s.parent is None or by_id[s.parent].layer != s.layer
        ]
        seeds = [
            s for s in named("solve_vi")
            if any(a.layer == "closed_form" for a in ancestors(s))
        ]
        cf_entries = [s for s in entries if s.layer == "closed_form"]
        sim_entries = [s for s in entries if s.layer == "simulate"]
        path_steps = counts["standard_normal"]
        accounted = sum(self_s[layer] for layer in LAYERS)

        metrics = {
            "cli.self_s": self_s["cli"],
            "sensitivity.self_s": self_s["sensitivity"],
            "sensitivity.rows": counts["sensitivity.rows"],
            "sensitivity.rows_failed": counts["sensitivity.rows_failed"],
            # a limit-ladder rung where the closed form failed and FD stood in
            "sensitivity.cf_fallbacks": sum(
                1 for s in named("solve_vi")
                if s.parent is not None and by_id[s.parent].name == "limit_diagnostics"
            ),
            "closed_form.self_s": self_s["closed_form"],
            "closed_form.calls": len(cf_entries),
            "closed_form.errors": sum(1 for s in cf_entries if not s.ok),
            "closed_form.seed_solves": len(seeds),
            "closed_form.seed_s": sum(s.duration for s in seeds),
            "closed_form.basis_evals": _sum_keys(counts, "basis_eval@"),
            "fd_solver.self_s": self_s["fd_solver"],
            "fd_solver.calls": len(named("solve_vi")),
            "fd_solver.sweeps": counts["fd_solver.sweeps"],
            "fd_solver.banded_calls": len(named("solve_banded")),
            "fd_solver.banded_s": self_s["banded"],
            "obstacles.self_s": self_s["obstacles"],
            "obstacles.on_grid_s": sum(s.duration for s in named("ObstacleFn.on_grid")),
            "obstacles.on_grid_nodes": counts["obstacles.on_grid_nodes"],
            "obstacles.scalar_evals": counts["obstacle_eval@stopflow.simulate"],
            "model.cost_evals": _sum_keys(counts, "cost_eval@"),
            "simulate.self_s": self_s["simulate"],
            "simulate.calls": len(sim_entries),
            "simulate.paths": counts["simulate.paths"],
            "simulate.path_steps": path_steps,
            "simulate.path_steps_per_s": (
                path_steps / self_s["simulate"] if self_s["simulate"] > 0 else 0.0
            ),
            "trace.wall_s": wall_s,
            # share of the traced pass that the layer self times account for
            "trace.coverage": accounted / wall_s,
        }
        for metric, needs in NEEDS.items():
            if any(n in self.absent for n in needs):
                metrics.pop(metric)
        return metrics


def _sum_keys(counts: Counter, prefix: str) -> int:
    return sum(v for k, v in counts.items() if k.startswith(prefix))


# result hooks: (tracer, call arguments, result, whether the call entered
# its layer from another one)


def _rows(tracer: Tracer, args, result, entry) -> None:
    rows = getattr(result, "rows", ())
    tracer.counts["sensitivity.rows"] += len(rows)
    tracer.counts["sensitivity.rows_failed"] += sum(1 for r in rows if getattr(r, "failed", False))


def _on_grid(tracer: Tracer, args, result, entry) -> None:
    tracer.counts["obstacles.on_grid_nodes"] += len(args[1])


def _sweeps(tracer: Tracer, args, result, entry) -> None:
    tracer._add_field("fd_solver.sweeps", result, "iterations")


def _paths(tracer: Tracer, args, result, entry) -> None:
    if entry:
        tracer._add_field("simulate.paths", result, "n_paths")


_RESULT_HOOKS = {
    "sweep": _rows,
    "limit_diagnostics": _rows,
    "ObstacleFn.on_grid": _on_grid,
    "solve_vi": _sweeps,
    "mc_value_outer": _paths,
    "mc_value_nested_poisson": _paths,
    "mc_value_nested_gaussian": _paths,
    "mc_value_composed": _paths,
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("coverage"):
        return "ratio"
    return "count"
