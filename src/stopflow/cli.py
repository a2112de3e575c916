"""Command-line front end.

Commands: solve (value function + boundaries), sweep (parameter sweeps
with optional monotonicity/limit checks), mc (Monte Carlo validation
against solver oracles), figure4 (reversible-vs-irreversible boundary
dataset).  Configuration is a flat key-value file with dotted keys, e.g.

    model.rho = 1.0
    refined.type = gaussian
    refined.sigma_tilde = 1.0

All outputs are CSV with a header row.  Exit codes: 0 success, 2 config
error, 3 solver non-convergence, 4 failed property check, 5 failed Monte
Carlo validation.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
from dataclasses import astuple, dataclass, replace
from typing import Dict, List, Optional, Sequence, TextIO

import numpy as np

from .closed_form import SmoothFitError, eval_closed_form, smooth_fit
from .fd_solver import ConvergenceError, Grid, solve_vi
from .model import (
    ConstantCost,
    CostSpec,
    GaussianSignal,
    Irreversible,
    ModelParams,
    ParameterError,
    PoissonSignal,
    RefinedSignalSpec,
    StdDevVarianceCost,
    VarianceCost,
)
from .obstacles import ObstacleFn
from .sensitivity import (
    Instance,
    check_monotonicity,
    figure4_dataset,
    limit_diagnostics,
    sweep as run_sweep,
)
from .simulate import (
    SimConfig,
    mc_value_composed,
    mc_value_nested_gaussian,
    mc_value_nested_poisson,
    mc_value_outer,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_CHECK = 4
EXIT_MC = 5


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    cost: CostSpec
    refined: RefinedSignalSpec
    grid: Grid
    sim: SimConfig
    out_dir: str


def _bool(text: str) -> bool:
    value = text.lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(text)


# key -> (parser, default).  Within a section the keys follow the positional
# fields of the class they build: model.* -> ModelParams, cost.c_i -> the
# cost.type class, the refined keys -> the refined.type class (_REGIMES),
# grid.n -> Grid, sim.* -> SimConfig.
_KEYS = {
    "model.rho": (float, "1.0"),
    "model.sigma": (float, "5.0"),
    "model.h": (float, "9.0"),
    "model.l": (float, "1.0"),
    "model.mu": (float, "5.0"),
    "cost.type": (str, "constant"),
    "cost.c_i": (float, "1.0"),
    "refined.type": (str, "none"),
    "refined.lambda": (float, "2.0"),
    "refined.sigma_tilde": (float, "1.0"),
    "refined.r": (float, "1.0"),
    "grid.n": (int, "4000"),
    "sim.n_paths": (int, "100000"),
    "sim.dt": (float, "0.001"),
    "sim.t_max": (float, "20.0"),
    "sim.seed": (int, "12345"),
    "sim.antithetic": (_bool, "false"),
    "output.dir": (str, "."),
}
_DEFAULTS = {key: default for key, (_, default) in _KEYS.items()}
_KIND = {float: "a number", int: "an integer", _bool: "a boolean"}
_COMMENT = re.compile(r"(?:^|(?<=\s))#")
_MODEL_KEYS = tuple(k for k in _KEYS if k.startswith("model."))
_SIM_KEYS = tuple(k for k in _KEYS if k.startswith("sim."))

# cost.type -> cost class; each takes cost.c_i as its one parameter
_COST_TYPES = {
    "constant": ConstantCost,
    "variance": VarianceCost,
    "stddev": StdDevVarianceCost,
}

# refined.type -> (regime class, the keys of its fields)
_REGIMES = {
    "none": (Irreversible, ()),
    "poisson": (PoissonSignal, ("refined.lambda", "refined.r")),
    "gaussian": (GaussianSignal, ("refined.sigma_tilde", "refined.r")),
}


def parse_config_text(text: str) -> Dict[str, str]:
    """Flat `key = value` lines; a '#' that begins a line or follows
    whitespace starts a comment, so a value may contain '#'; unknown keys
    fail."""
    entries = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        entries[key] = value
    return entries


def _build(cls, entries: Dict[str, str], keys: Sequence[str], label: str = ""):
    """`cls` built from the parsed values of `keys`, in order; a rejected
    value is a ConfigError naming its key, a rejected instance one naming
    `label` (the keys, joined by '/', by default)."""
    args = []
    for key in keys:
        parse = _KEYS[key][0]
        try:
            args.append(parse(entries[key]))
        except ValueError:
            raise ConfigError(f"key {key!r}: not {_KIND[parse]}: {entries[key]!r}")
    try:
        return cls(*args)
    except ParameterError as exc:
        raise ConfigError(f"{label or '/'.join(keys)}: {exc}")


def build_config(entries: Dict[str, str]) -> RunConfig:
    params = _build(ModelParams, entries, _MODEL_KEYS)
    cost_type = entries["cost.type"]
    if cost_type not in _COST_TYPES:
        raise ConfigError(f"cost.type: unknown cost type {cost_type!r}")
    cost = _build(_COST_TYPES[cost_type], entries, ("cost.c_i",))
    ref_type = entries["refined.type"]
    if ref_type not in _REGIMES:
        raise ConfigError(f"refined.type: unknown regime {ref_type!r}")
    regime, ref_keys = _REGIMES[ref_type]
    refined = _build(regime, entries, ref_keys, "refined.*")
    grid = _build(Grid, entries, ("grid.n",))
    sim = _build(SimConfig, entries, _SIM_KEYS)
    env_seed = os.environ.get("STOPFLOW_SEED")
    if env_seed is not None:
        try:
            sim = replace(sim, seed=int(env_seed))
        except ValueError:
            raise ConfigError(f"STOPFLOW_SEED: not an integer: {env_seed!r}")
    return RunConfig(params, cost, refined, grid, sim, entries["output.dir"])


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def dump_config(cfg: RunConfig) -> str:
    """Render the effective configuration; re-parses to the same RunConfig."""
    cost_type = {cls: name for name, cls in _COST_TYPES.items()}[type(cfg.cost)]
    ref_type, ref_keys = {
        cls: (name, keys) for name, (cls, keys) in _REGIMES.items()
    }[type(cfg.refined)]
    pairs = [
        *zip(_MODEL_KEYS, astuple(cfg.params)),
        ("cost.type", cost_type),
        *zip(("cost.c_i",), astuple(cfg.cost)),
        ("refined.type", ref_type),
        *zip(ref_keys, astuple(cfg.refined)),
        ("grid.n", cfg.grid.n),
        *zip(_SIM_KEYS, astuple(cfg.sim)),
        ("output.dir", cfg.out_dir),
    ]
    return "".join(f"{key} = {_format(value)}\n" for key, value in pairs)


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return build_config(dict(_DEFAULTS))
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}")
    return build_config(parse_config_text(text))


def parse_values(spec: str) -> List[float]:
    """Comma list `1,2,3` or range `start:stop:step` (stop inclusive)."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--values: range needs start:stop:step, got {spec!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"--values: not numeric: {spec!r}")
        if step <= 0:
            raise ConfigError(f"--values: step must be positive, got {step}")
        # start + i*step, not a running sum, so no rounding accumulates
        limit = stop + 1e-12 * max(1.0, abs(stop))
        values = (start + i * step for i in itertools.count())
        return [min(x, stop) for x in itertools.takewhile(lambda x: x <= limit, values)]
    try:
        return [float(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"--values: not numeric: {spec!r}")


# rows per `%` operation in _write_csv.  One operation per file is a few
# percent faster, but holding the whole text of a 16001-row value.csv (with
# its flattened cells and encoded bytes, about 1.5 MB) raises peak memory.
_CSV_BLOCK = 256


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write the header and rows: a str cell as it is, a number to 8
    significant digits.  Each column keeps the cell type of the first row.
    Each block of _CSV_BLOCK rows is one `%` operation on its flattened
    cells."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            line = ",".join("%s" if isinstance(c, str) else "%.8g" for c in rows[0]) + "\n"
            for start in range(0, len(rows), _CSV_BLOCK):
                block = rows[start : start + _CSV_BLOCK]
                fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: RunConfig, method: str, out: TextIO) -> int:
    ob = ObstacleFn.create(cfg.params, cfg.refined)
    qs = cfg.grid.nodes
    boundary_rows = []
    fd_sol = None

    if method in ("fd", "both"):
        fd_sol = solve_vi(cfg.params, cfg.cost, ob, cfg.grid)
        boundary_rows.append(
            ("fd", fd_sol.q_lo, fd_sol.q_hi, fd_sol.complementarity_gap)
        )
    cf_sol = None
    if method in ("closed_form", "both"):
        if not isinstance(cfg.cost, ConstantCost):
            raise ConfigError("cost.type: closed form needs cost.type = constant")
        cf_sol = smooth_fit(cfg.params, cfg.cost.c_i, cfg.refined)
        boundary_rows.append(
            ("closed_form", cf_sol.q_lo, cf_sol.q_hi, cf_sol.residual_sup)
        )

    if fd_sol is not None:
        values, g = fd_sol.values, fd_sol.obstacle
        in_exp = ((values - g) > fd_sol.contact_tol).astype(int)
    else:
        values = eval_closed_form(cf_sol, ob, qs)
        in_exp = ((qs > cf_sol.q_lo) & (qs < cf_sol.q_hi)).astype(int)
        g = ob.on_grid(qs)

    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out_dir, "value.csv"),
        ("q", "value", "obstacle", "in_exploration"),
        list(zip(qs.tolist(), values.tolist(), g.tolist(), in_exp.tolist())),
    )
    _write_csv(
        os.path.join(cfg.out_dir, "boundaries.csv"),
        ("method", "q_lo", "q_hi", "residual"),
        boundary_rows,
    )
    print(f"wrote value.csv and boundaries.csv to {cfg.out_dir}", file=out)
    return EXIT_OK


_LIMIT_CHECKS = {
    "limit_rho": "rho",
    "limit_sigma": "sigma",
    "limit_c_i": "c_i",
    "limit_l_to_mu": "l_to_mu",
    "limit_h_to_inf": "h_to_inf",
    "limit_lambda": "lambda",
}

_PROP_CHECKS = {
    "prop_rho", "prop_sigma", "prop_cost", "prop_mu", "prop_cs",
    "prop_h_one_sided", "prop_l_one_sided",
}


def _limit_check_passed(table) -> bool:
    if table.which == "lambda":
        # endpoint limits of the nested threshold
        return table.rows[0].dist_lo < 1e-5 and table.rows[-1].dist_hi < 1e-5
    # every rung solved, the last three distances strictly decreasing and
    # the last one below 0.05
    last = table.rows[-1]
    return (
        not any(r.failed for r in table.rows)
        and table.decreasing_lo and table.decreasing_hi
        and last.dist_lo < 0.05 and last.dist_hi < 0.05
    )


def cmd_sweep(
    cfg: RunConfig, param: str, values: List[float], check: Optional[str],
    method: str, out: TextIO,
) -> int:
    base = Instance(cfg.params, cfg.cost, cfg.refined, cfg.grid)
    result = run_sweep(base, param, values, method=method)

    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out_dir, f"sweep_{param}.csv"),
        ("param", "q_lo", "q_hi", "width", "method", "residual"),
        [
            (r.value, r.q_lo, r.q_hi, r.width, r.method, r.residual)
            for r in result.rows
        ],
    )
    print(f"wrote sweep_{param}.csv to {cfg.out_dir}", file=out)
    if check is None:
        return EXIT_OK

    if check in _PROP_CHECKS:
        report = check_monotonicity(result, check)
        passed = report.passed
        detail = "" if passed else f" violations={report.violations}"
    elif check in _LIMIT_CHECKS:
        table = limit_diagnostics(base, _LIMIT_CHECKS[check])
        passed = _limit_check_passed(table)
        detail = ""
    else:
        raise ConfigError(f"--check: unknown check {check!r}")

    with open(os.path.join(cfg.out_dir, "monotonicity.txt"), "w") as fh:
        fh.write(f"{check}: {'PASS' if passed else 'FAIL'}{detail}\n")
    print(f"{check}: {'PASS' if passed else 'FAIL'}", file=out)
    return EXIT_OK if passed else EXIT_CHECK


def cmd_mc(cfg: RunConfig, target: str, q0s: List[float], out: TextIO) -> int:
    if target not in ("outer", "nested", "composed"):
        raise ConfigError(f"--target: unknown target {target!r}")
    if target in ("nested", "composed") and isinstance(cfg.refined, Irreversible):
        raise ConfigError(f"refined.type: {target} target needs poisson or gaussian")
    bad = [q0 for q0 in q0s if not 0.0 <= q0 <= 1.0]
    if bad:
        raise ConfigError(f"--q0: beliefs must lie in [0, 1], got {bad}")
    # before any solve: the nested stages read neither sim.dt nor sim.t_max
    cfg.sim.validate(None if target == "nested" else cfg.params.rho)

    rows = []
    worst = 0.0
    if target == "nested":
        ob = ObstacleFn.create(cfg.params, cfg.refined)
        for q0 in q0s:
            if isinstance(cfg.refined, PoissonSignal):
                est = mc_value_nested_poisson(
                    cfg.params, cfg.refined.lam, cfg.refined.r, q0, cfg.sim
                )
            else:
                est = mc_value_nested_gaussian(
                    cfg.params, cfg.refined.sigma_tilde, cfg.refined.r, q0, cfg.sim
                )
            oracle = ob.nested(q0)
            z = _z_score(est, oracle)
            worst = max(worst, abs(z))
            rows.append((q0, est.mean, est.std_err, oracle, z))
    else:
        ob = ObstacleFn.create(cfg.params, cfg.refined)
        sol = solve_vi(cfg.params, cfg.cost, ob, cfg.grid)
        for q0 in q0s:
            if target == "outer":
                est = mc_value_outer(
                    cfg.params, cfg.cost, ob, sol.q_lo, sol.q_hi, q0, cfg.sim
                )
            else:
                est = mc_value_composed(
                    cfg.params, cfg.cost, cfg.refined, sol.q_lo, sol.q_hi, q0, cfg.sim
                )
            oracle = float(np.interp(q0, sol.grid.nodes, sol.values))
            z = _z_score(est, oracle)
            worst = max(worst, abs(z))
            rows.append((q0, est.mean, est.std_err, oracle, z))

    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out_dir, "mc.csv"),
        ("q0", "mc_mean", "mc_stderr", "oracle_value", "z_score"),
        rows,
    )
    print(f"wrote mc.csv to {cfg.out_dir} (worst |z| = {worst:.3f})", file=out)
    return EXIT_OK if worst <= 3.0 else EXIT_MC


def _z_score(est, oracle: float) -> float:
    # allow for truncation bias before judging the deviation
    excess = max(0.0, abs(est.mean - oracle) - est.truncation_bound)
    if excess == 0.0:
        return 0.0
    if est.std_err == 0.0:
        return math.inf
    return math.copysign(excess / est.std_err, est.mean - oracle)


def cmd_figure4(cfg: RunConfig, out: TextIO) -> int:
    refined = cfg.refined
    if not isinstance(refined, GaussianSignal):
        refined = GaussianSignal(sigma_tilde=1.0, r=1.0)
    base = Instance(cfg.params, cfg.cost, refined, cfg.grid)
    reversible, reference = figure4_dataset(base)

    left, right = [], []
    for row, star in zip(reversible.rows, reference.rows):
        left.append((row.value, row.q_lo, row.q_hi, star.q_lo, star.q_hi))
        right.append((row.value, row.width, star.width))

    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(
        os.path.join(cfg.out_dir, "figure4_left.csv"),
        ("R", "q_lo", "q_hi", "q_lo_star", "q_hi_star"),
        left,
    )
    _write_csv(
        os.path.join(cfg.out_dir, "figure4_right.csv"),
        ("R", "width", "width_star"),
        right,
    )
    print(f"wrote figure4_left.csv and figure4_right.csv to {cfg.out_dir}", file=out)

    rows = [r for r in reversible.rows if not r.failed]
    slack = 2.0 * reversible.boundary_uncertainty()
    lo_ok = all(b.q_lo >= a.q_lo - slack for a, b in zip(rows, rows[1:]))
    hi_ok = all(b.q_hi >= a.q_hi - slack for a, b in zip(rows, rows[1:]))
    w_ok = all(b.width >= a.width - slack for a, b in zip(rows, rows[1:]))
    star = reference.rows[-1]
    conv_ok = (
        abs(rows[-1].q_lo - star.q_lo) < 0.01 and abs(rows[-1].q_hi - star.q_hi) < 0.01
    )
    if lo_ok and hi_ok and w_ok and conv_ok:
        return EXIT_OK
    print(
        f"figure4 property check failed: monotone_lo={lo_ok} monotone_hi={hi_ok} "
        f"monotone_width={w_ok} converged={conv_ok}",
        file=sys.stderr,
    )
    return EXIT_CHECK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopflow",
        description="Optimal-stopping solvers for product choice under costly learning",
    )
    parser.add_argument("--config", help="path to a flat key-value config file")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    parser.add_argument(
        "--dump-config", action="store_true",
        help="print the effective configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_solve = sub.add_parser("solve", help="value function and free boundaries")
    p_solve.add_argument(
        "--method", choices=("fd", "closed_form", "both"), default="fd"
    )

    p_sweep = sub.add_parser("sweep", help="parameter sweep with optional checks")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--check", help="proposition or limit check identifier")
    p_sweep.add_argument(
        "--method", choices=("fd", "closed_form"), default="closed_form"
    )

    p_mc = sub.add_parser("mc", help="Monte Carlo validation against oracles")
    p_mc.add_argument("--paths", type=int, help="override sim.n_paths")
    p_mc.add_argument("--seed", type=int, help="override sim.seed")
    p_mc.add_argument(
        "--target", choices=("outer", "nested", "composed"), default="outer"
    )
    p_mc.add_argument("--q0", default="0.3,0.5,0.7", help="comma list of beliefs")

    sub.add_parser("figure4", help="reversible vs irreversible boundary dataset")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout

    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if args.dump_config:
            out.write(dump_config(cfg))
            return EXIT_OK
        if args.command is None:
            parser.print_help(out)
            return EXIT_OK

        if args.command == "solve":
            return cmd_solve(cfg, args.method, out)
        if args.command == "sweep":
            values = parse_values(args.values)
            if not values:
                raise ConfigError("--values: empty value list")
            return cmd_sweep(cfg, args.param, values, args.check, args.method, out)
        if args.command == "mc":
            sim = cfg.sim
            if args.paths is not None:
                sim = replace(sim, n_paths=args.paths)
            if args.seed is not None:
                sim = replace(sim, seed=args.seed)
            cfg = replace(cfg, sim=sim)
            q0s = parse_values(args.q0)
            return cmd_mc(cfg, args.target, q0s, out)
        return cmd_figure4(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, SmoothFitError) as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
