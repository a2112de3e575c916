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
import contextlib
import functools
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
    _check_belief,
)
from .obstacles import ObstacleFn, obstacle_eval
from .sensitivity import (
    CLAIMS,
    LIMITS,
    Instance,
    check_monotonicity,
    claim_directions,
    figure4_dataset,
    limit_diagnostics,
    limit_ladder,
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
    """The effective configuration of one command: the model.* keys
    (params), cost.* (cost), refined.* (refined), grid.n (grid), sim.*
    (sim), and output.dir (out_dir), the directory the CSVs go to."""

    params: ModelParams
    cost: CostSpec
    refined: RefinedSignalSpec
    grid: Grid
    sim: SimConfig
    out_dir: str


def _finite(text: str) -> float:
    """float(text), with nan and +-inf refused as float refuses other text:
    every number a config key or an option holds must be finite."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


# key -> (parser, default).  Within a section the keys follow the positional
# fields of the class they build: model.* -> ModelParams, cost.c_i -> the
# cost.type class, the refined keys -> the refined.type class (_REGIMES),
# grid.n -> Grid, sim.* -> SimConfig.  The grid.n and sim.* defaults are
# read from Grid and SimConfig, which own them.
_KEYS = {
    "model.rho": (_finite, "1.0"),
    "model.sigma": (_finite, "5.0"),
    "model.h": (_finite, "9.0"),
    "model.l": (_finite, "1.0"),
    "model.mu": (_finite, "5.0"),
    "cost.type": (str, "constant"),
    "cost.c_i": (_finite, "1.0"),
    "refined.type": (str, "none"),
    "refined.lambda": (_finite, "2.0"),
    "refined.sigma_tilde": (_finite, "1.0"),
    "refined.r": (_finite, "1.0"),
    "grid.n": (int, str(Grid().n)),
    "sim.n_paths": (int, str(SimConfig().n_paths)),
    "sim.dt": (_finite, repr(SimConfig().dt)),
    "sim.seed": (int, str(SimConfig().seed)),
    "output.dir": (str, "."),
}
_DEFAULTS = {key: default for key, (_, default) in _KEYS.items()}
_KIND = {_finite: "a finite number", int: "an integer"}
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
    return RunConfig(params, cost, refined, grid, sim, entries["output.dir"])


def _format(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def dump_config(cfg: RunConfig) -> str:
    """Render the effective configuration; re-parses to the same RunConfig.
    Values are written bare, so an output.dir that would re-parse as
    another value (after a '#', edge spaces, a line break) is refused."""
    cost_type = {cls: name for name, cls in _COST_TYPES.items()}[type(cfg.cost)]
    ref_type, ref_keys = {
        cls: (name, keys) for name, (cls, keys) in _REGIMES.items()
    }[type(cfg.refined)]
    pairs = [
        *zip(_MODEL_KEYS, astuple(cfg.params)),
        ("cost.type", cost_type),
        ("cost.c_i", cfg.cost.c_i),
        ("refined.type", ref_type),
        *zip(ref_keys, astuple(cfg.refined)),
        ("grid.n", cfg.grid.n),
        *zip(_SIM_KEYS, astuple(cfg.sim)),
        ("output.dir", cfg.out_dir),
    ]
    text = "".join(f"{key} = {_format(value)}\n" for key, value in pairs)
    try:
        same = parse_config_text(text)["output.dir"] == cfg.out_dir
    except ConfigError:
        same = False
    if not same:
        raise ConfigError(f"output.dir: {cfg.out_dir!r} would not re-parse from the dump")
    return text


def _read_config(path: Optional[str]) -> Dict[str, str]:
    """The entries of the config file at `path`; the defaults for None."""
    if path is None:
        return dict(_DEFAULTS)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}")
    return parse_config_text(text)


def load_config(path: Optional[str]) -> RunConfig:
    return build_config(_read_config(path))


# the most values a --values or --q0 list may hold; each is a solve or an
# MC estimate, and a range is counted no further than this before it is
# refused, so a tiny step cannot exhaust memory
MAX_VALUES = 10_000


def parse_values(spec: str, flag: str) -> List[float]:
    """Comma list `1,2,3` or range `start:stop:step` (stop inclusive), the
    value of option `flag`; an empty list, or one of more than MAX_VALUES
    values, is a config error."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{flag}: range needs start:stop:step, got {spec!r}")
        try:
            start, stop, step = (_finite(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{flag}: not a finite number: {spec!r}")
        if step <= 0:
            raise ConfigError(f"{flag}: step must be positive, got {step}")
        # start + i*step, not a running sum, so no rounding accumulates
        limit = stop + 1e-12 * max(1.0, abs(stop))
        steps = (start + i * step for i in range(MAX_VALUES + 1))
        values = [min(x, stop) for x in itertools.takewhile(lambda x: x <= limit, steps)]
    else:
        try:
            values = [_finite(p) for p in spec.split(",") if p.strip()]
        except ValueError:
            raise ConfigError(f"{flag}: not a finite number: {spec!r}")
    if not values:
        raise ConfigError(f"{flag}: empty value list")
    if len(values) > MAX_VALUES:
        raise ConfigError(f"{flag}: more than {MAX_VALUES} values in {spec!r}")
    return values


# ---------------------------------------------------------------------------
# CSV writing: every number is the text of '%.8g' % x.  A file with a str
# column is written by `%` itself; the kernel below writes the rest

# bytes per number row: '-0.000', 2 unused, its 8 mantissa digits each
# followed by '.', and its column's separator in place of the last '.'
_ROW = 24
_CSV_BLOCK = 4096  # cells per _format_numbers call

# |x| falls in bucket 0 when 0, 1 when below 1e-4, e + 6 in the decade
# [10^e, 10^(e+1)) for e = -4 ... 6, and 13 from 1e7 on: the count of
# _BOUNDS at or below it.  Bucket b scales by 10^(13-b), exact doubles, to
# 8 digits before the point
_BOUNDS = np.array([5e-324] + [float(f"1e{e}") for e in range(-4, 8)])
_SCALES = np.array([1.0, 1e11] + [float(10 ** (13 - b)) for b in range(2, 14)])


def _octave_tables():
    """Per biased binary exponent E (the octave [2^(E-1023), 2^(E-1022)),
    and for E = 0 zero and the subnormals): the bucket of the octave's low
    end, and the one bound above it that the octave may reach (nan from
    1e7 on, as no comparison passes it).  An octave holds at most one bound,
    since 5e-324 is alone below 2^-1022 and the others are 10x apart, so
    |x| with exponent E is in bucket _OCTAVE_BUCKET[E] + (|x| >=
    _OCTAVE_NEXT[E])."""
    low = (np.arange(2048, dtype=np.int64) << 52).view(np.float64)
    bucket = np.searchsorted(_BOUNDS, low, side="right")
    return bucket, np.append(_BOUNDS, math.nan)[bucket]


_OCTAVE_BUCKET, _OCTAVE_NEXT = _octave_tables()


def _digit_tables():
    """Tables over d < 10^4: its 4 ASCII digits, each followed by '.', as
    one uint64 (a digit word of a row), and the key part 2 (s - 1) of a
    mantissa 10^4 hi + lo that keeps s significant digits once trailing
    zeros are stripped, as max(_KEY_LO[lo], _KEY_HI[hi]).  hi = 0 marks a
    cell without a mantissa, zero or one that `%` formats: part 16."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # row j: digit j of d
    # 1 + the place of the last nonzero digit: 4 less the trailing zeros
    kept = (np.arange(1, 5, dtype=np.uint8)[:, None] * (digits > 0)).max(axis=0)
    dotted = np.full((digits.shape[1], 8), ord("."), np.uint8)
    dotted[:, ::2] = digits.T + ord("0")
    return (
        dotted.view(np.uint64).ravel(),
        np.where(kept > 0, 2 * kept + 6, 0),
        np.where(kept > 0, 2 * kept - 2, 16),
    )


_DOTTED, _KEY_LO, _KEY_HI = _digit_tables()
_PREFIX = np.frombuffer(b"-0.000\0\0", np.uint64)  # the first word of every row


def _layout_tables():
    """The keep-mask of each key 18 bucket + part, part = 2 (s - 1) + sign:
    1 at the row bytes that spell it and 0 elsewhere, read off the text `%`
    writes for a value of its layout whose j-th significant digit is j.
    That digit sits at byte 6 + 2j, a '.' or '0' after it one or two bytes
    on, and what comes before the first digit in '-0.000'.  Every mask
    keeps the separator.  Also which keys `%` formats in place of the
    mantissa: all of bucket 1 (below 1e-4, where |x| 1e11 may round up to
    1e7) and part 16 of the buckets above; part 16 of bucket 0 spells +-0."""
    values = {
        18 * (e + 6) + 2 * s - 2 + sign: float(f"{'-' * sign}{'12345678'[:s]}e{e - s + 1}")
        for e in range(-4, 8)
        for s in range(1, 9)
        for sign in (0, 1)
    } | {16: 0.0, 17: -0.0}
    text = ("%-15.8g" * len(values)) % tuple(values.values())
    text = np.frombuffer(text.encode(), np.uint8).reshape(-1, 15)
    spelled = text != ord(" ")
    started = np.maximum.accumulate(text > ord("0"), axis=1)  # from the first digit on
    digits = np.cumsum(started & (text != ord(".")), axis=1)
    lead = np.arange(15) + (text[:, :1] != ord("-"))  # the place in '-0.000'
    at = np.where(started, 6 + 2 * digits + (text == ord(".")), lead)
    assert (np.diff(at)[spelled[:, 1:]] > 0).all() and at[spelled].max() < _ROW - 1
    keep = np.zeros((14 * 18, _ROW), np.uint8)
    keep[np.take(list(values), np.nonzero(spelled)[0]), at[spelled]] = 1
    keep[:, -1] = 1
    bucket, part = np.divmod(np.arange(14 * 18), 18)
    return keep, (bucket == 1) | (bucket > 0) & (part >= 16)


_KEEP, _FALLS_BACK = _layout_tables()


def _format_numbers(x: np.ndarray) -> np.ndarray:
    """The (rows, cols, _ROW) uint8 rows of the (rows, cols) float array
    `x`: their non-NUL bytes spell, in order, the '%.8g' text of each cell
    and its separator (',' or, after the last column, '\\n'), and every
    other byte is NUL.

    With 10^k <= |x| < 10^(k+1) for k in [-4, 7], scaled = |x| 10^(7-k) is
    one correctly rounded product (10^0 ... 10^11 are exact doubles) in
    [1e7, 1e8], off by less than 1.2e-8 of a unit in the 8th digit.  So
    m = rint(scaled) is the correctly rounded 8-digit mantissa unless
    frac(scaled) lies within 1e-6 of 1/2.  Python's `%` formats every cell
    where that may fail or does not apply: that tie band, m = 1e8 (a carry
    into the next decade), |x| outside [1e-4, 1e8), which `%` writes in
    exponent form, nan and +-inf; its text, blanks turned NUL, fills the
    row's first 15 bytes.  +-0 stays here, as '0' or '-0'.  Any other cell
    keeps the bytes `%` spelled for its decade, count of significant digits
    and sign.  No step here can warn: nan and +-inf become 1e9 first.

    The bucket comes from the binary exponent of |x| (_octave_tables).  m
    splits into 4-digit halves in float64: hi = floor(m 1e-4) is exact for
    m < 1e8, as the double 1e-4 lies above 1e-4, so the product never
    rounds below the quotient, and by so little (4.8e-17 of it) that it
    stays 1e-4 short of the next integer; lo = m - 1e4 hi is exact, every
    term being an integer below 2^53.
    """
    rows, cols = x.shape
    x = x.ravel()
    a = np.fmin(np.abs(x), 1e9)
    octave = a.view(np.int64) >> 52
    bucket = _OCTAVE_BUCKET[octave] + (a >= _OCTAVE_NEXT[octave])
    scaled = a * _SCALES[bucket]
    m = np.rint(scaled)
    good = (m < 1e8) & (np.abs(scaled - m) < 0.5 - 1e-6)
    m = np.where(good, m, 0.0)
    hi = np.floor(m * 1e-4)
    lo = (m - 1e4 * hi).astype(np.intp)
    hi = hi.astype(np.intp)
    key = 18 * bucket + np.maximum(_KEY_LO[lo], _KEY_HI[hi]) + np.signbit(x)
    words = np.empty((x.size, 3), np.uint64)
    words[:, 0] = _PREFIX
    words[:, 1] = _DOTTED[hi]
    words[:, 2] = _DOTTED[lo]
    text = words.view(np.uint8)
    text.reshape(rows, cols, _ROW)[:, :, -1] = list(b"," * (cols - 1) + b"\n")
    text *= _KEEP.take(key, axis=0)
    fallback = _FALLS_BACK.take(key).nonzero()[0]
    if fallback.size:
        spelled = (b"%-15.8g" * fallback.size) % tuple(x[fallback].tolist())
        spelled = spelled.replace(b" ", b"\0")
        text[fallback, :15] = np.frombuffer(spelled, np.uint8).reshape(-1, 15)
    return text.reshape(rows, cols, _ROW)


def _write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write the header, then the columns (all of one length) row by row,
    in UTF-8.  A column whose first cell is a str is written as str, any
    other (float, int, bool or numpy scalar) as '%.8g' text.  A file with
    a str column (boundaries.csv, sweep_<param>.csv: a few rows each) is
    one Python `%` over all its rows.  Any other (value.csv, mc.csv, the
    figure4 pair) goes through _format_numbers, a block of about
    _CSV_BLOCK cells at a time, and drops the NULs of its rows."""
    n = len(columns[0])
    with open(path, "wb") as fh:
        fh.write(f"{','.join(header)}\n".encode())
        formats = ["%s" if n and isinstance(col[0], str) else "%.8g" for col in columns]
        if "%s" in formats:
            line = ",".join(formats) + "\n"
            fh.write((line * n % tuple(itertools.chain.from_iterable(zip(*columns)))).encode())
            return
        step = max(1, _CSV_BLOCK // len(columns))
        for start in range(0, n, step):
            # row-major, so the kernel's ravel is a view
            x = np.stack([np.asarray(col[start : start + step], float) for col in columns], axis=1)
            fh.write(_format_numbers(x).tobytes().translate(None, b"\0"))


@contextlib.contextmanager
def _output_dir(path: str):
    """Create the output directory `path`; an OSError while it is created
    or written is a ConfigError that names it."""
    try:
        os.makedirs(path, exist_ok=True)
        yield
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot write to output directory {path!r}: {reason}") from None


def _columns(rows, fields: Sequence[str]) -> List[list]:
    """The named attribute of every row, one list per field."""
    return [[getattr(r, f) for r in rows] for f in fields]


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: RunConfig, method: str, out: TextIO) -> int:
    ob = ObstacleFn.create(cfg.params, cfg.refined)
    qs = cfg.grid.nodes
    boundary_rows = []
    fd_sol = None
    if method in ("fd", "both"):
        fd_sol = solve_vi(cfg.cost, ob, cfg.grid)
        boundary_rows.append(
            ("fd", fd_sol.q_lo, fd_sol.q_hi, fd_sol.complementarity_gap)
        )
    cf_sol = None
    if method in ("closed_form", "both"):
        cf_sol = smooth_fit(cfg.cost, ob)
        boundary_rows.append(
            ("closed_form", cf_sol.q_lo, cf_sol.q_hi, cf_sol.residual_sup)
        )

    if fd_sol is not None:
        sol, values, g = fd_sol, fd_sol.values, fd_sol.obstacle
    else:
        sol, values, g = cf_sol, eval_closed_form(cf_sol, qs), ob.on_grid(qs)
    in_exp = ((qs > sol.q_lo) & (qs < sol.q_hi)).astype(int)

    with _output_dir(cfg.out_dir):
        _write_csv(
            os.path.join(cfg.out_dir, "value.csv"),
            ("q", "value", "obstacle", "in_exploration"),
            (qs, values, g, in_exp),
        )
        _write_csv(
            os.path.join(cfg.out_dir, "boundaries.csv"),
            ("method", "q_lo", "q_hi", "residual"),
            list(zip(*boundary_rows)),
        )
    print(f"wrote value.csv and boundaries.csv to {cfg.out_dir}", file=out)
    return EXIT_OK


# --check limit_<which> runs the limit ladder `which`
_LIMIT_CHECKS = {f"limit_{which}": which for which in LIMITS}


def cmd_sweep(
    cfg: RunConfig, param: str, values: List[float], check: Optional[str],
    method: str, out: TextIO,
) -> int:
    # judge the check's name, a claim's parameter and a ladder's base first
    base = Instance(cfg.params, cfg.cost, cfg.refined, cfg.grid)
    if check in CLAIMS:
        claim_directions(check, param, cfg.refined)
        if len(set(values)) < 2:  # a claim compares adjacent rows
            raise ConfigError("--values: a claim check needs at least two distinct values")
    elif check in _LIMIT_CHECKS:
        limit_ladder(base, _LIMIT_CHECKS[check])
    elif check is not None:
        raise ConfigError(f"--check: unknown check {check!r}")
    result = run_sweep(base, param, values, method=method)

    with _output_dir(cfg.out_dir):
        _write_csv(
            os.path.join(cfg.out_dir, f"sweep_{param}.csv"),
            ("param", "q_lo", "q_hi", "width", "method", "residual"),
            _columns(result.rows, ("value", "q_lo", "q_hi", "width", "method", "residual")),
        )
    print(f"wrote sweep_{param}.csv to {cfg.out_dir}", file=out)
    if check is None:
        return EXIT_OK

    # a failed check names its failed rows, or a claim with none the pairs
    # of rows that violate it
    if check in CLAIMS:
        violations = check_monotonicity(result, check)
        passed = not violations
        detail = f"failed={list(result.failed)}" if result.failed else f"violations={violations}"
    else:
        table = limit_diagnostics(base, _LIMIT_CHECKS[check])
        passed = table.passed
        detail = f"failed={[(r.scale, r.error) for r in table.rows if r.failed]}"

    with _output_dir(cfg.out_dir), open(os.path.join(cfg.out_dir, "monotonicity.txt"), "w") as fh:
        fh.write(f"{check}: {'PASS' if passed else 'FAIL ' + detail}\n")
    print(f"{check}: {'PASS' if passed else 'FAIL'}", file=out)
    return EXIT_OK if passed else EXIT_CHECK


def cmd_mc(cfg: RunConfig, target: str, q0s: List[float], out: TextIO) -> int:
    if target not in ("outer", "nested", "composed"):
        raise ConfigError(f"--target: unknown target {target!r}")
    if target in ("nested", "composed") and isinstance(cfg.refined, Irreversible):
        raise ConfigError(f"refined.type: {target} target needs poisson or gaussian")
    try:
        _check_belief(q0s)
    except ParameterError as exc:
        raise ConfigError(f"--q0: {exc}")
    # before any solve: the nested stages take no time step
    try:
        cfg.sim.validate(None if target == "nested" else cfg.params.rho)
    except ParameterError as exc:
        raise ConfigError(str(exc))

    estimates, oracles = [], []
    ob = ObstacleFn.create(cfg.params, cfg.refined)
    if target == "nested":
        poisson = isinstance(cfg.refined, PoissonSignal)
        estimate = mc_value_nested_poisson if poisson else mc_value_nested_gaussian
        for q0 in q0s:
            estimates.append(estimate(ob, q0, cfg.sim))
            oracles.append(ob.nested(q0))
    else:
        sol = solve_vi(cfg.cost, ob, cfg.grid)
        estimate = mc_value_outer if target == "outer" else mc_value_composed
        for q0 in q0s:
            estimates.append(estimate(cfg.cost, ob, sol.q_lo, sol.q_hi, q0, cfg.sim))
            # off the region FD's value is its contact value, the obstacle,
            # which outer returns exactly there: interpolating it would miss
            # by rounding, an infinite z at zero standard error
            if sol.q_lo < q0 < sol.q_hi:
                oracles.append(float(np.interp(q0, sol.grid.nodes, sol.values)))
            else:
                oracles.append(obstacle_eval(ob, q0))

    zs = [_z_score(est, oracle) for est, oracle in zip(estimates, oracles)]
    worst = max(map(abs, zs), default=0.0)
    with _output_dir(cfg.out_dir):
        _write_csv(
            os.path.join(cfg.out_dir, "mc.csv"),
            ("q0", "mc_mean", "mc_stderr", "oracle_value", "z_score"),
            [q0s, *_columns(estimates, ("mean", "std_err")), oracles, zs],
        )
    print(f"wrote mc.csv to {cfg.out_dir} (worst |z| = {worst:.3f})", file=out)
    return EXIT_OK if worst <= 3.0 else EXIT_MC


def _z_score(est, oracle: float) -> float:
    # allow for truncation bias before judging the deviation; the sign
    # is that of mean - oracle, also when an exact estimate misses
    excess = max(0.0, abs(est.mean - oracle) - est.truncation_bound)
    if excess == 0.0:
        return 0.0
    z = excess / est.std_err if est.std_err > 0.0 else math.inf
    return math.copysign(z, est.mean - oracle)


def cmd_figure4(cfg: RunConfig, out: TextIO) -> int:
    reversible, star = figure4_dataset(Instance(cfg.params, cfg.cost, cfg.refined, cfg.grid))
    rows = reversible.rows
    q_lo, q_hi, width = ([x] * len(rows) for x in (star.q_lo, star.q_hi, star.q_hi - star.q_lo))

    with _output_dir(cfg.out_dir):
        _write_csv(
            os.path.join(cfg.out_dir, "figure4_left.csv"),
            ("R", "q_lo", "q_hi", "q_lo_star", "q_hi_star"),
            _columns(rows, ("value", "q_lo", "q_hi")) + [q_lo, q_hi],
        )
        _write_csv(
            os.path.join(cfg.out_dir, "figure4_right.csv"),
            ("R", "width", "width_star"),
            _columns(rows, ("value", "width")) + [width],
        )
    print(f"wrote figure4_left.csv and figure4_right.csv to {cfg.out_dir}", file=out)

    if reversible.failed:
        print(f"figure4 property check failed: {len(reversible.failed)} of {len(rows)} "
              "fee rows failed", file=sys.stderr)
        return EXIT_CHECK
    moved = {name for _, _, name in check_monotonicity(reversible, "prop_cs")}
    slack = 2.0 * reversible.boundary_uncertainty()
    w_ok = all(b.width >= a.width - slack for a, b in zip(rows, rows[1:]))
    conv_ok = abs(rows[-1].q_lo - star.q_lo) < 0.01 and abs(rows[-1].q_hi - star.q_hi) < 0.01
    if not moved and w_ok and conv_ok:
        return EXIT_OK
    print(
        f"figure4 property check failed: monotone_lo={'q_lo' not in moved} "
        f"monotone_hi={'q_hi' not in moved} monotone_width={w_ok} converged={conv_ok}",
        file=sys.stderr,
    )
    return EXIT_CHECK


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # each parse fills a fresh namespace, so one parser serves every call
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
    p_sweep.add_argument("--method", choices=("fd", "closed_form"), default="closed_form")

    p_mc = sub.add_parser("mc", help="Monte Carlo validation against oracles")
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
        entries = _read_config(args.config)
        if args.command == "figure4" and entries["refined.type"] == "none":
            # figure4 sweeps the Gaussian regime's fee; none runs it with
            # refined.sigma_tilde, and figure4_dataset refuses the others
            entries["refined.type"] = "gaussian"
        cfg = build_config(entries)
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
            values = parse_values(args.values, "--values")
            return cmd_sweep(cfg, args.param, values, args.check, args.method, out)
        if args.command == "mc":
            if args.seed is not None:
                cfg = replace(cfg, sim=replace(cfg.sim, seed=args.seed))
            q0s = parse_values(args.q0, "--q0")
            return cmd_mc(cfg, args.target, q0s, out)
        return cmd_figure4(cfg, out)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, SmoothFitError) as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
