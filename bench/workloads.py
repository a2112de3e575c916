"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed batch of `stopflow` CLI commands.  After each command
the benchmark reads the CSV files it wrote: `check` turns them into named
pass/fail results and into the accuracy figures that the run record keeps
beside the command's time.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("solve-grid", "param-sweep", "mc-validate")

# checks whose failure means a command crashed or left malformed output;
# every other check is an accuracy or property gate of the program
STRUCTURAL = ("csv",)

# the proposition sweeps of acceptance criterion c5, then the limit checks.
# A limit check solves its own parameter ladder and ignores --values, so it
# gets the base value only.
_SWEEPS = (
    ("rho", "0.5,1,2,4", "prop_rho", ""),
    ("sigma", "2,3.5,5,8", "prop_sigma", ""),
    ("c_i", "0.25,0.5,1,2,4", "prop_cost", ""),
    ("mu", "2,3.5,5,6.5,8", "prop_mu", ""),
    ("r", "0.5,1,2,3,3.5", "prop_cs", "refined.type = poisson\n"),
    ("rho", "1", "limit_rho", ""),
    ("sigma", "5", "limit_sigma", ""),
    ("c_i", "1", "limit_c_i", ""),
    ("l", "1", "limit_l_to_mu", ""),
    ("h", "9", "limit_h_to_inf", ""),
)


@dataclass(frozen=True)
class Command:
    """One CLI call: `stopflow --config <label>.cfg --out <label>/ *args`."""

    label: str
    config: str
    args: Tuple[str, ...]


Check = Tuple[str, bool, str]  # (name, passed, detail)


def commands(workload: str, seed: int) -> List[Command]:
    """The workload's command batch; only mc-validate reads the seed."""
    if workload == "solve-grid":
        return [
            Command(
                f"solve-{regime}-n{n}",
                f"refined.type = {regime}\ngrid.n = {n}\n",
                ("solve", "--method", "both"),
            )
            for regime in ("none", "poisson", "gaussian")
            for n in (4000, 16000)
        ]
    if workload == "param-sweep":
        return [Command("figure4", "", ("figure4",))] + [
            Command(
                f"sweep-{check}", config,
                ("sweep", "--param", param, "--values", values, "--check", check),
            )
            for param, values, check, config in _SWEEPS
        ]
    if workload == "mc-validate":
        s = str(seed)
        return [
            Command(
                "mc-outer", "",
                ("mc", "--target", "outer", "--q0", "0.47,0.5,0.53", "--seed", s),
            ),
            Command(
                "mc-composed-gaussian", "refined.type = gaussian\n",
                ("mc", "--target", "composed", "--q0", "0.5", "--seed", s),
            ),
            Command(
                "mc-nested-poisson", "refined.type = poisson\n",
                ("mc", "--target", "nested", "--q0", "0.3,0.5,0.7", "--seed", s),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}, want one of {WORKLOADS}")


def check(cmd: Command, rc, out_dir: str) -> Tuple[List[Check], Dict]:
    """Checks and accuracy figures for one finished command.

    `rc` is the CLI exit code, or None when the command raised.
    """
    checks: List[Check] = [("exit", rc == 0, f"exit code {rc}")]
    reader = {"solve": _solve, "sweep": _sweep, "figure4": _figure4, "mc": _mc}
    try:
        gates, accuracy = reader[cmd.args[0]](cmd, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return checks + [("csv", False, f"{type(exc).__name__}: {exc}")], {}
    return checks + [("csv", True, "")] + gates, accuracy


def _read(out_dir: str, name: str, fields: Sequence[str]) -> List[Dict]:
    """Rows of a CSV file; every listed field except `method` as a float."""
    with open(os.path.join(out_dir, name), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{name}: no data rows")
    missing = set(fields) - set(rows[0])
    if missing:
        raise ValueError(f"{name}: missing columns {sorted(missing)}")
    return [
        {k: row[k] if k == "method" else float(row[k]) for k in fields}
        for row in rows
    ]


def _in_range(q_lo: float, q_hi: float) -> bool:
    return 0.0 < q_lo < q_hi < 1.0


def _solve(cmd: Command, out_dir: str):
    values = _read(out_dir, "value.csv", ("q", "value", "obstacle", "in_exploration"))
    if not all(math.isfinite(r["value"]) for r in values):
        raise ValueError("value.csv: non-finite value")
    n = len(values) - 1
    expected = int(dict(line.split(" = ", 1) for line in cmd.config.splitlines())["grid.n"])
    if n != expected:
        raise ValueError(f"value.csv: {n + 1} rows for grid.n = {expected}")
    rows = _read(out_dir, "boundaries.csv", ("method", "q_lo", "q_hi", "residual"))
    by_method = {r["method"]: r for r in rows}
    fd, cf = by_method["fd"], by_method["closed_form"]
    err_lo = abs(fd["q_lo"] - cf["q_lo"])
    err_hi = abs(fd["q_hi"] - cf["q_hi"])
    dq = 1.0 / n
    # acceptance criterion c2: FD boundaries within two cells of closed form
    gates = [
        ("range_fd", _in_range(fd["q_lo"], fd["q_hi"]), f"{fd['q_lo']}, {fd['q_hi']}"),
        ("range_closed_form", _in_range(cf["q_lo"], cf["q_hi"]),
         f"{cf['q_lo']}, {cf['q_hi']}"),
        ("agree_2dq", max(err_lo, err_hi) <= 2.0 * dq,
         f"|dq_lo| = {err_lo:.3e}, |dq_hi| = {err_hi:.3e}, 2 dq = {2.0 * dq:.3e}"),
    ]
    accuracy = {
        "grid_n": n,
        "fd": {"q_lo": fd["q_lo"], "q_hi": fd["q_hi"],
               "complementarity_gap": fd["residual"]},
        "closed_form": {"q_lo": cf["q_lo"], "q_hi": cf["q_hi"],
                        "residual_sup": cf["residual"]},
        "boundary_err": {"q_lo": err_lo, "q_hi": err_hi},
    }
    return gates, accuracy


def _sweep(cmd: Command, out_dir: str):
    param = cmd.args[cmd.args.index("--param") + 1]
    rows = _read(
        out_dir, f"sweep_{param}.csv",
        ("param", "q_lo", "q_hi", "width", "method", "residual"),
    )
    with open(os.path.join(out_dir, "monotonicity.txt")) as fh:
        verdict = fh.read().strip()
    bad = [r["param"] for r in rows if not _in_range(r["q_lo"], r["q_hi"])]
    gates = [("range", not bad, f"rows out of (0, 1) at {param} = {bad}")]
    accuracy = {
        "verdict": verdict,
        "rows": [
            {param: r["param"], "q_lo": r["q_lo"], "q_hi": r["q_hi"],
             "method": r["method"], "residual": r["residual"]}
            for r in rows
        ],
    }
    return gates, accuracy


def _figure4(cmd: Command, out_dir: str):
    left = _read(
        out_dir, "figure4_left.csv", ("R", "q_lo", "q_hi", "q_lo_star", "q_hi_star")
    )
    _read(out_dir, "figure4_right.csv", ("R", "width", "width_star"))
    bad = [
        r["R"] for r in left
        if not (_in_range(r["q_lo"], r["q_hi"]) and _in_range(r["q_lo_star"], r["q_hi_star"]))
    ]
    last = left[-1]
    gates = [("range", not bad, f"rows out of (0, 1) at R = {bad}")]
    accuracy = {
        "rows": len(left),
        # distance of the reversible boundaries to the irreversible ones as
        # the return fee approaches mu - l; the CLI requires it below 0.01
        "limit_err": max(
            abs(last["q_lo"] - last["q_lo_star"]), abs(last["q_hi"] - last["q_hi_star"])
        ),
    }
    return gates, accuracy


def _mc(cmd: Command, out_dir: str):
    q0s = [float(x) for x in cmd.args[cmd.args.index("--q0") + 1].split(",")]
    rows = _read(
        out_dir, "mc.csv", ("q0", "mc_mean", "mc_stderr", "oracle_value", "z_score")
    )
    if len(rows) != len(q0s):
        raise ValueError(f"mc.csv: {len(rows)} rows for {len(q0s)} start beliefs")
    # the CLI's own Monte Carlo gate: |z| <= 3 after the truncation allowance
    gates = [
        (f"z@q0={r['q0']:g}", abs(r["z_score"]) <= 3.0, f"z = {r['z_score']:.3f}")
        for r in rows
    ]
    accuracy = {
        "estimates": [
            {"q0": r["q0"], "mean": r["mc_mean"], "se": r["mc_stderr"],
             "oracle": r["oracle_value"], "z": r["z_score"]}
            for r in rows
        ]
    }
    return gates, accuracy
