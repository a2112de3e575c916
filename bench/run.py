#!/usr/bin/env python3
"""Benchmark of the stopflow command line, one workload per run.

From the repository root:

    python3 bench/run.py --workload solve-grid --seed 1 --seconds 30 --trace 0

The run imports `stopflow` from `src/`, times the workload's command batch
through `stopflow.cli.main` until `--seconds` have passed, and checks every
command's outputs.  `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced passes and reports per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.  The
full run record (environment, every pass, every check, accuracy beside
time) and, when traced, the spans go to bench/_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REF_IMPORT_S, REF_KERNEL_S, SpeedProbe
from tracer import Tracer, unit
from workloads import STRUCTURAL, WORKLOADS, check, commands

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 5

# what a fresh interpreter does before its first command: import the
# package, then read and validate the workload's config files.  The
# reference imports are timed afterwards, outside the set-up time.
SETUP_CODE = """\
import json, sys, time
start = time.perf_counter()
from stopflow.cli import load_config
for path in sys.argv[1:]:
    load_config(path)
elapsed = time.perf_counter() - start
from speed import reference_import_time
print(json.dumps([elapsed, reference_import_time()]))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stopflow" / "cli.py").is_file():
        print(f"bench: no stopflow sources under {SRC}", file=sys.stderr)
        return 2
    # one process, one BLAS/OpenMP thread; set before numpy is imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("STOPFLOW_SEED", None)  # it would override the configs' seed

    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmds = commands(args.workload, args.seed)
    cfg_paths = [str(work / f"{c.label}.cfg") for c in cmds]
    for cmd, path in zip(cmds, cfg_paths):
        Path(path).write_text(cmd.config)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    setups = [_time_setup(cfg_paths, env) for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cli = importlib.import_module("stopflow.cli")
    for path in cfg_paths:
        cli.load_config(path)
    in_process_setup_s = time.perf_counter() - start
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"bench: imported stopflow from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = Run(cli, cmds, work, Tracer() if args.trace else None)
    deadline = time.perf_counter() + args.seconds
    while True:
        run.one_pass(traced=run.tracer is not None and len(run.untraced) > len(run.traced))
        enough = run.untraced and (run.tracer is None or run.traced)
        if enough and time.perf_counter() >= deadline:
            break

    attempted = len(run.checks)
    failed = sum(1 for ok, _ in run.checks.values() if not ok)
    correct = not run.crashed and all(
        ok for (_, name), (ok, _) in run.checks.items() if name in STRUCTURAL
    )
    end_to_end = {
        "setup_s": (statistics.median(raw * REF_IMPORT_S / ref for raw, ref in setups), "s"),
        "wall_s": (statistics.median(run.adjusted), "s"),
        "raw_setup_s": (statistics.median(raw for raw, _ in setups), "s"),
        "raw_wall_s": (statistics.median(run.untraced), "s"),
        "boundary_err": (_max(
            e for a in run.accuracy.values() for e in a.get("boundary_err", {}).values()
        ), "belief"),
        "mc_stderr": (_max(
            est["se"] for a in run.accuracy.values() for est in a.get("estimates", ())
        ), "value"),
        "fail_frac": (failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if run.tracer is None:
        reported = {k: end_to_end[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}
    else:
        per_layer = _median_dicts(run.layer_passes)
        per_layer["trace.untraced_wall_s"] = statistics.median(run.untraced)
        per_layer["trace.overhead_s"] = (
            statistics.median(run.traced) - per_layer["trace.untraced_wall_s"]
        )
        reported = {k: (v, unit(k)) for k, v in per_layer.items()}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }

    _summary(args, run, end_to_end, reported, attempted, failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "setup": {
            "fresh_interpreter_s": [raw for raw, _ in setups],
            "fresh_interpreter_reference_import_s": [ref for _, ref in setups],
            "in_process_s": in_process_setup_s,
        },
        "passes": {
            "untraced_wall_s": run.untraced,
            "untraced_adjusted_s": run.adjusted,
            "traced_wall_s": run.traced,
            "kernel_s": run.kernel,
        },
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "commands": {
            c.label: {
                "argv": ["--config", f"{c.label}.cfg", *c.args],
                "times_s": run.times[c.label],
                "exit_codes": run.exit_codes[c.label],
                "accuracy": run.accuracy.get(c.label, {}),
            }
            for c in cmds
        },
        "checks": [
            {"command": label, "check": name, "ok": ok, "detail": detail}
            for (label, name), (ok, detail) in run.checks.items()
        ],
        "crashes": run.crashed,
        "per_layer_passes": run.layer_passes,
        "absent": sorted(run.tracer.absent) if run.tracer else [],
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for n, spans in enumerate(run.span_passes):
                for s in spans:
                    fh.write(json.dumps({"pass": n, **s.__dict__}) + "\n")
    print(json.dumps(result))
    return 0


class Run:
    """The passes of one benchmark run and what they measured."""

    def __init__(self, cli, cmds, work: Path, tracer):
        self.cli, self.cmds, self.work, self.tracer = cli, cmds, work, tracer
        self.untraced, self.traced = [], []  # pass wall times
        self.adjusted = []  # untraced pass times adjusted to REF_KERNEL_S
        self.kernel = []  # kernel times sampled during the untraced passes
        self.layer_passes, self.span_passes = [], []
        self.times = {c.label: [] for c in cmds}
        self.exit_codes = {c.label: [] for c in cmds}
        self.accuracy = {}
        self.checks = {}  # (command, check) -> (passed in every pass, detail)
        self.crashed = []

    def one_pass(self, traced: bool) -> None:
        """One pass of the command batch.  A traced pass records spans; an
        untraced one samples the CPU speed instead."""
        probe = None if traced else SpeedProbe()
        if traced:
            self.tracer.install()
        wall = adjusted = 0.0
        try:
            for cmd in self.cmds:
                elapsed, kernel_s = self._command(cmd, probe)
                wall += elapsed
                if probe:
                    adjusted += elapsed * REF_KERNEL_S / kernel_s
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            spans, counts = self.tracer.take()
            self.traced.append(wall)
            self.span_passes.append(spans)
            self.layer_passes.append(self.tracer.pass_metrics(spans, counts, wall))
        else:
            self.untraced.append(wall)
            self.adjusted.append(adjusted)
            self.kernel.extend(d for _, d in probe.samples)

    def _command(self, cmd, probe):
        """Run one command and check its outputs.  Returns its wall time,
        less the probe's own samples, and the mean kernel time around it."""
        out_dir = self.work / cmd.label
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["--config", str(self.work / f"{cmd.label}.cfg"), "--out", str(out_dir), *cmd.args]
        log = io.StringIO()
        rc = None
        first = len(probe.samples) if probe else 0
        if probe:
            probe.start()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = self.cli.main(argv)
        except Exception:  # a crashing command fails its checks; the run goes on
            self.crashed.append({"command": cmd.label, "traceback": traceback.format_exc()})
        finally:
            end = time.perf_counter()
            if probe:
                probe.stop()
        elapsed = end - start
        kernel_s = None
        if probe:
            samples = probe.samples[first:]
            elapsed -= sum(d for t, d in samples if start <= t < end)
            kernel_s = statistics.mean(d for _, d in samples)
        self.times[cmd.label].append(elapsed)
        self.exit_codes[cmd.label].append(rc)
        checks, accuracy = check(cmd, rc, str(out_dir))
        self.accuracy[cmd.label] = accuracy
        for name, ok, detail in checks:
            before = self.checks.get((cmd.label, name), (True, ""))
            self.checks[(cmd.label, name)] = (before[0] and ok, detail if not ok else before[1])
        return elapsed, kernel_s


def _time_setup(cfg_paths, env):
    """(set-up seconds, reference-import seconds) from one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *cfg_paths],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    )
    elapsed, reference_s = json.loads(proc.stdout.splitlines()[-1])
    return elapsed, reference_s


def _max(values):
    values = list(values)
    return max(values) if values else None


def _median_dicts(dicts):
    keys = [k for k in dicts[0] if all(k in d for d in dicts)]
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def _summary(args, run, end_to_end, reported, attempted, failed) -> None:
    """Human-readable report; the JSON result line follows it."""
    q1, q3 = _quartiles(run.adjusted)
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh-interpreter set-ups, speed-adjusted",
        "wall_s": f"median of {len(run.untraced)} untraced passes, speed-adjusted; "
                  f"q1 {q1:.4f}, q3 {q3:.4f}",
        "raw_setup_s": "as measured",
        "raw_wall_s": "as measured",
        "boundary_err": "max |q_fd - q_cf| over the solve cases",
        "mc_stderr": "max standard error over the Monte Carlo estimates",
        "fail_frac": f"{failed} of {attempted} checks failed",
        "peak_rss_mb": "peak resident memory of the run",
    }
    print(f"stopflow bench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for name, (value, u) in end_to_end.items():
        shown = "n/a (no such commands)" if value is None else f"{value:.6g} {u}"
        print(f"  {name:<13} {shown:<24} {notes[name]}")
    for (label, name), (ok, detail) in run.checks.items():
        if not ok:
            print(f"  FAILED {label} {name}: {detail}")
    for crash in run.crashed[:1]:
        print(f"  CRASHED {crash['command']}:\n{crash['traceback']}")
    if args.trace:
        for name, (value, u) in reported.items():
            print(f"  {name:<28} {value:.6g} {u}")


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


if __name__ == "__main__":
    sys.exit(main())
