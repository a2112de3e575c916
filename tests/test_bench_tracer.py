"""The benchmark's tracer still finds every name its per-layer metrics need.

`bench/tracer.py` wraps stopflow's names from outside the package and
silently leaves out a metric whose name has gone, so a renamed or deleted
function drops a declared metric from the traced result line while the run
still exits 0.  This test installs the tracer (read-only: it imports the
file, nothing under bench/ is written) and checks its `NEEDS` table.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

import stopflow
import stopflow.cli
from stopflow import MCEstimate, ViSolution, fd_solver

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# needed names that are result fields, read by the tracer's result hooks
FIELDS = {"ViSolution.iterations": ViSolution, "MCEstimate.n_paths": MCEstimate}


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("stopflow_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves the module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_needed_name_is_wrapped(tracer_module):
    tracer = tracer_module.Tracer()
    original = fd_solver.solve_vi
    tracer.install()
    try:
        assert fd_solver.solve_vi is not original
        absent = set(tracer.absent)
    finally:
        tracer.uninstall()
    assert fd_solver.solve_vi is original
    assert stopflow.solve_vi is original
    needed = {name for names in tracer_module.NEEDS.values() for name in names}
    assert not needed & absent, f"tracer cannot find {sorted(needed & absent)}"


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_result_fields_the_tracer_reads(tracer_module, name):
    assert any(name in names for names in tracer_module.NEEDS.values())
    field = name.partition(".")[2]
    assert field in {f.name for f in dataclasses.fields(FIELDS[name])}
