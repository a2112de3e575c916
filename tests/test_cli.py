"""Command-line interface: config handling, CSV outputs, exit codes."""

import csv
import os

import numpy as np
import pytest

from stopflow import cli
from stopflow.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_MC,
    EXIT_OK,
    ConfigError,
    build_config,
    dump_config,
    main,
    parse_config_text,
    parse_values,
)

BENCH = """
model.rho = 1.0
model.sigma = 5.0
model.h = 9.0
model.l = 1.0
model.mu = 5.0
cost.type = constant
cost.c_i = 1.0
"""


def _write_cfg(tmp_path, text, extra=""):
    p = tmp_path / "run.cfg"
    p.write_text(text + extra)
    return str(p)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfigParsing:
    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="model.banana"):
            parse_config_text("model.banana = 1")

    def test_comments_and_blank_lines(self):
        entries = parse_config_text("# top\nmodel.rho = 2.0  # trailing\n\n")
        assert entries["model.rho"] == "2.0"

    def test_defaults_fill_missing_keys(self):
        cfg = build_config(parse_config_text(""))
        assert cfg.params.rho == 1.0
        assert cfg.grid.n == 4000

    def test_dump_config_roundtrip(self):
        for cost_type in ("constant", "variance", "stddev"):
            text = BENCH.replace("cost.type = constant", f"cost.type = {cost_type}")
            cfg = build_config(parse_config_text(text + "sim.seed = 99\n"))
            dumped = dump_config(cfg)
            assert f"cost.type = {cost_type}\n" in dumped
            again = build_config(parse_config_text(dumped))
            assert again == cfg

    def test_dump_config_rejects_cost_without_config_form(self):
        from dataclasses import replace

        from stopflow import TabulatedCost

        cfg = build_config(parse_config_text(BENCH))
        cfg = replace(cfg, cost=TabulatedCost(((0.0, 1.0), (1.0, 2.0))))
        with pytest.raises(ConfigError, match="cost.type"):
            dump_config(cfg)

    def test_removed_solver_keys_rejected(self):
        with pytest.raises(ConfigError, match="solver.method"):
            parse_config_text("solver.method = policy")

    def test_seed_env_override(self, monkeypatch):
        monkeypatch.setenv("STOPFLOW_SEED", "777")
        cfg = build_config(parse_config_text(BENCH))
        assert cfg.sim.seed == 777

    def test_invalid_model_rejected_with_key(self):
        with pytest.raises((ConfigError, Exception), match="model"):
            build_config(parse_config_text("model.mu = 42.0"))


class TestParseValues:
    def test_comma_list(self):
        assert parse_values("1,2,3.5") == [1.0, 2.0, 3.5]

    def test_range_inclusive(self):
        assert parse_values("0.5:2.0:0.5") == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            parse_values("a,b")


class TestSolveCommand:
    def test_writes_value_and_boundaries(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH, "grid.n = 500\n")
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out, "solve", "--method", "both"]) == EXIT_OK

        values = _read_csv(os.path.join(out, "value.csv"))
        assert len(values) == 501
        first = values[0]
        assert float(first["q"]) == 0.0
        assert float(first["value"]) == 5.0
        assert first["in_exploration"] == "0"

        bounds = _read_csv(os.path.join(out, "boundaries.csv"))
        methods = {row["method"] for row in bounds}
        assert methods == {"fd", "closed_form"}
        by = {row["method"]: row for row in bounds}
        assert abs(
            float(by["fd"]["q_lo"]) - float(by["closed_form"]["q_lo"])
        ) <= 2 / 500
        assert abs(
            float(by["fd"]["q_hi"]) - float(by["closed_form"]["q_hi"])
        ) <= 2 / 500

    def test_fd_with_stddev_cost(self, tmp_path):
        text = BENCH.replace("cost.type = constant", "cost.type = stddev")
        cfg = _write_cfg(tmp_path, text, "grid.n = 500\n")
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out, "solve", "--method", "fd"]) == EXIT_OK
        bounds = _read_csv(os.path.join(out, "boundaries.csv"))
        assert [row["method"] for row in bounds] == ["fd"]
        assert 0.0 < float(bounds[0]["q_lo"]) < float(bounds[0]["q_hi"]) < 1.0

    def test_config_error_exit_code(self, tmp_path):
        cfg = _write_cfg(tmp_path, "model.nope = 1\n")
        assert main(["--config", cfg, "solve"]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg"), "solve"]) == EXIT_CONFIG


class TestSweepCommand:
    def test_sweep_csv_and_check(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH)
        out = str(tmp_path / "out")
        rc = main(
            [
                "--config", cfg, "--out", out,
                "sweep", "--param", "rho", "--values", "0.5,1,2",
                "--check", "prop_rho",
            ]
        )
        assert rc == EXIT_OK
        rows = _read_csv(os.path.join(out, "sweep_rho.csv"))
        assert len(rows) == 3
        assert [float(r["param"]) for r in rows] == [0.5, 1.0, 2.0]
        report = (tmp_path / "out" / "monotonicity.txt").read_text()
        assert "pass" in report.lower()

    def test_failed_check_exit_code(self, tmp_path, monkeypatch):
        from stopflow.sensitivity import MonotonicityReport

        def fake_check(result, claim):
            return MonotonicityReport(
                claim=claim, direction_lo="up", direction_hi="down",
                violations=((0.5, 1.0, "q_lo"),), passed=False,
            )

        monkeypatch.setattr(cli, "check_monotonicity", fake_check)
        cfg = _write_cfg(tmp_path, BENCH)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "sweep", "--param", "rho", "--values", "0.5,1",
                "--check", "prop_rho",
            ]
        )
        assert rc == EXIT_CHECK

    def test_unknown_param_is_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "sweep", "--param", "banana", "--values", "1,2",
            ]
        )
        assert rc == EXIT_CONFIG


class TestMcCommand:
    def test_outer_within_tolerance(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH, "sim.n_paths = 20000\ngrid.n = 1000\n")
        out = str(tmp_path / "out")
        rc = main(
            ["--config", cfg, "--out", out, "mc", "--target", "outer", "--q0", "0.5"]
        )
        assert rc == EXIT_OK
        rows = _read_csv(os.path.join(out, "mc.csv"))
        assert len(rows) == 1
        assert abs(float(rows[0]["z_score"])) <= 3.0

    def test_biased_estimator_trips_exit_code(self, tmp_path, monkeypatch):
        from stopflow.simulate import MCEstimate

        def biased(params, cost, ob, q_lo, q_hi, q0, cfg):
            return MCEstimate(9.99, 1e-4, cfg.n_paths, 0.0)

        monkeypatch.setattr(cli, "mc_value_outer", biased)
        cfg = _write_cfg(tmp_path, BENCH, "grid.n = 500\n")
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "mc", "--target", "outer", "--q0", "0.5",
            ]
        )
        assert rc == EXIT_MC

    def test_composed_below_boundary_is_exact(self, tmp_path):
        extra = "refined.type = poisson\nsim.n_paths = 1000\ngrid.n = 500\n"
        cfg = _write_cfg(tmp_path, BENCH, extra)
        out = str(tmp_path / "out")
        rc = main(
            [
                "--config", cfg, "--out", out,
                "mc", "--target", "composed", "--q0", "0.05",
            ]
        )
        assert rc == EXIT_OK
        rows = _read_csv(os.path.join(out, "mc.csv"))
        assert float(rows[0]["mc_mean"]) == 5.0
        assert float(rows[0]["mc_stderr"]) == 0.0


class TestFigure4Command:
    def test_outputs_and_star_columns(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = gaussian\n")
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out, "figure4"]) == EXIT_OK
        left = _read_csv(os.path.join(out, "figure4_left.csv"))
        right = _read_csv(os.path.join(out, "figure4_right.csv"))
        assert len(left) == len(right) >= 10
        assert len({row["q_lo_star"] for row in left}) == 1
        assert len({row["q_hi_star"] for row in left}) == 1
        widths = [float(r["width"]) for r in right]
        assert widths == sorted(widths)
