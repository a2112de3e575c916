"""Command-line interface: config handling, CSV outputs, exit codes."""

import csv
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stopflow import Grid, ObstacleFn, SimConfig, cli
from stopflow.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_MC,
    EXIT_OK,
    ConfigError,
    build_config,
    dump_config,
    load_config,
    main,
    parse_config_text,
    parse_values,
)
from stopflow.sensitivity import CLAIMS, LIMITS

BENCH = """
model.rho = 1.0
model.sigma = 5.0
model.h = 9.0
model.l = 1.0
model.mu = 5.0
cost.type = constant
cost.c_i = 1.0
"""

# sigma = 80: the Gaussian region is narrower than one cell at n = 4000,
# so the FD policy settles empty
NARROW = "model.sigma = 80\nrefined.type = gaussian\ngrid.n = 4000\n"
NARROW_REASON = "exploration region narrower than the grid (n = 4000)"


# every key away from its default, to pin the text of --dump-config
DUMP_INPUT = """
model.rho = 2.5
model.sigma = 4
model.h = 12.0
model.l = 0.5
model.mu = 3.25
cost.type = {cost}
cost.c_i = 0.75
refined.type = {refined}
refined.lambda = 3.5
refined.sigma_tilde = 0.5
refined.r = 1.5
grid.n = 500
sim.n_paths = 2000
sim.dt = 5e-4
sim.seed = 99
output.dir = out
"""

DUMP_OUTPUT = """\
model.rho = 2.5
model.sigma = 4.0
model.h = 12.0
model.l = 0.5
model.mu = 3.25
cost.type = {cost}
cost.c_i = 0.75
{refined}grid.n = 500
sim.n_paths = 2000
sim.dt = 0.0005
sim.seed = 99
output.dir = out
"""

DUMP_REFINED = {
    "none": "refined.type = none\n",
    "poisson": "refined.type = poisson\nrefined.lambda = 3.5\nrefined.r = 1.5\n",
    "gaussian": (
        "refined.type = gaussian\nrefined.sigma_tilde = 0.5\nrefined.r = 1.5\n"
    ),
}


def _write_cfg(tmp_path, text, extra=""):
    p = tmp_path / "run.cfg"
    p.write_text(text + extra)
    return str(p)


def _percent_csv(path, header, rows):
    """Reference writer: one `%` per block of 256 rows, with '%s' for a
    column whose first cell is a str and '%.8g' for any other."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            line = ",".join("%s" if isinstance(c, str) else "%.8g" for c in rows[0]) + "\n"
            for start in range(0, len(rows), 256):
                block = rows[start : start + 256]
                fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


def _fuzz_cells(rng):
    """About 1.1 million doubles, of random sign, aimed at every path of
    the CSV kernel."""
    n = 250_000
    decades = rng.uniform(1, 10, n) * 10.0 ** rng.integers(-320, 301, n).astype(float)
    # exact binary halves, quarters, ... up to the 8th digit and beyond
    binary = rng.integers(-10**9, 10**9, n) / 2.0 ** rng.integers(0, 30, n)
    # a decimal tie at the 8th digit in each decade, as near as a double gets
    ties = (rng.integers(10**7, 10**8, n) + 0.5) * 10.0 ** rng.integers(-12, 3, n).astype(float)
    powers = 10.0 ** np.arange(-5, 10)
    octaves = 2.0 ** np.arange(-14, 28)
    # 8-digit mantissas with lo = 0 in each decade: the split's exact quotients
    round_lo = np.arange(1000, 10_000) * 1e4 / 10.0 ** rng.integers(0, 12, 9000)
    special = [
        12345678.5, 1234567.25, 0.125, 99999999.6, 9.99999996, 9.99999995e-5,
        99999999.5, 99999998.5, 1e-4, 1e8, 0.0, -0.0, math.nan, math.inf,
        -math.inf, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
        1200.0, 0.5, 12340000.0, 99990000.0,
    ]
    cells = np.concatenate([
        decades, binary, ties,
        rng.uniform(-1e8, 1e8, 100_000),
        np.round(rng.uniform(-1e3, 1e3, 100_000), 3),
        1 + 0.00045625 * np.arange(50_000),
        np.linspace(0.0, 1.0, 100_001),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, math.inf),
        octaves, np.nextafter(octaves, 0.0), np.nextafter(octaves, math.inf),
        round_lo, special,
    ])
    return cells * rng.choice([-1.0, 1.0], cells.size)


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

    @pytest.mark.parametrize("refined", ["none", "poisson", "gaussian"])
    @pytest.mark.parametrize("cost_type", ["constant", "variance", "stddev"])
    def test_dump_config_text(self, cost_type, refined):
        text = DUMP_INPUT.format(cost=cost_type, refined=refined)
        expected = DUMP_OUTPUT.format(cost=cost_type, refined=DUMP_REFINED[refined])
        assert dump_config(build_config(parse_config_text(text))) == expected

    def test_hash_inside_a_value_round_trips(self):
        cfg = build_config(parse_config_text("output.dir = x#y\n"))
        assert cfg.out_dir == "x#y"
        dumped = dump_config(cfg)
        assert "output.dir = x#y\n" in dumped
        assert dump_config(build_config(parse_config_text(dumped))) == dumped
        # a '#' after whitespace still starts a comment
        entries = parse_config_text("output.dir = x #y\n#z = 1\n")
        assert entries["output.dir"] == "x"

    @pytest.mark.parametrize("out_dir", ["#x", "a #b", " lead"])
    def test_dump_config_refuses_a_dir_it_cannot_round_trip(self, capsys, out_dir):
        # '#x' would reload as an empty value, 'a #b' as 'a', ' lead' as 'lead'
        assert main(["--out", out_dir, "--dump-config"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "output.dir" in captured.err

    def test_removed_solver_keys_rejected(self):
        with pytest.raises(ConfigError, match="solver.method"):
            parse_config_text("solver.method = policy")

    def test_removed_horizon_key_rejected(self, tmp_path, capsys):
        # the first-stage horizon is 20/rho, derived, not configured
        with pytest.raises(ConfigError, match="unknown config key 'sim.t_max'"):
            parse_config_text("sim.t_max = 20.0")
        cfg = _write_cfg(tmp_path, BENCH, "sim.t_max = 20.0\n")
        assert main(["--config", cfg, "--dump-config"]) == EXIT_CONFIG
        assert "unknown config key 'sim.t_max'" in capsys.readouterr().err
        assert main(["--dump-config"]) == EXIT_OK
        assert "sim.t_max" not in capsys.readouterr().out

    def test_removed_antithetic_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'sim.antithetic'"):
            parse_config_text("sim.antithetic = true")

    def test_seed_env_var_is_not_read(self, monkeypatch):
        monkeypatch.setenv("STOPFLOW_SEED", "777")
        cfg = build_config(parse_config_text(BENCH))
        assert cfg.sim.seed == 12345

    def test_invalid_model_rejected_with_key(self):
        with pytest.raises(ConfigError, match="model.mu"):
            build_config(parse_config_text("model.mu = 42.0"))

    @pytest.mark.parametrize("text,message", [
        ("model.rho = x", "key 'model.rho': not a finite number: 'x'"),
        ("model.h = inf", "key 'model.h': not a finite number: 'inf'"),
        ("model.sigma = nan", "key 'model.sigma': not a finite number: 'nan'"),
        ("cost.c_i = -inf", "key 'cost.c_i': not a finite number: '-inf'"),
        ("sim.dt = inf", "key 'sim.dt': not a finite number: 'inf'"),
        ("grid.n = 4.5", "key 'grid.n': not an integer: '4.5'"),
        ("cost.type = tabulated", "cost.type: unknown cost type 'tabulated'"),
        ("refined.type = weird", "refined.type: unknown regime 'weird'"),
        ("grid.n = 8", "grid.n: grid needs at least 16 intervals, got 8"),
        ("cost.type = variance\ncost.c_i = -1", "cost.c_i: scale must be >= 0, got -1.0"),
        ("cost.type = stddev\ncost.c_i = -1", "cost.c_i: scale must be >= 0, got -1.0"),
        ("model.rho 1.0", "line 1: expected 'key = value', got 'model.rho 1.0'"),
        ("refined.type = poisson\nrefined.lambda = 0",
         "refined.*: Poisson intensity must be positive, got 0.0"),
        ("refined.type = gaussian\nrefined.sigma_tilde = 0",
         "refined.*: refined volatility must be positive, got 0.0"),
    ])
    def test_bad_value_message(self, text, message):
        with pytest.raises(ConfigError) as info:
            build_config(parse_config_text(text))
        assert str(info.value) == message

    def test_defaults_are_those_of_the_classes(self):
        # grid.n and sim.* have one owner: a changed SimConfig or Grid
        # default is the CLI's default too
        cfg = load_config(None)
        assert cfg.sim == SimConfig()
        assert cfg.grid == Grid()

    def test_readme_lists_every_key_and_default(self):
        # the `key = value` block of README's "Command line" section
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1]
        block = section.split("```\n", 2)[1]
        listed = [
            tuple(part.strip() for part in line.split("#", 1)[0].split("=", 1))
            for line in block.splitlines()
        ]
        assert listed == list(cli._DEFAULTS.items())


class TestModuleEntryPoint:
    def test_python_m_stopflow(self, capsys):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "stopflow", "--dump-config"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert main(["--dump-config"]) == EXIT_OK
        assert done.stdout == capsys.readouterr().out


class TestParser:
    def test_built_once_and_nothing_leaks(self):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        assert parser.parse_args(["solve", "--method", "both"]).method == "both"
        assert parser.parse_args(["solve"]).method == "fd"
        assert parser.parse_args(["mc", "--seed", "5"]).seed == 5
        assert parser.parse_args(["mc"]).seed is None

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_OK
        assert capsys.readouterr().out == cli._build_parser().format_help()


class TestParseValues:
    def test_comma_list(self):
        assert parse_values("1,2,3.5", "--values") == [1.0, 2.0, 3.5]

    def test_range_inclusive(self):
        assert parse_values("0.5:2.0:0.5", "--values") == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_range_values_do_not_drift(self):
        values = parse_values("1:2:0.1", "--values")
        expected = [1 + i / 10 for i in range(11)]
        assert len(values) == len(expected)
        assert all(abs(v - e) <= math.ulp(e) for v, e in zip(values, expected))
        assert parse_values("0.1:0.3:0.1", "--values")[-1] == 0.3

    @pytest.mark.parametrize("spec,message", [
        ("a,b", "not a finite number: 'a,b'"),
        ("1:2", "range needs start:stop:step, got '1:2'"),
        ("1:x:1", "not a finite number: '1:x:1'"),
        ("1:2:0", "step must be positive, got 0.0"),
    ], ids=["comma-list", "two-parts", "range-not-finite", "zero-step"])
    def test_bad_spec(self, spec, message):
        with pytest.raises(ConfigError) as info:
            parse_values(spec, "--values")
        assert str(info.value) == f"--values: {message}"

    @pytest.mark.parametrize("spec", ["", ",", " , ", "2:1:0.5"])
    def test_empty_list(self, spec):
        with pytest.raises(ConfigError, match="^--q0: empty value list$"):
            parse_values(spec, "--q0")

    def test_error_names_the_flag(self):
        with pytest.raises(ConfigError, match="^--q0: not a finite number: 'abc'$"):
            parse_values("abc", "--q0")

    def test_non_finite_numbers_are_refused_in_bounded_memory(self):
        # a range to inf once counted up without end: run it in a child
        # under a 400 MB address-space cap and a timeout, so that a
        # regression fails here instead of taking the machine's memory
        src = str(Path(__file__).parents[1] / "src")
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
            "from stopflow.cli import ConfigError, parse_values\n"
            "for spec in ('0:inf:1', '0:1:nan', '-inf:0:1', '1,nan', '0.5,inf'):\n"
            "    try:\n"
            "        print(parse_values(spec, '--values'))\n"
            "    except ConfigError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stdout.splitlines() == [
            f"--values: not a finite number: {spec!r}"
            for spec in ("0:inf:1", "0:1:nan", "-inf:0:1", "1,nan", "0.5,inf")
        ], done.stderr

    def test_value_count_is_capped_in_bounded_memory(self):
        # '0:1:1e-300' once counted about 1e300 values and died with
        # MemoryError: a range is counted no further than the cap
        src = str(Path(__file__).parents[1] / "src")
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))\n"
            "from stopflow.cli import MAX_VALUES, ConfigError, parse_values\n"
            "for spec in ('0:1:1e-300', f'1:{MAX_VALUES + 1}:1', f'1:{MAX_VALUES}:1'):\n"
            "    try:\n"
            "        print(len(parse_values(spec, '--values')))\n"
            "    except ConfigError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.stdout.splitlines() == [
            f"--values: more than {cli.MAX_VALUES} values in '0:1:1e-300'",
            f"--values: more than {cli.MAX_VALUES} values in '1:{cli.MAX_VALUES + 1}:1'",
            str(cli.MAX_VALUES),
        ], done.stderr
        with pytest.raises(ConfigError, match="^--q0: more than"):
            parse_values(",".join(["0.5"] * (cli.MAX_VALUES + 1)), "--q0")


class TestWriteCsv:
    def test_literal_text(self, tmp_path):
        # the first row fixes each column's format: a str as it is, any
        # number (bool, int, float, numpy scalar) to 8 significant digits
        rows = [
            ("fd", 1.5, 2, True, math.nan, math.inf, -math.inf, -0.0, 5e-324,
             123456789, np.float64(0.1)),
            ("closed_form", 1 / 3, -7, False, 1e-300, 2.5e17, 1e22, 0.0, -5e-324,
             12345678.9, np.float64(-2.0)),
        ]
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), tuple("abcdefghijk"), list(zip(*rows)))
        assert path.read_text() == (
            "a,b,c,d,e,f,g,h,i,j,k\n"
            "fd,1.5,2,1,nan,inf,-inf,-0,4.9406565e-324,1.2345679e+08,0.1\n"
            "closed_form,0.33333333,-7,0,1e-300,2.5e+17,1e+22,0,-4.9406565e-324,"
            "12345679,-2\n"
        )

    def test_matches_str_format_on_many_rows(self, tmp_path):
        # a str column and 2000 rows
        rng = np.random.default_rng(0)
        rows = [("x", float(a), int(b)) for a, b in zip(
            rng.normal(size=2000) * 1e3, rng.integers(-9, 9, 2000)
        )]
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ("s", "a", "b"), list(zip(*rows)))
        want = "".join(f"{s},{a:.8g},{b:.8g}\n" for s, a, b in rows)
        assert path.read_text() == "s,a,b\n" + want

    def test_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ("q", "value"), ([], []))
        assert path.read_text() == "q,value\n"

    def test_fuzz_matches_percent_format(self, tmp_path):
        # 5 columns: no block holds a whole multiple of the row width of
        # _CSV_BLOCK cells, and the last block is partial
        cells = _fuzz_cells(np.random.default_rng(2024))
        cells = cells[: cells.size // 5 * 5].reshape(-1, 5)
        assert cells.size >= 1_000_000
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli._write_csv(str(got), tuple("abcde"), cells.T)
        _percent_csv(str(want), tuple("abcde"), [tuple(r) for r in cells.tolist()])
        assert got.read_bytes() == want.read_bytes()

    def test_mixed_cell_types_match_percent_format(self, tmp_path):
        # str, bool, int (past int64), numpy scalars and floats side by side
        numbers = [
            True, False, 0, 1, -1, 2**53 + 1, 2**63, -2**70, 2**70,
            np.int64(-7), np.float32(0.1), np.float64(2.5e-5), np.bool_(True),
            5e-324, -0.0, 1e-4 * (1 - 2**-52),
        ]
        rng = np.random.default_rng(5)
        rows = [
            (f"s{i}" * (i % 7), numbers[i % len(numbers)],
             float(rng.normal() * 10.0 ** rng.integers(-6, 10)), numbers[-1 - i % len(numbers)])
            for i in range(3000)
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli._write_csv(str(got), tuple("abcd"), list(zip(*rows)))
        _percent_csv(str(want), tuple("abcd"), rows)
        assert got.read_bytes() == want.read_bytes()

    def test_number_cell_types_match_percent_format(self, tmp_path):
        # without a str column every cell goes through _format_numbers:
        # bools, ints past int64 and numpy scalars beside floats, over two
        # whole blocks of 1365 rows and a partial one
        numbers = [
            True, False, 0, 1, -1, 2**53 + 1, 2**63, -2**70, 2**70,
            np.int64(-7), np.float32(0.1), np.float64(2.5e-5), np.bool_(True),
            5e-324, -0.0, 1e-4 * (1 - 2**-52),
        ]
        rng = np.random.default_rng(6)
        rows = [
            (numbers[i % len(numbers)], float(rng.normal() * 10.0 ** rng.integers(-6, 10)),
             numbers[-1 - i % len(numbers)])
            for i in range(3000)
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli._write_csv(str(got), tuple("abc"), list(zip(*rows)))
        _percent_csv(str(want), tuple("abc"), rows)
        assert got.read_bytes() == want.read_bytes()

    def test_str_columns_inside_and_last_match_percent_format(self, tmp_path):
        # the sweep_<param>.csv layout, a str column between number columns,
        # plus a str column in last place, over 2600 rows
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e8, 99999999.5]
        rng = np.random.default_rng(11)
        rows = [
            (float(rng.normal() * 10.0 ** rng.integers(-6, 10)), special[i % 7],
             ("fd", "closed_form", "")[i % 3], -special[-1 - i % 7], f"r{i}" * (i % 4))
            for i in range(2600)
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli._write_csv(str(got), tuple("abcde"), list(zip(*rows)))
        _percent_csv(str(want), tuple("abcde"), rows)
        assert got.read_bytes() == want.read_bytes()

    def test_octave_tables_match_the_bounds(self):
        # every biased exponent, at the smallest and largest double of its
        # octave: one lookup and one comparison give the bucket a search of
        # _BOUNDS gives
        e = np.arange(2048, dtype=np.int64) << 52
        for a in (e.view(np.float64), (e | (1 << 52) - 1).view(np.float64)):
            octave = a.view(np.int64) >> 52
            bucket = cli._OCTAVE_BUCKET[octave] + (a >= cli._OCTAVE_NEXT[octave])
            assert (bucket == np.searchsorted(cli._BOUNDS, a, side="right")).all()

    def test_every_layout_matches_percent_format(self, tmp_path):
        # the value of each layout `%` spells at import (decade e, s
        # significant digits, sign; and +-0), then in each decade a tie at
        # the 8th digit and values below 1e-4, which `%` formats
        layouts = [
            float(f"{sign}{'12345678'[:s]}e{e - s + 1}")
            for e in range(-4, 8) for s in range(1, 9) for sign in ("", "-")
        ] + [0.0, -0.0]
        fallbacks = [
            float(f"{sign}{m}e{e}")
            for e in range(-12, 8)
            for m in ("1.00000005", "1.2", "9.8765432")
            for sign in ("", "-")
        ]
        for i, x in enumerate(layouts + fallbacks):
            path = tmp_path / f"{i}.csv"
            cli._write_csv(str(path), ("x",), ([x],))
            assert path.read_text() == f"x\n{'%.8g' % x}\n", x

    def test_only_number_files_go_through_the_kernel(self, tmp_path, monkeypatch):
        # a file with a str column is one `%` over its rows
        files, kernel_files = [], set()
        write, kernel = cli._write_csv, cli._format_numbers

        def writing(path, header, columns):
            files.append(os.path.basename(path))
            write(path, header, columns)

        def spying(x):
            kernel_files.add(files[-1])
            return kernel(x)

        monkeypatch.setattr(cli, "_write_csv", writing)
        monkeypatch.setattr(cli, "_format_numbers", spying)
        cfg = _write_cfg(tmp_path, BENCH, "grid.n = 500\n")
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out, "solve", "--method", "both"]) == EXIT_OK
        assert main(["--config", cfg, "--out", out, "sweep", "--param", "rho",
                     "--values", "0.5,1"]) == EXIT_OK
        assert files == ["value.csv", "boundaries.csv", "sweep_rho.csv"]
        assert kernel_files == {"value.csv"}

    @pytest.mark.parametrize("n", [4000, 16001])
    @pytest.mark.parametrize("regime", ["none", "poisson", "gaussian"])
    def test_value_csv_matches_percent_format(self, tmp_path, monkeypatch, regime, n):
        # the columns cmd_solve hands the writer, as the reference sees them,
        # at the bench's size and at a grid.n with no factor 2; both files
        # end in a partial block
        written, write = {}, cli._write_csv

        def recording(path, header, columns):
            written[os.path.basename(path)] = (header, columns)
            write(path, header, columns)

        monkeypatch.setattr(cli, "_write_csv", recording)
        cfg = _write_cfg(tmp_path, BENCH, f"refined.type = {regime}\ngrid.n = {n}\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "solve", "--method", "fd"]) == EXIT_OK
        header, columns = written["value.csv"]
        rows = list(zip(*(c.tolist() for c in columns)))
        _percent_csv(str(tmp_path / "want.csv"), header, rows)
        assert (out / "value.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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

    @pytest.mark.parametrize("h", ["1e130", "1e200", "1e308"])
    @pytest.mark.parametrize("regime", ["none", "gaussian"])
    def test_signal_too_weak_is_config_error(self, tmp_path, capsys, h, regime):
        # sigma/(h - l) rounds k to 1: each of these once exited 1 with a
        # ValueError, ZeroDivisionError or OverflowError traceback
        cfg = _write_cfg(tmp_path, BENCH, f"model.h = {h}\nrefined.type = {regime}\n")
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "solve", "--method", "both"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: model.rho/model.sigma/model.h/model.l/model.mu: sigma/(h - l)" in err
        assert not out.exists()

    @pytest.mark.parametrize("regime", ["none", "poisson", "gaussian"])
    @pytest.mark.parametrize("method", ["fd", "closed_form"])
    def test_in_exploration_follows_the_boundaries(self, tmp_path, method, regime):
        cfg = _write_cfg(tmp_path, BENCH, f"refined.type = {regime}\ngrid.n = 4000\n")
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out, "solve", "--method", method]) == EXIT_OK
        (row,) = _read_csv(os.path.join(out, "boundaries.csv"))
        q_lo, q_hi = float(row["q_lo"]), float(row["q_hi"])
        values = _read_csv(os.path.join(out, "value.csv"))
        q = np.array([float(r["q"]) for r in values])
        flags = np.array([int(r["in_exploration"]) for r in values])
        assert np.array_equal(flags, ((q > q_lo) & (q < q_hi)).astype(int))
        assert flags.any()

    @pytest.mark.parametrize("method", ["closed_form", "both"])
    @pytest.mark.parametrize("cost", ["variance", "stddev"])
    def test_closed_form_solves_every_cost(self, tmp_path, cost, method):
        # once refused with exit 2: only a constant cost had a closed form
        text = BENCH.replace("cost.type = constant", f"cost.type = {cost}")
        cfg = _write_cfg(tmp_path, text, "grid.n = 4000\n")
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "solve", "--method", method])
        assert rc == EXIT_OK
        bounds = {row["method"]: row for row in _read_csv(out / "boundaries.csv")}
        assert list(bounds) == (["closed_form"] if method == "closed_form" else ["fd", "closed_form"])
        cf = bounds["closed_form"]
        assert 0.0 < float(cf["q_lo"]) < float(cf["q_hi"]) < 1.0
        for side in ("q_lo", "q_hi"):
            assert abs(float(bounds.get("fd", cf)[side]) - float(cf[side])) <= 2.0 / 4000
        values = _read_csv(out / "value.csv")
        assert len(values) == 4001
        assert all(float(r["value"]) >= float(r["obstacle"]) - 1e-9 for r in values)

    def test_fd_with_stddev_cost(self, tmp_path):
        text = BENCH.replace("cost.type = constant", "cost.type = stddev")
        cfg = _write_cfg(tmp_path, text, "grid.n = 500\n")
        out = str(tmp_path / "out")
        assert main(["--config", cfg, "--out", out, "solve", "--method", "fd"]) == EXIT_OK
        bounds = _read_csv(os.path.join(out, "boundaries.csv"))
        assert [row["method"] for row in bounds] == ["fd"]
        assert 0.0 < float(bounds[0]["q_lo"]) < float(bounds[0]["q_hi"]) < 1.0

    def test_large_k_tilde_closed_form_solves(self, tmp_path, large_k_tilde):
        # both once failed to converge (exit 3): the regions, 7e-14 and
        # 2e-11 wide in log-odds, were refused on the residual bar
        kw, refined = large_k_tilde
        text = "".join(f"model.{k} = {v}\n" for k, v in kw.items())
        text += (
            f"refined.type = gaussian\nrefined.sigma_tilde = {refined.sigma_tilde}\n"
            f"refined.r = {refined.r}\n"
        )
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "solve", "--method", "closed_form"])
        assert rc == EXIT_OK
        (row,) = _read_csv(out / "boundaries.csv")
        assert row["method"] == "closed_form"
        # both regions are narrower than the 8 digits boundaries.csv keeps
        assert 0.0 < float(row["q_lo"]) <= float(row["q_hi"]) < 1.0

    def test_region_a_few_ulps_wide_exits_3(self, tmp_path, capsys):
        # sigma = 1e8, Gaussian: a region a few ulps of q wide is refused on
        # the residual bar (exit 3), not solved to a wrong answer
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = gaussian\nmodel.sigma = 1e8\n")
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "solve", "--method", "closed_form"])
        assert rc == EXIT_CONVERGENCE
        assert "solver failed to converge: smooth-fit residual" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["fd", "both"])
    def test_region_narrower_than_the_grid_exits_2(self, tmp_path, capsys, method):
        # before, fd wrote the kink as both boundaries and exited 0
        cfg = _write_cfg(tmp_path, BENCH, NARROW)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "solve", "--method", method])
        assert rc == EXIT_CONFIG
        assert f"config error: {NARROW_REASON}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["empty", "file", "under-a-file"])
    def test_unusable_output_directory_exits_2(self, tmp_path, capsys, target):
        # each once ended, after the solve, in a FileNotFoundError,
        # FileExistsError or NotADirectoryError traceback with exit 1
        (tmp_path / "afile").write_text("kept\n")
        out = {"empty": "", "file": str(tmp_path / "afile"),
               "under-a-file": str(tmp_path / "afile" / "x")}[target]
        cfg = _write_cfg(tmp_path, BENCH, "grid.n = 500\n")
        rc = main(["--config", cfg, "--out", out, "solve", "--method", "both"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write to output directory {out!r}: ")
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("command", [
        ["sweep", "--param", "sigma", "--values", "5,6", "--check", "prop_sigma"],
        ["mc", "--q0", "0.5"],
        ["figure4"],
    ], ids=["sweep", "mc", "figure4"])
    def test_every_command_refuses_an_unusable_output_directory(
        self, tmp_path, capsys, command
    ):
        (tmp_path / "afile").write_text("kept\n")
        out = str(tmp_path / "afile")
        cfg = _write_cfg(tmp_path, BENCH, "grid.n = 500\nsim.n_paths = 200\n")
        assert main(["--config", cfg, "--out", out, *command]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write to output directory {out!r}: ")

    def test_config_error_exit_code(self, tmp_path):
        cfg = _write_cfg(tmp_path, "model.nope = 1\n")
        assert main(["--config", cfg, "solve"]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.cfg"), "solve"]) == EXIT_CONFIG


class TestSweepCommand:
    def test_region_narrower_than_the_grid_is_a_failed_row(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH, NARROW)
        out = tmp_path / "out"
        rc = main(
            [
                "--config", cfg, "--out", str(out),
                "sweep", "--param", "sigma", "--values", "5,80", "--method", "fd",
            ]
        )
        assert rc == EXIT_OK
        solved, failed = _read_csv(out / "sweep_sigma.csv")
        assert 0.0 < float(solved["q_lo"]) < float(solved["q_hi"]) < 1.0
        assert failed == {
            "param": "80", "q_lo": "nan", "q_hi": "nan", "width": "nan",
            "method": "fd", "residual": "nan",
        }

    def test_signal_too_weak_is_a_failed_row(self, tmp_path):
        # h = 1e308 rounds k to 1; the closed form once raised ZeroDivisionError
        cfg = _write_cfg(tmp_path, BENCH)
        out = tmp_path / "out"
        rc = main(
            [
                "--config", cfg, "--out", str(out),
                "sweep", "--param", "h", "--values", "9,1e308", "--method", "closed_form",
            ]
        )
        assert rc == EXIT_OK
        solved, failed = _read_csv(out / "sweep_h.csv")
        assert 0.0 < float(solved["q_lo"]) < float(solved["q_hi"]) < 1.0
        assert failed == {
            "param": "1e+308", "q_lo": "nan", "q_hi": "nan", "width": "nan",
            "method": "closed_form", "residual": "nan",
        }

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
        violation = ((0.5, 1.0, "q_lo"),)
        monkeypatch.setattr(cli, "check_monotonicity", lambda result, claim: violation)
        cfg = _write_cfg(tmp_path, BENCH)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "sweep", "--param", "rho", "--values", "0.5,1",
                "--check", "prop_rho",
            ]
        )
        assert rc == EXIT_CHECK
        report = (tmp_path / "out" / "monotonicity.txt").read_text()
        assert report == "prop_rho: FAIL violations=((0.5, 1.0, 'q_lo'),)\n"

    @pytest.mark.parametrize("values", ["5,400", "5,80,400"])
    def test_claim_check_fails_on_a_failed_row(self, tmp_path, values):
        # sigma = 400: the FD region is empty at n = 4000, so that row fails
        # and with it the claim, however many rows solved
        cfg = _write_cfg(tmp_path, BENCH)
        out = tmp_path / "out"
        rc = main(
            [
                "--config", cfg, "--out", str(out), "sweep", "--param", "sigma",
                "--values", values, "--method", "fd", "--check", "prop_sigma",
            ]
        )
        assert rc == EXIT_CHECK
        assert (out / "monotonicity.txt").read_text() == (
            f"prop_sigma: FAIL failed=[(400.0, {NARROW_REASON!r})]\n"
        )
        assert _read_csv(out / "sweep_sigma.csv")[-1]["q_lo"] == "nan"

    def test_repeated_value_is_solved_once(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH)
        out = tmp_path / "out"
        rc = main(
            [
                "--config", cfg, "--out", str(out),
                "sweep", "--param", "rho", "--values", "1,1,2", "--check", "prop_rho",
            ]
        )
        assert rc == EXIT_OK
        assert [row["param"] for row in _read_csv(out / "sweep_rho.csv")] == ["1", "2"]
        assert (out / "monotonicity.txt").read_text() == "prop_rho: PASS\n"

    @pytest.mark.parametrize("check,param,value", [
        ("limit_sigma", "sigma", "5"), ("limit_c_i", "c_i", "1"),
    ])
    @pytest.mark.parametrize("regime", ["poisson", "gaussian"])
    def test_refined_limit_checks_pass(self, tmp_path, regime, check, param, value):
        # the regions shrink onto the refined crossing point (1/3, 0.2505)
        cfg = _write_cfg(tmp_path, BENCH, f"refined.type = {regime}\n")
        out = str(tmp_path / "out")
        rc = main(
            [
                "--config", cfg, "--out", out,
                "sweep", "--param", param, "--values", value, "--check", check,
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "monotonicity.txt").read_text() == f"{check}: PASS\n"

    def test_limit_check_needs_every_rung(self, tmp_path, monkeypatch):
        from stopflow import sensitivity
        from stopflow.model import ParameterError

        def first_rung_fails(inst, method):
            # h = 9 fails; the other rungs close in on (0, 1)
            h = inst.params.h
            if h < 10.0:
                raise ParameterError("failed")
            return 1.0 / h, 1.0 - 1.0 / h, 0.0

        monkeypatch.setattr(sensitivity, "_solve_row", first_rung_fails)
        cfg = _write_cfg(tmp_path, BENCH)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "sweep", "--param", "h", "--values", "9", "--check", "limit_h_to_inf",
            ]
        )
        assert rc == EXIT_CHECK

    @pytest.mark.parametrize("h", ["5000", "20000", "60000"])
    def test_h_to_inf_ladder_without_three_rungs_exits_2(self, tmp_path, capsys, h):
        # the rungs are capped at 1e4 mu: this check once always wrote
        # FAIL failed=[] and exited 4
        cfg = _write_cfg(tmp_path, BENCH, f"model.h = {h}\n")
        out = tmp_path / "out"
        rc = main(
            [
                "--config", cfg, "--out", str(out),
                "sweep", "--param", "h", "--values", h, "--check", "limit_h_to_inf",
            ]
        )
        assert rc == EXIT_CONFIG
        assert f"config error: limit ladder h_to_inf: h = {h} leaves" in capsys.readouterr().err
        assert not out.exists()

    def test_h_to_inf_ladder_just_below_the_refusal(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH, "model.h = 4999\n")
        out = tmp_path / "out"
        rc = main(
            [
                "--config", cfg, "--out", str(out),
                "sweep", "--param", "h", "--values", "4999", "--check", "limit_h_to_inf",
            ]
        )
        assert rc == EXIT_OK
        assert (out / "monotonicity.txt").read_text() == "limit_h_to_inf: PASS\n"

    @pytest.mark.parametrize("cost, which, param, value, rungs", [
        ("variance", "sigma", "sigma", "1e8", (1e8, 4e8, 1.6e9, 6.4e9, 2.56e10)),
        ("variance", "l_to_mu", "l", "1", (3.0, 4.5, 4.875, 4.96875, 4.9921875)),
        ("stddev", "l_to_mu", "l", "1", (3.0, 4.5, 4.875, 4.96875, 4.9921875)),
    ], ids=["variance-sigma", "variance-l_to_mu", "stddev-l_to_mu"])
    def test_failed_limit_check_names_its_failed_rungs(
        self, tmp_path, cost, which, param, value, rungs
    ):
        # sigma = 1e8, Gaussian: every rung's region is a few ulps of q
        # wide, and the closed form refuses it on its residual bar.  The
        # --values row is solved by FD
        extra = f"cost.type = {cost}\nmodel.sigma = 1e8\nrefined.type = gaussian\n"
        cfg = _write_cfg(tmp_path, BENCH, extra)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"), "sweep", "--param", param,
                "--values", value, "--method", "fd", "--check", f"limit_{which}",
            ]
        )
        assert rc == EXIT_CHECK
        report = (tmp_path / "out" / "monotonicity.txt").read_text()
        residual = r"'smooth-fit residual \S+ above 5e-10 \(h \+ Pi\)'"
        failed = ", ".join(rf"\({scale!r}, {residual}\)" for scale in rungs)
        assert re.fullmatch(rf"limit_{which}: FAIL failed=\[{failed}\]\n", report), report

    @pytest.mark.parametrize(
        "check", [*CLAIMS, *(f"limit_{which}" for which in LIMITS), "prop_banana"]
    )
    def test_check_names_come_from_the_sensitivity_tables(
        self, tmp_path, monkeypatch, check
    ):
        from stopflow.sensitivity import LimitRow, LimitTable, SweepResult

        ran = []
        monkeypatch.setattr(
            cli, "run_sweep", lambda base, param, values, method: SweepResult(param, (), base)
        )
        monkeypatch.setattr(
            cli, "check_monotonicity",
            lambda result, claim: ran.append(claim) or (),
        )
        monkeypatch.setattr(
            cli, "limit_diagnostics",
            lambda base, which: ran.append(which)
            or LimitTable(which, 0.0, 0.0, (LimitRow(1.0, 0.0, 0.0),), True, True, True),
        )
        # a claim is checked against its own parameter; a Poisson regime
        # with a constant cost is a base every limit ladder can run
        param = CLAIMS[check][0] if check in CLAIMS else "rho"
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = poisson\n")
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "sweep", "--param", param, "--values", "1,2", "--check", check,
            ]
        )
        if check == "prop_banana":
            assert (rc, ran) == (EXIT_CONFIG, [])
        else:
            assert (rc, ran) == (EXIT_OK, [check.removeprefix("limit_")])

    @pytest.mark.parametrize("extra,param,method,message", [
        ("", "lambda", (), "lambda needs a Poisson regime"),
    ], ids=["lambda-irreversible"])
    def test_sweep_that_cannot_run_is_config_error(
        self, tmp_path, capsys, monkeypatch, extra, param, method, message
    ):
        from stopflow import sensitivity

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a row of a sweep that cannot run")

        monkeypatch.setattr(sensitivity, "_solve_row", no_solve)
        cfg = _write_cfg(tmp_path, BENCH, extra)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "sweep", "--param", param, "--values", "1,2", *method,
            ]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cost,method", [
        ("constant", "closed_form"), ("variance", "closed_form"),
    ])
    def test_sweep_method_follows_the_cost(self, tmp_path, cost, method):
        # the closed form is the default for every cost; a variance cost was
        # once solved by FD, and before that its limit_rho exited 2
        text = BENCH.replace("cost.type = constant", f"cost.type = {cost}")
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "out"
        rc = main(
            [
                "--config", cfg, "--out", str(out),
                "sweep", "--param", "rho", "--values", "1", "--check", "limit_rho",
            ]
        )
        assert rc == EXIT_OK
        (row,) = _read_csv(out / "sweep_rho.csv")
        assert row["method"] == method
        assert (out / "monotonicity.txt").read_text() == "limit_rho: PASS\n"

    @pytest.mark.parametrize("check,param,value", [
        ("limit_rho", "rho", "1"), ("limit_sigma", "sigma", "5"), ("limit_c_i", "c_i", "1"),
        ("limit_l_to_mu", "l", "1"), ("limit_h_to_inf", "h", "9"),
    ], ids=["rho", "sigma", "c_i", "l_to_mu", "h_to_inf"])
    @pytest.mark.parametrize("cost", ["variance", "stddev"])
    def test_every_limit_check_passes_for_every_cost(self, tmp_path, cost, check, param, value):
        # at the defaults: six exited 4 while these costs solved by FD, whose
        # narrowest regions fell below one cell, and limit_c_i exited 2
        text = BENCH.replace("cost.type = constant", f"cost.type = {cost}")
        out = tmp_path / "out"
        rc = main(
            [
                "--config", _write_cfg(tmp_path, text), "--out", str(out),
                "sweep", "--param", param, "--values", value, "--check", check,
            ]
        )
        assert rc == EXIT_OK
        assert (out / "monotonicity.txt").read_text() == f"{check}: PASS\n"

    @pytest.mark.parametrize("check,values,message", [
        ("nonsense", "1,2", "--check: unknown check 'nonsense'"),
        ("prop_sigma", "1,2",
         "claim 'prop_sigma' checks parameter 'sigma', but the sweep varied 'rho'"),
        ("prop_rho", "1", "--values: a claim check needs at least two distinct values"),
        ("prop_rho", "1,1", "--values: a claim check needs at least two distinct values"),
    ], ids=["unknown", "other-parameter", "one-value", "repeated-value"])
    def test_bad_check_solves_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, check, values, message
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the --check was judged")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = tmp_path / "out"
        rc = main(
            [
                "--out", str(out),
                "sweep", "--param", "rho", "--values", values, "--check", check,
            ]
        )
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert "wrote" not in captured.out
        assert not (out / "sweep_rho.csv").exists()

    @pytest.mark.parametrize("param,check,extra,method,message", [
        ("rho", "limit_lambda", "", "closed_form", "lambda needs a Poisson regime"),
        # mu - l = 4: the base is outside the model, so every rung would be
        ("lambda", "limit_lambda", "refined.type = poisson\nrefined.r = 5\n", "closed_form",
         "return fee must satisfy 0 < r < mu - l = 4.0, got r=5.0"),
    ], ids=["lambda-irreversible", "lambda-fee-above-mu-minus-l"])
    def test_ladder_that_cannot_run_solves_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch, param, check, extra, method, message
    ):
        # the sweep itself could run: only the ladder's base is wrong
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the ladder's base was judged")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        cfg = _write_cfg(tmp_path, BENCH, extra)
        out = tmp_path / "out"
        rc = main(
            [
                "--config", cfg, "--out", str(out), "sweep", "--param", param,
                "--values", "1,2", "--check", check, "--method", method,
            ]
        )
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {message}" in captured.err
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_unknown_param_is_config_error(self, tmp_path):
        cfg = _write_cfg(tmp_path, BENCH)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "sweep", "--param", "banana", "--values", "1,2",
            ]
        )
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("spec", ["", ","])
    def test_empty_values_is_config_error(self, tmp_path, capsys, spec):
        cfg = _write_cfg(tmp_path, BENCH)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "sweep", "--param", "rho", "--values", spec,
            ]
        )
        assert rc == EXIT_CONFIG
        assert "--values: empty value list" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMcCommand:
    @pytest.mark.parametrize("target", ["outer", "composed"])
    def test_region_narrower_than_the_grid_exits_2(
        self, tmp_path, capsys, monkeypatch, target
    ):
        # before, outer failed in the simulation with "need 0 < q_lo < q_hi < 1"
        def no_sim(*args, **kwargs):
            raise AssertionError("simulated an empty region")

        monkeypatch.setattr(cli, f"mc_value_{target}", no_sim)
        cfg = _write_cfg(tmp_path, BENCH, NARROW)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "mc", "--target", target])
        assert rc == EXIT_CONFIG
        assert f"config error: {NARROW_REASON}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_path_is_config_error(self, tmp_path, capsys):
        # one path reported std_err = 0, so z was inf and mc exited 5
        cfg = _write_cfg(tmp_path, BENCH, "grid.n = 500\nsim.n_paths = 1\n")
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "mc", "--target", "outer", "--q0", "0.5"])
        assert rc == EXIT_CONFIG
        assert "config error: sim.n_paths must be at least 2, got 1" in capsys.readouterr().err
        assert not out.exists()

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

    def test_seed_flag_acts_as_sim_seed(self, tmp_path):
        # --seed 7 on the default seed writes what sim.seed = 7 writes
        written = {}
        for name, extra, flag in [
            ("config-7", "sim.seed = 7\n", []),
            ("flag-7", "", ["--seed", "7"]),
            ("flag-8", "", ["--seed", "8"]),
        ]:
            cfg = _write_cfg(tmp_path, BENCH, "sim.n_paths = 2000\ngrid.n = 500\n" + extra)
            out = tmp_path / name
            rc = main(["--config", cfg, "--out", str(out), "mc", *flag, "--q0", "0.4,0.5"])
            assert rc in (EXIT_OK, EXIT_MC)
            written[name] = (out / "mc.csv").read_bytes()
        assert written["flag-7"] == written["config-7"]
        assert written["flag-8"] != written["config-7"]

    def test_biased_estimator_trips_exit_code(self, tmp_path, monkeypatch):
        from stopflow.simulate import MCEstimate

        def biased(cost, ob, q_lo, q_hi, q0, cfg):
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

    @pytest.mark.parametrize("mean,z", [(9.99, "inf"), (0.01, "-inf")])
    def test_exact_estimate_off_the_oracle_is_infinite_z(
        self, tmp_path, monkeypatch, mean, z
    ):
        from stopflow.simulate import MCEstimate

        def exact(cost, ob, q_lo, q_hi, q0, cfg):
            return MCEstimate(mean, 0.0, cfg.n_paths, 0.0)

        monkeypatch.setattr(cli, "mc_value_outer", exact)
        cfg = _write_cfg(tmp_path, BENCH, "grid.n = 500\n")
        out = str(tmp_path / "out")
        rc = main(["--config", cfg, "--out", out, "mc", "--target", "outer", "--q0", "0.5"])
        assert rc == EXIT_MC
        assert _read_csv(os.path.join(out, "mc.csv"))[0]["z_score"] == z

    @pytest.mark.parametrize("target,regime,q0", [
        ("outer", "poisson", 0.90013), ("outer", "gaussian", 0.90013),
        ("outer", "gaussian", 0.70007), ("composed", "gaussian", 0.1),
    ])
    def test_exact_value_off_the_region_meets_its_oracle(
        self, tmp_path, target, regime, q0
    ):
        # off (q_lo, q_hi) the estimate is exact, with zero standard error,
        # so its oracle must be exact too: the obstacle, FD's contact value.
        # Interpolating FD's node values between grid nodes missed it by
        # rounding, and the z-score read -inf
        cfg = _write_cfg(tmp_path, BENCH, f"refined.type = {regime}\n")
        out = str(tmp_path / "out")
        rc = main(["--config", cfg, "--out", out, "mc", "--target", target, "--q0", str(q0)])
        assert rc == EXIT_OK
        (row,) = _read_csv(os.path.join(out, "mc.csv"))
        assert (row["mc_stderr"], row["z_score"]) == ("0", "0")
        assert row["mc_mean"] == row["oracle_value"]

    @pytest.mark.parametrize("target,regime,q0", [
        ("outer", "none", "0.3,0.5,0.7"), ("composed", "gaussian", "0.25"),
    ])
    def test_runs_at_a_small_rho(self, tmp_path, target, regime, q0):
        # the horizon 20/rho follows rho: at rho = 0.5, every other key at
        # its default, the first stage runs to t = 40 instead of exiting 2
        cfg = _write_cfg(tmp_path, f"model.rho = 0.5\nrefined.type = {regime}\n")
        out = str(tmp_path / "out")
        rc = main(["--config", cfg, "--out", out, "mc", "--target", target, "--q0", q0])
        assert rc in (EXIT_OK, EXIT_MC)
        rows = _read_csv(os.path.join(out, "mc.csv"))
        assert len(rows) == len(q0.split(","))

    def test_unknown_target_of_a_direct_call_is_config_error(self, monkeypatch):
        # argparse's choices refuse it on the command line; a direct call
        # would otherwise run the composed estimate
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_vi called on an unknown target")

        monkeypatch.setattr(cli, "solve_vi", no_solve)
        cfg = build_config(parse_config_text(BENCH + "refined.type = poisson\n"))
        with pytest.raises(ConfigError, match="^--target: unknown target 'inner'$"):
            cli.cmd_mc(cfg, "inner", [0.5], None)

    @pytest.mark.parametrize("target", ["outer", "composed"])
    def test_sim_checked_before_the_oracle_solve(
        self, tmp_path, capsys, monkeypatch, target
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_vi called before the sim.* check")

        monkeypatch.setattr(cli, "solve_vi", no_solve)
        extra = "refined.type = poisson\nsim.n_paths = 0\n"
        cfg = _write_cfg(tmp_path, BENCH, extra)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "mc", "--target", target, "--q0", "0.5",
            ]
        )
        assert rc == EXIT_CONFIG
        assert "sim.n_paths must be at least 2, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_step_longer_than_the_horizon_is_config_error(self, tmp_path, capsys):
        # dt = 100 rounds 20/rho/dt = 0.2 to no step: every path then
        # stopped at t = 0 and the estimate read -0.99999999
        cfg = _write_cfg(tmp_path, BENCH, "grid.n = 500\nsim.dt = 100\n")
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "mc", "--target", "outer"])
        assert rc == EXIT_CONFIG
        assert "20/rho/dt must round to at least one step, got 0.2" in capsys.readouterr().err
        assert not out.exists()

    def test_step_count_above_the_cap_is_config_error(self, tmp_path, capsys, monkeypatch):
        # dt = 1e-12 asked for 2e13 steps, and the command ran without end
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_vi called before the sim.* check")

        monkeypatch.setattr(cli, "solve_vi", no_solve)
        extra = "grid.n = 500\nsim.dt = 1e-12\nsim.n_paths = 10\n"
        cfg = _write_cfg(tmp_path, BENCH, extra)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "mc", "--target", "outer", "--q0", "0.5"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: sim.dt = 1e-12 makes 20/rho/dt = 2e+13 steps" in err
        assert not out.exists()
        with pytest.raises(ConfigError, match="^sim.dt = 1e-12"):
            cli.cmd_mc(build_config(parse_config_text(BENCH + extra)), "outer", [0.5], None)

    def test_belief_outside_unit_interval_is_config_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = gaussian\n")
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "mc", "--target", "nested", "--q0=-0.1,0.5,1.2",
            ]
        )
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--q0" in err and "-0.1" in err and "1.2" in err
        assert not (tmp_path / "out" / "mc.csv").exists()

    @pytest.mark.parametrize("target", ["nested", "composed"])
    def test_refined_target_needs_a_refined_regime(self, tmp_path, capsys, monkeypatch, target):
        solves = []
        monkeypatch.setattr(cli, "solve_vi", lambda *args: solves.append(args))
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = none\n")
        rc = main(["--config", cfg, "--out", str(tmp_path / "out"), "mc", "--target", target])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: refined.type: {target} target needs poisson or gaussian\n"
        )
        assert solves == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec,message", [
        ("", "--q0: empty value list"),
        (",", "--q0: empty value list"),
        ("abc", "--q0: not a finite number"),
        ("0.5,nan", "--q0: not a finite number"),
    ], ids=["empty", "comma", "not-numeric", "nan"])
    def test_bad_q0_list_is_config_error(
        self, tmp_path, capsys, monkeypatch, spec, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_vi called on a bad --q0")

        monkeypatch.setattr(cli, "solve_vi", no_solve)
        cfg = _write_cfg(tmp_path, BENCH)
        rc = main(
            [
                "--config", cfg, "--out", str(tmp_path / "out"),
                "mc", "--target", "outer", "--q0", spec,
            ]
        )
        assert rc == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_paths_option_is_gone(self, tmp_path, capsys):
        # sim.n_paths is the one way to set the path count
        with pytest.raises(SystemExit) as info:
            main(["--out", str(tmp_path / "out"), "mc", "--paths", "10"])
        assert info.value.code == EXIT_CONFIG
        assert "--paths" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("regime,args", [
        ("gaussian", ["mc", "--target", "composed", "--q0", "0.05,0.5,0.95"]),
        ("poisson", ["mc", "--target", "nested", "--q0", "0.05,0.5,0.95"]),
        ("gaussian", ["mc", "--target", "nested", "--q0", "0.05,0.5,0.95"]),
        ("none", ["solve", "--method", "both"]),
        ("poisson", ["solve", "--method", "both"]),
        ("gaussian", ["solve", "--method", "both"]),
    ], ids=["composed-gaussian", "nested-poisson", "nested-gaussian",
            "solve-both-none", "solve-both-poisson", "solve-both-gaussian"])
    def test_one_obstacle_per_command(self, tmp_path, monkeypatch, regime, args):
        # one ObstacleFn per command: not one more per --q0 belief, nor one
        # more for the closed form next to fd
        built = []
        create = ObstacleFn.create

        def spy(params, refined):
            built.append(refined)
            return create(params, refined)

        monkeypatch.setattr(ObstacleFn, "create", spy)
        extra = f"refined.type = {regime}\nsim.n_paths = 1000\ngrid.n = 500\n"
        cfg = _write_cfg(tmp_path, BENCH, extra)
        rc = main(["--config", cfg, "--out", str(tmp_path / "out"), *args])
        assert rc in (EXIT_OK, EXIT_MC)
        assert len(built) == 1


@pytest.mark.parametrize("extra,args,message", [
    ("model.h = inf\n", ["solve", "--method", "closed_form"], "key 'model.h'"),
    ("model.sigma = nan\n", ["solve", "--method", "fd"], "key 'model.sigma'"),
    ("sim.dt = inf\n", ["mc", "--target", "outer"], "key 'sim.dt'"),
    ("", ["sweep", "--param", "rho", "--values", "1,nan"], "--values"),
    ("", ["mc", "--target", "outer", "--q0", "0.5,inf"], "--q0"),
], ids=["h-closed-form", "sigma-fd", "dt-mc", "sweep-values", "mc-q0"])
def test_non_finite_number_is_config_error(tmp_path, capsys, extra, args, message):
    # before: a math domain error, an empty FD region or a nan residual, an
    # OverflowError in the simulation
    cfg = _write_cfg(tmp_path, BENCH, extra)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), *args]) == EXIT_CONFIG
    assert f"config error: {message}: not a finite number" in capsys.readouterr().err
    assert not out.exists()


class TestZScore:
    def test_bias_within_the_truncation_bound_is_zero(self):
        from stopflow.simulate import MCEstimate

        for mean in (4.75, 5.25):
            assert cli._z_score(MCEstimate(mean, 1e-3, 10, 0.5), 5.0) == 0.0

    def test_excess_over_the_bound_in_standard_errors(self):
        from stopflow.simulate import MCEstimate

        assert cli._z_score(MCEstimate(6.0, 0.25, 10, 0.5), 5.0) == 2.0
        assert cli._z_score(MCEstimate(4.0, 0.25, 10, 0.5), 5.0) == -2.0

    def test_zero_stderr_with_an_excess_is_infinite(self):
        from stopflow.simulate import MCEstimate

        assert cli._z_score(MCEstimate(5.5, 0.0, 10, 0.0), 5.0) == math.inf
        assert cli._z_score(MCEstimate(4.5, 0.0, 10, 0.0), 5.0) == -math.inf
        assert cli._z_score(MCEstimate(5.0, 0.0, 10, 0.0), 5.0) == 0.0


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

    def test_none_regime_reads_sigma_tilde(self, tmp_path):
        # figure4 runs the Gaussian regime of refined.sigma_tilde under none too
        written = []
        for regime in ("none", "gaussian"):
            extra = f"refined.type = {regime}\nrefined.sigma_tilde = 2.0\n"
            cfg = _write_cfg(tmp_path, BENCH, extra)
            out = tmp_path / regime
            assert main(["--config", cfg, "--out", str(out), "figure4"]) == EXIT_OK
            written.append([(out / f"figure4_{s}.csv").read_bytes() for s in ("left", "right")])
        assert written[0] == written[1]

    @pytest.mark.parametrize("extra,message", [
        # sigma_tilde = 1 > sigma: every row failed, then an IndexError
        ("model.sigma = 1e-3\n", "sigma_tilde=1.0 exceeds sigma=0.001"),
        # the fees 1e-3 and mu - l - 1e-3 both outside (0, mu - l)
        ("model.mu = 1.0005\n", "figure4 needs mu - l > 0.002"),
        # the later refined.type wins: no Gaussian regime to sweep
        ("refined.type = poisson\n", "figure4: sigma_tilde needs a Gaussian regime"),
    ], ids=["sigma-below-sigma_tilde", "no-fee-inside", "poisson-regime"])
    def test_instance_that_cannot_run_writes_nothing(self, tmp_path, capsys, extra, message):
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = gaussian\n" + extra)
        rc = main(["--config", cfg, "--out", str(tmp_path / "out"), "figure4"])
        assert rc == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_fee_row_must_solve(self, tmp_path, capsys):
        # sigma = 1e8: 34 of the 41 regions are a few ulps of q wide and miss
        # the smooth-fit residual bar, which the check once skipped
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = gaussian\nmodel.sigma = 1e8\n")
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "figure4"])
        assert rc == EXIT_CHECK
        err = capsys.readouterr().err
        assert "figure4 property check failed: 34 of 41 fee rows failed" in err
        assert len(_read_csv(out / "figure4_left.csv")) == 41

    def test_failed_property_names_each_property(self, tmp_path, capsys, monkeypatch):
        # one prop_cs violation of q_lo; the rows themselves all solve
        violation = ((0.1, 0.2, "q_lo"),)
        monkeypatch.setattr(cli, "check_monotonicity", lambda result, claim: violation)
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = gaussian\n")
        rc = main(["--config", cfg, "--out", str(tmp_path / "out"), "figure4"])
        assert rc == EXIT_CHECK
        assert capsys.readouterr().err == (
            "figure4 property check failed: monotone_lo=False monotone_hi=True "
            "monotone_width=True converged=True\n"
        )

    def test_each_fee_once(self, tmp_path):
        # mu - l - 1e-3 is 0.2 up to rounding: one row, not two that read 0.2
        cfg = _write_cfg(tmp_path, BENCH, "refined.type = gaussian\nmodel.mu = 1.201\n")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "figure4"]) == EXIT_OK
        for name in ("left", "right"):
            fees = [row["R"] for row in _read_csv(out / f"figure4_{name}.csv")]
            assert fees == ["0.001", "0.1", "0.2"]
