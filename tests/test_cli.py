"""CLI subcommands, config parsing, file outputs, and the replay round trip."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import setobs
from setobs import SystemModel, TriggerConfig, cli, convergence_bound, run_closed_loop
from setobs.cli import PLOT_STEPS, build_sim_config, build_system, load_config, main, read_log
from setobs.observability import WindowSolver

from conftest import UNSTABLE_PLANT, channel_log, orthogonal_plant, read_rows, same_bits
from oracles import list_patterns, write_polylines

BENCH = {
    "A": [[0.75, 0.2], [0.5, 0.3]],
    "C": [0.5, 0.5],
    "Q": [[5.0, 0.0], [0.0, 5.0]],
    "R": 0.5,
    "Gamma": 0.6,
    "Gamma_e": 0.0001,
    "a": [0.5, 0.5],
    "x0": [0.0, 0.0],
    "N": 40,
    "seed": 11,
}


@pytest.fixture
def bench_config_file(tmp_path) -> Path:
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(BENCH))
    return path


def write_config(tmp_path, name="cfg.json", **overrides) -> Path:
    raw = {**BENCH, **overrides}
    for key, value in list(raw.items()):
        if value is None:
            del raw[key]
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def plant_config(tmp_path, n: int, seed: int) -> Path:
    """An observable n-state plant with non-uniform weights, as a config file."""
    model = orthogonal_plant(n, seed)
    raw = np.random.default_rng(seed).uniform(0.1, 1.0, n)
    return write_config(tmp_path, A=model.A.tolist(), C=model.C.tolist(), Q=model.Q.tolist(),
                        R=model.R, a=(raw / raw.sum()).tolist(), x0=[0.0] * n)


def child_env() -> dict[str, str]:
    """The environment of a child process that imports this checkout's package."""
    paths = [str(Path(setobs.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def run_cli(*args: str, **popen_args) -> subprocess.Popen:
    """``setobs`` in a child process that imports this checkout's package."""
    return subprocess.Popen([sys.executable, "-m", "setobs.cli", *args], env=child_env(),
                            **popen_args)


def first_entry_replaced(value, entry):
    """A number or nested list of numbers with its first number replaced by ``entry``."""
    if isinstance(value, list):
        return [first_entry_replaced(value[0], entry), *value[1:]]
    return entry


class TestConfigParsing:
    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"A": [[1, 2],\n "oops"')
        code = main(["check", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err and "column" in err

    def test_missing_key_is_named(self, tmp_path, capsys):
        path = write_config(tmp_path, Gamma=None)
        code = main(["check", "--config", str(path)])
        assert code == 2
        assert "'Gamma'" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["bound", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"A": "\xff"}')
        code = main(["check", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and str(path) in err

    def test_weights_default_to_uniform(self, tmp_path):
        path = write_config(tmp_path, a=None)
        config = build_sim_config(load_config(path))
        assert np.allclose(config.a.weights, [0.5, 0.5])

    @pytest.mark.parametrize("key, value", [
        ("A", [[float("nan"), 0.2], [0.5, 0.3]]),
        ("C", [0.5, float("nan")]),
        ("Q", [[float("inf"), 0.0], [0.0, 5.0]]),
        ("R", float("nan")),
        ("Gamma", float("inf")),
        ("x0", [float("nan"), 0.0]),
        ("a", [float("nan"), 0.5]),
    ])
    def test_nonfinite_entry_is_config_error(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{key: value})
        # x0 is read by simulate only; the model keys are read by every command.
        argv = ["simulate", "--out", str(tmp_path / "out")] if key == "x0" else ["check"]
        code = main(argv + ["--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "finite" in err

    @pytest.mark.parametrize("command", ["check", "bound", "simulate", "replay"])
    def test_weight_vector_of_wrong_length(self, tmp_path, capsys, command):
        path = write_config(tmp_path, a=[0.25, 0.25, 0.5])
        log = tmp_path / "log.csv"
        log.write_text("k,gamma,y_tau\n0,1,0.5\n1,0,0.5\n2,0,0.5\n")
        extra = {
            "simulate": ["--out", str(tmp_path / "out")],
            "replay": ["--log", str(log), "--out", str(tmp_path / "out")],
        }.get(command, [])
        code = main([command, "--config", str(path)] + extra)
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "'a' has 3 entries, expected 2" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("N", 50.9), ("seed", 3.7)])
    def test_non_integral_count_is_config_error(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{key: value})
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and f"'{key}' must be an integer" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("bad", [True, False, "0.6"])
    @pytest.mark.parametrize("key", ["A", "C", "Q", "R", "Gamma", "Gamma_e", "a", "x0", "N",
                                     "seed"])
    def test_bool_or_string_is_config_error(self, tmp_path, capsys, key, bad):
        # Python would read true as 1, false as 0 and "0.6" as 0.6.
        path = write_config(tmp_path, **{key: first_entry_replaced(BENCH[key], bad)})
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and f"'{key}' must be a number or a list of numbers" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["check", "bound", "simulate"])
    def test_three_dimensional_A_is_config_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, A=[BENCH["A"], BENCH["A"]])
        extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        code = main([command, "--config", str(path)] + extra)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "config error: invalid config value: A must be a square matrix, " \
                      "got shape (2, 2, 2)\n"

    @pytest.mark.parametrize("command", ["check", "bound", "simulate", "replay"])
    @pytest.mark.parametrize("text, kind", [
        ("3", "number"), ("null", "null"), ("true", "boolean"), ("[1, 2]", "array"),
        ('"A Gamma"', "string"),
    ])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, command, text, kind):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        extra = {
            "simulate": ["--out", str(tmp_path / "out")],
            "replay": ["--log", str(tmp_path / "log.csv"), "--out", str(tmp_path / "out")],
        }.get(command, [])
        code = main([command, "--config", str(path)] + extra)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"config error: {path}: config must be a JSON object, got {kind}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("depth, message", [
        (900, "config error: invalid config value: "),
        (100_000, "config error: {path}: invalid JSON: arrays or objects nested too deeply\n"),
    ])
    def test_deeply_nested_config_is_config_error(self, tmp_path, depth, message):
        # 100,000 levels are too deep for json.load itself. 900 levels load,
        # and the numbers test walks them without recursion; numpy then
        # refuses an array of 900 dimensions.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**BENCH, "A": "@"}).replace('"@"', "[" * depth + "1"
                                                                + "]" * depth))
        done = subprocess.run([sys.executable, "-m", "setobs.cli", "check", "--config", str(path)],
                              env=child_env(), capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr.count("\n")) == (2, "", 1)
        assert done.stderr.startswith(message.format(path=path))

    def test_numbers_test_walks_any_depth(self):
        deep, bad = 1.0, True
        for _ in range(100_000):
            deep, bad = [deep, 2], [0.5, bad]
        assert cli._numbers(deep) is not None and cli._numbers(bad) is None

    @pytest.mark.parametrize("command", ["check", "bound"])
    def test_c_column_is_config_error(self, tmp_path, capsys, command):
        # Read as the row, this column gave the paper plant's bound and exit 0.
        path = write_config(tmp_path, C=[[0.5], [0.5]])
        code = main([command, "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "config error: invalid config value: C must have shape (2,) or (1, 2), " \
                      "got shape (2, 1)\n"

    def test_c_as_one_row_matrix_is_accepted(self, tmp_path, bench_config_file, capsys):
        assert main(["bound", "--config", str(bench_config_file)]) == 0
        expected = capsys.readouterr().out
        assert main(["bound", "--config", str(write_config(tmp_path, C=[BENCH["C"]]))]) == 0
        assert capsys.readouterr().out == expected

    def test_integral_float_counts_accepted(self, tmp_path):
        config = build_sim_config(load_config(write_config(tmp_path, N=20.0, seed=3.0)))
        assert (config.N, config.seed) == (20, 3)

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, seed=-1)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "seed must be non-negative" in err
        assert not (tmp_path / "out").exists()


class TestParser:
    """``main`` builds its parser once per process, and the reused parser
    parses every command line, and refuses every bad one, as a fresh one does."""

    ARGVS = [
        ["check", "--config", "c.json"],
        ["bound", "--config", "c.json"],
        ["simulate", "--config", "c.json", "--out", "out", "--seeds", "3"],
        ["simulate", "--out", "out", "--config", "c.json"],
        ["replay", "--config", "c.json", "--log", "log.csv", "--out", "out"],
        [], ["nope"], ["check"], ["bound", "--config", "c.json", "--extra"],
        ["simulate", "--config", "c.json", "--out", "out", "--seeds", "0"],
        ["simulate", "--config", "c.json", "--out", "out", "--seeds", "x"],
        ["--help"], ["replay", "--help"],
    ]

    @staticmethod
    def parse(parser, argv, capsys):
        """The namespace or the exit code of one parse, with what it printed."""
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exit:
            result = exit.code
        return result, capsys.readouterr()

    def test_reused_parses_equal_fresh_ones(self, capsys):
        assert cli._parser() is cli._parser()
        for _ in range(2):
            for argv in self.ARGVS:
                assert (self.parse(cli._parser(), argv, capsys)
                        == self.parse(cli._parser.__wrapped__(), argv, capsys))

    def test_error_exit_leaves_the_parser_reusable(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit:
            main(["simulate", "--config", "c.json"])
        assert exit.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert main(["bound", "--config", str(write_config(tmp_path))]) == 0


class TestCheck:
    def test_bench_output(self, bench_config_file, capsys):
        code = main(["check", "--config", str(bench_config_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "full_rank: true" in out
        assert "worst_pattern: 00" in out
        assert "epsilon-observable: yes" in out
        epsilon = float(next(l for l in out.splitlines() if l.startswith("epsilon:")).split()[1])
        assert epsilon == pytest.approx(323.43, abs=0.01)
        assert sum(1 for l in out.splitlines() if l.startswith("pattern ")) == 4

    def test_ill_conditioned_observable_plant(self, tmp_path, capsys):
        # cond(O) is about 2.5e9: O passes the rank test, O O^T does not factor.
        path = write_config(tmp_path, A=[[0.5, 0.0], [0.0, 0.5 + 1e-9]], C=[1.0, 1.0])
        code = main(["check", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        epsilon = WindowSolver(*build_system(load_config(path))).epsilon
        assert "full_rank: true\n" in out and f"epsilon: {epsilon:.17g}\n" in out

    def test_rank_deficient_exit_status(self, tmp_path, capsys):
        path = write_config(tmp_path, A=[[1.0, 0.0], [0.0, 1.0]], C=[1.0, 0.0])
        code = main(["check", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "epsilon-observable: no" in out

    def test_scalar_system_lists_two_patterns(self, tmp_path, capsys):
        path = write_config(
            tmp_path, A=[[0.5]], C=[1.0], Q=[[1.0]], a=[1.0], x0=[0.0], N=5
        )
        code = main(["check", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("pattern ")) == 2

    def test_enumeration_cap(self, tmp_path, capsys):
        # The listing is 2^n lines; it is refused before anything is printed.
        n = 21
        path = write_config(
            tmp_path, A=(0.5 * np.eye(n)).tolist(), C=[1.0] * n, Q=np.eye(n).tolist(), a=None
        )
        code = main(["check", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "cap" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("n, rows", [
        (1, None), (2, None), (3, None), (6, None), (8, None), (9, None), (11, None),
        (12, None), (13, None), (6, 1), (6, 7), (6, 63), (6, 64),
    ])
    @pytest.mark.bit_identity
    def test_listing_equals_per_pattern_oracle(self, tmp_path, capsys, monkeypatch, n, rows):
        # With the default block size the listing is one block up to n = 11,
        # two blocks of 2048 patterns at n = 12 and four at n = 13. A block of
        # at most `rows` fields at n = 6 makes blocks of 1 (no template flags),
        # 4, 32 and 64 patterns.
        if rows is not None:
            monkeypatch.setattr(cli, "TABLE_BLOCK_FIELDS", rows)
        path = plant_config(tmp_path, n, seed=n)
        assert main(["check", "--config", str(path)]) == 0
        assert capsys.readouterr().out == list_patterns(*build_system(load_config(path)))

    @pytest.mark.parametrize("plant", [{}, {"A": [[1.0, 0.0], [0.0, 1.0]], "C": [1.0, 0.0]}],
                             ids=["observable", "rank-deficient"])
    def test_one_window_solver_per_check(self, tmp_path, monkeypatch, plant):
        built = []
        init = WindowSolver.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(WindowSolver, "__init__", counting_init)
        main(["check", "--config", str(write_config(tmp_path, **plant))])
        assert len(built) == 1

    def test_closed_pipe_exits_1_quietly(self, tmp_path):
        # About 700 KB of listing, far more than a pipe holds, so check is
        # still writing when the reader goes.
        path = plant_config(tmp_path, 14, seed=14)
        with run_cli("check", "--config", str(path),
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"observability matrix:\n"
            proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == b""

    @pytest.mark.parametrize("command", ["check", "bound"])
    def test_closed_stdout_exits_0_quietly(self, tmp_path, command):
        # Started with descriptor 1 closed, so sys.stdout is None.
        path = plant_config(tmp_path, 6, seed=6)
        with run_cli(command, "--config", str(path), stderr=subprocess.PIPE,
                     preexec_fn=lambda: os.close(1)) as proc:
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert err == b""

    def test_listing_at_the_cap(self, tmp_path):
        # 2^20 pattern lines, in sorted order, with sampled traces equal to
        # the per-pattern sum bit for bit.
        n = 20
        path = plant_config(tmp_path, n, seed=n)
        out = tmp_path / "check.txt"
        with open(out, "w") as fh, run_cli("check", "--config", str(path), stdout=fh) as proc:
            assert proc.wait(timeout=300) == 0
        lines = out.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("pattern "))
        listing = lines[first:first + 2**n]
        assert lines[first + 2**n:] == ["epsilon-observable: yes"]
        names = [f"pattern {code:020b}: " for code in range(2**n)]
        assert [line[:len(names[0])] for line in listing] == names
        terms = WindowSolver(*build_system(load_config(path)))._trace_terms
        for code in np.random.default_rng(0).integers(0, 2**n, 500):
            flags = np.array([bit == "1" for bit in f"{code:020b}"])
            value = float(listing[code][len(names[0]):])
            assert value == float(np.sum(np.where(flags, terms[1], terms[0])))


class TestBound:
    def test_bench_value(self, bench_config_file, capsys):
        code = main(["bound", "--config", str(bench_config_file)])
        out = capsys.readouterr().out
        assert code == 0
        sqrt_line = next(l for l in out.splitlines() if "sqrt-trace" in l)
        value = float(sqrt_line.split(":")[1])
        assert value == pytest.approx(557.8243, abs=0.01)
        trace_line = next(l for l in out.splitlines() if l.startswith("asymptotic trace"))
        assert float(trace_line.split(":")[1]) == pytest.approx(value**2, rel=1e-12)

    def test_marginally_stable_undefined(self, tmp_path, capsys):
        path = write_config(tmp_path, A=[[1.0, 0.0], [0.0, 0.5]], C=[1.0, 1.0])
        code = main(["bound", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "bound undefined" in out

    def test_zero_dynamics_finite(self, tmp_path, capsys):
        path = write_config(tmp_path, A=[[0.0]], C=[1.0], Q=[[1.0]], a=[1.0], x0=[0.0], N=5)
        code = main(["bound", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sqrt-trace bound" in out


class TestSimulate:
    def test_outputs_and_containment(self, bench_config_file, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main(["simulate", "--config", str(bench_config_file), "--out", str(out_dir)])
        assert code == 0
        for name in ("steps.csv", "summary.json", "log.csv", "ellipsoids.csv"):
            assert (out_dir / name).exists()
        rows = read_rows(out_dir / "steps.csv")
        assert len(rows) == BENCH["N"] + 1
        assert list(rows[0]) == [
            "k", "x1", "x2", "x_hat1", "x_hat2", "gamma", "y", "y_tau",
            "trace_P_hat", "gen_distance",
        ]
        filled = [r for r in rows if r["gen_distance"] != ""]
        assert len(filled) == BENCH["N"]  # last step has no fused estimate
        assert all(float(r["gen_distance"]) <= 1.0 + 1e-9 for r in filled)
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["metrics"]["max_generalized_distance"] == max(
            float(r["gen_distance"]) for r in filled
        )

    def test_one_window_solver_per_simulation(self, bench_config_file, tmp_path, monkeypatch):
        built = []
        init = WindowSolver.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(WindowSolver, "__init__", counting_init)
        code = main(["simulate", "--config", str(bench_config_file), "--out", str(tmp_path)])
        assert code == 0
        assert len(built) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["epsilon"] == pytest.approx(323.43, abs=0.01)
        assert summary["worst_pattern"] == "00"

    def test_unallocatable_step_count_exits_1(self, tmp_path, capsys):
        # The plant history is refused at once and nothing is committed, whether
        # the allocation raises MemoryError (10^15) or numpy refuses the size
        # outright (10^18 and 2^63 raise ValueError).
        # A run that fails leaves no output directory, alone or in a sweep.
        for N, sweep in ((1e15, []), (1e15, ["--seeds", "3"]), (10**18, []), (2**63, [])):
            path = write_config(tmp_path, N=N)
            code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                         *sweep])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith(f"error: N = {int(N)} steps need ")
            assert err.endswith(" bytes of plant history, more than can be allocated\n")
            assert len(err.splitlines()) == 1
            assert not (tmp_path / "out").exists()

    def test_unstable_plant_summary_has_null_bounds(self, tmp_path, capsys):
        # ||A|| >= 1: the run completes, and the undefined bound is null in
        # strict JSON, not a number or inf.
        path = write_config(tmp_path, **UNSTABLE_PLANT, N=40)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().err == ""

        def no_constant(name):
            raise AssertionError(f"summary.json holds {name}, which is not JSON")

        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=no_constant)
        assert summary["bound_sqrt_trace"] is None
        assert summary["bound_trace"] is None

    def test_summary_echo_round_trip(self, bench_config_file, tmp_path):
        out_dir = tmp_path / "run"
        main(["simulate", "--config", str(bench_config_file), "--out", str(out_dir)])
        summary = json.loads((out_dir / "summary.json").read_text())
        echoed = build_sim_config(summary["config"])
        reference = build_sim_config(BENCH)
        assert np.array_equal(echoed.model.A, reference.model.A)
        assert np.array_equal(echoed.model.Q, reference.model.Q)
        assert echoed.trigger == reference.trigger
        assert np.array_equal(echoed.x0, reference.x0)
        assert (echoed.N, echoed.seed) == (reference.N, reference.seed)
        assert summary["epsilon"] == pytest.approx(323.43, abs=0.01)
        assert summary["bound_sqrt_trace"] == pytest.approx(557.8243, abs=0.01)
        assert summary["metrics"]["containment_violations"] == 0

    def test_deterministic_byte_identical(self, bench_config_file, tmp_path):
        dir1, dir2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(bench_config_file), "--out", str(dir1)])
        main(["simulate", "--config", str(bench_config_file), "--out", str(dir2)])
        assert (dir1 / "steps.csv").read_bytes() == (dir2 / "steps.csv").read_bytes()
        assert (dir1 / "log.csv").read_bytes() == (dir2 / "log.csv").read_bytes()

    def test_ellipsoid_polylines_shape(self, bench_config_file, tmp_path):
        out_dir = tmp_path / "run"
        main(["simulate", "--config", str(bench_config_file), "--out", str(out_dir)])
        rows = read_rows(out_dir / "ellipsoids.csv")
        kinds = {r["set_kind"] for r in rows}
        assert kinds == {"measurement", "prior", "posterior"}
        steps = sorted({int(r["step"]) for r in rows})
        assert steps == list(range(10))
        step0 = [r for r in rows if r["step"] == "0"]
        # no prior at the first step: two sets of 64 points
        assert len(step0) == 2 * 64
        step1 = [r for r in rows if r["step"] == "1"]
        assert len(step1) == 3 * 64

    # n = 13 writes 78 files, each on its own.
    @pytest.mark.parametrize("n, N", [(2, 40), (3, 40), (6, 40), (2, 5), (13, 40)])
    def test_polylines_equal_per_set_oracle(self, tmp_path, n, N):
        raw = {**BENCH, "N": N}
        if n != 2:
            model = orthogonal_plant(n, 95)
            raw.update(A=model.A.tolist(), C=model.C.tolist(), Q=model.Q.tolist(),
                       a=None, x0=[0.0] * n)
        path = write_config(tmp_path, **raw)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
        _, estimates, _ = run_closed_loop(build_sim_config(load_config(path)))
        assert (len(estimates) < PLOT_STEPS) == (N == 5)
        cli, oracle = tmp_path / "cli", tmp_path / "oracle"
        oracle.mkdir()
        names = write_polylines(oracle, estimates, n)
        assert len(names) == n * (n - 1) // 2
        summary = json.loads((cli / "summary.json").read_text())
        assert summary["files"]["ellipsoids"] == names
        assert sorted(p.name for p in cli.glob("ellipsoids*.csv")) == sorted(names)
        for name in names:
            assert (cli / name).read_bytes() == (oracle / name).read_bytes()

    @pytest.mark.parametrize("block_fields", [3 * 128, 64])
    def test_polylines_in_small_blocks(self, tmp_path, monkeypatch, block_fields):
        # Blocks of 3 sets and of half a set, in each of the 15 files of n = 6.
        monkeypatch.setattr(cli, "TABLE_BLOCK_FIELDS", block_fields)
        model = orthogonal_plant(6, 95)
        path = write_config(tmp_path, A=model.A.tolist(), C=model.C.tolist(), Q=model.Q.tolist(),
                            a=None, x0=[0.0] * 6, N=40)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
        _, estimates, _ = run_closed_loop(build_sim_config(load_config(path)))
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        for name in write_polylines(oracle, estimates, 6):
            assert (tmp_path / "cli" / name).read_bytes() == (oracle / name).read_bytes()

    def test_scalar_plant_writes_no_polylines(self, tmp_path):
        path = write_config(tmp_path, A=[[0.5]], C=[1.0], Q=[[1.0]], a=None, x0=[0.0])
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
        summary = json.loads((tmp_path / "cli" / "summary.json").read_text())
        assert summary["files"]["ellipsoids"] == []
        assert not list((tmp_path / "cli").glob("ellipsoids*"))

    def test_unobservable_config_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, A=[[1.0, 0.0], [0.0, 1.0]], C=[1.0, 0.0])
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "observable" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_nonpositive_seed_count_rejected(self, bench_config_file, tmp_path, capsys, count):
        out_dir = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--config", str(bench_config_file), "--out", str(out_dir),
                "--seeds", count,
            ])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_sweep_summary(self, bench_config_file, tmp_path):
        out_dir = tmp_path / "sweep"
        code = main([
            "simulate", "--config", str(bench_config_file), "--out", str(out_dir),
            "--seeds", "3",
        ])
        assert code == 0
        sweep = json.loads((out_dir / "sweep_summary.json").read_text())
        assert [row["seed"] for row in sweep["per_seed"]] == [11, 12, 13]
        assert sweep["aggregate"]["containment_violations"] == 0
        agg = sweep["aggregate"]["communication_rate"]
        assert agg["min"] <= agg["mean"] <= agg["max"]


class TestOverflow:
    """A config whose entries are finite but whose derived quantities overflow
    float64 is refused with one line, at the boundary that meets it."""

    @pytest.mark.parametrize("command", ["check", "bound", "simulate"])
    def test_q_that_overflows_when_symmetrized(self, tmp_path, capsys, command):
        path = write_config(tmp_path, Q=[[1e308, 0.0], [0.0, 1e308]])
        extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        code = main([command, "--config", str(path)] + extra)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "config error: invalid config value: Q overflows float64 when " \
                      "symmetrized as (Q + Q^T) / 2\n"

    def test_asymmetry_that_overflows(self, tmp_path, capsys):
        # Q - Q^T overflows to inf, which the symmetry test refuses without a warning.
        path = write_config(tmp_path, Q=[[1.0, 1e308], [-1e308, 1.0]])
        code = main(["check", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "config error: invalid config value: Q asymmetry inf exceeds 1e-09 " \
                      "of its largest entry 1.000e+308\n"

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_observability_matrix_that_overflows(self, tmp_path, capsys, command):
        path = write_config(tmp_path, A=[[1e308, 0.2], [0.5, 0.3]])
        extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        code = main([command, "--config", str(path)] + extra)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: the observability matrix O or O O^T overflows float64\n"

    def test_bound_of_an_overflowing_plant_is_undefined(self, tmp_path, capsys):
        # ||A|| >= 1 is reported first, as for every unstable plant.
        path = write_config(tmp_path, A=[[1e308, 0.2], [0.5, 0.3]])
        code = main(["bound", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert out.startswith("bound undefined: spectral norm ")

    def test_huge_spectral_norm_prints_in_bounded_width(self, tmp_path, capsys):
        # Fixed-point notation would print the norm's 201 integer digits.
        path = write_config(tmp_path, A=[[1e200, 0.0], [0.0, 1.0]])
        code = main(["bound", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert out == "bound undefined: spectral norm 1.000000e+200 >= 1; bound is unbounded\n"

    @pytest.mark.parametrize("command", ["check", "bound", "simulate"])
    def test_epsilon_that_overflows(self, tmp_path, capsys, command):
        # Q and O are finite, but the window uncertainties W_i are not.
        path = write_config(tmp_path, Q=[[1e307, 0.0], [0.0, 1e307]], Gamma=1e307)
        extra = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        code = main([command, "--config", str(path)] + extra)
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "error: epsilon overflows float64: inf\n"

    def test_guard_whose_square_overflows(self, tmp_path):
        # Finite epsilon and bound, but the bound squared, as the trace bound
        # takes it, overflows and saturates to inf. The divergence guard,
        # 1e6 (sqrt(epsilon) + sqrt(Tr Q))^2, stays finite and is not reached.
        path = write_config(tmp_path, A=[[0.9999999999999999]], C=[1.0], Q=[[1e290]], R=1.0,
                            Gamma=1e290, Gamma_e=1e289, a=None, x0=[0.0], N=20)
        sim, replay = tmp_path / "sim", tmp_path / "replay"
        runs = {}
        for args in (["simulate", "--config", str(path), "--out", str(sim)],
                     ["replay", "--config", str(path), "--log", str(sim / "log.csv"),
                      "--out", str(replay)],
                     ["bound", "--config", str(path)]):
            with run_cli(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
                out, err = proc.communicate(timeout=120)
            assert (proc.returncode, err) == (0, b""), args[0]
            runs[args[0]] = out
        assert runs["bound"].endswith(b"\nasymptotic trace bound: inf\n")

        def no_constant(name):
            raise AssertionError(f"summary.json holds {name}, which is not JSON")

        summary = json.loads((sim / "summary.json").read_text(), parse_constant=no_constant)
        assert summary["bound_trace"] is None
        assert summary["bound_sqrt_trace"] == pytest.approx(1.8014398509481984e161)


class TestOverflowingPlant:
    """A plant whose numbers overflow float64 stops with one error line and no
    warnings, alone and in a sweep."""

    CASES = {
        # The state grows like 10^k: the output reaches inf at step 311.
        "reference": ({"A": [[10.0]], "C": [1.0], "Q": [[5.0]], "a": None, "x0": [0.0],
                       "N": 400},
                      "error: reference output must be finite, got inf\n"),
        # Finite states whose squared norms overflow: the center's rounding
        # error is infinite, so no set resolves it.
        "center": ({"x0": [1e200, -1e200]},
                   "error: posterior at step 0 has smallest semi-axis 1.383e+00, below 1024 "
                   "times the rounding error inf of its center (norm inf); the state has "
                   "outgrown float64 resolution and containment is no longer guaranteed\n"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("sweep", [[], ["--seeds", "3"]])
    def test_exits_1_with_one_error_line(self, tmp_path, case, sweep):
        overrides, stderr = self.CASES[case]
        path = write_config(tmp_path, **overrides)
        done = subprocess.run(
            [sys.executable, "-m", "setobs.cli", "simulate", "--config", str(path),
             "--out", str(tmp_path / "out"), *sweep],
            env=child_env(), capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "", stderr)
        assert not (tmp_path / "out").exists()

    def test_replay_of_overflowing_references(self, bench_config_file, tmp_path):
        # References of +-1.7e308 give window centers whose products overflow
        # to inf and NaN in every step; the run's one error is that its first
        # center is not resolved.
        log = tmp_path / "log.csv"
        log.write_text("k,gamma,y_tau\n" + "".join(f"{k},1,{(-1) ** k * 1.7e308!r}\n"
                                                    for k in range(6)))
        done = subprocess.run(
            [sys.executable, "-m", "setobs.cli", "replay", "--config", str(bench_config_file),
             "--log", str(log), "--out", str(tmp_path / "out")],
            env=child_env(), capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "", self.CASES["center"][1])
        assert not (tmp_path / "out").exists()


class TestUnwritableOutput:
    """An output that cannot be written ends in one error line that names it,
    exit 1 and no traceback, and nothing more at interpreter exit."""

    @staticmethod
    def run(args: list[str], stdout=subprocess.PIPE, unbuffered: bool = False):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run([sys.executable, "-m", "setobs.cli", *args], env=env,
                              stdout=stdout, stderr=subprocess.PIPE, text=True)

    @staticmethod
    def command(tmp_path, name: str, out: Path) -> list[str]:
        config = write_config(tmp_path)
        if name == "replay":
            log = tmp_path / "log.csv"
            log.write_text("k,gamma,y_tau\n" + "".join(f"{k},{k % 2},0.5\n" for k in range(8)))
            return ["replay", "--config", str(config), "--log", str(log), "--out", str(out)]
        sweep = ["--seeds", "2"] if name == "sweep" else []
        return ["simulate", "--config", str(config), "--out", str(out), *sweep]

    @staticmethod
    def assert_one_error_line(done, path) -> None:
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: cannot write output: ")
        assert str(path) in done.stderr and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("name, blocked", [("simulate", "steps.csv"),
                                               ("simulate", "log.csv"),
                                               ("simulate", "ellipsoids.csv"),
                                               ("replay", "replay_steps.csv"),
                                               ("sweep", "sweep_summary.json")])
    def test_output_file_that_is_a_directory(self, tmp_path, name, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        done = self.run(self.command(tmp_path, name, out))
        self.assert_one_error_line(done, out / blocked)
        assert "Is a directory" in done.stderr
        # summary.json is written last: its absence marks an incomplete run.
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("name", ["simulate", "replay", "sweep"])
    def test_out_that_is_a_file(self, tmp_path, name):
        out = tmp_path / "out"
        out.write_text("")
        done = self.run(self.command(tmp_path, name, out))
        self.assert_one_error_line(done, out)
        assert out.read_text() == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command, n", [("check", 2), ("bound", 2), ("check", 12)])
    def test_stdout_on_a_full_device(self, tmp_path, command, n, unbuffered):
        # n = 12 lists 4096 patterns, so check is still writing when a write
        # fails, and text is left in stdout's buffer for the flush at exit.
        path = plant_config(tmp_path, n, seed=n)
        with open("/dev/full", "w") as full:
            done = self.run([command, "--config", str(path)], stdout=full, unbuffered=unbuffered)
        assert done.returncode == 1
        assert done.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


class TestResolutionLoss:
    """An unstable plant outgrows float64 resolution: exit 1 with a message."""

    def test_simulate_exits_1_without_traceback(self, tmp_path, capsys):
        path = write_config(tmp_path, **UNSTABLE_PLANT, N=200, seed=1)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "resolution" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_replay_of_its_log_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, **UNSTABLE_PLANT)
        model = SystemModel(A=UNSTABLE_PLANT["A"], C=UNSTABLE_PLANT["C"], Q=UNSTABLE_PLANT["Q"],
                            R=UNSTABLE_PLANT["R"])
        trigger = TriggerConfig(UNSTABLE_PLANT["Gamma"], UNSTABLE_PLANT["Gamma_e"])
        lines = ["k,gamma,y_tau"] + [
            f"{r.k},{int(r.gamma)},{r.y_tau:.17g}"
            for r in channel_log(model, trigger, [0.0, 0.0], 200, 1)
        ]
        (tmp_path / "log.csv").write_text("\n".join(lines) + "\n")
        code = main(["replay", "--config", str(path), "--log", str(tmp_path / "log.csv"),
                     "--out", str(tmp_path / "replay")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "resolution" in err
        assert "Traceback" not in err


class TestPsdStop:
    """A valid config whose run fails a PSD test: exit 1 with one line that
    names the failing shape and its step."""

    def test_skewed_weights_name_the_shape_and_step(self, tmp_path, capsys):
        # W's condition number is about 1e16, and (M W) M^T loses definiteness.
        path = write_config(tmp_path, a=[1 - 1e-16, 1e-16], N=200, seed=3)
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert re.fullmatch(r"error: shape matrix has eigenvalue \S+ below the floor \S+ "
                            r"\(M W M\^T at step 1\)\n", err)
        assert not (tmp_path / "run").exists()


class TestIllScaledNoise:
    """A Q whose entries span 1e-5 to 7e10: the posterior of step 9 has
    l_min = -2.9e-12 Tr/n, within the PSD floor, and its containment distance
    takes the last lift of ``_distance_factor``. Both runs end in exit 0."""

    CONFIG = {
        "A": [[-0.12655137941610542, -0.021576298135250152, -0.03955749298212227],
              [-0.16032977042613317, -0.3163884155211622, -0.20332125074401033],
              [-0.4058346737667999, 0.16198631327244237, -0.036583375995143705]],
        "C": [0.9195744523368594, 0.8964985363918643, 1.9336249837910817],
        "Q": [[30.94123688163918, -195465.6875290186, -0.027069282068961645],
              [-195465.68752901859, 72598121988.05232, 1458.4358186595055],
              [-0.027069282068961645, 1458.4358186595055, 8.075341548011748e-05]],
        "R": 0.0018191343644126249, "Gamma": 0.018191343644126248,
        "Gamma_e": 1.819134364412625e-06, "x0": [0.0, 0.0, 0.0], "N": 30, "seed": 101,
    }

    @pytest.mark.parametrize("seeds", [[], ["--seeds", "3"]], ids=["simulate", "sweep"])
    def test_run_exits_0(self, tmp_path, capsys, seeds):
        path = tmp_path / "ill-scaled.json"
        path.write_text(json.dumps(self.CONFIG))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run"), *seeds])
        assert (code, capsys.readouterr().err) == (0, "")


class TestReplay:
    def test_round_trip_byte_identical_estimates(self, bench_config_file, tmp_path):
        sim_dir, replay_dir = tmp_path / "sim", tmp_path / "replay"
        main(["simulate", "--config", str(bench_config_file), "--out", str(sim_dir)])
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(sim_dir / "log.csv"), "--out", str(replay_dir),
        ])
        assert code == 0
        sim_rows = read_rows(sim_dir / "steps.csv")
        rep_rows = read_rows(replay_dir / "replay_steps.csv")
        assert len(sim_rows) == len(rep_rows)
        for s, r in zip(sim_rows, rep_rows):
            for col in ("x_hat1", "x_hat2", "trace_P_hat"):
                assert s[col] == r[col]

    def test_short_log_rejected(self, bench_config_file, tmp_path, capsys):
        log = tmp_path / "short.csv"
        log.write_text("k,gamma,y_tau\n0,1,0.5\n")
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(log), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: log holds 1 records; at least 2 are required\n"
        assert not (tmp_path / "out").exists()

    def test_gap_in_log_names_offending_index(self, bench_config_file, tmp_path, capsys):
        log = tmp_path / "gap.csv"
        log.write_text("k,gamma,y_tau\n0,1,0.5\n1,0,0.5\n3,0,0.5\n")
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(log), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "k=3" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [(0, 1, 1), (0, 1, 0)])
    def test_repeated_or_decreasing_step_rejected(self, bench_config_file, tmp_path, capsys,
                                                  steps):
        log = tmp_path / "order.csv"
        log.write_text("k,gamma,y_tau\n" + "".join(f"{k},0,0.5\n" for k in steps))
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(log), "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert f"step k={steps[2]} is not after the previous step k={steps[1]}" in err
        assert not (tmp_path / "out").exists()

    def test_event_flag_other_than_zero_or_one_rejected(self, bench_config_file, tmp_path,
                                                        capsys):
        log = tmp_path / "flag.csv"
        log.write_text("k,gamma,y_tau\n0,1,0.5\n1,2,0.5\n2,0,0.5\n")
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(log), "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "gamma" in err
        assert not (tmp_path / "out").exists()

    def test_missing_log_file(self, bench_config_file, tmp_path, capsys):
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "nope.csv" in err
        assert not (tmp_path / "out").exists()

    def test_log_that_is_not_utf8(self, bench_config_file, tmp_path, capsys):
        log = tmp_path / "binary.csv"
        log.write_bytes(b"k,gamma,y_tau\n0,1,0.5\n1,0,\xff\n2,0,0.5\n")
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(log), "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and "binary.csv" in err
        assert not (tmp_path / "out").exists()

    def test_log_field_beyond_the_csv_limit(self, bench_config_file, tmp_path, capsys):
        log = tmp_path / "long.csv"
        log.write_text("k,gamma,y_tau\n0,1," + "1" * 200_000 + "\n")
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(log), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (f"config error: {log}: unreadable CSV at line 2: "
                                           "field larger than field limit (131072)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.bit_identity
    def test_replay_without_the_private_solve_module(self, bench_config_file, tmp_path):
        # With numpy.linalg._umath_linalg hidden, the observer's solves go
        # through np.linalg.solve, which wraps the same gufunc: same bytes.
        sim = tmp_path / "sim"
        main(["simulate", "--config", str(bench_config_file), "--out", str(sim)])
        args = ["replay", "--config", str(bench_config_file), "--log", str(sim / "log.csv")]
        assert main([*args, "--out", str(tmp_path / "fast")]) == 0
        script = ("import sys, numpy.linalg; del numpy.linalg._umath_linalg; "
                  "sys.modules['numpy.linalg._umath_linalg'] = None; "
                  "from setobs import cli, ellipsoid; assert ellipsoid._umath_linalg is None; "
                  "sys.exit(cli.main(sys.argv[1:]))")
        done = subprocess.run([sys.executable, "-c", script, *args, "--out", str(tmp_path / "plain")],
                              env=child_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert ((tmp_path / "plain" / "replay_steps.csv").read_bytes()
                == (tmp_path / "fast" / "replay_steps.csv").read_bytes())

    @pytest.mark.parametrize("first", [9998, 10**16 - 3])
    @pytest.mark.bit_identity
    def test_step_column_of_a_late_log(self, bench_config_file, tmp_path, first):
        # From k = 9998 the steps grow from one group of four digits to two
        # inside the file; from 10^16 - 3 they outgrow the four groups of an
        # integer field and are printed with '%d'.
        log = tmp_path / "late.csv"
        log.write_text("k,gamma,y_tau\n" + "".join(f"{first + i},{int(i % 3 == 0)},0.5\n"
                                                   for i in range(6)))
        args = ["replay", "--config", str(bench_config_file), "--log", str(log)]
        assert main([*args, "--out", str(tmp_path / "out")]) == 0
        rows = read_rows(tmp_path / "out" / "replay_steps.csv")
        assert [row["k"] for row in rows] == ["%d" % k for k in range(first, first + 6)]

    def test_three_row_log_two_estimates(self, bench_config_file, tmp_path):
        log = tmp_path / "hand.csv"
        log.write_text("k,gamma,y_tau\n0,1,0.4\n1,0,0.4\n2,1,-0.3\n")
        replay_dir = tmp_path / "out"
        code = main([
            "replay", "--config", str(bench_config_file),
            "--log", str(log), "--out", str(replay_dir),
        ])
        assert code == 0
        rows = read_rows(replay_dir / "replay_steps.csv")
        assert len(rows) == 3
        filled = [r for r in rows if r["x_hat1"] != ""]
        assert [r["k"] for r in filled] == ["0", "1"]

    def test_read_log_round_trip_values(self, bench_config_file, tmp_path):
        sim_dir = tmp_path / "sim"
        main(["simulate", "--config", str(bench_config_file), "--out", str(sim_dir)])
        first_k, flags, references = read_log(sim_dir / "log.csv")
        assert first_k == 0 and flags.size == BENCH["N"] + 1 and flags[0]
        trace = run_closed_loop(build_sim_config(BENCH))[0]
        assert same_bits(flags, trace.flags) and same_bits(references, trace.references)


class TestBeyondListingCap:
    """n = 21 is past the cap of check's listing; nothing else enumerates patterns."""

    def test_bound_replay_and_closed_loop(self, tmp_path, capsys):
        # A = rho * U with U a fixed random orthogonal matrix: strictly stable, observable.
        n = 21
        rng = np.random.default_rng(21)
        path = write_config(
            tmp_path,
            A=(0.9 * np.linalg.qr(rng.standard_normal((n, n)))[0]).tolist(),
            C=rng.standard_normal(n).tolist(), Q=np.eye(n).tolist(), a=None, x0=[0.0] * n,
        )
        config = build_sim_config(load_config(path))
        trace, estimates, metrics = run_closed_loop(config)
        assert len(estimates) == config.N + 1 - (n - 1)
        assert metrics.containment_violations == 0

        assert main(["bound", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        value = float(next(l for l in out.splitlines() if "sqrt-trace" in l).split(":")[1])
        assert value == convergence_bound(config.model, config.trigger, config.a)

        log = tmp_path / "log.csv"
        log.write_text("k,gamma,y_tau\n" + "".join(
            f"{r.k},{int(r.gamma)},{float(r.y_tau)!r}\n" for r in trace.records
        ))
        assert main([
            "replay", "--config", str(path), "--log", str(log), "--out", str(tmp_path / "rep"),
        ]) == 0
        rows = read_rows(tmp_path / "rep" / "replay_steps.csv")
        filled = [r for r in rows if r["x_hat1"] != ""]
        assert len(filled) == len(estimates)
        for row, est in zip(filled, estimates):
            assert float(row["x_hat1"]) == est.posterior_set.center[0]


class TestRandomConfigRoundTrips:
    def test_ten_random_configurations(self, tmp_path):
        rng = np.random.default_rng(77)
        done = 0
        attempt = 0
        while done < 10:
            attempt += 1
            assert attempt < 60, "could not build enough observable stable systems"
            n = int(rng.integers(1, 4))
            A = rng.standard_normal((n, n))
            A *= 0.8 / max(np.linalg.norm(A, 2), 1e-9)
            C = rng.standard_normal(n)
            G = rng.standard_normal((n, n))
            Q = G @ G.T + 0.5 * np.eye(n)
            gamma = float(rng.uniform(0.2, 2.0))
            raw = {
                "A": A.tolist(),
                "C": C.tolist(),
                "Q": Q.tolist(),
                "R": float(rng.uniform(0.1, 1.0)),
                "Gamma": gamma,
                "Gamma_e": gamma * 1e-3,
                "x0": rng.standard_normal(n).tolist(),
                "N": int(rng.integers(n + 3, 25)),
                "seed": int(rng.integers(0, 10_000)),
            }
            try:
                model = SystemModel(A=raw["A"], C=raw["C"], Q=raw["Q"], R=raw["R"])
                from setobs import epsilon_observability

                trigger = TriggerConfig(raw["Gamma"], raw["Gamma_e"])
                if not epsilon_observability(model, trigger).full_rank:
                    continue
            except ValueError:
                continue
            case_dir = tmp_path / f"case{done}"
            case_dir.mkdir()
            cfg = case_dir / "cfg.json"
            cfg.write_text(json.dumps(raw))
            assert main(["simulate", "--config", str(cfg), "--out", str(case_dir)]) == 0
            assert main([
                "replay", "--config", str(cfg),
                "--log", str(case_dir / "log.csv"), "--out", str(case_dir),
            ]) == 0
            sim_rows = read_rows(case_dir / "steps.csv")
            rep_rows = read_rows(case_dir / "replay_steps.csv")
            hat_cols = [f"x_hat{i + 1}" for i in range(n)] + ["trace_P_hat"]
            for s, r in zip(sim_rows, rep_rows):
                for col in hat_cols:
                    assert s[col] == r[col]
            done += 1


def test_import_loads_no_scipy():
    # numpy and the standard library are the only runtime dependencies.
    script = ("import sys, setobs, setobs.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"
