"""The CLI's boundary: no config or channel log ends in a traceback or a warning.

A bounded, derandomized fuzz replaces one to three keys of a valid config with
hostile JSON values, drops keys and adds unknown ones, and runs every command
in-process on the result. A second one applies one to three mutations to a
valid channel log (its header names, rows, cells and bytes) and runs
``replay`` on it. Each call must exit 0, 1 or 2; exit 2 writes one stderr
line, ``config error: ...``, exit 1 one line, ``error: ...``, and exit 0
nothing. ``check`` and ``bound`` also exit 1 with their verdict as the last
line of stdout, and nothing on stderr, for a plant that is not observable or
has no bound. Each fuzz also has a profile ten times larger, marked ``slow``
and deselected by default: ``pytest -m slow`` runs them.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setobs.cli import main

BASE = {
    "A": [[0.75, 0.2], [0.5, 0.3]], "C": [0.5, 0.5], "Q": [[5.0, 0.0], [0.0, 5.0]],
    "R": 0.5, "Gamma": 0.6, "Gamma_e": 0.0001, "a": [0.5, 0.5], "x0": [0.0, 0.0],
    "N": 30, "seed": 1,
}
MISSING = object()
# Every value is small work for any key: no count of steps between the ones
# a run finishes at once and the ones that cannot be allocated.
HOSTILE = [
    MISSING, 10**400, -(10**400), 10**307, 2**1024, 2**1024 - 2**970, 1e308, -1e308,
    5e-324, -5e-324, 0, 0.0, -0.0, 1, -1, 3, float("nan"), float("inf"), float("-inf"),
    "0.5", "", True, False, None, {}, {"x": 1}, [], [[]], [0.5], [0.5, 0.5, 0.5],
    [1.0, [2.0]], [[0.5, 0.2], [0.5]], [[[0.75, 0.2], [0.5, 0.3]]], [[10**400, 0.0], [0.0, 1.0]],
    [[0.0, 0.0], [0.0, 0.0]], [[1e308, 1e308], [1e308, 1e308]], [[5e-324, 0.0], [0.0, 5e-324]],
    [float("nan"), 0.5], [-0.5, 1.5], [1 - 1e-16, 1e-16],
]


@st.composite
def configs(draw) -> dict:
    raw = dict(BASE)
    keys = draw(st.lists(st.sampled_from([*BASE, "extra"]), min_size=1, max_size=3,
                         unique=True))
    for key in keys:
        value = draw(st.sampled_from(HOSTILE))
        if value is MISSING:
            raw.pop(key, None)
        else:
            raw[key] = value
    return raw


@pytest.fixture(scope="module")
def log(tmp_path_factory) -> Path:
    """A valid channel log of the base config, for ``replay``."""
    out = tmp_path_factory.mktemp("base")
    (out / "config.json").write_text(json.dumps(BASE))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(out / "config.json"),
                     "--out", str(out / "run")]) == 0
    return out / "run" / "log.csv"


# The last stdout line of a verdict that exits 1 with nothing on stderr.
VERDICTS = {"check": "epsilon-observable: no", "bound": "bound undefined: "}


def run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_outcome(name: str, argv: list[str]) -> None:
    """``main(argv)`` exits 0 silently, or 1 with its verdict (``check`` and
    ``bound``), or 1 or 2 with one prefixed stderr line; it warns nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv)
    assert not caught, (name, [str(w.message) for w in caught])
    lines = err.splitlines()
    if code == 0:
        assert err == "", name
    elif code == 1 and not err and name in VERDICTS:
        assert out.splitlines()[-1].startswith(VERDICTS[name]), (name, out)
    else:
        assert code in (1, 2), name
        prefix = "config error: " if code == 2 else "error: "
        assert len(lines) == 1 and lines[0].startswith(prefix), (name, err)


def assert_config_outcomes(raw: dict, log: Path) -> None:
    """Every command run on the config ``raw`` has one outcome (``assert_one_outcome``)."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        commands = {
            "check": ["check"],
            "bound": ["bound"],
            "simulate": ["simulate", "--out", str(Path(tmp) / "simulate")],
            "sweep": ["simulate", "--out", str(Path(tmp) / "sweep"), "--seeds", "3"],
            "replay": ["replay", "--log", str(log), "--out", str(Path(tmp) / "replay")],
        }
        for name, (command, *args) in commands.items():
            assert_one_outcome(name, [command, "--config", str(config), *args])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw=configs())
@example(raw={**BASE, "R": 10**400})
@example(raw={**BASE, "A": [[int("9" * 400), 0.2], [0.5, 0.3]]})
@example(raw={**BASE, "N": 10**307})
@example(raw={**BASE, "N": 1e308})
def test_every_config_ends_in_an_exit_code_and_at_most_one_line(raw, log):
    assert_config_outcomes(raw, log)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(raw=configs())
def test_many_configs_end_in_an_exit_code_and_at_most_one_line(raw, log):
    assert_config_outcomes(raw, log)


# Non-finite and out-of-range numbers, a step past int64, flags outside
# {0, 1}, the fullwidth digit one (which ``int`` and ``float`` read as 1),
# NUL and an empty cell.
HOSTILE_CELLS = ["nan", "inf", "1e400", "9223372036854775808", "-1", "2", "\uff11", "\x00", ""]
ROW = st.integers(0, 10**6)  # a row index, taken modulo the rows the log has then


def mutations() -> st.SearchStrategy:
    """One to three edits of a channel log, each a tuple that ``mutated`` applies."""
    edit = st.one_of(
        st.tuples(st.just("header"), st.lists(st.integers(0, 2), max_size=5)),
        st.tuples(st.just("blank"), ROW),
        st.tuples(st.just("short"), ROW, st.integers(0, 2)),
        st.tuples(st.just("long"), ROW, st.integers(1, 3)),
        st.tuples(st.just("cell"), ROW, st.integers(0, 2), st.sampled_from(HOSTILE_CELLS)),
        st.tuples(st.just("swap"), ROW, ROW),
        st.tuples(st.just("duplicate"), ROW),
        st.tuples(st.just("fewer"), st.integers(0, 1)),
        st.tuples(st.just("empty")),
        st.tuples(st.just("undecodable"), ROW),
    )
    return st.lists(edit, min_size=1, max_size=3)


def mutated(text: str, edits: list[tuple]) -> bytes:
    """The log ``text`` (a header row and rows of cells) with ``edits`` applied in order."""
    if ("empty",) in edits:
        return b""
    header, *rows = [line.split(",") for line in text.splitlines()]
    for kind, *args in edits:
        if kind == "header":
            header = [header[i] for i in args[0] if i < len(header)]
        elif kind == "fewer":
            rows = rows[:args[0]]
        elif kind == "first":  # steps from args[0] on, as one valid log of them
            rows = [[str(args[0] + i), *row[1:]] for i, row in enumerate(rows)]
        elif rows:
            i = args[0] % len(rows)
            if kind == "blank":
                rows.insert(i, [])
            elif kind == "short":
                rows[i] = rows[i][:args[1]]
            elif kind == "long":
                rows[i] = rows[i] + ["0"] * args[1]
            elif kind == "cell" and rows[i]:
                rows[i][args[1] % len(rows[i])] = args[2]
            elif kind == "swap":
                j = args[1] % len(rows)
                rows[i], rows[j] = rows[j], rows[i]
            elif kind == "duplicate":
                rows.insert(i, list(rows[i]))
            elif kind == "undecodable":  # the bytes FF FE, no UTF-8 text
                rows[i] = [*rows[i][:-1], "".join(rows[i][-1:]) + "\udcff\udcfe"]
    return b"".join((",".join(row) + "\n").encode(errors="surrogateescape")
                    for row in (header, *rows))


def assert_log_outcome(edits: list[tuple], log: Path) -> None:
    """``replay`` of the valid log with ``edits`` applied has one outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        config, mutant = Path(tmp) / "config.json", Path(tmp) / "log.csv"
        config.write_text(json.dumps(BASE))
        mutant.write_bytes(mutated(log.read_text(), edits))
        assert_one_outcome("replay", ["replay", "--config", str(config), "--log", str(mutant),
                                      "--out", str(Path(tmp) / "replay")])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(edits=mutations())
# A first step near 2^63, and one past 10^16 that the step field writes with %d.
@example(edits=[("first", 2**63 - 10)])
@example(edits=[("first", 10**30)])
def test_every_log_ends_in_an_exit_code_and_at_most_one_line(edits, log):
    assert_log_outcome(edits, log)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(edits=mutations())
def test_many_logs_end_in_an_exit_code_and_at_most_one_line(edits, log):
    assert_log_outcome(edits, log)


def test_found_configs_end_in_one_line():
    """The integer past float range is refused as malformed input, and the
    step count whose history overflows a float is refused as too large."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({**BASE, "R": 10**400}))
        for command in ("check", "bound"):
            assert run([command, "--config", str(config)]) == (
                2, "", "config error: 'R' holds an integer of 401 digits, too large for a float\n")
        config.write_text(json.dumps({**BASE, "N": 10**307}))
        code, _, err = run(["simulate", "--config", str(config), "--out", str(Path(tmp) / "o")])
        assert code == 1
        assert err == (f"error: N = {10**307} steps need 4.80e+308 bytes of plant history, "
                       "more than can be allocated\n")


def test_integer_past_the_digit_limit_is_a_config_error():
    # Python 3.11 and later refuse to read an integer of more than 4300
    # digits; earlier ones read it, and it is past float range.
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(BASE).replace('"R": 0.5', '"R": 1' + "0" * 5000))
        code, _, err = run(["check", "--config", str(config)])
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("config error: ")
