"""Command-line harness: check, bound, simulate, replay.

Configs are JSON documents with row-major matrices under the keys A, C, Q, R,
Gamma, Gamma_e, and optionally a, x0, N, seed. Numeric file output uses 17
significant digits so replaying an emitted log reproduces estimator columns
byte for byte.

Every number that ``check`` lists and the CSV writers write is the text that
``'%.17g' % v`` gives, made for a whole array at once: ``_float_fields`` turns
an array into NUL-padded ASCII fields. Step numbers are doubles, whose
'%.17g' is their '%d' below 2^53 (``_step_fields``). A float's decimal
exponent comes from its binary exponent and one comparison, its 17 digits
from one exact product with no second scaling, four to a group by int64 floor
division. Every line the CLI writes is laid out in one kind of table:
``_line_table`` writes a line's literal text once into every row and returns
its fields as views to fill, and ``_write_lines``, the one writer of a table
to a file or to stdout's buffer, drops the padding and writes a block of
lines at once, without a Python string per number. ``check``'s listing and
each CSV file reuse one table for all of their blocks, and the polyline files
share one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .ellipsoid import _require_psd, _symmetrize, _traces, shape_sqrt
from .observability import (
    NotObservableError,
    SystemModel,
    TriggerConfig,
    UnstableSystemError,
    WeightVector,
    WindowSolver,
    _squared_level,
    convergence_bound,
    observability_matrix,
)
from .observer import DivergenceError, ObserverRun, _log_solver, _observe, _require_record
from .simulation import Metrics, SimConfig, Trace, run_closed_loop, run_seed_sweep

BOUNDARY_POINTS = 64
PLOT_STEPS = 10
# Line ending of every CSV file, that of the csv module's default dialect.
ROW_END = b"\r\n"
# check lists every one of the 2^n event patterns; refuse beyond this n.
PATTERN_LISTING_CAP = 20
# Every character of check's listing, which ``_stdout_lines`` writes as ASCII.
_LISTED = b"pattern 0123456789: .e+-infa\n"
# Every table of lines is filled and written a block at a time. The CSV
# writers format this many numbers per block, in whole rows: measured on a
# 1000-step simulate at n = 6, 2^11 keeps the peak traced allocation of the
# command at that of writers that format line by line (1.4 MB); 2^13 took
# about 30% less time in the writers and added 1.5 MB. check lists 2^min(n, 11) patterns per
# block (2048 at n = 16), one trace field each, and a block's partial sums are
# a few arrays of at most that many floats. Measured at n = 16 in-process on
# 2 cores (numpy 2.4.6, minimum of 40 interleaved runs), a check took 18.8,
# 14.5, 12.5, 11.8, 11.6 and 12.3 ms with blocks of 512, 1024, 2048, 4096,
# 8192 and 16384 patterns, and the peak traced allocation was 0.16, 0.28,
# 0.49, 0.95, 1.9 and 3.5 MB; formatting the listing line by line peaks at
# 0.18 MB and takes about 75 ms.
TABLE_BLOCK_FIELDS = 1 << 11


class ConfigError(ValueError):
    """Configuration file is malformed; message carries line/key context."""


# The widest '%.17g' of a double, as in '-1.2345678901234567e-308'.
FIELD_WIDTH = 24
# Dekker's splitting constant 2^27 + 1: a double a is hi + lo with hi = the
# top 26 bits of a, so that products of halves are exact.
_SPLIT = 134217729.0


def _decade_tables() -> tuple[np.ndarray, np.ndarray]:
    """Row j = k + 21 s of a double v in [1e-4, 1e17), s its sign and k = 16 - X,
    X its decimal exponent. The first table maps ``v.view(int64) >> 52`` (sign
    and biased exponent, negative for s = 1) to the row of the exponent's lower
    decade; where |v| reaches that row's edge, X is one more and the row one
    less. The second holds per row its edge, the least double >= 10^(X + 1),
    10^k and the halves of 10^k.
    """
    rows = np.zeros(4096, np.int8)
    for e in range(-14, 57):  # 2^-14 < 1e-4 and 1e17 < 2^57
        # floor(log10(2^e)), with 2^e = 5^-e 10^e for e < 0, at least -4
        k = 16 - max(-4, len(str(2**e if e >= 0 else 5**-e)) - 1 + min(e, 0))
        rows[1023 + e], rows[1023 + e - 2048] = k, k + 21
    edges = [float(10**p) for p in range(17, -1, -1)]  # exact
    for p in range(1, 4):
        num, den = (edge := 1 / 10**p).as_integer_ratio()
        edges.append(edge if num * 10**p >= den else math.nextafter(edge, math.inf))
    scales = np.array([float(10**k) for k in range(21)])
    t = _SPLIT * scales
    halves = t - (t - scales)
    return rows, np.tile([edges, scales, halves, scales - halves], 2)


_DECADE_ROWS, _DECADES = _decade_tables()


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The digit table: each group "0000" .. "9999" as its four ASCII digits
    in one uint32 word, and its number of trailing zero digits ("0000" has four)."""
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        digits[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    groups = np.arange(10000, dtype=np.uint16)
    trailing = sum(groups % np.uint16(10**place) == 0 for place in range(1, 5))
    return digits.reshape(10000, 4).view(np.uint32).ravel(), trailing.astype(np.uint8)


_GROUP_DIGITS, _GROUP_TRAILING_ZEROS = _group_tables()


def _layout_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed-form layout of a field, one row per (sign, k = 16 - X, t).

    X is the decimal exponent, t the trailing zero digits of the 17 and d_K,
    K = max(X, 16 - t), the last digit kept. Byte 0 of a field is the sign,
    bytes 1 to 5 the "0.000" of X < 0 and bytes 6 to 23 the digits with the
    point after digit X. The digits d_0 .. d_16 are read from a buffer that
    holds d_j at byte 7 + j of the field (``aligned``) and from the same buffer
    one byte on (``shifted``, d_j at byte 6 + j): digits up to X come from the
    second, the others from the first. A field is
    (aligned & ALIGNED) | (shifted & SHIFTED) | CHARS; padding is NUL.
    """
    x = 16 - np.arange(21, dtype=np.int8)[:, None, None]
    last = np.maximum(x, 16 - np.arange(17, dtype=np.int8)[:, None])
    at = np.arange(FIELD_WIDTH, dtype=np.int8)
    shifted = (at >= 6) & (at - 6 <= np.where(x >= 0, x, last))
    aligned = (x >= 0) & (at - 7 > x) & (at - 7 <= last)
    zero = (x < 0) & ((at == 1) | ((at >= 3) & (at < 2 - x)))
    point = ((x < 0) & (at == 2)) | ((x >= 0) & (x < last) & (at == 7 + x))
    shape = (2, 21, 17, FIELD_WIDTH)
    chars = np.zeros(shape, np.uint8)
    chars[1, ..., 0] = ord("-")
    chars += np.uint8(ord("0")) * zero + np.uint8(ord(".")) * point
    return tuple(np.ascontiguousarray(np.broadcast_to(table, shape)).reshape(-1, FIELD_WIDTH)
                 for table in (np.uint8(255) * aligned, np.uint8(255) * shifted, chars))


_ALIGNED, _SHIFTED, _CHARS = _layout_tables()


def _exact_float_fields(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``_float_fields`` of a 1-D array whose magnitudes all lie in [1e-4, 1e17),
    written into ``out`` if given.

    There '%.17g' prints the 17 digits D = round-half-even(|v| 10^k) in fixed
    form, k = 16 - X, X the decimal exponent of |v|, which the binary exponent
    and one comparison give. 10^k is exact for X >= -4, so Dekker's product
    gives |v| 10^k exactly as hi + lo; on [1e16, 1e17] hi is an even integer,
    so D = hi + rint(lo) rounds half to even. D never rounds up to 10^17: the
    largest double below each power of ten from 1e-3 to 1e17 scales to at
    least 8 below 10^17. D's groups of four digits come by floor division.
    """
    m = values.size
    row = _DECADE_ROWS.take(values.view(np.int64) >> 52).astype(np.intp)
    a = np.abs(values)
    row -= a >= _DECADES[0].take(row)
    scale, s_hi, s_lo = _DECADES[1:].take(row, 1)
    # lo = ((a_hi s_hi - hi) + a_hi s_lo + a_lo s_hi) + a_lo s_lo, in place
    hi = a * scale
    t = _SPLIT * a
    a_hi = t - a
    np.subtract(t, a_hi, a_hi)
    a_lo = np.subtract(a, a_hi, a)
    lo = a_hi * s_hi
    lo -= hi
    lo += np.multiply(a_hi, s_lo, t)
    lo += np.multiply(a_lo, s_hi, t)
    lo += np.multiply(a_lo, s_lo, t)
    digits = hi.astype(np.int64)
    digits += np.rint(lo, lo).astype(np.int64)
    # D = lead 10^16 + g0 10^12 + g1 10^8 + g2 10^4 + g3: halves[:, 1] holds
    # D's top and bottom 8 digits, then halves[i] their two groups.
    top = digits // 10**8
    lead = top // 10**8
    groups = np.empty((4, m), np.intp)
    halves = groups.reshape(2, 2, m)
    np.subtract(top, lead * 10**8, halves[0, 1])
    np.subtract(digits, top * 10**8, halves[1, 1])
    np.floor_divide(halves[:, 1], 10**4, halves[:, 0])
    halves[:, 1] -= halves[:, 0] * 10**4
    del a, a_lo, a_hi, t, hi, lo, scale, s_hi, s_lo, digits, top  # freed before the byte arrays
    # One field per row, plus a byte so that the shifted view has a last row.
    aligned = np.zeros(m * FIELD_WIDTH + 1, np.uint8)
    words = aligned[:-1].view(np.uint32).reshape(m, FIELD_WIDTH // 4)
    for column, group in enumerate(_GROUP_DIGITS.take(groups), start=2):
        words[:, column] = group
    aligned[7:-1:FIELD_WIDTH] = lead + ord("0")
    # Where the last group is 0, each zero group adds four trailing zeros to
    # those of the group before it (D's leading digit is never zero).
    trailing = _GROUP_TRAILING_ZEROS.take(groups[3])
    if not groups[3].all():
        rows = np.flatnonzero(groups[3] == 0)
        zeros = _GROUP_TRAILING_ZEROS[groups[0, rows]]
        for group in groups[1:3, rows]:
            zeros = np.where(group == 0, zeros + 4, _GROUP_TRAILING_ZEROS[group])
        trailing[rows] = zeros + 4
    layout = row * 17 + trailing
    fields = _ALIGNED.take(layout, 0).ravel()
    fields &= aligned[:-1]
    part = _SHIFTED.take(layout, 0).ravel()
    part &= aligned[1:]
    fields |= part
    fields = fields.reshape(m, FIELD_WIDTH)
    return np.bitwise_or(fields, _CHARS.take(layout, 0), out=fields if out is None else out)


def _float_fields(values, out: np.ndarray | None = None) -> np.ndarray:
    """'%.17g' % v of every element, as ASCII fields of shape values.shape + (24,)
    whose NUL bytes, wherever they stand, are padding; written into ``out``
    (a 2-D view, such as a field of a line table, of a 1-D ``values``) if given.

    Magnitudes in [1e-4, 1e17) go through ``_exact_float_fields``; the rest
    (zeros, subnormals, exponent forms, infinities and NaN) through '%.17g'.
    """
    values = np.asarray(values, dtype=float)
    flat = values.ravel()
    a = np.abs(flat)
    exact = (a >= 1e-4) & (a < 1e17)
    if exact.all():
        return _exact_float_fields(flat, out).reshape(values.shape + (FIELD_WIDTH,))
    fields = np.empty((flat.size, FIELD_WIDTH), np.uint8) if out is None else out
    fields[exact] = _exact_float_fields(flat[exact])
    fields[~exact] = _text_fields([b"%.17g" % v for v in flat[~exact].tolist()], FIELD_WIDTH)
    return fields.reshape(values.shape + (FIELD_WIDTH,))


def _text_fields(texts: list[bytes], width: int | None = None) -> np.ndarray:
    """Byte strings as NUL-padded fields, ``width`` wide or as wide as the longest."""
    fields = np.array(texts, dtype=f"S{width or max([1, *map(len, texts)])}")
    return fields.view(np.uint8).reshape(len(texts), fields.itemsize)


def _step_fields(first: int, count: int) -> np.ndarray:
    """The step numbers first, first + 1, ..., first + count - 1 as a column of
    ``_write_csv``: doubles, whose '%.17g' is their '%d' below 2^53, and text
    fields past it."""
    if first + count <= 2**53:
        return np.arange(first, first + count, dtype=float)
    return _text_fields([b"%d" % k for k in range(first, first + count)])


def _pattern_bits(codes: int | np.ndarray, width: int) -> np.ndarray:
    """The flags of the patterns whose ``width``-bit strings spell ``codes`` in
    binary, first flag first: shape codes.shape + (width,), 0 or 1."""
    return np.asarray(codes)[..., None] >> np.arange(width - 1, -1, -1) & 1


def _line_table(rows: int, parts: list) -> tuple[np.ndarray, list[np.ndarray]]:
    """A (rows, width) table of lines laid out from ``parts``, and its fields.

    A part is a literal (bytes), written here into every row, or a field width
    (int), left NUL and returned as a (rows, width) view for the caller to
    fill; a NUL byte anywhere in a line is padding.
    """
    sizes = [len(part) if isinstance(part, bytes) else part for part in parts]
    table = np.zeros((rows, sum(sizes)), np.uint8)
    fields, at = [], 0
    for part, size in zip(parts, sizes):
        if isinstance(part, bytes):
            table[:, at:at + size] = np.frombuffer(part, np.uint8)
        else:
            fields.append(table[:, at:at + size])
        at += size
    return table, fields


def _write_lines(fh, lines: np.ndarray) -> None:
    """Write the rows of a line table to a binary stream, NUL padding dropped.
    A stream that takes fewer bytes than it is given (a raw buffer, as stdout
    is under python -u) gets the rest written again."""
    view = memoryview(lines[lines != 0])
    while view:
        view = view[fh.write(view):]


def _stdout_lines():
    """A function that writes the rows of a line table to stdout, NUL padding
    dropped, as print would write their text.

    The lines go to stdout's binary buffer through ``_write_lines``, after one
    flush of its text layer so that they follow what was printed before. A
    stdout without a binary buffer (a StringIO), one that is None, or one
    whose text layer would change ASCII text (an encoding that is not ASCII's
    on it, or a line end other than "\n") takes print.
    """
    stdout = sys.stdout
    buffer, encoding = getattr(stdout, "buffer", None), getattr(stdout, "encoding", None)
    if (buffer is None or encoding is None or os.linesep != "\n"
            or _LISTED.decode("ascii").encode(encoding) != _LISTED):
        return lambda lines: print(lines[lines != 0].tobytes().decode("ascii"), end="")
    stdout.flush()
    return functools.partial(_write_lines, buffer)


# The JSON name of each Python type that json.load returns.
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number", bool: "boolean",
               type(None): "null"}


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: cannot decode text: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
                          f"{err.msg}") from err
    except RecursionError as err:
        raise ConfigError(f"{path}: invalid JSON: arrays or objects nested too deeply") from err
    except ValueError as err:  # an integer past Python's limit on digits read
        raise ConfigError(f"{path}: cannot read a number: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object, got {_JSON_TYPES[type(raw)]}")
    return raw


def _require(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"missing required config key '{key}'")
    return raw[key]


def _numbers(value) -> list | None:
    """The numbers of a JSON value that is a number or nested lists of numbers,
    at any depth, or None for any other value; JSON's true and false are not
    numbers here, though Python counts them as ints."""
    numbers, items = [], [value]
    while items:
        item = items.pop()
        if isinstance(item, list):
            items += item
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            numbers.append(item)
        else:
            return None
    return numbers


def _require_numeric(raw: dict, key: str):
    value = _require(raw, key)
    numbers = _numbers(value)
    if numbers is None:
        raise ConfigError(f"'{key}' must be a number or a list of numbers, got {value!r}")
    # A JSON integer has any size, and one past float range would overflow
    # every float conversion of it.
    for number in numbers:
        try:
            float(number)
        except OverflowError:
            raise ConfigError(f"'{key}' holds an integer of {len(str(abs(number)))} digits, "
                              "too large for a float") from None
    return value


def _require_int(raw: dict, key: str) -> int:
    value = _require_numeric(raw, key)
    if isinstance(value, list) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def build_system(raw: dict) -> tuple[SystemModel, TriggerConfig, WeightVector | None]:
    """Model, trigger, and weights from a parsed config; the weights are None
    when the config gives no ``a``, and ``WindowSolver`` then takes them uniform."""
    try:
        model = SystemModel(
            A=_require_numeric(raw, "A"), C=_require_numeric(raw, "C"),
            Q=_require_numeric(raw, "Q"), R=_require_numeric(raw, "R"),
        )
        trigger = TriggerConfig(
            threshold=float(_require_numeric(raw, "Gamma")),
            transmit_error=float(_require_numeric(raw, "Gamma_e")),
        )
        weights = None
        if raw.get("a") is not None:
            weights = WeightVector(_require_numeric(raw, "a"))
            if len(weights) != model.n:
                raise ConfigError(f"'a' has {len(weights)} entries, expected {model.n}")
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid config value: {err}") from err
    return model, trigger, weights


def build_sim_config(raw: dict) -> SimConfig:
    model, trigger, weights = build_system(raw)
    try:
        return SimConfig(
            model=model,
            trigger=trigger,
            x0=_require_numeric(raw, "x0"),
            N=_require_int(raw, "N"),
            seed=_require_int(raw, "seed"),
            a=weights,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid config value: {err}") from err


def config_echo(config: SimConfig) -> dict:
    """Config as a JSON tree that parses back into an equivalent SimConfig."""
    model, trigger = config.model, config.trigger
    return {"A": model.A.tolist(), "C": model.C.tolist(), "Q": model.Q.tolist(), "R": model.R,
            "Gamma": trigger.threshold, "Gamma_e": trigger.transmit_error,
            "a": config.a.weights.tolist(), "x0": config.x0.tolist(), "N": config.N,
            "seed": config.seed}


def cmd_check(config_path: str) -> int:
    model, trigger, weights = build_system(load_config(config_path))
    n = model.n
    if n > PATTERN_LISTING_CAP:
        raise ValueError(f"check lists all 2^n event patterns; n = {n} exceeds the cap of "
                         f"{PATTERN_LISTING_CAP}")
    try:
        solver = WindowSolver(model, trigger, weights)
    except NotObservableError:
        solver = None
    print(f"observability matrix:\n{observability_matrix(model)}")
    print(f"full_rank: {str(solver is not None).lower()}")
    print(f"horizon K: {n - 1}")
    if solver is None:
        print("epsilon-observable: no")
        return 1
    print(f"epsilon: {solver.epsilon:.17g}")
    print(f"worst_pattern: {solver.worst_pattern}")
    # The listing runs in sorted bit-string order, a block of 2^low patterns at
    # a time (``WindowSolver.pattern_trace_blocks``). One table of lines serves
    # every block: the text, the last low digits of each pattern and the line
    # ends are written once, and a block writes its first n - low digits and
    # its traces.
    low = min(n, TABLE_BLOCK_FIELDS.bit_length() - 1)
    lines, (high_bits, low_bits, trace_fields) = _line_table(
        2**low, [b"pattern ", n - low, low, b": ", FIELD_WIDTH, b"\n"])
    low_bits[:] = _pattern_bits(np.arange(2**low), low) + ord("0")
    write = _stdout_lines()
    for code, traces in enumerate(solver.pattern_trace_blocks(low)):
        high_bits[:] = _pattern_bits(code, n - low) + ord("0")
        _float_fields(traces, trace_fields)
        write(lines)
    print("epsilon-observable: yes")
    return 0


def cmd_bound(config_path: str) -> int:
    model, trigger, weights = build_system(load_config(config_path))
    try:
        bound = convergence_bound(model, trigger, weights)
    except UnstableSystemError as err:
        print(f"bound undefined: {err}")
        return 1
    print(f"asymptotic sqrt-trace bound: {bound:.17g}")
    print(f"asymptotic trace bound: {_squared_level(bound):.17g}")
    return 0


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A CSV file: the ``header`` line, then one row per row of the columns.

    A column is a 1-D or (rows, c) array, written as '%.17g' if it holds
    floats and as 0 or 1 if it holds flags (bools), or a (rows, w) uint8 array
    of text fields, one per row. A float column shorter than the file leaves
    its fields empty after its last row. The rows are laid out in one
    ``_line_table`` that every block of about ``TABLE_BLOCK_FIELDS`` floats
    reuses, and a block's floats are formatted in one ``_float_fields`` call.
    """
    columns = [column[:, None] if column.ndim == 1 else column for column in columns]
    rows = max(map(len, columns))
    # Per field of a row, its column and the field's index in that column (for
    # a float, its index among the row's floats); a text column is one field.
    slots, parts, floats, width = [], [], [], 0
    for column in columns:
        if column.dtype == np.uint8:
            slots.append((column, None))
            parts += [b",", column.shape[1]]
            continue
        is_flag = column.dtype == bool
        for j in range(column.shape[1]):
            slots.append((column, j if is_flag else width + j))
            parts += [b",", 1 if is_flag else FIELD_WIDTH]
        if not is_flag:
            floats.append((column, width))
            width += column.shape[1]
    # A short column's missing rows are formatted from 1.0, a value of the
    # exact path, and then emptied.
    values = np.ones((rows, width))
    for column, at in floats:
        values[:len(column), at:at + column.shape[1]] = column
    block = max(1, TABLE_BLOCK_FIELDS // max(1, width))
    table, fields = _line_table(min(rows, block), parts[1:] + [ROW_END])
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + ROW_END)
        for start in range(0, rows, block):
            count = min(block, rows - start)
            numbers = _float_fields(values[start:start + count])
            for field, (column, j) in zip(fields, slots):
                if j is None:
                    field[:count] = column[start:start + count]
                elif column.dtype == bool:
                    field[:count] = column[start:start + count, j:j + 1].view(np.uint8) + ord("0")
                else:
                    numbers[max(0, len(column) - start):, j] = 0
                    field[:count] = numbers[:, j]
            _write_lines(fh, table[:count])


def _write_step_table(
    path: Path, trace: Trace, estimates: ObserverRun, distances: list[float]
) -> None:
    """One row per step of the trace; the estimate columns of step k are read
    from row k of the run's arrays and ``distances``, and stay empty past the
    last estimate."""
    n = trace.states.shape[1]
    header = (
        ["k"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"x_hat{i + 1}" for i in range(n)]
        + ["gamma", "y", "y_tau", "trace_P_hat", "gen_distance"]
    )
    _write_csv(path, header, [
        _step_fields(0, len(trace.states)), trace.states, estimates.centers, trace.flags,
        trace.outputs, trace.references, _traces(estimates.shapes),
        np.asarray(distances, dtype=float),
    ])


def _write_replay_table(path: Path, first_k: int, flags: np.ndarray, references: np.ndarray,
                        estimates: ObserverRun, n: int) -> None:
    """One row per step of the log; estimate i belongs to step ``first_k + i``,
    as the run starts at the first step of the consecutive log."""
    header = ["k"] + [f"x_hat{i + 1}" for i in range(n)] + ["gamma", "y_tau", "trace_P_hat"]
    _write_csv(path, header, [
        _step_fields(first_k, len(flags)), estimates.centers, flags, references,
        _traces(estimates.shapes),
    ])


def _write_log(path: Path, flags: np.ndarray, references: np.ndarray) -> None:
    """The channel log of steps 0, 1, ... from its flag and reference arrays."""
    _write_csv(path, ["k", "gamma", "y_tau"], [_step_fields(0, len(flags)), flags, references])


def _dict_row(header: list[str], row: list[str]) -> dict:
    """The dict ``csv.DictReader`` makes of ``row`` under ``header``: cells past
    the header are a list under the key None, and missing cells are None."""
    record = dict(zip(header, row))
    if len(row) > len(header):
        record[None] = row[len(header):]
    for name in header[len(row):]:
        record[name] = None
    return record


def read_log(path: str | Path) -> tuple[int, np.ndarray, np.ndarray]:
    """Parse a channel log into its first step k and its event flag and
    reference arrays; event flags must be 0 or 1 and steps contiguous.

    Columns are found by the names in the header row, as ``csv.DictReader``
    finds them: a name repeated in the header means its last column, and
    blank rows are skipped.
    """
    ks, flags, references = [], [], []
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise ConfigError(f"cannot open log file {path}: {err.strerror}") from err
    with fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: cannot decode text: {err}") from err
        except csv.Error as err:
            raise ConfigError(f"{path}: unreadable CSV at line {reader.line_num}: {err}") from err
    columns = {name: i for i, name in enumerate(header)}
    width = len(header)
    # The common case column by column: every row as wide as the header, and
    # every cell valid. Anything else goes to the row loop, which raises the
    # error of the first bad row or, for steps past int64, reads the log.
    if rows and {"k", "gamma", "y_tau"} <= columns.keys() and all(
            len(row) == width for row in rows):
        table = list(zip(*rows))
        try:
            steps, gammas = (np.fromiter(map(int, table[columns[name]]), np.int64, len(rows))
                             for name in ("k", "gamma"))
            values = np.fromiter(map(float, table[columns["y_tau"]]), float, len(rows))
        except (ValueError, OverflowError):
            pass
        else:
            if ((gammas == 0) | (gammas == 1)).all() and (steps >= 0).all() and (
                    np.diff(steps) == 1).all() and np.isfinite(values).all():
                return int(steps[0]), gammas == 1, values
    for row in rows:
        # A short row reads None in its missing cells.
        cells = row if len(row) >= width else row + [None] * (width - len(row))
        try:
            gamma = int(cells[columns["gamma"]])
            if gamma not in (0, 1):
                raise ValueError(f"event flag gamma must be 0 or 1, got {gamma}")
            k, y_tau = int(cells[columns["k"]]), float(cells[columns["y_tau"]])
            _require_record(k, y_tau)
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path}: malformed log row {_dict_row(header, row)}: "
                              f"{err}") from err
        ks.append(k)
        flags.append(gamma)
        references.append(y_tau)
    if not ks:
        raise ConfigError(f"{path}: log is empty")
    for prev, cur in zip(ks, ks[1:]):
        if cur <= prev:
            raise ConfigError(f"{path}: step k={cur} is not after the previous step k={prev}")
        if cur != prev + 1:
            raise ConfigError(f"{path}: gap in step sequence at k={cur} (expected {prev + 1})")
    return ks[0], np.array(flags, dtype=bool), np.array(references)


def _write_polylines(out_dir: Path, estimates: ObserverRun, n: int) -> list[str]:
    """Boundary polylines of the estimation sets for the first plot steps.

    One file per coordinate pair; higher-dimensional sets are emitted as their
    2-D coordinate projections (shadows). Nothing is written for n = 1.

    A projection onto a pair is the pair's 2x2 block of each set, so the blocks
    of every set and pair are sliced, PSD-tested and rooted as one stack, with
    the values ``affine_transform`` and ``shape_sqrt`` give set by set.
    """
    if n < 2:
        return []
    # Each step's measurement, prior and posterior set; the first step has no prior.
    steps = min(PLOT_STEPS, len(estimates))
    labels = [f"{estimates.first_k + i},{kind}" for i in range(steps)
              for kind in ("measurement", "prior", "posterior")]
    del labels[1]
    centers = np.stack((estimates.window_centers[:steps], estimates.prior_centers[:steps],
                        estimates.centers[:steps]), axis=1).reshape(-1, n)
    shapes = np.stack((estimates.window_shapes[estimates.pattern[:steps]],
                       estimates.prior_shapes[:steps], estimates.shapes[:steps]), axis=1)
    centers, shapes = np.delete(centers, 1, axis=0), np.delete(shapes.reshape(-1, n, n), 1, axis=0)
    pairs = list(combinations(range(n), 2))
    index = np.array(pairs)
    # Indexed (pair, set, ...). A 0/1 projector copies the entries exactly, and
    # its zero offset turns a -0.0 into 0.0.
    block_centers = (centers[:, index] + 0.0).swapaxes(0, 1)
    blocks = shapes[:, index[:, :, None], index[:, None, :]] + 0.0
    blocks = _symmetrize(blocks.swapaxes(0, 1))
    _require_psd(blocks.reshape(-1, 2, 2))
    roots = shape_sqrt(blocks)
    angles = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_POINTS, endpoint=False)
    circle = np.vstack([np.cos(angles), np.sin(angles)])
    names = (["ellipsoids.csv"] if n == 2
             else [f"ellipsoids_x{i + 1}x{j + 1}.csv" for i, j in pairs])
    # Each row is a set's step and kind, then a point; a set's points follow
    # its boundary, (set, point, coordinate). One table of lines serves every
    # file: the labels and the text are written once, and a file fills its
    # two coordinates and writes, a block of TABLE_BLOCK_FIELDS numbers at a time.
    labels = _text_fields([label.encode() for label in labels])
    lines, (label_fields, *coordinates) = _line_table(
        len(labels) * BOUNDARY_POINTS,
        [labels.shape[1], b",", FIELD_WIDTH, b",", FIELD_WIDTH, ROW_END])
    label_fields[:] = labels.repeat(BOUNDARY_POINTS, 0)
    block = TABLE_BLOCK_FIELDS // 2
    for name, pair_centers, pair_roots in zip(names, block_centers, roots):
        points = (pair_centers[:, :, None] + pair_roots @ circle).swapaxes(1, 2).reshape(-1, 2)
        with open(out_dir / name, "wb") as fh:
            fh.write(b"step,set_kind,x1,x2" + ROW_END)
            for start in range(0, len(lines), block):
                numbers = _float_fields(points[start:start + block])
                for j, field in enumerate(coordinates):
                    field[start:start + block] = numbers[:, j]
                _write_lines(fh, lines[start:start + block])
    return names


def _metrics_dict(metrics: Metrics) -> dict:
    """A run's metrics as the summaries hold them: all but the per-step distances."""
    return {name: value for name, value in vars(metrics).items() if name != "distances"}


def cmd_simulate(config_path: str, out_dir: str, seeds: int | None = None) -> int:
    config = build_sim_config(load_config(config_path))
    # Run first, so that a run that fails leaves no output directory behind.
    if seeds is None:
        trace, estimates, metrics = run_closed_loop(config)
    else:
        seed_list = list(range(config.seed, config.seed + seeds))
        results = run_seed_sweep(config, seed_list)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if seeds is not None:
        def spread(name: str) -> dict:
            values = [getattr(m, name) for _, m in results]
            return {"mean": float(np.mean(values)), "min": float(np.min(values)),
                    "max": float(np.max(values))}

        sweep = {
            "config": config_echo(config),
            "per_seed": [{"seed": s, **_metrics_dict(m)} for s, m in results],
            "aggregate": {
                "mean_estimation_error": spread("mean_estimation_error"),
                "communication_rate": spread("communication_rate"),
                "containment_violations": sum(m.containment_violations for _, m in results),
            },
        }
        with open(out / "sweep_summary.json", "w") as fh:
            json.dump(sweep, fh, indent=2)
        print(f"sweep of {len(seed_list)} seeds written to {out / 'sweep_summary.json'}")
        return 0

    _write_step_table(out / "steps.csv", trace, estimates, metrics.distances)
    _write_log(out / "log.csv", trace.flags, trace.references)
    polylines = _write_polylines(out, estimates, config.model.n)
    solver = estimates.solver
    try:
        bound = solver.bound()
    except UnstableSystemError:
        bound = None
    # JSON has no infinity: a trace bound that overflows is null, as an undefined one is.
    bound_trace = _squared_level(bound) if bound is not None else math.inf
    bound_trace = bound_trace if math.isfinite(bound_trace) else None
    summary = {
        "epsilon": solver.epsilon,
        "worst_pattern": solver.worst_pattern,
        "bound_sqrt_trace": bound,
        "bound_trace": bound_trace,
        "metrics": _metrics_dict(metrics),
        "config": config_echo(config),
        "files": {"steps": "steps.csv", "log": "log.csv", "ellipsoids": polylines},
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"simulation written to {out}")
    return 0


def cmd_replay(config_path: str, log_path: str, out_dir: str) -> int:
    model, trigger, weights = build_system(load_config(config_path))
    first_k, flags, references = read_log(log_path)
    solver = _log_solver(len(flags), model, trigger, weights)
    [estimates] = _observe(flags[None], references[None], first_k, solver)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_replay_table(out / "replay_steps.csv", first_k, flags, references, estimates,
                        model.n)
    print(f"replay written to {out / 'replay_steps.csv'}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``main``'s argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="setobs",
        description="Set-membership state estimation over send-on-delta channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test epsilon-observability")
    p_check.add_argument("--config", required=True)

    p_bound = sub.add_parser("bound", help="asymptotic posterior-trace bound")
    p_bound.add_argument("--config", required=True)

    p_sim = sub.add_parser("simulate", help="closed-loop simulation with estimator")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seeds", type=_positive_int, default=None,
                       help="run a Monte Carlo sweep of this many consecutive seeds")

    p_replay = sub.add_parser("replay", help="run the observer on a recorded log")
    p_replay.add_argument("--config", required=True)
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--out", required=True)
    return parser


def _discard_stdout() -> None:
    """Point stdout at os.devnull, for a stdout that fails to write, so that the
    flush at shutdown cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "check":
            code = cmd_check(args.config)
        elif args.command == "bound":
            code = cmd_bound(args.config)
        elif args.command == "simulate":
            code = cmd_simulate(args.config, args.out, args.seeds)
        else:
            code = cmd_replay(args.config, args.log, args.out)
        # Inside the try, so that a reader who closed the pipe early is met
        # here and not while the interpreter shuts down. stdout is None when
        # the program started with it closed; print then writes nothing.
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: exit without a traceback.
        _discard_stdout()
        return 1
    except OSError as err:
        # An output that cannot be written: a file or directory under --out,
        # or stdout (a full disk, say). Load errors are ConfigErrors already.
        print(f"error: cannot write output: {err}", file=sys.stderr)
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:
            _discard_stdout()
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (NotObservableError, DivergenceError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
