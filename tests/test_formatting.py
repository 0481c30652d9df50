"""The CLI's number formatting: fields equal to '%.17g' and '%d', lines laid
out in a line table and written without their NUL padding, and the channel-log
reader's row rules."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setobs.cli import (
    FIELD_WIDTH,
    ConfigError,
    _float_fields,
    _int_fields,
    _line_table,
    _step_fields,
    _write_lines,
    read_log,
)

from oracles import read_log_rows


def texts(fields: np.ndarray) -> list[bytes]:
    """Each field with its NUL padding dropped."""
    return [row.tobytes().replace(b"\0", b"") for row in fields.reshape(-1, fields.shape[-1])]


def printed(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


# Halfway cases, the ends of the exact range [1e-4, 1e17) and the doubles
# next to them, and values that '%.17g' prints in exponent form.
EDGES = [
    1000000000000000.25, 2251799813685247.5, 1e-4, 9.9999999999999991e-05, 1e16, 1e17,
    99999999999999984.0, 5e-324, 0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.5, 0.5,
    100.0, 0.1, 0.001, -0.00012, 12345678901234567.0, 1234567890123456.7, 1.7976931348623157e308,
    2.2250738585072014e-308, 1e22, 1e23, 4503599627370495.5, 9007199254740993.0,
]


@pytest.mark.bit_identity
def test_float_fields_equal_percent_g_at_the_edges():
    edges = np.array(EDGES)
    near = 10.0 ** np.arange(-5, 19)
    values = np.concatenate([
        edges, -edges, near, np.nextafter(near, 0.0), np.nextafter(near, np.inf),
        np.nextafter(np.nextafter(near, 0.0), 0.0),
    ])
    fields = _float_fields(values)
    assert fields.shape == (values.size, FIELD_WIDTH) and fields.dtype == np.uint8
    assert texts(fields) == printed(values)


@pytest.mark.bit_identity
def test_float_fields_equal_percent_g_on_random_bits_in_the_exact_range():
    # 10^5 doubles of random sign and mantissa whose exponents span [1e-4, 1e17).
    rng = np.random.default_rng(2024)
    exponents = rng.integers(1023 - 14, 1023 + 57, 200_000, dtype=np.uint64)
    bits = (rng.integers(0, 2, exponents.size, dtype=np.uint64) << np.uint64(63)
            | exponents << np.uint64(52)
            | rng.integers(0, 1 << 52, exponents.size, dtype=np.uint64))
    values = from_bits(bits)
    values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e17)][:100_000]
    assert values.size == 100_000
    assert texts(_float_fields(values)) == printed(values)
    # The same values cut to few digits, so that trailing zeros are cut too.
    rounded = np.round(values * 1000.0) / 1000.0
    rounded = rounded[(np.abs(rounded) >= 1e-4) & (np.abs(rounded) < 1e17)]
    assert texts(_float_fields(rounded)) == printed(rounded)


@pytest.mark.bit_identity
def test_powers_of_two_and_their_neighbours_equal_percent_g():
    # The kernel reads the decade from the binary exponent: 2^E and the
    # doubles on either side of it, for every E whose doubles meet
    # [1e-4, 1e17), with both signs.
    powers = 2.0 ** np.arange(-14, 57)
    assert powers[0] < 1e-4 < powers[1] and powers[-1] < 1e17 < 2 * powers[-1]
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = np.concatenate([near, -near])
    assert texts(_float_fields(values)) == printed(values)


@pytest.mark.bit_identity
def test_zero_digit_groups_at_every_position_equal_percent_g():
    # D's 17 digits are a leading digit and four groups of four; its trailing
    # zeros come from the last group alone unless that group is 0. These
    # values end in 0 to 4 zero groups (1.0 in four, 1234e12 in three,
    # 12345678e8 in two), and their halvings move them across decades.
    bases = np.array([1.0, 1234e12, 12345678e8, 123456789012e4, 1234567890123456.0,
                      5.0, 0.375, 0.0001220703125, 99e15, 1e-4])
    values = np.concatenate([bases * 2.0 ** -np.arange(40)[:, None],
                             bases * 10.0 ** -np.arange(1, 5)[:, None]]).ravel()
    values = np.concatenate([values, -values])
    assert texts(_float_fields(values)) == printed(values)
    # Zero groups at the end of D: 0, 1, 2, 3 and 4 of them all occur.
    mantissas = [(b"%.16e" % v).split(b"e")[0].replace(b".", b"").lstrip(b"-")
                 for v in values.tolist() if 1e-4 <= abs(v) < 1e17]
    assert {(len(d) - len(d.rstrip(b"0"))) // 4 for d in mantissas} == {0, 1, 2, 3, 4}


@settings(max_examples=2000, deadline=None)
@given(st.integers(0, 2**64 - 1))
@example(0x0000000000000001)  # the smallest subnormal
@example(0x8000000000000000)  # -0.0
@example(0x7FF8000000000001)  # a NaN with a payload
@example(0xFFF0000000000000)  # -inf
@pytest.mark.bit_identity
def test_float_field_of_every_double_equals_percent_g(bits):
    value = from_bits([bits])
    assert texts(_float_fields(value)) == printed(value)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_mixed_arrays_equal_percent_g(values):
    # Exact-range values and '%.17g' fallbacks in one array, kept in order,
    # and a 2-D array keeps its shape.
    values = np.array(values)
    assert texts(_float_fields(values)) == printed(values)
    grid = np.resize(values, (3, values.size))
    assert _float_fields(grid).shape == (3, values.size, FIELD_WIDTH)
    assert texts(_float_fields(grid)) == printed(grid)


@pytest.mark.bit_identity
def test_int_fields_equal_percent_d():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 10001, 10**8, 10**12 - 1, 10**16 - 1],
        rng.integers(0, 10**16, 1000), rng.integers(0, 10**5, 1000),
    ])
    assert texts(_int_fields(values)) == [b"%d" % v for v in values.tolist()]
    assert texts(_int_fields(np.array([False, True]))) == [b"0", b"1"]
    assert texts(_int_fields(np.array([0, 0]))) == [b"0", b"0"]


@pytest.mark.parametrize("first", [0, 7, 10**16 - 3, 10**20])
def test_step_fields_beyond_the_digit_table(first):
    assert texts(_step_fields(first, 5)) == [b"%d" % k for k in range(first, first + 5)]


@pytest.mark.parametrize("rows", [2**p for p in range(12)])
@pytest.mark.bit_identity
def test_joined_block_equals_per_line_text(rows):
    # Blocks of 1 .. 2048 patterns, every size that check's listing makes in
    # the tests, laid out in a line table as check lays them out.
    rng = np.random.default_rng(rows)
    n = 11
    flags = rng.integers(0, 2, (rows, n)).astype(bool)
    traces = rng.uniform(0.5, 5e4, rows)
    lines, (bits, trace_fields) = _line_table(rows, [b"pattern ", n, b": ", FIELD_WIDTH, b"\n"])
    bits[:] = flags.view(np.uint8) + ord("0")
    trace_fields[:] = _float_fields(traces)
    written = io.BytesIO()
    _write_lines(written, lines)
    expected = "".join(f"pattern {''.join(map(str, bits))}: {trace:.17g}\n"
                       for bits, trace in zip(flags.astype(int).tolist(), traces.tolist()))
    assert written.getvalue() == expected.encode()


class TestReadLogRows:
    """``read_log`` reads rows as ``csv.DictReader`` does: the reference keeps
    the DictReader reading, and results and error messages must match it."""

    @pytest.mark.parametrize("text", [
        "k,gamma,y_tau\n0,1,0.5\n1,0\n2,0,0.5\n",              # a short row
        "k,gamma,y_tau\n0,1,0.5\n1,0,0.5,9\n2,0,0.5\n",         # a long row that parses
        "k,gamma,y_tau\n0,1,0.5\n1,2,0.5,9,10\n",               # a long row that does not
        "k,gamma,y_tau\n0,1,0.5\n\n1,0,0.5\n\n\n2,1,-0.25\n",   # blank lines
        "\nk,gamma,y_tau\n0,1,0.5\n",                           # a blank header row
        "k,gamma,y_tau,extra\n0,1,0.5\n1,0,0.5\n",              # short rows under a wide header
        "gamma,y_tau,k,gamma\n1,0.5,0,0\n0,0.5,1,1\n",          # reordered, gamma repeated
        "k,y_tau\n0,0.5\n1,0.5\n",                              # no gamma column
        "k,gamma,y_tau\n0,1,nan\n",                             # a non-finite reference
        "k,gamma,y_tau\n",                                      # no records
        "",                                                     # an empty file
    ])
    def test_same_result_or_message_as_dict_reader(self, tmp_path, text):
        path = tmp_path / "log.csv"
        path.write_text(text)
        try:
            expected = read_log_rows(path)
        except ConfigError as err:
            with pytest.raises(ConfigError) as got:
                read_log(path)
            assert str(got.value) == str(err)
        else:
            first_k, flags, references = read_log(path)
            assert first_k == expected[0]
            assert flags.tolist() == expected[1].tolist()
            assert references.tolist() == expected[2].tolist()
