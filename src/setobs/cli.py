"""Command-line harness: check, bound, simulate, replay.

Configs are JSON documents with row-major matrices under the keys A, C, Q, R,
Gamma, Gamma_e, and optionally a, x0, N, seed. Numeric file output uses 17
significant digits so replaying an emitted log reproduces estimator columns
byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from .ellipsoid import _require_psd_stack, shape_sqrt
from .observability import (
    NotObservableError,
    SystemModel,
    TriggerConfig,
    UnstableSystemError,
    WeightVector,
    WindowSolver,
    convergence_bound,
    observability_matrix,
)
from .observer import DivergenceError, MeasurementRecord, ObserverRun, observer_run
from .simulation import Metrics, SimConfig, Trace, run_closed_loop, run_seed_sweep

BOUNDARY_POINTS = 64
PLOT_STEPS = 10
# Line ending of every CSV file, that of the csv module's default dialect.
ROW_END = "\r\n"
# check lists every one of the 2^n event patterns; refuse beyond this n.
PATTERN_LISTING_CAP = 20
# check computes and writes its listing a block of patterns at a time; a
# block is the largest power of two of patterns whose (patterns, n) table of
# trace terms fits in this many bytes (256 patterns at n = 16). At n = 16 the
# peak traced allocation of a check is then within 25 KB of that of a listing
# made one pattern at a time; twice and four times this size raised it by
# about 130 and 270 KB and saved about 13% of its time.
PATTERN_BLOCK_BYTES = 1 << 15


class ConfigError(ValueError):
    """Configuration file is malformed; message carries line/key context."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _bits(code: int, width: int) -> str:
    """``code`` as a string of ``width`` binary digits; empty for width 0."""
    return format(code, f"0{width}b") if width else ""


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: cannot decode text: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err


def _require(raw: dict, key: str):
    if key not in raw:
        raise ConfigError(f"missing required config key '{key}'")
    return raw[key]


def _holds_numbers(value) -> bool:
    """Whether a JSON value is a number or nested lists of numbers; JSON's
    true and false are not numbers here, though Python counts them as ints."""
    if isinstance(value, list):
        return all(_holds_numbers(item) for item in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_numeric(raw: dict, key: str):
    value = _require(raw, key)
    if not _holds_numbers(value):
        raise ConfigError(f"'{key}' must be a number or a list of numbers, got {value!r}")
    return value


def _require_int(raw: dict, key: str) -> int:
    value = _require_numeric(raw, key)
    if isinstance(value, list) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def build_system(raw: dict) -> tuple[SystemModel, TriggerConfig, WeightVector]:
    """Model, trigger, and weights from a parsed config (weights default uniform)."""
    try:
        model = SystemModel(
            A=_require_numeric(raw, "A"), C=_require_numeric(raw, "C"),
            Q=_require_numeric(raw, "Q"), R=_require_numeric(raw, "R"),
        )
        trigger = TriggerConfig(
            threshold=float(_require_numeric(raw, "Gamma")),
            transmit_error=float(_require_numeric(raw, "Gamma_e")),
        )
        weights = (
            WeightVector(_require_numeric(raw, "a")) if raw.get("a") is not None
            else WeightVector.uniform(model.n)
        )
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
    return {
        "A": config.model.A.tolist(),
        "C": config.model.C.tolist(),
        "Q": config.model.Q.tolist(),
        "R": config.model.R,
        "Gamma": config.trigger.threshold,
        "Gamma_e": config.trigger.transmit_error,
        "a": config.a.weights.tolist(),
        "x0": config.x0.tolist(),
        "N": config.N,
        "seed": config.seed,
    }


def cmd_check(config_path: str) -> int:
    model, trigger, weights = build_system(load_config(config_path))
    n = model.n
    if n > PATTERN_LISTING_CAP:
        raise ValueError(
            f"check lists all 2^n event patterns; n = {n} exceeds the cap of "
            f"{PATTERN_LISTING_CAP}"
        )
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
    print(f"epsilon: {_fmt(solver.epsilon)}")
    print(f"worst_pattern: {solver.worst_pattern}")
    # The listing runs in sorted bit-string order, a block of 2^low patterns at
    # a time: a block's patterns share their first n-low flags and run through
    # every combination of the last low flags, so one template and one flag
    # table of those serve every block.
    low = min(n, (PATTERN_BLOCK_BYTES // (8 * n)).bit_length() - 1)
    tails = [_bits(code, low) for code in range(2**low)]
    template = "".join(f"pattern %s{tail}: %.17g\n" for tail in tails)
    flags = np.empty((2**low, n), dtype=bool)
    flags[:, n - low:] = [[bit == "1" for bit in tail] for tail in tails]
    fill = [None] * 2 ** (low + 1)
    for code in range(2 ** (n - low)):
        head = _bits(code, n - low)
        flags[:, :n - low] = [bit == "1" for bit in head]
        fill[0::2] = [head] * 2**low
        fill[1::2] = solver.pattern_trace(flags).tolist()
        print(template % tuple(fill), end="")
    print("epsilon-observable: yes")
    return 0


def cmd_bound(config_path: str) -> int:
    model, trigger, weights = build_system(load_config(config_path))
    try:
        bound = convergence_bound(model, trigger, weights)
    except UnstableSystemError as err:
        print(f"bound undefined: {err}")
        return 1
    print(f"asymptotic sqrt-trace bound: {_fmt(bound)}")
    print(f"asymptotic trace bound: {_fmt(bound ** 2)}")
    return 0


def _write_step_table(
    path: Path, trace: Trace, estimates: ObserverRun, distances: list[float]
) -> None:
    """One row per record; the estimate columns of step k = i are read from row i
    of the run's arrays and ``distances``, and stay empty past the last estimate."""
    n = trace.states.shape[1]
    header = (
        ["k"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"x_hat{i + 1}" for i in range(n)]
        + ["gamma", "y", "y_tau", "trace_P_hat", "gen_distance"]
    )
    with_estimate = "%d," + "%.17g," * (2 * n) + "%d,%.17g,%.17g,%.17g,%.17g" + ROW_END
    without_estimate = "%d," + "%.17g," * n + "," * n + "%d,%.17g,%.17g,," + ROW_END
    traces = np.trace(estimates.shapes, axis1=1, axis2=2)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + ROW_END)
        for i, record in enumerate(trace.records):
            k = record.k
            plant = trace.states[k].tolist()
            channel = (record.gamma, trace.outputs[k], record.y_tau)
            if i < len(estimates):
                fh.write(with_estimate % (k, *plant, *estimates.centers[i].tolist(), *channel,
                                          traces[i], distances[i]))
            else:
                fh.write(without_estimate % (k, *plant, *channel))


def _write_replay_table(path: Path, records: list[MeasurementRecord],
                        estimates: ObserverRun, n: int) -> None:
    """One row per record; estimate i belongs to ``records[i]``, as the run starts
    at the first record of the consecutive log."""
    header = ["k"] + [f"x_hat{i + 1}" for i in range(n)] + ["gamma", "y_tau", "trace_P_hat"]
    with_estimate = "%d," + "%.17g," * n + "%d,%.17g,%.17g" + ROW_END
    without_estimate = "%d," + "," * n + "%d,%.17g," + ROW_END
    traces = np.trace(estimates.shapes, axis1=1, axis2=2)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + ROW_END)
        for i, record in enumerate(records):
            if i < len(estimates):
                fh.write(with_estimate % (record.k, *estimates.centers[i].tolist(),
                                          record.gamma, record.y_tau, traces[i]))
            else:
                fh.write(without_estimate % (record.k, record.gamma, record.y_tau))


def _write_log(path: Path, records: list[MeasurementRecord]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("k,gamma,y_tau" + ROW_END)
        for record in records:
            fh.write("%d,%d,%.17g%s" % (record.k, record.gamma, record.y_tau, ROW_END))


def read_log(path: str | Path) -> list[MeasurementRecord]:
    """Parse a channel log; event flags must be 0 or 1 and steps contiguous."""
    records = []
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise ConfigError(f"cannot open log file {path}: {err.strerror}") from err
    with fh:
        try:
            rows = list(csv.DictReader(fh))
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: cannot decode text: {err}") from err
    for row in rows:
        try:
            gamma = int(row["gamma"])
            if gamma not in (0, 1):
                raise ValueError(f"event flag gamma must be 0 or 1, got {gamma}")
            records.append(
                MeasurementRecord(k=int(row["k"]), gamma=bool(gamma), y_tau=float(row["y_tau"]))
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path}: malformed log row {row}: {err}") from err
    if not records:
        raise ConfigError(f"{path}: log is empty")
    for prev, cur in zip(records, records[1:]):
        if cur.k <= prev.k:
            raise ConfigError(
                f"{path}: step k={cur.k} is not after the previous step k={prev.k}"
            )
        if cur.k != prev.k + 1:
            raise ConfigError(
                f"{path}: gap in step sequence at k={cur.k} (expected {prev.k + 1})"
            )
    return records


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
    labels, centers, shapes = [], [], []
    for out in estimates[:PLOT_STEPS]:
        for kind, ell in (("measurement", out.measurement_set), ("prior", out.prior_set),
                          ("posterior", out.posterior_set)):
            if ell is not None:
                labels.append(f"{out.k},{kind},")
                centers.append(ell.center)
                shapes.append(ell.shape)
    pairs = list(combinations(range(n), 2))
    index = np.array(pairs)
    # Indexed (pair, set, ...). A 0/1 projector copies the entries exactly, and
    # its zero offset turns a -0.0 into 0.0.
    block_centers = (np.array(centers)[:, index] + 0.0).swapaxes(0, 1)
    blocks = np.array(shapes)[:, index[:, :, None], index[:, None, :]] + 0.0
    blocks = blocks.swapaxes(0, 1)
    blocks = (blocks + blocks.swapaxes(-1, -2)) / 2.0
    _require_psd_stack(blocks.reshape(-1, 2, 2))
    roots = shape_sqrt(blocks)
    angles = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_POINTS, endpoint=False)
    circle = np.vstack([np.cos(angles), np.sin(angles)])
    # One row format per set: its step and kind, then a point.
    template = "".join((label + "%.17g,%.17g" + ROW_END) * BOUNDARY_POINTS for label in labels)
    names = []
    for (i, j), pair_centers, pair_roots in zip(pairs, block_centers, roots):
        name = "ellipsoids.csv" if n == 2 else f"ellipsoids_x{i + 1}x{j + 1}.csv"
        points = pair_centers[:, :, None] + pair_roots @ circle  # (set, coordinate, point)
        with open(out_dir / name, "w", newline="") as fh:
            fh.write("step,set_kind,x1,x2" + ROW_END)
            fh.write(template % tuple(points.swapaxes(1, 2).ravel().tolist()))
        names.append(name)
    return names


def _metrics_dict(metrics: Metrics) -> dict:
    return {
        "mean_estimation_error": metrics.mean_estimation_error,
        "communication_rate": metrics.communication_rate,
        "containment_violations": metrics.containment_violations,
        "max_generalized_distance": metrics.max_generalized_distance,
    }


def cmd_simulate(config_path: str, out_dir: str, seeds: int | None = None) -> int:
    config = build_sim_config(load_config(config_path))
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory {out}: {err}", file=sys.stderr)
        return 1

    if seeds is not None:
        seed_list = list(range(config.seed, config.seed + seeds))
        results = run_seed_sweep(config, seed_list)
        rates = [m.communication_rate for _, m in results]
        errors = [m.mean_estimation_error for _, m in results]
        sweep = {
            "config": config_echo(config),
            "per_seed": [{"seed": s, **_metrics_dict(m)} for s, m in results],
            "aggregate": {
                "mean_estimation_error": {
                    "mean": float(np.mean(errors)),
                    "min": float(np.min(errors)),
                    "max": float(np.max(errors)),
                },
                "communication_rate": {
                    "mean": float(np.mean(rates)),
                    "min": float(np.min(rates)),
                    "max": float(np.max(rates)),
                },
                "containment_violations": int(
                    sum(m.containment_violations for _, m in results)
                ),
            },
        }
        with open(out / "sweep_summary.json", "w") as fh:
            json.dump(sweep, fh, indent=2)
        print(f"sweep of {len(seed_list)} seeds written to {out / 'sweep_summary.json'}")
        return 0

    trace, estimates, metrics = run_closed_loop(config)
    _write_step_table(out / "steps.csv", trace, estimates, metrics.distances)
    _write_log(out / "log.csv", trace.records)
    polylines = _write_polylines(out, estimates, config.model.n)
    solver = estimates.solver
    try:
        bound = solver.bound()
    except UnstableSystemError:
        bound = None
    summary = {
        "epsilon": solver.epsilon,
        "worst_pattern": solver.worst_pattern,
        "bound_sqrt_trace": bound,
        "bound_trace": bound**2 if bound is not None else None,
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
    records = read_log(log_path)
    estimates = observer_run(records, model, trigger, weights)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory {out}: {err}", file=sys.stderr)
        return 1
    _write_replay_table(out / "replay_steps.csv", records, estimates, model.n)
    print(f"replay written to {out / 'replay_steps.csv'}")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
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

    args = parser.parse_args(argv)
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
        # The reader is gone. Point stdout at os.devnull so that the flush at
        # shutdown cannot fail again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
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
