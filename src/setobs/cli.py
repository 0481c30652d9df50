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
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .ellipsoid import affine_transform, contains, shape_sqrt
from .observability import (
    NotObservableError,
    SystemModel,
    TriggerConfig,
    UnstableSystemError,
    WeightVector,
    WindowSolver,
    convergence_bound,
    epsilon_observability,
)
from .observer import MeasurementRecord, ObserverOutput, observer_run
from .simulation import Metrics, SimConfig, Trace, run_closed_loop, run_seed_sweep

BOUNDARY_POINTS = 64
PLOT_STEPS = 10
# check lists every one of the 2^n event patterns; refuse beyond this n.
PATTERN_LISTING_CAP = 20


class ConfigError(ValueError):
    """Configuration file is malformed; message carries line/key context."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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


def _require_int(raw: dict, key: str) -> int:
    value = _require(raw, key)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def build_system(raw: dict) -> tuple[SystemModel, TriggerConfig, WeightVector]:
    """Model, trigger, and weights from a parsed config (weights default uniform)."""
    try:
        model = SystemModel(
            A=_require(raw, "A"), C=_require(raw, "C"), Q=_require(raw, "Q"), R=_require(raw, "R")
        )
        trigger = TriggerConfig(
            threshold=float(_require(raw, "Gamma")),
            transmit_error=float(_require(raw, "Gamma_e")),
        )
        weights = (
            WeightVector(raw["a"]) if raw.get("a") is not None
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
            x0=_require(raw, "x0"),
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
    if model.n > PATTERN_LISTING_CAP:
        raise ValueError(
            f"check lists all 2^n event patterns; n = {model.n} exceeds the cap of "
            f"{PATTERN_LISTING_CAP}"
        )
    report = epsilon_observability(model, trigger, weights)
    print(f"observability matrix:\n{report.matrix}")
    print(f"full_rank: {str(report.full_rank).lower()}")
    print(f"horizon K: {report.horizon}")
    if not report.full_rank:
        print("epsilon-observable: no")
        return 1
    print(f"epsilon: {_fmt(report.epsilon)}")
    print(f"worst_pattern: {report.worst_pattern}")
    solver = WindowSolver(model, trigger, weights)
    # product() yields the patterns in sorted bit-string order.
    for bits in product((0, 1), repeat=model.n):
        print(f"pattern {''.join(map(str, bits))}: {_fmt(solver.pattern_trace(bits))}")
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
    path: Path, trace: Trace, estimates: list[ObserverOutput]
) -> None:
    n = trace.states.shape[1]
    by_step = {out.k: out for out in estimates}
    header = (
        ["k"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"x_hat{i + 1}" for i in range(n)]
        + ["gamma", "y", "y_tau", "trace_P_hat", "gen_distance"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in trace.records:
            k = record.k
            row = [str(k)] + [_fmt(v) for v in trace.states[k]]
            out = by_step.get(k)
            if out is not None:
                _, dist = contains(out.posterior_set, trace.states[k])
                row += [_fmt(v) for v in out.posterior_set.center]
                tail = [
                    _fmt(float(np.trace(out.posterior_set.shape))),
                    _fmt(dist),
                ]
            else:
                row += [""] * n
                tail = ["", ""]
            row += [str(int(record.gamma)), _fmt(trace.outputs[k]), _fmt(record.y_tau)]
            row += tail
            writer.writerow(row)


def _write_replay_table(path: Path, records: list[MeasurementRecord],
                        estimates: list[ObserverOutput], n: int) -> None:
    by_step = {out.k: out for out in estimates}
    header = ["k"] + [f"x_hat{i + 1}" for i in range(n)] + ["gamma", "y_tau", "trace_P_hat"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in records:
            out = by_step.get(record.k)
            row = [str(record.k)]
            if out is not None:
                row += [_fmt(v) for v in out.posterior_set.center]
                trace_cell = _fmt(float(np.trace(out.posterior_set.shape)))
            else:
                row += [""] * n
                trace_cell = ""
            row += [str(int(record.gamma)), _fmt(record.y_tau), trace_cell]
            writer.writerow(row)


def _write_log(path: Path, records: list[MeasurementRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "gamma", "y_tau"])
        for record in records:
            writer.writerow([str(record.k), str(int(record.gamma)), _fmt(record.y_tau)])


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


def _boundary(ell2d) -> np.ndarray:
    angles = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_POINTS, endpoint=False)
    circle = np.vstack([np.cos(angles), np.sin(angles)])
    return (ell2d.center[:, None] + shape_sqrt(ell2d.shape) @ circle).T


def _write_polylines(out_dir: Path, estimates: list[ObserverOutput], n: int) -> list[str]:
    """Boundary polylines of the estimation sets for the first plot steps.

    One file per coordinate pair; higher-dimensional sets are emitted as their
    2-D coordinate projections (shadows). Nothing is written for n = 1.
    """
    if n < 2:
        return []
    names = []
    for i, j in combinations(range(n), 2):
        name = "ellipsoids.csv" if n == 2 else f"ellipsoids_x{i + 1}x{j + 1}.csv"
        projector = np.zeros((2, n))
        projector[0, i] = 1.0
        projector[1, j] = 1.0
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "set_kind", "x1", "x2"])
            for out in estimates[:PLOT_STEPS]:
                sets = [("measurement", out.measurement_set), ("posterior", out.posterior_set)]
                if out.prior_set is not None:
                    sets.insert(1, ("prior", out.prior_set))
                for kind, ell in sets:
                    for point in _boundary(affine_transform(ell, projector)):
                        writer.writerow([str(out.k), kind, _fmt(point[0]), _fmt(point[1])])
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
    report = epsilon_observability(config.model, config.trigger, config.a)
    _write_step_table(out / "steps.csv", trace, estimates)
    _write_log(out / "log.csv", trace.records)
    polylines = _write_polylines(out, estimates, config.model.n)
    try:
        bound = convergence_bound(config.model, config.trigger, config.a)
    except UnstableSystemError:
        bound = None
    summary = {
        "epsilon": report.epsilon,
        "worst_pattern": report.worst_pattern,
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
    if len(records) < model.n:
        print(
            f"log holds {len(records)} records; at least {model.n} are required",
            file=sys.stderr,
        )
        return 1
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"cannot create output directory {out}: {err}", file=sys.stderr)
        return 1
    estimates = observer_run(records, model, trigger, weights)
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
            return cmd_check(args.config)
        if args.command == "bound":
            return cmd_bound(args.config)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, args.seeds)
        if args.command == "replay":
            return cmd_replay(args.config, args.log, args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (NotObservableError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
