"""The four benchmark workloads: generated inputs, one operation, output checks.

Every input is made from the benchmark seed with plain numpy; the program only
receives the generated files. One operation is a short sequence of CLI calls,
run in-process through ``setobs.cli.main``. The output checks are independent
of the code under test wherever they can be: the replay oracle uses true
states the benchmark generated itself, the analysis oracle recomputes epsilon
and the bound for every pattern in vectorized numpy, and all generalized
distances are computed here with a plain linear solve.

Why each workload exists is recorded in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# The paper's plant and channel (README of the program).
PAPER_PLANT = {
    "A": [[0.75, 0.2], [0.5, 0.3]],
    "C": [0.5, 0.5],
    "Q": [[5.0, 0.0], [0.0, 5.0]],
    "R": 0.5,
    "Gamma": 0.6,
    "Gamma_e": 0.0001,
}

REPLAY_STEPS = 2000      # records 0 .. REPLAY_STEPS
SIMULATE_STEPS = 1000    # N of the n=6 simulation
SWEEP_SEEDS = 8          # S of the n=2 sweep
SWEEP_STEPS = 200        # N per seed, the shape of the acceptance sweeps
ANALYZE_WEIGHT_SPREAD = 0.02

CONTAINMENT_TOL = 1e-9   # the program's documented containment tolerance
ORACLE_RTOL = 1e-9


def fixed_plant(name: str) -> dict:
    """A = rho*U with U a fixed random orthogonal matrix and a fixed random C.

    plants.json holds n6 (rho 0.8, cond(O) 26.1) and n16 (rho 0.9, cond(O)
    17.8), made once as ``rho * qr(rng.standard_normal((n, n)))[0]`` and
    ``rng.standard_normal(n)`` with ``default_rng(95)`` and ``default_rng(197)``.
    """
    plant = json.loads((HERE / "plants.json").read_text())[name]
    n = len(plant["C"])
    return {
        "A": plant["A"],
        "C": plant["C"],
        "Q": np.eye(n).tolist(),
        "R": 0.5,
        "Gamma": 0.6,
        "Gamma_e": 0.0001,
    }


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=1) + "\n")


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _columns(rows: list[dict[str, str]], prefix: str, n: int) -> np.ndarray:
    return np.array([[float(row[f"{prefix}{i + 1}"]) for i in range(n)] for row in rows])


def uniform_ball(rng: np.random.Generator, shape: np.ndarray) -> np.ndarray:
    """One point uniform in E(0, shape), drawn through a Cholesky factor."""
    n = shape.shape[0]
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    radius = rng.random() ** (1.0 / n)
    return np.linalg.cholesky(shape) @ (radius * direction)


def generate_channel_log(plant: dict, steps: int, rng: np.random.Generator):
    """True states and the send-on-delta log for steps 0 .. steps (first event forced)."""
    A = np.array(plant["A"])
    C = np.array(plant["C"])
    Q = np.array(plant["Q"])
    R = float(plant["R"])
    n = A.shape[0]
    states = np.zeros((steps + 1, n))
    flags = np.zeros(steps + 1, dtype=int)
    refs = np.zeros(steps + 1)
    y_tau = 0.0
    for k in range(steps + 1):
        if k > 0:
            states[k] = A @ states[k - 1] + uniform_ball(rng, Q)
        y = float(C @ states[k]) + np.sqrt(R) * rng.uniform(-1.0, 1.0)
        if k == 0 or (y - y_tau) ** 2 > plant["Gamma"]:
            flags[k], y_tau = 1, y
        refs[k] = y_tau
    return states, flags, refs


def generalized_distances(centers: np.ndarray, shapes: np.ndarray,
                           points: np.ndarray) -> np.ndarray:
    """(x - c)^T S^-1 (x - c) for stacked centers, shapes and points."""
    residual = points - centers
    return np.einsum("ki,ki->k", residual, np.linalg.solve(shapes, residual[..., None])[..., 0])


@dataclass
class CheckResult:
    """What the untimed output check found on one operation's outputs."""

    problems: list[str] = field(default_factory=list)
    violations: int = 0
    mean_trace: float = 0.0
    mean_error: float = 0.0

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def _score_posteriors(result: CheckResult, estimates, states: np.ndarray) -> tuple[float, float]:
    """Count containment violations; return mean trace and mean error over fused steps (k >= 1)."""
    ks = np.array([out.k for out in estimates])
    centers = np.array([out.posterior_set.center for out in estimates])
    shapes = np.array([out.posterior_set.shape for out in estimates])
    dist = generalized_distances(centers, shapes, states[ks])
    result.violations += int(np.sum(dist > 1.0 + CONTAINMENT_TOL))
    fused = ks >= 1
    return (float(np.mean(np.trace(shapes[fused], axis1=1, axis2=2))),
            float(np.mean(np.linalg.norm(states[ks][fused] - centers[fused], axis=1))))


class Workload:
    """Base: ``prepare`` writes the inputs, ``operation`` lists the CLI calls."""

    name = ""
    config_parser = "build_system"   # the cli function that parses this config
    units_per_op = 1                 # finalized estimates (patterns on analyze-n16)
    jobs_per_op = 1                  # observer runs (CLI commands on analyze-n16)
    reference_tasks = 1              # threads' worth of work in a reference pass (run.py)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.config = work / "config.json"
        self.out = work / "out"

    def inputs(self) -> list[Path]:
        return [self.config]

    def prepare(self) -> None:
        raise NotImplementedError

    def operation(self) -> list[tuple[list[str], str]]:
        """CLI argument lists, each with the file its standard output goes to."""
        raise NotImplementedError

    def check(self, setobs) -> CheckResult:
        raise NotImplementedError


class ReplayN2(Workload):
    name = "replay-n2"
    units_per_op = REPLAY_STEPS  # records 0..REPLAY_STEPS, n = 2

    def inputs(self):
        return [self.config, self.work / "log.csv", self.work / "states.npy"]

    def prepare(self):
        _write_json(self.config, PAPER_PLANT)
        rng = np.random.default_rng([self.seed, 1])
        states, flags, refs = generate_channel_log(PAPER_PLANT, REPLAY_STEPS, rng)
        with open(self.work / "log.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "gamma", "y_tau"])
            for k in range(REPLAY_STEPS + 1):
                writer.writerow([k, int(flags[k]), _fmt(refs[k])])
        np.save(self.work / "states.npy", states)

    def operation(self):
        return [(["replay", "--config", str(self.config), "--log", str(self.work / "log.csv"),
                  "--out", str(self.out)], "stdout.txt")]

    def check(self, setobs):
        result = CheckResult()
        states = np.load(self.work / "states.npy")
        model, trigger, weights = setobs.cli.build_system(setobs.cli.load_config(self.config))
        with open(self.work / "log.csv", newline="") as fh:
            records = [
                setobs.observer.MeasurementRecord(
                    k=int(row["k"]), gamma=row["gamma"] == "1", y_tau=float(row["y_tau"]))
                for row in csv.DictReader(fh)
            ]
        estimates = setobs.observer.observer_run(records, model, trigger, weights)
        result.require(len(estimates) == self.units_per_op,
                       f"{len(estimates)} estimates, expected {self.units_per_op}")
        result.mean_trace, result.mean_error = _score_posteriors(result, estimates, states)
        rows = [r for r in _read_rows(self.out / "replay_steps.csv") if r["x_hat1"]]
        centers = np.array([out.posterior_set.center for out in estimates])
        result.require(len(rows) == len(estimates)
                       and np.array_equal(_columns(rows, "x_hat", 2), centers),
                       "replay_steps.csv x_hat columns differ from the observer_run centers")
        return result


class SimulateN6(Workload):
    name = "simulate-n6"
    config_parser = "build_sim_config"
    units_per_op = SIMULATE_STEPS + 1 - 5  # records 0..N, n = 6

    def prepare(self):
        _write_json(self.config, {**fixed_plant("n6"), "x0": [0.0] * 6,
                                  "N": SIMULATE_STEPS, "seed": self.seed})

    def operation(self):
        return [(["simulate", "--config", str(self.config), "--out", str(self.out)], "stdout.txt")]

    def check(self, setobs):
        result = CheckResult()
        replay = self.work / "replay"
        code = setobs.cli.main(["replay", "--config", str(self.config),
                                "--log", str(self.out / "log.csv"), "--out", str(replay)])
        result.require(code == 0, f"replay of the emitted log exited with {code}")
        steps = _read_rows(self.out / "steps.csv")
        replayed = _read_rows(replay / "replay_steps.csv") if code == 0 else []
        estimator = [f"x_hat{i + 1}" for i in range(6)] + ["trace_P_hat"]
        result.require(
            len(steps) == len(replayed)
            and all(a[c] == b[c] for a, b in zip(steps, replayed) for c in estimator),
            "replay estimator columns are not byte-identical to steps.csv")

        plant = fixed_plant("n6")
        A, C = np.array(plant["A"]), np.array(plant["C"])
        states = _columns(steps, "x", 6)
        y = np.array([float(r["y"]) for r in steps])
        flags = np.array([int(r["gamma"]) for r in steps])
        refs = np.array([float(r["y_tau"]) for r in steps])
        # The plant layer: noise inside E(0, I) and E(0, R), send-on-delta rule.
        w = states[1:] - states[:-1] @ A.T
        result.require(np.all(np.sum(w * w, axis=1) <= 1.0 + CONTAINMENT_TOL),
                       "a process-noise sample lies outside E(0, Q)")
        result.require(np.all((y - states @ C) ** 2 <= plant["R"] * (1.0 + CONTAINMENT_TOL)),
                       "a measurement-noise sample lies outside E(0, R)")
        sent = (y[1:] - refs[:-1]) ** 2 > plant["Gamma"]
        result.require(flags[0] == 1 and np.array_equal(flags[1:] == 1, sent)
                       and np.array_equal(refs, np.where(flags == 1, y, np.r_[0.0, refs[:-1]])),
                       "the channel log does not follow the send-on-delta rule")

        model, trigger, weights = setobs.cli.build_system(setobs.cli.load_config(self.config))
        records = [setobs.observer.MeasurementRecord(k=k, gamma=bool(f), y_tau=r)
                   for k, (f, r) in enumerate(zip(flags, refs))]
        estimates = setobs.observer.observer_run(records, model, trigger, weights)
        result.mean_trace, result.mean_error = _score_posteriors(result, estimates, states)
        centers = np.array([out.posterior_set.center for out in estimates])
        result.require(np.array_equal(_columns(steps[: len(estimates)], "x_hat", 6), centers),
                       "steps.csv x_hat columns differ from the observer_run centers")
        return result


class SweepN2(Workload):
    name = "sweep-n2"
    config_parser = "build_sim_config"
    units_per_op = SWEEP_SEEDS * SWEEP_STEPS  # per seed: records 0..N, n = 2
    jobs_per_op = SWEEP_SEEDS
    reference_tasks = SWEEP_SEEDS  # the program runs the seeds on its thread pool

    @property
    def first_seed(self) -> int:
        return self.seed * SWEEP_SEEDS

    def prepare(self):
        _write_json(self.config, {**PAPER_PLANT, "x0": [0.0, 0.0],
                                  "N": SWEEP_STEPS, "seed": self.first_seed})

    def operation(self):
        return [(["simulate", "--config", str(self.config), "--out", str(self.out),
                  "--seeds", str(SWEEP_SEEDS)], "stdout.txt")]

    def check(self, setobs):
        result = CheckResult()
        summary = json.loads((self.out / "sweep_summary.json").read_text())
        result.require(summary["aggregate"]["containment_violations"] == 0,
                       "aggregate containment_violations is not 0")
        seeds = list(range(self.first_seed, self.first_seed + SWEEP_SEEDS))
        per_seed = summary["per_seed"]
        result.require([entry["seed"] for entry in per_seed] == seeds,
                       "sweep_summary.json does not list the requested seeds in order")
        base = setobs.cli.build_sim_config(setobs.cli.load_config(self.config))
        scores = []
        for seed, entry in zip(seeds, per_seed):
            config = setobs.simulation.SimConfig(model=base.model, trigger=base.trigger,
                                                 x0=base.x0, N=base.N, seed=seed, a=base.a)
            trace, estimates, metrics = setobs.simulation.run_closed_loop(config)
            result.require(entry["mean_estimation_error"] == metrics.mean_estimation_error,
                           f"seed {seed}: sweep metrics differ from a serial run")
            scores.append(_score_posteriors(result, estimates, trace.states))
        result.mean_trace, result.mean_error = (float(v) for v in np.mean(scores, axis=0))
        return result


def analysis_oracle(plant: dict, weights: np.ndarray):
    """Pattern traces (index p: offset i flag = bit n-1-i of p), epsilon and bound."""
    A, C, Q = np.array(plant["A"]), np.array(plant["C"]), np.array(plant["Q"])
    n = A.shape[0]
    powers = [np.linalg.matrix_power(A, j) for j in range(n)]
    O = np.array([C @ P for P in powers])
    # A 1-D trace-optimal Minkowski chain is exact: its shape is (sum sqrt s_j)^2.
    drift = np.r_[0.0, np.cumsum([np.sqrt(C @ P @ Q @ P.T @ C) for P in powers[:-1]])]
    W = np.array([(np.sqrt(s) + drift + np.sqrt(plant["R"])) ** 2
                  for s in (plant["Gamma"], plant["Gamma_e"])])
    gram_inv_diag = np.sum(np.linalg.inv(O) ** 2, axis=0)
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    traces = (W[bits, np.arange(n)] / weights * gram_inv_diag).sum(axis=1)
    epsilon = float(traces.max())
    bound = (np.sqrt(epsilon) + np.sqrt(np.trace(Q))) / (1.0 - np.linalg.norm(A, 2))
    return traces, epsilon, float(bound)


class AnalyzeN16(Workload):
    name = "analyze-n16"
    units_per_op = 2 * 2 ** 16  # patterns enumerated by check, then by bound
    jobs_per_op = 2

    def prepare(self):
        rng = np.random.default_rng([self.seed, 4])
        weights = 1.0 + ANALYZE_WEIGHT_SPREAD * rng.uniform(-1.0, 1.0, 16)
        _write_json(self.config, {**fixed_plant("n16"), "a": (weights / weights.sum()).tolist()})

    def operation(self):
        # A CLI user reads the report on standard output; it goes to a file here.
        return [(["check", "--config", str(self.config)], "check.txt"),
                (["bound", "--config", str(self.config)], "bound.txt")]

    def check(self, setobs):
        result = CheckResult()
        raw = json.loads(self.config.read_text())
        traces, epsilon, bound = analysis_oracle(raw, np.array(raw["a"]))
        printed, values = {}, {}
        for line in (self.out / "check.txt").read_text().splitlines():
            key, _, value = line.partition(": ")
            if key.startswith("pattern "):
                printed[int(key[len("pattern "):], 2)] = float(value)
            else:
                values[key] = value
        for line in (self.out / "bound.txt").read_text().splitlines():
            key, _, value = line.partition(": ")
            values[key] = value
        got = np.array([printed.get(p, np.nan) for p in range(traces.size)])
        result.require(len(printed) == traces.size,
                       f"{len(printed)} pattern lines, expected {traces.size}")
        result.require(np.allclose(got, traces, rtol=ORACLE_RTOL, atol=0.0),
                       "printed pattern traces differ from the oracle")
        got_epsilon = float(values.get("epsilon", "nan"))
        got_bound = float(values.get("asymptotic sqrt-trace bound", "nan"))
        result.require(abs(got_epsilon - epsilon) <= ORACLE_RTOL * epsilon,
                       f"epsilon {got_epsilon} differs from the oracle {epsilon}")
        result.require(abs(got_bound - bound) <= ORACLE_RTOL * bound,
                       f"bound {got_bound} differs from the oracle {bound}")
        # Both are pinned to the oracle by the checks above, so on this
        # workload they can only move by failing the run.
        result.mean_trace = float(np.mean(list(printed.values()))) if printed else 0.0
        result.mean_error = got_bound
        return result


WORKLOADS = {cls.name: cls for cls in (ReplayN2, SimulateN6, SweepN2, AnalyzeN16)}
