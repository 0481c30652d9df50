"""Shared fixtures: the second-order benchmark system used across the suite."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from setobs import Ellipsoid, MeasurementRecord, SystemModel, TriggerConfig, WeightVector, sample_point

from oracles import evaluate_trigger, sample_noise, step_plant


@pytest.fixture
def bench_model() -> SystemModel:
    return SystemModel(
        A=[[0.75, 0.2], [0.5, 0.3]],
        C=[0.5, 0.5],
        Q=5.0 * np.eye(2),
        R=0.5,
    )


@pytest.fixture
def bench_trigger() -> TriggerConfig:
    return TriggerConfig(threshold=0.6, transmit_error=1e-4)


@pytest.fixture
def bench_weights() -> WeightVector:
    return WeightVector([0.5, 0.5])


def scalar_chain(values) -> float:
    """Independent oracle: exact outer sum of scalar shapes is (sum of sqrts)^2."""
    return float(sum(np.sqrt(v) for v in values)) ** 2


def rand_spd(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    G = rng.standard_normal((dim, dim))
    return scale * (G @ G.T + 0.05 * np.eye(dim))


def orthogonal_plant(n: int, seed: int) -> SystemModel:
    """A = 0.8 U with U a random orthogonal matrix: strictly stable and observable."""
    rng = np.random.default_rng(seed)
    return SystemModel(A=0.8 * np.linalg.qr(rng.standard_normal((n, n)))[0],
                       C=rng.standard_normal(n), Q=np.eye(n), R=0.5)


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes: bit for bit, telling -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def read_rows(path) -> list[dict[str, str]]:
    """Rows of a CSV file the CLI wrote, keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# The paper plant made unstable: its state grows like 1.3^k while the sets stay
# bounded, so after ~130 steps one ulp of the state exceeds the set's width.
UNSTABLE_PLANT = {"A": [[1.3, 0.1], [0.0, 1.2]], "C": [1.0, 0.0], "Q": [[5.0, 0.0], [0.0, 5.0]],
                  "R": 0.5, "Gamma": 0.6, "Gamma_e": 1e-4}


def reference_plant(model: SystemModel, trigger: TriggerConfig, x0, N: int, seed: int):
    """The states, outputs, process noise, measurement noise and channel log
    ``run_closed_loop`` simulates for a config, one step at a time: each noise
    point drawn alone, each state stepped alone and each flag decided alone."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float)
    v = float(sample_point(Ellipsoid([0.0], [[model.R]]), rng)[0])
    y = float(model.C @ x) + v
    states, outputs, process_noise, measurement_noise = [x], [y], [], [v]
    records = [MeasurementRecord(0, True, y)]
    for k in range(1, N + 1):
        w, v = sample_noise(model, rng)
        x = step_plant(x, w, model)
        y = float(model.C @ x) + v
        gamma, y_tau = evaluate_trigger(y, records[-1].y_tau, trigger)
        states.append(x)
        outputs.append(y)
        process_noise.append(w)
        measurement_noise.append(v)
        records.append(MeasurementRecord(k, gamma, y_tau))
    return (np.array(states), np.array(outputs), np.array(process_noise).reshape(N, model.n),
            np.array(measurement_noise), records)


def channel_log(model: SystemModel, trigger: TriggerConfig, x0, N: int, seed: int):
    """The channel log ``run_closed_loop`` records for a config, built from the
    simulation's own draws and steps without running the observer."""
    return reference_plant(model, trigger, x0, N, seed)[-1]
