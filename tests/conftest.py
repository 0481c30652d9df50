"""Shared fixtures: the second-order benchmark system used across the suite."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from setobs import SystemModel, TriggerConfig, WeightVector


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


def read_rows(path) -> list[dict[str, str]]:
    """Rows of a CSV file the CLI wrote, keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
