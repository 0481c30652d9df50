"""Guaranteed state estimation for LTI systems over send-on-delta channels.

Ellipsoidal set-membership toolkit: observability testing under event-
triggered measurements, an iterative trace-optimal observer, closed-loop
simulation, and a CLI harness.
"""

from .ellipsoid import (
    CONTAINMENT_TOL,
    DegenerateOperandError,
    Ellipsoid,
    SingularShapeError,
    affine_transform,
    contains,
    minkowski_sum_outer,
    optimal_fusion_matrix,
    optimal_sum_parameter,
    sample_point,
)
from .observability import (
    NotObservableError,
    SystemModel,
    TriggerConfig,
    UnstableSystemError,
    WeightVector,
    convergence_bound,
    epsilon_observability,
    observability_matrix,
    spectral_norm,
)
from .observer import (
    DivergenceError,
    MeasurementRecord,
    ObserverOutput,
    fuse,
    observer_run,
    predict_no_delay,
    prior_set,
)
from .simulation import (
    Metrics,
    SimConfig,
    Trace,
    run_closed_loop,
    run_seed_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CONTAINMENT_TOL",
    "DegenerateOperandError",
    "DivergenceError",
    "Ellipsoid",
    "MeasurementRecord",
    "Metrics",
    "NotObservableError",
    "ObserverOutput",
    "SimConfig",
    "SingularShapeError",
    "SystemModel",
    "Trace",
    "TriggerConfig",
    "UnstableSystemError",
    "WeightVector",
    "affine_transform",
    "contains",
    "convergence_bound",
    "epsilon_observability",
    "fuse",
    "minkowski_sum_outer",
    "observability_matrix",
    "observer_run",
    "optimal_fusion_matrix",
    "optimal_sum_parameter",
    "predict_no_delay",
    "prior_set",
    "run_closed_loop",
    "run_seed_sweep",
    "sample_point",
    "spectral_norm",
]
