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
    SumParameterRange,
    affine_transform,
    contains,
    intersection_outer,
    minkowski_sum_chain,
    minkowski_sum_outer,
    optimal_fusion_matrix,
    optimal_sum_parameter,
    sample_point,
    sum_parameter_range,
)
from .observability import (
    NotObservableError,
    ObservabilityReport,
    SystemModel,
    TriggerConfig,
    UnstableSystemError,
    WeightVector,
    convergence_bound,
    epsilon_observability,
    information_weight_matrix,
    measurement_uncertainty,
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
    evaluate_trigger,
    run_closed_loop,
    run_seed_sweep,
    sample_noise,
    step_plant,
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
    "ObservabilityReport",
    "ObserverOutput",
    "SimConfig",
    "SingularShapeError",
    "SumParameterRange",
    "SystemModel",
    "Trace",
    "TriggerConfig",
    "UnstableSystemError",
    "WeightVector",
    "affine_transform",
    "contains",
    "convergence_bound",
    "epsilon_observability",
    "evaluate_trigger",
    "fuse",
    "information_weight_matrix",
    "intersection_outer",
    "measurement_uncertainty",
    "minkowski_sum_chain",
    "minkowski_sum_outer",
    "observability_matrix",
    "observer_run",
    "optimal_fusion_matrix",
    "optimal_sum_parameter",
    "predict_no_delay",
    "prior_set",
    "run_closed_loop",
    "run_seed_sweep",
    "sample_noise",
    "sample_point",
    "spectral_norm",
    "step_plant",
    "sum_parameter_range",
]
