"""Outside-in tracing for the setobs benchmark.

The traced run wraps module-level names of the imported ``setobs`` modules
for the duration of the traced operations and restores them afterwards; the
program's own files are never edited. Each hook is a span at a layer boundary.
Spans are aggregated in memory as they close (self time and calls per layer,
wall times of seed runs), not stored one by one.
A span's self time is its thread CPU time minus the CPU time of the hooked
spans it encloses, so the layer numbers add up even while the program's seed
sweep runs seeds on a thread pool (wall time there would count the time a
thread waits for the interpreter lock). Inside an *absorbing* span
(predictions, the epsilon enumeration, window-solver set-up) nested hooks are
not timed or counted, so that layer reports its inclusive cost.

Fallbacks are counted from the outside: every SingularShapeError,
DegenerateOperandError or LinAlgError raised through a fallback hook is one
silent numerical fallback the program took. They are counted inside absorbing
spans too.

A hook whose target no longer exists is skipped; a metric whose hooks are all
missing is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hook:
    """One wrapped name: ``target`` is "module:attr" or "module:Class.attr"."""

    bucket: str
    target: str
    timed: bool = True
    absorbs: bool = False
    fallback: bool = False
    wall: bool = False


HOOKS = [
    Hook("observer.window", "setobs.observability:WindowSolver.ellipsoid"),
    Hook("observer.window", "setobs.observability:information_ellipsoid"),
    Hook("observer.window", "setobs.observability:initial_state_set"),
    Hook("observer.window", "setobs.observer:measurement_info_set"),
    Hook("observer.prior", "setobs.observer:prior_set"),
    Hook("observer.fuse", "setobs.observer:fuse"),
    Hook("observer.predict", "setobs.observer:predict_no_delay", absorbs=True),
    Hook("observer.run", "setobs.observer:observer_run"),
    Hook("ellipsoid.construct", "setobs.ellipsoid:Ellipsoid.__post_init__"),
    Hook("ellipsoid.sum_param", "setobs.ellipsoid:optimal_sum_parameter", fallback=True),
    Hook("ellipsoid.sum_param", "setobs.ellipsoid:sum_parameter_range",
         timed=False, fallback=True),
    Hook("ellipsoid.fusion_matrix", "setobs.ellipsoid:optimal_fusion_matrix", fallback=True),
    Hook("ellipsoid.contains", "setobs.ellipsoid:cho_factor", timed=False, fallback=True),
    Hook("ellipsoid.sample", "setobs.ellipsoid:sample_point"),
    Hook("ellipsoid.contains", "setobs.ellipsoid:contains"),
    Hook("observability.epsilon", "setobs.observability:epsilon_observability",
         absorbs=True),
    Hook("observability.epsilon", "setobs.observability:convergence_bound"),
    Hook("observability.solver", "setobs.observability:WindowSolver.__init__", absorbs=True),
    Hook("simulation.plant", "setobs.simulation:run_closed_loop", wall=True),
    Hook("simulation.metrics", "setobs.simulation:compute_metrics"),
    Hook("simulation.sweep", "setobs.simulation:run_seed_sweep", wall=True),
    Hook("cli.config", "setobs.cli:load_config"),
    Hook("cli.config", "setobs.cli:build_system"),
    Hook("cli.config", "setobs.cli:build_sim_config"),
    Hook("cli.read_log", "setobs.cli:read_log"),
    Hook("cli.write", "setobs.cli:_write_step_table"),
    Hook("cli.write", "setobs.cli:_write_replay_table"),
    Hook("cli.write", "setobs.cli:_write_log"),
    Hook("cli.write", "setobs.cli:_write_polylines"),
    Hook("cli.report", "setobs.cli:cmd_check"),
    Hook("cli.report", "setobs.cli:cmd_bound"),
]

# Self time per unit of work (a finalized estimate; an enumerated pattern on
# analyze-n16) unless the unit says otherwise.
PER_LAYER_UNITS = {
    "observer.window_us": "us",
    "observer.prior_us": "us",
    "observer.fuse_us": "us",
    "observer.run_self_us": "us",
    "observer.predict_us": "us",
    "ellipsoid.construct_calls": "1/step",
    "ellipsoid.construct_us": "us",
    "ellipsoid.sum_param_us": "us",
    "ellipsoid.fusion_matrix_us": "us",
    "ellipsoid.sample_us": "us",
    "ellipsoid.contains_us": "us",
    "ellipsoid.fallbacks": "count",
    "observability.epsilon_calls": "1/run",
    "observability.patterns": "count",
    "observability.epsilon_us": "us",
    "observability.solver_builds": "1/run",
    "simulation.plant_us": "us",
    "simulation.metrics_us": "us",
    "simulation.seed_run_us": "us",
    "simulation.sweep_concurrency": "ratio",
    "cli.config_us": "us",
    "cli.read_log_us": "us",
    "cli.write_us": "us",
    "cli.bytes_written": "bytes",
    "cli.report_us": "us",
    "trace_overhead_pct": "%",
}

# Metric -> the hook targets it needs (any one present is enough).
_SELF_TIME_METRICS = {
    "observer.window_us": "observer.window",
    "observer.prior_us": "observer.prior",
    "observer.fuse_us": "observer.fuse",
    "observer.run_self_us": "observer.run",
    "observer.predict_us": "observer.predict",
    "ellipsoid.construct_us": "ellipsoid.construct",
    "ellipsoid.sum_param_us": "ellipsoid.sum_param",
    "ellipsoid.fusion_matrix_us": "ellipsoid.fusion_matrix",
    "ellipsoid.sample_us": "ellipsoid.sample",
    "ellipsoid.contains_us": "ellipsoid.contains",
    "observability.epsilon_us": "observability.epsilon",
    "simulation.plant_us": "simulation.plant",
    "simulation.metrics_us": "simulation.metrics",
    "cli.config_us": "cli.config",
    "cli.read_log_us": "cli.read_log",
    "cli.write_us": "cli.write",
    "cli.report_us": "cli.report",
}
_CALL_METRICS = {
    "ellipsoid.construct_calls": "setobs.ellipsoid:Ellipsoid.__post_init__",
    "observability.epsilon_calls": "setobs.observability:epsilon_observability",
    "observability.solver_builds": "setobs.observability:WindowSolver.__init__",
}
_EPSILON = "setobs.observability:epsilon_observability"
_FALLBACK_TARGETS = [hook.target for hook in HOOKS if hook.fallback]


def _fallback_errors() -> tuple[type[BaseException], ...]:
    ellipsoid = importlib.import_module("setobs.ellipsoid")
    errors = [np.linalg.LinAlgError]
    for name in ("SingularShapeError", "DegenerateOperandError"):
        if hasattr(ellipsoid, name):
            errors.append(getattr(ellipsoid, name))
    return tuple(errors)


class _ThreadState:
    def __init__(self):
        self.children: list[float] = []  # CPU time of hooked spans inside each open span
        self.absorbed = 0
        self.reset()

    def reset(self):
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.walls: dict[str, list[float]] = {}
        self.fallbacks = 0
        self.patterns = 0


class Tracer:
    """Installs the hooks, collects per-thread span statistics, restores names."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._restore: list[tuple[object, str, object]] = []
        self._errors = _fallback_errors()
        self.present: set[str] = set()
        self.missing: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            self._states.append(state)
        return state

    # -- installation -----------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.present.clear()
        self.missing.clear()
        for hook in HOOKS:
            module_name, _, path = hook.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
                continue
            self.present.add(hook.target)
            wrapper = self._wrap(hook, original)
            if parents or not getattr(original, "__module__", "").startswith("setobs"):
                # Methods, and foreign functions such as scipy's cho_factor, are
                # replaced only at the named place.
                self._replace(owner, attr, wrapper)
                continue
            # A setobs function is bound under its name in every module that
            # imported it; replace each binding so every call site is traced.
            for name, module in list(sys.modules.items()):
                if name != "setobs" and not name.startswith("setobs."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        return self

    def _replace(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, hook: Hook, fn):
        tracer = self
        errors = self._errors
        counts_patterns = hook.target == _EPSILON

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            if state.absorbed or not hook.timed:
                try:
                    return fn(*args, **kwargs)
                except errors:
                    if hook.fallback:
                        state.fallbacks += 1
                    raise
            state.children.append(0.0)
            if hook.absorbs:
                state.absorbed += 1
            wall0 = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except errors:
                if hook.fallback:
                    state.fallbacks += 1
                raise
            finally:
                cpu = time.thread_time() - cpu0
                wall = time.perf_counter() - wall0
                if hook.absorbs:
                    state.absorbed -= 1
                child = state.children.pop()
                if state.children:
                    state.children[-1] += cpu
                state.self_time[hook.bucket] = state.self_time.get(hook.bucket, 0.0) + cpu - child
                state.calls[hook.target] = state.calls.get(hook.target, 0) + 1
                if hook.wall:
                    state.walls.setdefault(hook.bucket, []).append(wall)
            if counts_patterns:
                state.patterns += len(getattr(result, "pattern_traces", ()) or ())
            return result

        return wrapper

    # -- results ------------------------------------------------------------
    def collect(self) -> dict:
        """Merge and reset the statistics of every thread that ran a span."""
        merged = {"self_time": {}, "calls": {}, "walls": {}, "fallbacks": 0, "patterns": 0}
        for state in list(self._states):
            for key, value in state.self_time.items():
                merged["self_time"][key] = merged["self_time"].get(key, 0.0) + value
            for key, value in state.calls.items():
                merged["calls"][key] = merged["calls"].get(key, 0) + value
            for key, value in state.walls.items():
                merged["walls"].setdefault(key, []).extend(value)
            merged["fallbacks"] += state.fallbacks
            merged["patterns"] += state.patterns
            state.reset()
        return merged


def _bucket_present(present: set[str], bucket: str) -> bool:
    return any(h.target in present for h in HOOKS if h.bucket == bucket and h.timed)


def per_layer_metrics(
    present: set[str],
    collected: list[dict],
    units_per_op: int,
    jobs_per_op: int,
    bytes_per_op: float,
    overhead_pct: float,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the statistics of ``len(collected)`` traced operations.

    Times are self CPU time in microseconds per unit of work, counts are per
    job (an observer run, or a CLI command on analyze-n16) or per operation.
    Returns (values, absent metric names).
    """
    ops = max(len(collected), 1)
    units = ops * units_per_op
    jobs = ops * jobs_per_op

    def total(kind: str, key: str):
        return sum(c[kind].get(key, 0) for c in collected)

    values: dict[str, float] = {}
    absent: list[str] = []
    for metric, bucket in _SELF_TIME_METRICS.items():
        if _bucket_present(present, bucket):
            values[metric] = total("self_time", bucket) * 1e6 / units
        else:
            absent.append(metric)
    for metric, target in _CALL_METRICS.items():
        if target in present:
            per = units if metric == "ellipsoid.construct_calls" else jobs
            values[metric] = total("calls", target) / per
        else:
            absent.append(metric)
    if any(t in present for t in _FALLBACK_TARGETS):
        values["ellipsoid.fallbacks"] = sum(c["fallbacks"] for c in collected) / ops
    else:
        absent.append("ellipsoid.fallbacks")
    if _EPSILON in present:
        values["observability.patterns"] = sum(c["patterns"] for c in collected) / ops
    else:
        absent.append("observability.patterns")
    seed_runs = [w for c in collected for w in c["walls"].get("simulation.plant", [])]
    sweeps = [w for c in collected for w in c["walls"].get("simulation.sweep", [])]
    if _bucket_present(present, "simulation.plant"):
        values["simulation.seed_run_us"] = statistics.median(seed_runs) * 1e6 if seed_runs else 0.0
    else:
        absent.append("simulation.seed_run_us")
    if all(_bucket_present(present, b) for b in ("simulation.plant", "simulation.sweep")):
        # Sum of seed spans over sweep wall time: above 1 the seeds overlapped.
        inside = sum(
            w for c in collected if c["walls"].get("simulation.sweep")
            for w in c["walls"].get("simulation.plant", [])
        )
        values["simulation.sweep_concurrency"] = inside / sum(sweeps) if sweeps else 0.0
    else:
        absent.append("simulation.sweep_concurrency")
    values["cli.bytes_written"] = bytes_per_op
    values["trace_overhead_pct"] = overhead_pct
    return values, absent
