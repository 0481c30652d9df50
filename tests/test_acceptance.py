"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live). The
benchmark system is the second-order plant with A=[[0.75,0.2],[0.5,0.3]],
C=[0.5,0.5], Q=5I, R=0.5, threshold 0.6, transmit error 1e-4, uniform weights.
Criteria 3-6 share one set of 100 runs x 200 steps (seeds 700..799).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from setobs import (
    Ellipsoid,
    SimConfig,
    SystemModel,
    TriggerConfig,
    WeightVector,
    contains,
    epsilon_observability,
    minkowski_sum_outer,
    optimal_fusion_matrix,
    optimal_sum_parameter,
    run_closed_loop,
    sample_point,
    spectral_norm,
)
from setobs.cli import main

from conftest import rand_spd, read_rows, scalar_chain
from oracles import intersection_outer, minkowski_sum_chain, sum_parameter_range

BOUND_PUBLISHED = 557.8243
ERROR_PUBLISHED = 1.2261
RATE_PUBLISHED = 0.4472
SEEDS = list(range(700, 800))
STEPS = 200


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def bench():
    model = SystemModel(A=[[0.75, 0.2], [0.5, 0.3]], C=[0.5, 0.5], Q=5.0 * np.eye(2), R=0.5)
    trigger = TriggerConfig(threshold=0.6, transmit_error=1e-4)
    return model, trigger, WeightVector([0.5, 0.5])


@pytest.fixture(scope="module")
def bench_config_file(tmp_path_factory) -> Path:
    raw = {
        "A": [[0.75, 0.2], [0.5, 0.3]],
        "C": [0.5, 0.5],
        "Q": [[5.0, 0.0], [0.0, 5.0]],
        "R": 0.5,
        "Gamma": 0.6,
        "Gamma_e": 0.0001,
        "a": [0.5, 0.5],
        "x0": [0.0, 0.0],
        "N": STEPS,
        "seed": SEEDS[0],
    }
    path = tmp_path_factory.mktemp("acceptance") / "bench.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture(scope="module")
def bench_runs(bench):
    """100 runs x 200 steps; shared by criteria 3-6. Records its build time."""
    model, trigger, weights = bench
    start = time.perf_counter()
    runs = []
    for seed in SEEDS:
        config = SimConfig(
            model=model, trigger=trigger, x0=[0.0, 0.0], N=STEPS, seed=seed, a=weights
        )
        runs.append(run_closed_loop(config))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def bruteforce_epsilon() -> float:
    """Independent oracle: scalar sqrt-sum chains and a hand-written 2x2 inverse."""
    CQC = 2.5
    best = -np.inf
    O = np.array([[0.5, 0.5], [0.625, 0.25]])
    det = O[0, 0] * O[1, 1] - O[0, 1] * O[1, 0]
    Oinv = np.array([[O[1, 1], -O[0, 1]], [-O[1, 0], O[0, 0]]]) / det
    for f0 in (0, 1):
        for f1 in (0, 1):
            w0 = scalar_chain([1e-4 if f0 else 0.6, 0.5])
            w1 = scalar_chain([1e-4 if f1 else 0.6, CQC, 0.5])
            trace = float(np.trace(Oinv @ np.diag([w0 / 0.5, w1 / 0.5]) @ Oinv.T))
            best = max(best, trace)
    return best


def test_criterion_1_bound_reproduction(bench_config_file, capsys):
    start = time.perf_counter()
    code = main(["bound", "--config", str(bench_config_file)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    value = float(next(l for l in out.splitlines() if "sqrt-trace" in l).split(":")[1])
    ok = code == 0 and abs(value - BOUND_PUBLISHED) <= 0.01 and elapsed < 1.0
    with capsys.disabled():
        report(1, "asymptotic bound", ok,
               f"bound={value:.4f} target={BOUND_PUBLISHED}+/-0.01 runtime={elapsed:.3f}s")
    assert code == 0
    assert value == pytest.approx(BOUND_PUBLISHED, abs=0.01)
    assert elapsed < 1.0


def test_criterion_2_epsilon_bruteforce(bench_config_file, capsys):
    start = time.perf_counter()
    code = main(["check", "--config", str(bench_config_file)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    value = float(next(l for l in out.splitlines() if l.startswith("epsilon:")).split()[1])
    expected = bruteforce_epsilon()
    rel = abs(value - expected) / expected
    ok = code == 0 and rel <= 1e-6 and elapsed < 1.0
    with capsys.disabled():
        report(2, "epsilon vs brute force", ok,
               f"epsilon={value:.5f} oracle={expected:.5f} rel_err={rel:.2e} "
               f"runtime={elapsed:.3f}s")
    assert code == 0
    assert rel <= 1e-6
    assert expected == pytest.approx(323.43, abs=0.01)
    assert elapsed < 1.0


def test_criterion_3_guaranteed_containment(bench_runs, capsys):
    runs, build_time = bench_runs
    start = time.perf_counter()
    violations = 0
    worst = 0.0
    checked = 0
    for trace, outputs, metrics in runs:
        violations += metrics.containment_violations
        for out in outputs:
            _, dist = contains(out.posterior_set, trace.states[out.k])
            worst = max(worst, dist)
            if dist > 1.0 + 1e-9:
                violations += 1
            checked += 1
    elapsed = build_time + time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    with capsys.disabled():
        report(3, "guaranteed containment", ok,
               f"{len(runs)} seeds x {STEPS} steps, {checked} fused sets, "
               f"violations={violations}, max_distance={worst:.6f}, runtime={elapsed:.1f}s")
    assert violations == 0
    assert worst <= 1.0 + 1e-9
    assert elapsed < 30.0


def test_criterion_4_stochastic_band(bench_runs, capsys):
    runs, _ = bench_runs
    errors = np.array([m.mean_estimation_error for _, _, m in runs])
    rates = np.array([m.communication_rate for _, _, m in runs])
    in_band = bool(
        (errors >= 0.5).all() and (errors <= 2.5).all()
        and (rates >= 0.25).all() and (rates <= 0.65).all()
    )
    covered = bool(
        errors.min() <= ERROR_PUBLISHED <= errors.max()
        and rates.min() <= RATE_PUBLISHED <= rates.max()
    )
    ok = in_band and covered
    with capsys.disabled():
        report(4, "stochastic band", ok,
               f"E_d env=[{errors.min():.4f},{errors.max():.4f}] target {ERROR_PUBLISHED}; "
               f"rate env=[{rates.min():.4f},{rates.max():.4f}] target {RATE_PUBLISHED}")
    assert in_band
    assert covered


def test_criterion_5_fusion_inequalities(bench, bench_runs, capsys):
    model, _, _ = bench
    runs, _ = bench_runs
    norm_a = spectral_norm(model.A)
    sqrt_q = float(np.sqrt(np.trace(model.Q)))
    I = np.eye(2)
    worst_meas = worst_prior = worst_rec = -np.inf
    for _, outputs, _ in runs:
        prev_trace = None
        for out in outputs:
            post_trace = float(np.trace(out.posterior_set.shape))
            if out.prior_set is not None:
                Pbar = out.measurement_set.shape
                Pchk = out.prior_set.shape
                M = optimal_fusion_matrix(Pbar, Pchk)
                worst_meas = max(
                    worst_meas,
                    np.trace(M @ Pbar @ M.T) / np.trace(Pbar) - 1.0,
                )
                worst_prior = max(
                    worst_prior,
                    np.trace((I - M) @ Pchk @ (I - M).T) / np.trace(Pchk) - 1.0,
                )
                rhs = norm_a * np.sqrt(prev_trace) + np.sqrt(np.trace(Pbar)) + sqrt_q
                worst_rec = max(worst_rec, np.sqrt(post_trace) / rhs - 1.0)
            prev_trace = post_trace
    ok = worst_meas <= 1e-9 and worst_prior <= 1e-9 and worst_rec <= 1e-9
    with capsys.disabled():
        report(5, "fusion inequalities", ok,
               f"worst relative excess: measurement={worst_meas:.2e} "
               f"prior={worst_prior:.2e} recursion={worst_rec:.2e} (slack 1e-9)")
    assert worst_meas <= 1e-9
    assert worst_prior <= 1e-9
    assert worst_rec <= 1e-9


def test_criterion_6_asymptotic_bound_respected(bench_runs, capsys):
    runs, _ = bench_runs
    worst = -np.inf
    for _, outputs, _ in runs:
        for out in outputs:
            if out.k >= 50:
                worst = max(worst, float(np.sqrt(np.trace(out.posterior_set.shape))))
    ok = worst <= BOUND_PUBLISHED + 1e-6
    with capsys.disabled():
        report(6, "asymptotic bound respected", ok,
               f"max sqrt-trace after burn-in={worst:.4f} vs {BOUND_PUBLISHED}")
    assert worst <= BOUND_PUBLISHED + 1e-6


def test_criterion_7_calculus_soundness(capsys):
    rng = np.random.default_rng(2024)
    pairs = 1000
    sum_fail = inter_fail = p_fail = m_fail = chain_fail = 0
    inter_checked = 0
    for _ in range(pairs):
        d = int(rng.integers(1, 4))
        Q1, Q2 = rand_spd(rng, d), rand_spd(rng, d)
        e1 = Ellipsoid(rng.standard_normal(d), Q1)
        e2 = Ellipsoid(rng.standard_normal(d) * 0.5, Q2)

        # Minkowski-sum containment at the optimal parameter.
        outer = minkowski_sum_outer(e1, e2)
        for _ in range(3):
            x = sample_point(e1, rng) + sample_point(e2, rng)
            if not contains(outer, x)[0]:
                sum_fail += 1

        # p* minimizes the trace over a 50-point sweep of the admissible range.
        p_star = optimal_sum_parameter(Q1, Q2)
        best = np.trace((1 + 1 / p_star) * Q1 + (1 + p_star) * Q2)
        prange = sum_parameter_range(Q1, Q2)
        for p in np.linspace(prange.lower, prange.upper, 50):
            if best > np.trace((1 + 1 / p) * Q1 + (1 + p) * Q2) * (1 + 1e-9):
                p_fail += 1
                break

        # M* minimizes the fusion objective against 50 random perturbations.
        M = optimal_fusion_matrix(Q1, Q2)
        I = np.eye(d)
        base = np.trace(M @ Q1 @ M.T) + np.trace((I - M) @ Q2 @ (I - M).T)
        for _ in range(50):
            delta = rng.standard_normal((d, d))
            delta *= 0.1 * rng.random() / max(np.linalg.norm(delta), 1e-12)
            Mp = M + delta
            trial = np.trace(Mp @ Q1 @ Mp.T) + np.trace((I - Mp) @ Q2 @ (I - Mp).T)
            if base > trial * (1 + 1e-12):
                m_fail += 1
                break

        # Intersection containment for sampled common points.
        fused = intersection_outer(e1, e2, M)
        for _ in range(8):
            x = sample_point(e1, rng)
            if contains(e2, x)[0]:
                inter_checked += 1
                if not contains(fused, x)[0]:
                    inter_fail += 1

        # Scalar-chain identity.
        values = rng.uniform(0.01, 10.0, size=int(rng.integers(2, 7)))
        chain = minkowski_sum_chain([Ellipsoid([0.0], [[v]]) for v in values])
        if abs(chain.shape[0, 0] - scalar_chain(values)) > 1e-12 * scalar_chain(values):
            chain_fail += 1

    ok = sum_fail == inter_fail == p_fail == m_fail == chain_fail == 0 and inter_checked > 500
    with capsys.disabled():
        report(7, "calculus soundness", ok,
               f"{pairs} pairs: sum_fail={sum_fail} intersection_fail={inter_fail} "
               f"(checked {inter_checked}) p_opt_fail={p_fail} M_opt_fail={m_fail} "
               f"chain_fail={chain_fail}")
    assert sum_fail == 0
    assert inter_fail == 0
    assert p_fail == 0
    assert m_fail == 0
    assert chain_fail == 0
    assert inter_checked > 500


def test_criterion_8_replay_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(4096)
    done = 0
    attempts = 0
    mismatches = 0
    while done < 10:
        attempts += 1
        assert attempts < 80, "failed to generate enough observable configurations"
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.3, 0.9) / max(np.linalg.norm(A, 2), 1e-9)
        G = rng.standard_normal((n, n))
        gamma = float(rng.uniform(0.2, 2.0))
        raw = {
            "A": A.tolist(),
            "C": rng.standard_normal(n).tolist(),
            "Q": (G @ G.T + 0.5 * np.eye(n)).tolist(),
            "R": float(rng.uniform(0.1, 1.0)),
            "Gamma": gamma,
            "Gamma_e": gamma * 1e-3,
            "x0": rng.standard_normal(n).tolist(),
            "N": int(rng.integers(n + 3, 40)),
            "seed": int(rng.integers(0, 100_000)),
        }
        try:
            model = SystemModel(A=raw["A"], C=raw["C"], Q=raw["Q"], R=raw["R"])
            trigger = TriggerConfig(raw["Gamma"], raw["Gamma_e"])
            if not epsilon_observability(model, trigger).full_rank:
                continue
        except ValueError:
            continue
        case = tmp_path / f"case{done}"
        case.mkdir()
        cfg = case / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(cfg), "--out", str(case)]) == 0
        assert main([
            "replay", "--config", str(cfg), "--log", str(case / "log.csv"),
            "--out", str(case),
        ]) == 0
        sim_rows = read_rows(case / "steps.csv")
        rep_rows = read_rows(case / "replay_steps.csv")
        cols = [f"x_hat{i + 1}" for i in range(n)] + ["trace_P_hat"]
        for s, r in zip(sim_rows, rep_rows):
            for col in cols:
                if s[col] != r[col]:
                    mismatches += 1
        done += 1
    ok = mismatches == 0
    with capsys.disabled():
        report(8, "replay round trip", ok,
               f"{done} random configurations, estimator-column mismatches={mismatches}")
    assert mismatches == 0
