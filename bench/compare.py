#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (bench/results/*.json).
Results are compared only when their run records agree on the machine and
the benchmark: nproc, CPU model, Python/numpy/scipy versions, the hash of the
benchmark files and the run length. Otherwise the comparison is refused
(exit 2). Different seed sets on the two sides are flagged.

For each end-to-end metric the verdict follows BENCHMARK.json: "worse" when
the new median is worse than the base median by more than the bound,
"unresolved" when the base runs' own quartile spread exceeds the bound,
otherwise "ok". Per-layer metrics are listed without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "scipy", "bench_sha256", "seconds")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark results")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {"base": load(args.base), "new": load(args.new)}
    if not sides["base"] or not sides["new"]:
        print("compare: no result files on one side", file=sys.stderr)
        return 2

    records = {tuple((k, r["record"].get(k)) for k in MACHINE_KEYS)
               for results in sides.values() for r in results}
    if len(records) > 1:
        print("compare: run records differ:", file=sys.stderr)
        for record in sorted(records):
            print("  " + ", ".join(f"{k}={v}" for k, v in record), file=sys.stderr)
        return 2

    groups = sorted({(r["record"]["workload"], r["record"]["trace"])
                     for results in sides.values() for r in results})
    for workload, trace in groups:
        runs = {side: [r for r in results if r["record"]["workload"] == workload
                       and r["record"]["trace"] == trace]
                for side, results in sides.items()}
        seeds = {side: sorted(r["record"]["seed"] for r in rs) for side, rs in runs.items()}
        seed_flag = "" if seeds["base"] == seeds["new"] else "  [SEEDS DIFFER]"
        print(f"\n{workload} trace={trace}  runs base={len(runs['base'])} "
              f"new={len(runs['new'])}{seed_flag}")
        if not runs["base"] or not runs["new"]:
            continue
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        print(f"  failed operations: base={failed['base']} new={failed['new']}")
        for name, meta in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                      for side, rs in runs.items()}
            if not values["base"] or not values["new"]:
                continue
            b1, base, b3 = quartiles(values["base"])
            n1, new, n3 = quartiles(values["new"])
            sign = 1.0 if meta["better"] == "lower" else -1.0
            worse = sign * (new - base) / base if base else 0.0
            verdict = ""
            if "bound" in meta:
                spread = (b3 - b1) / base if base else 0.0
                better_everywhere = (max(values["new"]) < min(values["base"]) if sign > 0
                                     else min(values["new"]) > max(values["base"]))
                if worse > meta["bound"]:
                    verdict = "worse"
                elif spread > meta["bound"] and not better_everywhere:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            print(f"  {name:30s} {meta['unit']:7s} base {base:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {new:.6g} [{n1:.6g}, {n3:.6g}]  worse by {worse:+.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
