#!/usr/bin/env python3
"""Self-tests of the benchmark itself, kept out of the program's test suite.

    python3 bench/selftest.py

They check that inputs are a pure function of the seed and that the names
the benchmark prints are the ones BENCHMARK.json declares. The last test runs
run.py once per trace mode on the shortest workload (about half a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from run import END_TO_END_UNITS, import_program  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def prepare(name: str, seed: int, tag: str) -> dict[str, bytes]:
    work = BENCH / "_work" / "selftest" / f"{name}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](work, seed)
    workload.prepare()
    return {path.name: path.read_bytes() for path in workload.inputs()}


class Inputs(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(prepare(name, 7, "a"), prepare(name, 7, "b"))

    def test_different_seed_gives_different_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(prepare(name, 7, "a"), prepare(name, 8, "c"))

    def test_different_seed_gives_different_log(self):
        self.assertNotEqual(prepare("replay-n2", 7, "a")["log.csv"],
                            prepare("replay-n2", 8, "c")["log.csv"])


class Hooks(unittest.TestCase):
    def test_missing_target_marks_its_metric_absent(self):
        setobs = import_program()
        fuse = setobs.observer.fuse
        hooks = [h for h in tracing.HOOKS if h.bucket != "observer.predict"]
        hooks.append(tracing.Hook("observer.predict", "setobs.observer:no_longer_there"))
        with mock.patch.object(tracing, "HOOKS", hooks):
            tracer = tracing.Tracer()
            with tracer:
                self.assertIsNot(setobs.observer.fuse, fuse)
            values, absent = tracing.per_layer_metrics(
                tracer.present, [tracer.collect()], 1, 1, 0, 0.0)
        self.assertIs(setobs.observer.fuse, fuse)
        self.assertEqual(tracer.missing, ["setobs.observer:no_longer_there"])
        self.assertEqual(absent, ["observer.predict_us"])
        self.assertEqual(set(values) | set(absent), set(PER_LAYER_UNITS))


class Names(unittest.TestCase):
    def test_declared_names_match_the_code(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, PER_LAYER_UNITS)

    def test_printed_names_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                out = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", "replay-n2", "--seed", "1",
                     "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
                ).stdout
                result = json.loads(out.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                printed = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(printed, {m["name"]: m["unit"] for m in SPEC[section]})


if __name__ == "__main__":
    unittest.main()
