#!/usr/bin/env python3
"""setobs benchmark: one workload, closed loop, one operation at a time.

    python3 bench/run.py --workload replay-n2 --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
checkout this file sits in, never from an installed copy; without ``src/``
the benchmark exits with code 2. With ``--trace 0`` the last line of standard
output is the JSON result with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run (see tracing.py). The line before
it holds the run record and the check results, which are also written to
``bench/results/``. Inputs and outputs live in ``bench/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
MIN_OPS = 3
# Timed items are reported in seconds of a machine on which one reference
# pass takes this long (see Reference): operations against linalg_pass,
# set-up samples against import_pass.
LINALG_REFERENCE_S = 0.08
IMPORT_REFERENCE_S = 0.6
LINALG_LOOPS = 4000

END_TO_END_UNITS = {
    "wall_s": "s",
    "step_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_trace": "state2",
    "mean_error": "state",
}


class OperationFailed(RuntimeError):
    pass


def import_program():
    """Import setobs from this checkout's src/ and nowhere else."""
    if not (SRC / "setobs" / "__init__.py").is_file():
        print(f"benchmark: {SRC / 'setobs'} not found; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import setobs
    import setobs.cli
    import setobs.observer
    import setobs.simulation

    if Path(setobs.__file__).resolve().parent != (SRC / "setobs").resolve():
        print(f"benchmark: imported setobs from {setobs.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return setobs


def run_record(args) -> dict:
    """Where and on what these numbers were measured; compare only equal records."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted(BENCH.glob("*.py")) + [BENCH / "plants.json"]:
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bench_sha256": digest.hexdigest()[:16],
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (no git process, no parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_time(workload) -> float:
    """Wall time of a fresh interpreter importing setobs and parsing the config."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import setobs.cli as cli; "
        f"cli.{workload.config_parser}(cli.load_config(sys.argv[2]))"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC), str(workload.config)],
                   cwd=ROOT, check=True)
    return time.perf_counter() - start


class Reference:
    """A fixed piece of work of the benchmark's own, timed between timed items.

    The host's speed drifts by a third within an hour with other load on the
    machine, and process CPU time drifts with wall time. A reference pass does
    the same kind of work as the items it scales, but no change to the program
    moves it. Each timed item is scaled by ``nominal_s`` over the mean of the
    passes just before and just after it, which cancels most of the drift.
    """

    def __init__(self, timed_pass, nominal_s: float):
        self._pass = timed_pass
        self.nominal_s = nominal_s
        self._pass()  # warm-up: first calls into numpy.linalg, cold page cache
        self.seconds = [self._pass()]

    def scale(self) -> float:
        """Run one pass; return the factor for the item timed since the last one."""
        self.seconds.append(self._pass())
        return 2.0 * self.nominal_s / (self.seconds[-2] + self.seconds[-1])


def linalg_pass(tasks: int) -> float:
    """Reference for operations: 2x2 factorizations, solves and products in numpy.

    With more than one task the rounds are split over a default-size thread
    pool, as the program's seed sweep splits its seeds: threads that contend
    for the interpreter lock slow down more under host load than one thread.
    """
    import numpy as np

    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    v = np.array([1.0, 2.0])

    def rounds(count: int) -> None:
        for _ in range(count):
            np.linalg.cholesky(M)
            np.linalg.solve(M, v)
            np.trace(M @ M.T)
            np.linalg.eigvalsh(M)

    start = time.perf_counter()
    if tasks == 1:
        rounds(LINALG_LOOPS)
    else:
        with ThreadPoolExecutor() as pool:
            list(pool.map(rounds, [LINALG_LOOPS // tasks] * tasks))
    return time.perf_counter() - start


def import_pass() -> float:
    """Reference for set-up: a fresh interpreter that imports the program's dependencies."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_operation(setobs, workload) -> None:
    """One closed-loop operation: the workload's CLI calls, in order, in-process."""
    workload.out.mkdir(parents=True, exist_ok=True)
    for argv, stdout_name in workload.operation():
        with open(workload.out / stdout_name, "w") as fh, redirect_stdout(fh):
            try:
                code = setobs.cli.main(argv)
            except SystemExit as err:
                code = err.code
        if code != 0:
            raise OperationFailed(f"setobs {argv[0]} exited with {code}")


def bytes_written(workload) -> int:
    return sum(p.stat().st_size for p in workload.out.rglob("*") if p.is_file())


class Counter:
    """Attempted and failed operations; a failure is logged to standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def timed(self, fn) -> float | None:
        self.attempted += 1
        gc.collect()  # every operation starts from the same heap state
        start = time.perf_counter()
        try:
            fn()
        except Exception as err:  # any failure of the program is counted, not fatal
            self.failed += 1
            print(f"benchmark: operation failed: {err!r}", file=sys.stderr)
            return None
        return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, CheckResult

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    setobs = import_program()
    work = BENCH / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    workload.prepare()
    counter = Counter()
    op = functools.partial(run_operation, setobs, workload)

    reference = Reference(functools.partial(linalg_pass, workload.reference_tasks),
                          LINALG_REFERENCE_S)
    import_reference = Reference(import_pass, IMPORT_REFERENCE_S) if not args.trace else None
    deadline = time.perf_counter() + args.seconds
    setups: list[float] = []      # scaled; the raw times go to the info line
    raw_setups: list[float] = []
    plain: list[float] = []
    raw_plain: list[float] = []
    traced: list[float] = []
    collected: list[dict] = []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    while counter.attempted < MIN_OPS * (1 + args.trace) or time.perf_counter() < deadline:
        if tracer is not None and len(traced) < len(plain):
            with tracer:
                elapsed = counter.timed(op)
            stats = tracer.collect()
            scale = reference.scale()
            if elapsed is not None:
                traced.append(elapsed * scale)
                collected.append(stats)
        else:
            elapsed = counter.timed(op)
            scale = reference.scale()
            if elapsed is not None:
                plain.append(elapsed * scale)
                raw_plain.append(elapsed)
        if tracer is None and len(setups) < SETUP_REPEATS:
            # Set-up samples are spread over the run; the window is extended
            # by the time they and their reference passes take.
            start = time.perf_counter()
            raw_setups.append(setup_time(workload))
            setups.append(raw_setups[-1] * import_reference.scale())
            deadline += time.perf_counter() - start
    while tracer is None and len(setups) < SETUP_REPEATS:
        raw_setups.append(setup_time(workload))
        setups.append(raw_setups[-1] * import_reference.scale())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Every operation writes the same files; the last one's are checked.
    try:
        check = workload.check(setobs)
    except Exception as err:  # missing or unreadable outputs fail the check
        check = CheckResult(problems=[f"check raised {err!r}"])
    if check.violations:
        check.problems.append(f"{check.violations} posteriors miss the true state")
    if check.problems:
        counter.failed += 1
        for problem in check.problems:
            print(f"benchmark: output check failed: {problem}", file=sys.stderr)
    correct = counter.failed == 0

    if tracer is None:
        wall_s = statistics.median(plain) if plain else 0.0
        values = {
            "wall_s": wall_s,
            "step_us": wall_s * 1e6 / workload.units_per_op,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "mean_trace": check.mean_trace,
            "mean_error": check.mean_error,
        }
        units = END_TO_END_UNITS
        absent: list[str] = []
    else:
        from tracing import PER_LAYER_UNITS, per_layer_metrics

        overhead = (
            (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
            if traced and plain else 0.0
        )
        values, absent = per_layer_metrics(
            tracer.present, collected, workload.units_per_op, workload.jobs_per_op,
            bytes_written(workload), overhead)
        units = PER_LAYER_UNITS

    info = {
        "record": run_record(args),
        "reference_s": {"linalg": LINALG_REFERENCE_S, "import": IMPORT_REFERENCE_S},
        "seconds_per_operation": {"untraced": plain, "traced": traced},
        "setup_seconds": setups,
        "raw_seconds_per_operation": raw_plain,
        "raw_setup_seconds": raw_setups,
        "reference_pass_seconds": {
            "linalg": reference.seconds,
            "import": import_reference.seconds if import_reference is not None else [],
        },
        "error_rate": counter.failed / counter.attempted,
        "violations": check.violations,
        "problems": check.problems,
        "absent": absent,
        "missing_hooks": tracer.missing if tracer is not None else [],
    }
    result = {
        "correct": correct,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path = results_dir / name
    path.write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH))
    sys.exit(main())
