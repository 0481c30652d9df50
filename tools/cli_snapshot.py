"""Record everything the setobs CLI writes and prints on a fixed set of configs.

Usage: python tools/cli_snapshot.py OUT_DIR

For each config below, runs ``python -m setobs.cli`` from this checkout's
``src/`` with ``simulate``, ``replay`` of the log that ``simulate`` wrote,
``simulate --seeds 12``, ``check`` and ``bound``. Each command runs in
OUT_DIR/<config>/ with relative paths, so nothing it prints names OUT_DIR;
its files go to a subdirectory named after it, and its stdout, stderr and
exit code to <command>.stdout, <command>.stderr and <command>.code.

Two checkouts produce the same CLI output when the snapshots they make
compare equal with ``diff -r``. The n6 and n16 plants are read from
``bench/plants.json``; nothing under ``bench/`` is written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAPER = {
    "A": [[0.75, 0.2], [0.5, 0.3]], "C": [0.5, 0.5], "Q": [[5.0, 0.0], [0.0, 5.0]],
    "R": 0.5, "Gamma": 0.6, "Gamma_e": 0.0001, "a": [0.5, 0.5], "x0": [0.0, 0.0],
    "N": 200, "seed": 1,
}


def bench_plant(name: str, N: int) -> dict:
    """A plant of ``bench/plants.json`` with the benchmark's Q, R and channel."""
    plant = json.loads((ROOT / "bench" / "plants.json").read_text())[name]
    n = len(plant["C"])
    Q = [[float(i == j) for j in range(n)] for i in range(n)]
    config = {**PAPER, "A": plant["A"], "C": plant["C"], "Q": Q, "x0": [0.0] * n, "N": N}
    del config["a"]  # uniform weights
    return config


CONFIGS = {
    # The README example.
    "paper": PAPER,
    # Non-uniform weights over a long horizon.
    "paper-a37-n2000": {**PAPER, "a": [0.3, 0.7], "N": 2000},
    "n6": bench_plant("n6", 300),
    "n16": bench_plant("n16", 100),
    # An unstable plant: simulate stops with a resolution error.
    "unstable": {**PAPER, "A": [[1.3, 0.1], [0.0, 1.2]], "C": [1.0, 0.0]},
    # Numbers outside [1e-4, 1e17), which '%.17g' prints in exponent form: states
    # near 1e17, traces near 1e36, a tiny first state with a subnormal entry.
    "extreme": {**PAPER, "Q": [[1e36, 0.0], [0.0, 1e36]], "R": 1e-30,
                "x0": [3e-5, -7e-310], "N": 60},
    # Weights 10^16 apart: simulate stops at a shape that fails its PSD test,
    # and the error names the shape and its step.
    "skewed": {**PAPER, "a": [1 - 1e-16, 1e-16]},
    # An integer past float range: one config error line, exit 2.
    "huge_int": {**PAPER, "R": 10**400},
    # A step count whose history size is past float range: simulate ends in
    # one error line naming the bytes it needs, exit 1.
    "huge_n": {**PAPER, "N": 10**307},
    # Q's entries span 1e-5 to 7e10: a posterior within the PSD floor needs
    # the last diagonal lift of the containment distance.
    "ill-scaled": {
        "A": [[-0.12655137941610542, -0.021576298135250152, -0.03955749298212227],
              [-0.16032977042613317, -0.3163884155211622, -0.20332125074401033],
              [-0.4058346737667999, 0.16198631327244237, -0.036583375995143705]],
        "C": [0.9195744523368594, 0.8964985363918643, 1.9336249837910817],
        "Q": [[30.94123688163918, -195465.6875290186, -0.027069282068961645],
              [-195465.68752901859, 72598121988.05232, 1458.4358186595055],
              [-0.027069282068961645, 1458.4358186595055, 8.075341548011748e-05]],
        "R": 0.0018191343644126249, "Gamma": 0.018191343644126248,
        "Gamma_e": 1.819134364412625e-06, "x0": [0.0, 0.0, 0.0], "N": 30, "seed": 101,
    },
}

COMMANDS = {
    "simulate": ["simulate", "--config", "config.json", "--out", "simulate"],
    "replay": ["replay", "--config", "config.json", "--log", "simulate/log.csv",
               "--out", "replay"],
    "sweep": ["simulate", "--config", "config.json", "--out", "sweep", "--seeds", "12"],
    "check": ["check", "--config", "config.json"],
    "bound": ["bound", "--config", "config.json"],
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, config in CONFIGS.items():
        case = out / name
        case.mkdir(parents=True)
        (case / "config.json").write_text(json.dumps(config, indent=1) + "\n")
        for command, args in COMMANDS.items():
            done = subprocess.run([sys.executable, "-m", "setobs.cli", *args], cwd=case,
                                  env=env, capture_output=True)
            (case / f"{command}.stdout").write_bytes(done.stdout)
            (case / f"{command}.stderr").write_bytes(done.stderr)
            (case / f"{command}.code").write_text(f"{done.returncode}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
