#!/usr/bin/env python3
"""Write a fixed grid of blockcache artifacts into OUT.

    python3 tools/artifact_grid.py OUT [--src SRC]

The grid is four seeded ``gen random`` instances (two with log-uniform
costs, at n=12 and n=32), ``gen gap --beta 3 --rounds 3`` and ``gen
beta-off --beta 2 --L 2`` in both directions.  Every ``run --alg`` runs on
each of them (``opt`` in both cost models, at h = k and at h = k // 2,
below a ``beta-off`` instance's starting cache; out of the exact DP's
budget it exits 1), then ``verify`` runs on every trace at its h and on
every increment log.  ``OUT/log.txt`` records
each command with its output and exit code.  SRC is the ``src`` directory
whose ``blockcache`` is run, by default this checkout's; pointing it at a
second checkout makes a refactor check one ``diff -r`` of the two OUTs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

INSTANCES = {
    "r8": ["random", "--n", "8", "--k", "4", "--beta", "2", "--T", "24", "--seed", "1"],
    "r10": ["random", "--n", "10", "--k", "4", "--beta", "3", "--T", "30", "--seed", "2"],
    "r12log": ["random", "--n", "12", "--k", "6", "--beta", "3", "--T", "30", "--seed", "3",
               "--cost-profile", "log-uniform", "--delta", "8"],
    "r32log": ["random", "--n", "32", "--k", "16", "--beta", "4", "--T", "100",
               "--seed", "1", "--cost-profile", "log-uniform", "--delta", "8"],
    "gap": ["gap", "--beta", "3", "--rounds", "3"],
    "off-evict": ["beta-off", "--beta", "2", "--L", "2", "--direction", "evict-heavy"],
    "off-fetch": ["beta-off", "--beta", "2", "--L", "2", "--direction", "fetch-heavy"],
}
SEEDS = ["--seeds", "0", "1", "2", "3"]
RUNS = {
    "det": ["--alg", "det"],
    "frac": ["--alg", "frac"],
    "frac-round": ["--alg", "frac-round", *SEEDS],
    "bicriteria-fetch": ["--alg", "bicriteria-fetch", *SEEDS],
    "bicriteria-evict": ["--alg", "bicriteria-evict", *SEEDS],
    "opt-evict": ["--alg", "opt", "--model", "evict"],
    "opt-fetch": ["--alg", "opt", "--model", "fetch"],
    "opt-evict-half": ["--alg", "opt", "--model", "evict", "--h", "HALF"],
    "opt-fetch-half": ["--alg", "opt", "--model", "fetch", "--h", "HALF"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))
    with open(out / "log.txt", "w") as log:

        def blockcache(*argv: str) -> None:
            proc = subprocess.run(
                [sys.executable, "-m", "blockcache.cli", *argv],
                cwd=out, env=env, capture_output=True, text=True,
            )
            log.write(f"$ blockcache {' '.join(argv)}\n{proc.stdout}{proc.stderr}")
            log.write(f"exit {proc.returncode}\n")

        for name, gen in INSTANCES.items():
            inst = f"{name}.json"
            blockcache("gen", *gen, "-o", inst)
            k = json.loads((out / inst).read_text())["k"]
            for run, argv in RUNS.items():
                argv = [str(k // 2) if a == "HALF" else a for a in argv]
                blockcache("run", "--instance", inst, *argv, "-o", f"{name}.{run}")
            for run in RUNS:
                if run.startswith("bicriteria"):
                    capacity = 2 * k
                else:
                    capacity = k // 2 if run.endswith("-half") else k
                if (out / f"{name}.{run}.trace.jsonl").exists():
                    blockcache("verify", "--instance", inst, "--capacity", str(capacity),
                               "--trace", f"{name}.{run}.trace.jsonl")
                if (out / f"{name}.{run}.increments.jsonl").exists():
                    blockcache("verify", "--instance", inst,
                               "--increments", f"{name}.{run}.increments.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
