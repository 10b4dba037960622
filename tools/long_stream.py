#!/usr/bin/env python3
"""Wall time and peak memory of det's run and its trace check on long streams.

    python3 tools/long_stream.py T [T ...]

For each T, in a temporary directory, the tool writes ``gen random --n 64
--k 32 --beta 4 --T T --seed 1``, then runs ``run --alg det`` on it and
``verify --trace`` on the trace that run wrote.  Each command is a child
``python -m blockcache.cli`` process of this checkout's ``src``.  The
tool prints one Markdown table row per T: the wall time and peak resident
set size of the ``run`` and the ``verify`` child, read from ``os.wait4``'s
resource usage of that child alone, and the sizes of the trace and the
certificate.  A child that exits nonzero is reported with its output, and
the tool then exits 1.  A child's peak RSS as ``os.wait4`` reports it is
at least the RSS of the process that started it, so run the tool as its
own process: ``child`` called from a larger one, such as a test runner,
reads that process's size instead.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = (
    "| T | `run --alg det` | peak RSS | `verify --trace` | peak RSS | trace | cert |\n"
    "|---|---|---|---|---|---|---|"
)


def child(argv: list[str], workdir: str) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one ``blockcache.cli`` child run in
    workdir; RuntimeError with its output if it exits nonzero."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    log = os.path.join(workdir, "child.log")
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "blockcache.cli", *argv],
            cwd=workdir, env=env, stdout=out, stderr=subprocess.STDOUT,
        )
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # reaped by wait4, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log) as fh:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {fh.read().strip()}")
    return wall, usage.ru_maxrss / 1024.0  # Linux reports ru_maxrss in KB


def measure(T: int) -> str:
    """The table row of one stream length."""
    with tempfile.TemporaryDirectory(prefix="long-stream-") as work:
        child(["gen", "random", "--n", "64", "--k", "32", "--beta", "4", "--T", str(T),
               "--seed", "1", "-o", "inst.json"], work)
        run_s, run_mb = child(["run", "--instance", "inst.json", "--alg", "det", "-o", "det"], work)
        ver_s, ver_mb = child(
            ["verify", "--instance", "inst.json", "--trace", "det.trace.jsonl"], work
        )
        trace_mb, cert_mb = (
            os.path.getsize(os.path.join(work, name)) / 1e6
            for name in ("det.trace.jsonl", "det.cert.json")
        )
    return (
        f"| {T:,} | {run_s:.2f} s | {run_mb:.1f} MB | {ver_s:.2f} s | {ver_mb:.1f} MB"
        f" | {trace_mb:.2f} MB | {cert_mb:.2f} MB |"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("T", type=int, nargs="+", help="stream lengths")
    args = parser.parse_args(argv)
    if min(args.T) < 1:
        parser.error("every T must be at least 1")
    print(HEADER)
    for T in args.T:
        try:
            print(measure(T), flush=True)
        except RuntimeError as exc:
            print(f"error: T={T}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
