"""Benchmark for the blockcache command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload frac-mid --seed 1 --seconds 30 --trace 0

and for every workload:

    for w in frac-mid det-long oracle-small; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

It generates the workload's instance files from ``--seed``, runs the
workload's ``blockcache run`` jobs in this process, one after another, in
passes until the next pass would end after ``--seconds`` seconds (at least
two passes), checks every output, prints a readable report and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics; ``--trace 1``
gives the per-layer metrics of a traced run.  Times are seconds at a
reference host speed (see bench/speed.py).  Workloads are defined in
bench/spec.json.  Scratch files go to ``.bench_work/`` in the checkout and
are removed at exit.  Exit code 2 means the program could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


IMPORT_REPEATS = 5


def import_time() -> float:
    """Median scaled time to import blockcache.cli in a fresh interpreter,
    the import part of set-up; each interpreter times its own speed loop
    right after the import (see bench/speed.py)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter();"
        " import blockcache.cli; took = time.perf_counter() - start;"
        " sys.path.insert(0, sys.argv[2]); import speed;"
        " print(speed.scale(took, [speed.speed_loop() for _ in range(5)]))"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    spec = json.loads((BENCH / "spec.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import blockcache.cli
    except ImportError as exc:
        print(f"error: cannot import blockcache from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(blockcache.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: blockcache was imported from {blockcache.cli.__file__},"
              f" not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    import_s = import_time()

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        outcome = harness.run_workload(
            args.workload,
            harness.SPEC["workloads"][args.workload],
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            import_s=import_s,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run is still using it
    print("\n".join(outcome.report))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
