#!/usr/bin/env python3
"""Compare this checkout with a parent checkout in alternating benchmark pairs.

    python3 tools/bench_pairs.py PARENT_CHECKOUT --workload W --seed S \\
        --pairs N --seconds X -o BENCH_<PR>.json

PARENT_CHECKOUT is a git work tree of the parent commit, e.g. made with
``git worktree add ../parent HEAD~1``; a directory outside git is refused,
so that every BENCH file names the commit it measured.  Each pair runs
``python3 bench/run.py --workload W --seed S --seconds X --trace 0`` once
in PARENT_CHECKOUT and once in this checkout, one run at a time; the
parent runs first in even pairs and the change in odd ones.
Every run compiles its Python from source: it writes no bytecode and its
``PYTHONPYCACHEPREFIX`` is a fresh, empty directory.  Every
end-to-end metric that BENCHMARK.json names gets each side's [first
quartile, median, third quartile], the number of pairs the change won
(ties count for neither side) and a ``verdict`` (see ``verdict``).  The run entry names its ``parent`` commit
and its ``change``, this checkout's commit with ``-dirty`` when it has
uncommitted changes, says whether every run of both sides printed the
same output ``digest`` (``digests_equal``), and lists each side's
distinct digests (``digests``).  It is written into OUT;
an OUT that exists keeps its entries for other workloads or seeds, so one
file can collect several workloads measured against different parents.
Each checkout's ``bench/run.py`` is run as it is; this script writes
nothing under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGITS = 4


def quartiles(runs: list[float]) -> list[float]:
    """[first quartile, median, third quartile], linear interpolation
    between order statistics; one run is all three."""
    if len(runs) == 1:
        return [round(runs[0], DIGITS)] * 3
    return [round(q, DIGITS) for q in statistics.quantiles(runs, n=4, method="inclusive")]


def pairs_won(parent_runs: list[float], change_runs: list[float], better: str) -> int:
    """The pairs in which the change is strictly better; a tie counts for
    neither side."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs))


def summarize(parent_runs: list[float], change_runs: list[float], better: str) -> dict:
    """One metric's entry: quartiles per side, pairs won by the change
    (strictly better; a tie counts for neither), and the runs in pair order."""
    return {
        "parent": quartiles(parent_runs),
        "change": quartiles(change_runs),
        "change_wins": pairs_won(parent_runs, change_runs, better),
        "parent_runs": [round(v, DIGITS) for v in parent_runs],
        "change_runs": [round(v, DIGITS) for v in change_runs],
    }


def verdict(parent_runs: list[float], change_runs: list[float], better: str, bound: float) -> str:
    """What one metric's pairs show, checked in this order: ``gain`` when
    the change won at least 9 of 10 pairs and its median is better than
    the parent's by more than the parent's interquartile range;
    ``regression`` when its median is worse than the parent's by more than
    ``bound`` times the parent's median; ``unresolved`` when the parent's
    interquartile range is wider than ``bound`` times its median; ``same``
    otherwise.  ``bound`` is the metric's bound in BENCHMARK.json."""
    wins = pairs_won(parent_runs, change_runs, better)
    if len(parent_runs) == 1:
        q1 = median = q3 = parent_runs[0]
    else:
        q1, median, q3 = statistics.quantiles(parent_runs, n=4, method="inclusive")
    gain = median - statistics.median(change_runs)  # > 0: the change is better
    if better != "lower":
        gain = -gain
    if 10 * wins >= 9 * len(parent_runs) and gain > q3 - q1:
        return "gain"
    if -gain > bound * abs(median):
        return "regression"
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    return "same"


def digest_of(report: str) -> str | None:
    """The hash on the report's ``digest`` line, or None without one."""
    for line in report.splitlines():
        words = line.split()
        if len(words) == 2 and words[0] == "digest":
            return words[1]
    return None


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py`` run, as JSON, with the
    report's output digest added as ``digest``.  The run writes no bytecode
    and looks for it only in a fresh, empty directory, removed afterwards,
    so no side imports a cache that earlier runs left in its checkout."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": pycache}
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True, check=True,
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["digest"] = digest_of(done.stdout)
    return result


def commit_of(checkout: Path) -> str | None:
    """The checkout's short commit id, or None when it is not the top of a
    git work tree."""
    if not (checkout / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def change_of(checkout: Path) -> str:
    """``commit_of(checkout)``, with ``-dirty`` appended when ``git status
    --porcelain`` lists any change, or the directory name outside git."""
    commit = commit_of(checkout)
    if commit is None:
        return checkout.name
    done = subprocess.run(
        ["git", "-C", str(checkout), "status", "--porcelain"],
        capture_output=True, text=True,
    )
    return commit + ("-dirty" if done.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("-o", "--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"{args.parent} has no bench/run.py")
    parent_commit = commit_of(args.parent.resolve())
    if parent_commit is None:
        parser.error(f"{args.parent} is not a git work tree, so no commit names it;"
                     " make it with git worktree add")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    first = []
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        first.append(order[0])
        for side in order:
            results[side].append(run_bench(sides[side], args.workload, args.seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} {side}: "
                  f"wall_s {results[side][-1]['metrics']['wall_s']['value']:.4f}", file=sys.stderr)

    side_digests = {side: {r["digest"] for r in runs} for side, runs in results.items()}
    digests = side_digests["parent"] | side_digests["change"]
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "parent": parent_commit,
        "change": change_of(ROOT),
        "seconds": args.seconds,
        "pairs": args.pairs,
        "first": first,
        "all_correct": all(r["correct"] is True for side in results.values() for r in side),
        "failed": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
        "digests_equal": len(digests) == 1 and None not in digests,
        "digests": {side: sorted(d, key=str) for side, d in side_digests.items()},
    }
    for metric in metrics:
        name = metric["name"]
        runs = [[r["metrics"][name]["value"] for r in results[side]]
                for side in ("parent", "change")]
        entry[name] = summarize(*runs, metric["better"])
        entry[name]["verdict"] = verdict(*runs, metric["better"], metric["bound"])

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["about"] = (
        "Alternating parent/change pairs of `python3 bench/run.py --workload W --seed S"
        " --seconds X --trace 0` (tools/bench_pairs.py), one run at a time, against each"
        " run's `parent` commit; `change` is the measured checkout's commit, `-dirty` when"
        " it had uncommitted changes; `digests_equal` says whether every run of both sides"
        " printed the same output digest, and `digests` lists each side's distinct digests"
        " (null for a run whose report had none). Per metric: [first quartile, median,"
        " third quartile] of each side, and the number of pairs the change won, in the"
        " metric's better direction from BENCHMARK.json (ties count for neither)."
        " `verdict` is the first that holds of: `gain`, the change won at least 9 of 10"
        " pairs and its median is better than the parent's by more than the parent's"
        " interquartile range; `regression`, its median is worse than the parent's by"
        " more than the metric's BENCHMARK.json `bound` times the parent's median;"
        " `unresolved`, the parent's interquartile range is wider than `bound` times its"
        " median; `same`."
    )
    doc["host"] = {
        "name": platform.node(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    runs = [r for r in doc.get("runs", [])
            if (r["workload"], r["seed"]) != (args.workload, args.seed)]
    doc["runs"] = runs + [entry]
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
