"""The summary of tools/bench_pairs.py on fixed numbers: quartiles by
linear interpolation, pairs won by the change, ties counted for neither
side, each metric's verdict, the output digest read off a report, each
side's set of digests, the keys and verdicts of a run entry, the commit of
each side, the refusal of a parent outside git, and the bytecode settings
each run gets."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_runs():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [2.0, 3.0, 4.0]
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == [1.75, 2.5, 3.25]
    assert bench_pairs.quartiles([0.6454, 0.6454, 0.6468]) == [0.6454, 0.6454, 0.6461]
    assert bench_pairs.quartiles([2.5]) == [2.5, 2.5, 2.5]


def test_wins_count_strict_improvements_only():
    parent = [3.0, 3.1, 2.9, 3.0]
    change = [2.5, 3.1, 3.0, 2.0]  # a win, a tie, a loss, a win
    lower = bench_pairs.summarize(parent, change, "lower")
    assert lower["change_wins"] == 2
    assert lower["parent"] == [2.975, 3.0, 3.025]
    assert lower["change"] == [2.375, 2.75, 3.025]
    assert lower["parent_runs"] == parent and lower["change_runs"] == change
    # the same numbers where higher is better: the loss is the one win
    assert bench_pairs.summarize(parent, change, "higher")["change_wins"] == 1


def test_all_ties_win_nothing():
    runs = [1.4049, 1.4049, 1.4049]
    for better in ("lower", "higher"):
        assert bench_pairs.summarize(runs, list(runs), better)["change_wins"] == 0


def test_runs_are_rounded_to_four_digits():
    summary = bench_pairs.summarize([0.123456], [0.654321], "lower")
    assert summary["parent_runs"] == [0.1235] and summary["change_runs"] == [0.6543]
    assert summary["change_wins"] == 0


def test_verdict_reads_wins_medians_spread_and_bound():
    parent = [1.78, 1.80, 1.79, 1.81, 1.77, 1.80, 1.78, 1.79, 1.82, 1.80]
    faster = [v - 0.15 for v in parent]
    assert bench_pairs.verdict(parent, faster, "lower", 0.25) == "gain"
    # 8 of 10 wins is not a gain, however large
    assert bench_pairs.verdict(parent, faster[:8] + parent[8:], "lower", 0.25) == "same"
    # 10 wins by less than the parent's interquartile range
    assert bench_pairs.verdict(parent, [v - 0.001 for v in parent], "lower", 0.25) == "same"
    # the same runs where higher is better: slower by 8%, within a 10% bound
    assert bench_pairs.verdict(parent, faster, "higher", 0.1) == "same"
    assert bench_pairs.verdict(parent, faster, "higher", 0.05) == "regression"
    assert bench_pairs.verdict(faster, parent, "lower", 0.05) == "regression"
    wide = [1.0, 1.5, 2.0, 1.0, 1.5, 2.0]
    assert bench_pairs.verdict(wide, list(wide), "lower", 0.25) == "unresolved"
    assert bench_pairs.verdict(wide, list(wide), "lower", 0.75) == "same"
    ties = [1.4049] * 5
    assert bench_pairs.verdict(ties, list(ties), "lower", 0.2) == "same"
    assert bench_pairs.verdict([2.0], [1.0], "lower", 0.25) == "gain"


REPORT = """frac-mid seed=1: 2 untraced and 0 traced passes of 36 jobs
  wall_s         1.85 s
  fail_share     0 share
  digest         2a72cfdd0e4b
{"correct": true, "attempted": 72, "failed": 0, "metrics": {}}
"""


def test_digest_is_read_off_the_report():
    assert bench_pairs.digest_of(REPORT) == "2a72cfdd0e4b"
    # a report without a digest line, and one whose hash is missing
    assert bench_pairs.digest_of(REPORT.replace("  digest         2a72cfdd0e4b\n", "")) is None
    assert bench_pairs.digest_of("  digest\n  wall_s 1.0 s\n") is None


def git(checkout, *argv):
    return subprocess.run(
        ["git", "-C", str(checkout), "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def commit_all(checkout) -> str:
    """Make ``checkout`` a git work tree with one commit of its files."""
    git(checkout, "init", "-q")
    git(checkout, "add", "-A")
    git(checkout, "commit", "-q", "--allow-empty", "-m", "a")
    return git(checkout, "rev-parse", "--short", "HEAD")


def test_change_names_the_commit_and_uncommitted_changes(tmp_path):
    # outside git the checkout is named by its directory
    assert bench_pairs.change_of(tmp_path) == tmp_path.name
    (tmp_path / "a.txt").write_text("a\n")
    commit = commit_all(tmp_path)
    assert bench_pairs.change_of(tmp_path) == commit
    (tmp_path / "a.txt").write_text("b\n")
    assert bench_pairs.change_of(tmp_path) == commit + "-dirty"
    git(tmp_path, "checkout", "-q", "a.txt")
    (tmp_path / "new.txt").write_text("untracked\n")
    assert bench_pairs.change_of(tmp_path) == commit + "-dirty"


def test_each_run_compiles_from_source_in_a_fresh_cache(monkeypatch, tmp_path):
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((env, prefix.is_dir() and not any(prefix.iterdir())))
        return subprocess.CompletedProcess(argv, 0, stdout=REPORT, stderr="")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for _ in range(2):
        result = bench_pairs.run_bench(tmp_path, "frac-mid", 1, 0.0)
        assert result["digest"] == "2a72cfdd0e4b" and result["correct"] is True
    (env1, empty1), (env2, empty2) = seen
    assert empty1 and empty2
    assert env1["PYTHONDONTWRITEBYTECODE"] == env2["PYTHONDONTWRITEBYTECODE"] == "1"
    prefixes = {env1["PYTHONPYCACHEPREFIX"], env2["PYTHONPYCACHEPREFIX"]}
    assert len(prefixes) == 2 and str(tmp_path) not in prefixes
    assert not any(os.path.exists(p) for p in prefixes)  # removed after each run
    # the rest of the environment is passed on
    assert env1["PATH"] == os.environ["PATH"]


def test_run_entry_lists_each_sides_digests(monkeypatch, tmp_path):
    parent = tmp_path / "parent"
    (parent / "bench").mkdir(parents=True)
    (parent / "bench" / "run.py").write_text("")
    parent_commit = commit_all(parent)
    metrics = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    printed = {}

    def fake_run_bench(checkout, workload, seed, seconds):
        side = "change" if checkout == bench_pairs.ROOT else "parent"
        return {"correct": True, "failed": 0, "digest": next(printed[side]),
                "metrics": {m["name"]: {"value": 1.0} for m in metrics}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    out = tmp_path / "bench.json"

    names = [m["name"] for m in metrics]

    def entry(parent_digests, change_digests):
        printed.update(parent=iter(parent_digests), change=iter(change_digests))
        argv = [str(parent), "--workload", "frac-mid", "--seed", "1", "--pairs", "3",
                "--seconds", "0", "-o", str(out)]
        assert bench_pairs.main(argv) == 0
        doc = json.loads(out.read_text())
        # the keys of the BENCH format, and each metric's verdict one of four
        assert {"about", "host", "runs"} <= doc.keys()
        run = doc["runs"][0]
        assert {"workload", "seed", "parent", "change", "pairs", "first", "all_correct",
                "failed", "digests_equal", "digests", *names} <= run.keys()
        assert run["digests"].keys() == {"parent", "change"}
        for name in names:
            assert {"parent", "change", "change_wins", "parent_runs", "change_runs",
                    "verdict"} <= run[name].keys()
            assert run[name]["verdict"] in ("gain", "regression", "unresolved", "same")
        return run

    # a change that alters the output on purpose: each side agrees with itself
    run = entry(["aaa"] * 3, ["bbb"] * 3)
    assert run["digests"] == {"parent": ["aaa"], "change": ["bbb"]}
    assert run["digests_equal"] is False
    # one side whose runs disagree, and a report without a digest
    run = entry(["aaa", None, "aaa"], ["ccc", "bbb", "ccc"])
    assert run["digests"] == {"parent": [None, "aaa"], "change": ["bbb", "ccc"]}
    assert run["digests_equal"] is False
    run = entry(["aaa"] * 3, ["aaa"] * 3)
    assert run["digests"] == {"parent": ["aaa"], "change": ["aaa"]}
    assert run["digests_equal"] is True
    assert run["parent"] == parent_commit
    # equal runs on both sides: every metric reads the same
    assert run["all_correct"] is True
    assert all(run[name]["verdict"] == "same" for name in names)
    about = json.loads(out.read_text())["about"]
    assert all(word in about for word in ("gain", "regression", "unresolved", "same"))


def test_a_parent_outside_git_is_refused(monkeypatch, tmp_path, capsys):
    # a parent without a commit would leave the BENCH file naming no commit
    parent = tmp_path / "parent"
    (parent / "bench").mkdir(parents=True)
    (parent / "bench" / "run.py").write_text("")
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: pytest.fail("ran a benchmark"))
    out = tmp_path / "bench.json"
    argv = [str(parent), "--workload", "frac-mid", "--seed", "1", "--pairs", "1",
            "--seconds", "0", "-o", str(out)]
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(argv)
    assert exited.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "not a git work tree" in errors[0]
    assert not out.exists()
