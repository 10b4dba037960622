"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root: ``python -m pytest bench/test_bench.py``.
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import run as bench_run  # noqa: E402
from blockcache.det_online import run_deterministic  # noqa: E402
from blockcache.frac_online import FractionalSolution  # noqa: E402
from blockcache.instance import PolicyTrace, gen_random  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_GEN = {"--n": "8", "--k": "4", "--beta": "2", "--T": "24",
            "--rounds": "2", "--L": "1"}


def tiny(workload: dict) -> dict:
    """Same jobs and instance families, at sizes that run in well under a second."""
    out = copy.deepcopy(workload)
    for inst in out["instances"]:
        inst["copies"] = 1
        gen = inst["gen"]
        for i, arg in enumerate(gen[:-1]):
            if arg in TINY_GEN:
                gen[i + 1] = TINY_GEN[arg]
        if gen[0] != "random":
            gen[gen.index("--beta") + 1] = "2"
    return out


def run_tiny(name, tmp_path, trace, seed=3):
    workdir = tmp_path / f"{name}-{int(trace)}-{seed}"
    workdir.mkdir(parents=True)
    return harness.run_workload(
        name, tiny(harness.SPEC["workloads"][name]), seed, 0.0, trace, str(workdir)
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    return {
        (name, trace, rep): run_tiny(name, tmp / str(rep), trace)
        for name in harness.SPEC["workloads"]
        for trace in (False, True)
        for rep in (0, 1)
    }


def test_benchmark_json_matches_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.SPEC["workloads"])
    assert BENCHMARK["paths"] == ["bench"]


@pytest.mark.parametrize("name", list(harness.SPEC["workloads"]))
def test_tiny_workload_repeats_exactly(tiny_runs, tmp_path, name):
    for trace in (False, True):
        first, second = tiny_runs[(name, trace, 0)], tiny_runs[(name, trace, 1)]
        assert first.correct, first.report
        assert first.failed == 0 and first.attempted >= 1
        assert first.digest == second.digest
        assert first.attempted == second.attempted
    counts = [
        {k: v["value"] for k, v in tiny_runs[(name, True, rep)].metrics.items()
         if v["unit"] == "count" or k.endswith("_share")}
        for rep in (0, 1)
    ]
    assert counts[0] == counts[1]
    ratio = [tiny_runs[(name, False, rep)].metrics["cost_ratio"]["value"] for rep in (0, 1)]
    assert ratio[0] == ratio[1]
    other_seed = run_tiny(name, tmp_path, False, seed=4)
    assert other_seed.digest != tiny_runs[(name, False, 0)].digest


@pytest.mark.parametrize("name", list(harness.SPEC["workloads"]))
def test_every_named_metric_has_its_unit(tiny_runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = tiny_runs[(name, trace, 0)].metrics
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in metrics.items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    for m in BENCHMARK["end_to_end"]:
        assert tiny_runs[(name, False, 0)].metrics[m["name"]]["value"] > 0


def test_traced_run_checks_layers(tiny_runs):
    det = tiny_runs[("det-long", True, 0)].metrics
    assert det["submodular.most_violated_constraint.calls"]["value"] == 0
    assert det["det_online.next_tight_increase.calls"]["value"] > 0
    frac = tiny_runs[("frac-mid", True, 0)].metrics
    assert frac["submodular.most_violated_constraint.calls"]["value"] > 0
    assert frac["trace.overhead"]["value"] > 0


def test_command_prints_report_and_json_last(capsys, monkeypatch):
    workloads = harness.SPEC["workloads"]
    monkeypatch.setitem(workloads, "oracle-small", tiny(workloads["oracle-small"]))
    work = ROOT / ".bench_work"
    before = set(work.iterdir()) if work.exists() else set()
    assert bench_run.main(["--workload", "oracle-small", "--seed", "1",
                           "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = "\n".join(lines[:-1])
    for name in ("wall_s", "setup_s", "opt_s", "det_ratio", "fail_share", "digest"):
        assert name in report
    assert (set(work.iterdir()) if work.exists() else set()) == before


def _truncate_increments(monkeypatch):
    save = FractionalSolution.save_increments

    def truncated(self, path):
        save(self, path)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[: len(lines) // 2])

    monkeypatch.setattr(FractionalSolution, "save_increments", truncated)


def _offset_trace_cost(monkeypatch):
    save = PolicyTrace.save

    def offset(self, path):
        save(self, path)
        with open(path) as fh:
            lines = fh.readlines()
        last = json.loads(lines[-1])
        last["evict_cost_cum"] -= 1.0
        lines[-1] = json.dumps(last) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)

    monkeypatch.setattr(PolicyTrace, "save", offset)


@pytest.mark.parametrize(
    "name,plant", [("frac-mid", _truncate_increments), ("det-long", _offset_trace_cost)]
)
def test_planted_fault_is_counted_not_fatal(tmp_path, monkeypatch, name, plant):
    clean = run_tiny(name, tmp_path / "clean", False)
    plant(monkeypatch)
    faulty = run_tiny(name, tmp_path / "faulty", False)
    assert not faulty.correct
    assert faulty.failed >= 1
    assert faulty.attempted == clean.attempted
    assert set(faulty.metrics) == set(clean.metrics)
    assert any(line.startswith("  FAIL") for line in faulty.report)
    share = next(line for line in faulty.report if "fail_share" in line)
    assert float(share.split()[1]) == pytest.approx(faulty.failed / faulty.attempted)


def test_rounded_trace_is_reported_apart_from_faults(tmp_path):
    # costs past 1000 with 12 significant digits saved: finer than 1e-9 is lost
    inst = gen_random(8, 4, 2, 24, seed=1)
    inst = dataclasses.replace(inst, costs=tuple(1000 / 3 + b for b in range(len(inst.costs))))
    path = str(tmp_path / "det.trace.jsonl")
    run_deterministic(inst).trace.save(path)
    trace = PolicyTrace.load(path, inst, inst.k)
    with pytest.raises(ValueError, match="cost mismatch"):
        trace.validate()
    assert checks.check_trace(trace) == ([], True)

    last = trace.steps[-1]
    last = dataclasses.replace(last, fetch_cost_cum=last.fetch_cost_cum - 1e-6)
    understated = dataclasses.replace(trace, steps=trace.steps[:-1] + [last])
    problems, rounded = checks.check_trace(understated)
    assert problems and not rounded

    first = trace.steps[0]
    emptied = dataclasses.replace(
        trace, steps=[dataclasses.replace(first, cache=frozenset())] + trace.steps[1:]
    )
    problems, rounded = checks.check_trace(emptied)
    assert "absent" in problems[0] and not rounded
