import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blockcache import cli
from blockcache.cli import main
from blockcache.det_online import DualLedger, run_deterministic
from blockcache.instance import Instance, PolicyTrace
from blockcache.rounding import randomized_round


def run_cli(*argv):
    return main(list(argv))


def gen_random_file(tmp_path, name="inst.json", n=8, k=4, beta=2, T=16, seed=3):
    path = tmp_path / name
    code = run_cli(
        "gen", "random", "--n", str(n), "--k", str(k), "--beta", str(beta),
        "--T", str(T), "--seed", str(seed), "-o", str(path),
    )
    assert code == 0
    return path


def test_gen_random_deterministic(tmp_path):
    p1 = gen_random_file(tmp_path, "a.json")
    p2 = gen_random_file(tmp_path, "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    inst = Instance.load(str(p1))
    assert (inst.n, inst.k, inst.T) == (8, 4, 16)


def test_gen_gap_and_beta_off(tmp_path):
    gap = tmp_path / "gap.json"
    assert run_cli("gen", "gap", "--beta", "3", "--rounds", "4", "-o", str(gap)) == 0
    inst = Instance.load(str(gap))
    assert (inst.n, inst.beta) == (6, 3)
    off = tmp_path / "off.json"
    assert run_cli("gen", "beta-off", "--beta", "2", "--L", "4", "-o", str(off)) == 0
    inst2 = Instance.load(str(off))
    assert (inst2.n, inst2.k) == (8, 4)


def test_gen_invalid_usage_exit_2(tmp_path):
    for argv in (
        ["random", "--n", "3", "--k", "5", "--beta", "1", "--T", "4"],
        ["random", "--n", "3", "--k", "2", "--beta", "1", "--T", "0"],
        ["random", "--n", "3", "--k", "2", "--beta", "1", "--T", "4",
         "--cost-profile", "log-uniform", "--delta", "0.5"],
        ["gap", "--beta", "3", "--rounds", "0"],
        ["beta-off", "--beta", "1", "--L", "2"],
        ["beta-off", "--beta", "2", "--L", "0"],
    ):
        assert run_cli("gen", *argv, "-o", str(tmp_path / "bad.json")) == 2, argv
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("delta", ["inf", "nan"])
def test_gen_non_finite_delta_is_an_aspect_ratio_error(tmp_path, capsys, delta):
    out = tmp_path / "bad.json"
    assert run_cli("gen", "random", "--n", "4", "--k", "2", "--beta", "1", "--T", "3",
                   "--cost-profile", "log-uniform", "--delta", delta, "-o", str(out)) == 2
    assert capsys.readouterr().err == "error: aspect ratio must be finite and >= 1\n"
    assert not out.exists()


def test_run_det_artifacts(tmp_path):
    inst_path = gen_random_file(tmp_path)
    prefix = tmp_path / "det"
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", "det", "-o", str(prefix)
    ) == 0
    assert (tmp_path / "det.trace.jsonl").exists()
    assert (tmp_path / "det.cert.json").exists()
    summary = json.loads((tmp_path / "det.summary.json").read_text())
    assert summary["algorithm"] == "det"
    assert summary["model"] == "evict"
    assert summary["pass"] is True
    assert summary["cost"] <= summary["bound"] * summary["oracle"] + 1e-9


def test_run_det_writes_one_line_json_documents(tmp_path):
    inst_path = gen_random_file(tmp_path)
    prefix = tmp_path / "det"
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", "det", "-o", str(prefix)
    ) == 0
    summary = (tmp_path / "det.summary.json").read_text()
    cert = (tmp_path / "det.cert.json").read_text()
    assert summary.count("\n") == 1 and summary.endswith("\n")
    assert cert.count("\n") == 1 and cert.endswith("\n")
    # the certificate of the run's own ledger
    direct = tmp_path / "direct.cert.json"
    run_deterministic(Instance.load(str(inst_path))).ledger.write_certificate(str(direct))
    assert cert == direct.read_text()


def test_run_frac_artifacts(tmp_path):
    inst_path = gen_random_file(tmp_path)
    prefix = tmp_path / "frac"
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", "frac", "-o", str(prefix)
    ) == 0
    assert (tmp_path / "frac.increments.jsonl").exists()
    summary = json.loads((tmp_path / "frac.summary.json").read_text())
    assert summary["pass"] is True
    assert summary["cost"] <= summary["bound"] * summary["dual_objective"] + 1e-6
    # increments replay cleanly through verify
    assert run_cli(
        "verify", "--instance", str(inst_path),
        "--increments", str(tmp_path / "frac.increments.jsonl"),
    ) == 0


@pytest.mark.parametrize("direction", ["evict-heavy", "fetch-heavy"])
def test_run_frac_beta_off_dual_within_oracle(tmp_path, direction):
    inst_path = tmp_path / "off.json"
    assert run_cli("gen", "beta-off", "--beta", "2", "--L", "2",
                   "--direction", direction, "-o", str(inst_path)) == 0
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", "frac", "-o", str(tmp_path / "frac")
    ) == 0
    summary = json.loads((tmp_path / "frac.summary.json").read_text())
    assert summary["pass"] is True
    assert summary["dual_objective"] <= summary["oracle"]


@pytest.mark.parametrize("alg", ["det", "frac"])
def test_run_fails_when_dual_exceeds_oracle(tmp_path, monkeypatch, alg):
    # weak duality: a dual above the eviction optimum is a failed run
    monkeypatch.setattr(cli, "opt_eviction", lambda inst, h: (0.5, None))
    inst_path = gen_random_file(tmp_path)
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", alg, "-o", str(tmp_path / alg)
    ) == 1
    summary = json.loads((tmp_path / f"{alg}.summary.json").read_text())
    assert summary["pass"] is False
    assert summary["oracle"] == 0.5
    assert summary["cost"] <= summary["bound"] * summary["dual_objective"] + 1e-6


def test_run_frac_round(tmp_path):
    inst_path = gen_random_file(tmp_path)
    prefix = tmp_path / "rr"
    code = run_cli(
        "run", "--instance", str(inst_path), "--alg", "frac-round",
        "--seeds", *[str(s) for s in range(20)], "-o", str(prefix),
    )
    assert code == 0
    summary = json.loads((tmp_path / "rr.summary.json").read_text())
    assert summary["seeds"] == list(range(20))
    assert summary["cost"] <= summary["bound"] * 1.1


def test_run_frac_round_one_seed_has_zero_stderr(tmp_path):
    inst_path = gen_random_file(tmp_path)
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", "frac-round",
        "--seeds", "0", "-o", str(tmp_path / "rr"),
    ) == 0
    summary = json.loads((tmp_path / "rr.summary.json").read_text())
    assert summary["stderr"] == 0.0


@pytest.mark.parametrize("shape", [(32, 30, 4, 60), (8, 8, 2, 20)])
def test_run_frac_round_near_a_full_cache_passes(tmp_path, shape):
    # the rounding flushes nothing here, and its fetches are compulsory
    # misses: the eviction-model bound is checked against the eviction cost
    # and the fetching cost has a column of its own
    n, k, beta, T = shape
    inst_path = gen_random_file(tmp_path, n=n, k=k, beta=beta, T=T, seed=0)
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", "frac-round",
        "--seeds", "0", "1", "2", "3", "-o", str(tmp_path / "rr"),
    ) == 0
    summary = json.loads((tmp_path / "rr.summary.json").read_text())
    assert summary["pass"] is True and summary["cost"] == 0.0
    assert summary["fetching_cost"] > summary["bound"]
    if n == 32:
        assert (summary["fetching_cost"], summary["bound"]) == (28.0, 13.0)


def test_run_frac_round_fails_a_rounding_that_flushes_every_step(tmp_path, monkeypatch):
    # a full cache and unit costs: the bound is sum c_B = 4, and a rounding
    # that pays for one more block flush at each of the 20 steps exceeds it
    inst_path = gen_random_file(tmp_path, n=8, k=8, beta=2, T=20, seed=0)

    def over_flushing(stream, seed):
        trace = randomized_round(stream, seed)
        inst = stream.instance
        evict = 0.0
        for step in trace.steps:
            extra = (inst.block_of(inst.request(step.t)) + 1) % inst.num_blocks
            step.flushes = sorted({*step.flushes, (extra, step.t)})
            evict += trace.step_cost(step.flushes, step.fetched)[0]
            step.evict_cost_cum = evict
        return trace

    monkeypatch.setattr(cli, "randomized_round", over_flushing)
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", "frac-round",
        "--seeds", "0", "1", "2", "3", "-o", str(tmp_path / "rr"),
    ) == 1
    summary = json.loads((tmp_path / "rr.summary.json").read_text())
    assert summary["pass"] is False
    assert summary["cost"] == 20.0 > summary["bound"] * cli.ROUND_MEAN_SLACK


@pytest.mark.parametrize("alg", ["det", "frac"])
def test_run_out_of_dp_budget_has_no_oracle_columns(tmp_path, alg):
    # the exact DP is out of budget here: the run passes on its own bound,
    # cost <= bound * dual, and writes neither the optimum nor the ratio to it
    inst_path = gen_random_file(tmp_path, n=32, k=16, beta=4, T=100, seed=1)
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", alg, "-o", str(tmp_path / alg)
    ) == 0
    summary = json.loads((tmp_path / f"{alg}.summary.json").read_text())
    assert "oracle" not in summary and "ratio" not in summary
    assert summary["pass"] is True
    assert summary["cost"] <= summary["bound"] * summary["dual_objective"] + 1e-6


@pytest.mark.parametrize("alg", ["det", "frac"])
def test_run_out_of_dp_budget_fails_on_a_zero_dual(tmp_path, monkeypatch, alg):
    # without the exact optimum the run's dual is its only witness: a zero
    # dual cannot certify a positive cost, so the run fails
    monkeypatch.setattr(DualLedger, "objective", 0.0)
    inst_path = gen_random_file(tmp_path, n=32, k=16, beta=4, T=100, seed=1)
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", alg, "-o", str(tmp_path / alg)
    ) == 1
    summary = json.loads((tmp_path / f"{alg}.summary.json").read_text())
    assert summary["pass"] is False
    assert summary["dual_objective"] == 0.0 and summary["cost"] > 0
    assert "oracle" not in summary


@pytest.mark.parametrize("alg", ["det", "frac"])
def test_run_in_dp_budget_by_its_reached_states_has_oracle_columns(tmp_path, alg):
    # a worst case over all caches of 8 of 16 pages puts this eviction DP
    # out of budget, but it reaches few enough states to run: the run gets
    # the optimum and the ratio to it, and passes against both
    inst_path = gen_random_file(tmp_path, n=16, k=8, beta=4, T=40, seed=9)
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", alg, "-o", str(tmp_path / alg)
    ) == 0
    summary = json.loads((tmp_path / f"{alg}.summary.json").read_text())
    assert summary["oracle"] == 5.0
    assert summary["ratio"] == pytest.approx(summary["cost"] / summary["oracle"])
    assert summary["pass"] is True
    assert summary["dual_objective"] <= summary["oracle"] + 1e-6


def test_run_bicriteria(tmp_path):
    inst_path = gen_random_file(tmp_path)
    inst = Instance.load(str(inst_path))
    for alg in ("bicriteria-fetch", "bicriteria-evict"):
        prefix = tmp_path / alg
        code = run_cli(
            "run", "--instance", str(inst_path), "--alg", alg,
            "--seeds", *[str(s) for s in range(5)], "-o", str(prefix),
        )
        assert code == 0
        summary = json.loads((tmp_path / f"{alg}.summary.json").read_text())
        assert summary["space_bound"] == 2 * inst.k


def test_run_opt_models(tmp_path):
    # a tiny instance, and one of 12 pages and 60 steps still within both
    # DPs' budgets; each optimal trace verifies
    for inst_path in (
        gen_random_file(tmp_path, "r6.json", n=6, k=3, T=8),
        gen_random_file(tmp_path, "r12.json", n=12, k=6, beta=3, T=60, seed=0),
    ):
        name = inst_path.stem
        for model in ("evict", "fetch"):
            prefix = tmp_path / f"{name}-opt-{model}"
            code = run_cli(
                "run", "--instance", str(inst_path), "--alg", "opt",
                "--model", model, "-o", str(prefix),
            )
            assert code == 0
            summary = json.loads((tmp_path / f"{name}-opt-{model}.summary.json").read_text())
            assert summary["cost"] == summary["oracle"]
            assert run_cli(
                "verify", "--instance", str(inst_path), "--trace", f"{prefix}.trace.jsonl"
            ) == 0
        # without --model the DP prices evictions
        code = run_cli(
            "run", "--instance", str(inst_path), "--alg", "opt", "-o", str(tmp_path / name),
        )
        assert code == 0
        summary = json.loads((tmp_path / f"{name}.summary.json").read_text())
        evict = json.loads((tmp_path / f"{name}-opt-evict.summary.json").read_text())
        assert summary["model"] == "evict" and summary["cost"] == evict["cost"]


def test_run_opt_intractable_exit_1(tmp_path):
    inst_path = gen_random_file(tmp_path, n=20, k=10, T=120, name="big.json")
    for model in ([], ["--model", "fetch"]):
        code = run_cli(
            "run", "--instance", str(inst_path), "--alg", "opt", *model,
            "-o", str(tmp_path / "big-opt"),
        )
        assert code == 1, model


def test_run_opt_fetch_on_gap_beta_5(tmp_path):
    # the fetching DP reaches at most 20 caches per step here, far fewer
    # than a worst case over all caches of 9 of 10 pages
    inst = tmp_path / "gap5.json"
    assert run_cli("gen", "gap", "--beta", "5", "--rounds", "8", "-o", str(inst)) == 0
    prefix = tmp_path / "gap5-fetch"
    assert run_cli(
        "run", "--instance", str(inst), "--alg", "opt", "--model", "fetch", "-o", str(prefix)
    ) == 0
    summary = json.loads((tmp_path / "gap5-fetch.summary.json").read_text())
    assert summary["cost"] == summary["oracle"] == 10.0
    assert run_cli(
        "verify", "--instance", str(inst), "--trace", str(tmp_path / "gap5-fetch.trace.jsonl")
    ) == 0


@pytest.mark.parametrize(
    "alg, failing_seed",
    [("det", None), ("frac-round", None), ("frac-round", 1), ("bicriteria-fetch", None),
     ("bicriteria-evict", None), ("opt", None)],
    ids=["det", "frac-round", "frac-round-second-seed", "bicriteria-fetch",
         "bicriteria-evict", "opt"],
)
def test_run_saves_no_trace_that_fails_validate(tmp_path, monkeypatch, alg, failing_seed):
    # a trace that validate rejects is never written, nor is any other file
    # of the run, det's certificate and its trace's temporary file among
    # them; frac-round validates every seed's trace before it saves the first
    inst_path = gen_random_file(tmp_path)
    rounded = []

    def recording_round(stream, seed):
        rounded.append(randomized_round(stream, seed))
        return rounded[-1]

    def failing_validate(trace):
        if failing_seed is None or trace is rounded[failing_seed]:
            raise ValueError("planted fault")

    monkeypatch.setattr(cli, "randomized_round", recording_round)
    monkeypatch.setattr(PolicyTrace, "validate", failing_validate)
    seeds = ["--seeds", "0", "1", "2"] if alg in cli.RUN_OPTION_ALGS["seeds"] else []
    with pytest.raises(ValueError, match="planted fault"):
        run_cli("run", "--instance", str(inst_path), "--alg", alg, *seeds,
                "-o", str(tmp_path / alg))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


@pytest.mark.parametrize("alg", ["det", "frac"])
def test_run_saves_nothing_when_the_dual_is_infeasible(tmp_path, monkeypatch, alg):
    # the dual is checked before the certificate, frac's increment log and
    # det's trace are written, so none of them is left behind
    inst_path = gen_random_file(tmp_path)

    def failing_check(ledger, inst):
        raise AssertionError("planted fault")

    monkeypatch.setattr(DualLedger, "check_feasible", failing_check)
    with pytest.raises(AssertionError, match="planted fault"):
        run_cli("run", "--instance", str(inst_path), "--alg", alg, "-o", str(tmp_path / alg))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


def test_verify_requires_something(capsys):
    for argv in (("verify",), ("verify", "--trace", "x.jsonl")):
        capsys.readouterr()
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_verify_instance_and_trace(tmp_path, capsys):
    inst_path = gen_random_file(tmp_path)
    assert run_cli("verify", "--instance", str(inst_path)) == 0
    prefix = tmp_path / "det"
    run_cli("run", "--instance", str(inst_path), "--alg", "det", "-o", str(prefix))
    capsys.readouterr()
    assert run_cli(
        "verify", "--instance", str(inst_path),
        "--trace", str(tmp_path / "det.trace.jsonl"),
    ) == 0


def test_verify_trace_planted_fault(tmp_path, capsys):
    inst_path = gen_random_file(tmp_path)
    inst = Instance.load(str(inst_path))
    prefix = tmp_path / "det"
    run_cli("run", "--instance", str(inst_path), "--alg", "det", "-o", str(prefix))
    trace_path = tmp_path / "det.trace.jsonl"
    lines = trace_path.read_text().splitlines()
    # the last step's request is no longer cached after it: not fetched if
    # the step fetched it, evicted if it was a hit
    rec = json.loads(lines[-1])
    p = inst.request(inst.T)
    if p in rec["fetched"]:
        rec["fetched"].remove(p)
    else:
        rec["evicted"].append(p)
    lines[-1] = json.dumps(rec)
    broken = tmp_path / "broken.trace.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run_cli(
        "verify", "--instance", str(inst_path), "--trace", str(broken)
    )
    assert code == 1
    assert (
        f"FAIL: trace invalid: requested page {p} absent after step {inst.T}\n"
        in capsys.readouterr().out
    )


def test_verify_trace_rejects_relabelled_step(tmp_path, capsys):
    # the relabelled step still caches the request of the step it claims to
    # be and its own, so only the step order gives it away
    inst_path = gen_random_file(tmp_path)
    inst = Instance.load(str(inst_path))
    run_cli("run", "--instance", str(inst_path), "--alg", "det", "-o", str(tmp_path / "det"))
    path = tmp_path / "det.trace.jsonl"
    steps = PolicyTrace.load(str(path), inst, inst.k).steps
    i, j = next(
        (i, j)
        for i, step in enumerate(steps)
        for j in range(1, inst.T + 1)
        if j != step.t and inst.request(j) in step.cache
    )
    # line 0 is the header, line i + 1 holds step i + 1
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    recs[i + 1]["t"] = j
    broken = tmp_path / "relabelled.trace.jsonl"
    broken.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    capsys.readouterr()
    assert run_cli("verify", "--instance", str(inst_path), "--trace", str(broken)) == 1
    assert f"FAIL: trace invalid: step {i + 1} is labelled t={j}" in capsys.readouterr().out


def _frac_increment_lines(tmp_path):
    inst_path = gen_random_file(tmp_path, seed=0)
    prefix = tmp_path / "frac"
    assert run_cli(
        "run", "--instance", str(inst_path), "--alg", "frac", "-o", str(prefix)
    ) == 0
    return inst_path, (tmp_path / "frac.increments.jsonl").read_text().splitlines()


def test_verify_increments_uses_exact_separation(tmp_path, capsys):
    # without its last increment the log still satisfies the constraint of
    # its integral flushes at every tau, but exact separation finds tau=16
    # infeasible, and the failure names the violated set and both sides
    inst_path, lines = _frac_increment_lines(tmp_path)
    dropped = tmp_path / "dropped.jsonl"
    dropped.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert run_cli(
        "verify", "--instance", str(inst_path), "--increments", str(dropped)
    ) == 1
    assert (
        "FAIL: increment log infeasible at tau=16: on latest flushes {0: 9, 1: 8},"
        " constraint_lhs 0.9997095404494094 < n - k - f_tau = 1\n"
    ) in capsys.readouterr().out


def test_verify_increments_rejects_tau_going_back(tmp_path, capsys):
    inst_path, lines = _frac_increment_lines(tmp_path)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join(lines[-1:] + lines[:-1]) + "\n")
    capsys.readouterr()
    assert run_cli(
        "verify", "--instance", str(inst_path), "--increments", str(shuffled)
    ) == 1
    assert "goes back in time" in capsys.readouterr().out


def _drop_key(text, key):
    doc = json.loads(text)
    del doc[key]
    return json.dumps(doc)


def _set_first_cost(text, value):
    doc = json.loads(text)
    doc["costs"][0] = value
    return json.dumps(doc)


def _edit_first(text, key, value):
    """The JSON-lines text with field key of its first record set to
    value(record)."""
    first, rest = text.split("\n", 1)
    rec = json.loads(first)
    rec[key] = value(rec)
    return json.dumps(rec) + "\n" + rest


def _edit_step_1(text, edit):
    """The trace text with its first step's record, the line after the
    header, passed through edit."""
    header, first, rest = text.split("\n", 2)
    rec = json.loads(first)
    edit(rec)
    return "\n".join([header, json.dumps(rec), rest])


@pytest.mark.parametrize(
    "target,corrupt",
    [
        ("instance", lambda text: _drop_key(text, "requests")),
        ("instance", lambda text: text[: len(text) // 2]),
        ("increments", lambda text: text.replace('"block"', '"blk"', 1)),
        ("increments", lambda text: text.replace('"block": 0', '"block": 99', 1)),
        ("increments", lambda text: _edit_first(text, "phi_after", lambda r: r["phi_after"] + 0.1)),
        ("increments", lambda text: _edit_first(text, "t", lambda r: 0)),
        ("increments", lambda text: _edit_first(text, "t", lambda r: r["tau"] + 1)),
        ("trace", lambda text: text.replace('"evicted"', '"evictd"', 1)),
        ("trace", lambda text: text.replace('"evict_cost_cum": 0.0', '"evict_cost_cum": NaN', 1)),
        ("instance", lambda text: text.replace('"n": 8,', '"n": 8.0,', 1)),
        ("instance", lambda text: f"[{text}]"),
        # numbers must be JSON numbers, not strings or booleans
        ("instance", lambda text: _set_first_cost(text, "1.0")),
        ("instance", lambda text: _set_first_cost(text, True)),
        ("trace", lambda text: text.replace('"evict_cost_cum": 0.0', '"evict_cost_cum": false', 1)),
        ("increments", lambda text: _edit_first(text, "phi_after", lambda r: str(r["phi_after"]))),
        ("trace", lambda text: text.split("\n", 1)[1]),
        # the run starts from an empty cache: step 1 can evict nothing
        ("trace", lambda text: _edit_step_1(
            text, lambda r: r.update(evicted=[min({1, 2} - set(r["fetched"]))]))),
        ("trace", lambda text: _edit_step_1(text, lambda r: r.update(evicted=r["fetched"]))),
    ],
    ids=[
        "instance-missing-key", "instance-invalid-json", "increment-missing-key",
        "increment-unknown-block", "increment-phi-after-off", "increment-time-zero-flush",
        "increment-future-flush", "trace-missing-key", "trace-nan-cost",
        "instance-float-n", "instance-not-an-object", "instance-string-cost",
        "instance-bool-cost", "trace-bool-cost", "increment-string-phi-after",
        "trace-no-header", "trace-evicts-uncached-page", "trace-evicts-fetched-page",
    ],
)
def test_malformed_input_exit_2(tmp_path, capsys, target, corrupt):
    inst_path = gen_random_file(tmp_path, seed=0)
    run_cli("run", "--instance", str(inst_path), "--alg", "det", "-o", str(tmp_path / "det"))
    run_cli("run", "--instance", str(inst_path), "--alg", "frac", "-o", str(tmp_path / "frac"))
    paths = {
        "instance": inst_path,
        "increments": tmp_path / "frac.increments.jsonl",
        "trace": tmp_path / "det.trace.jsonl",
    }
    text = paths[target].read_text()
    bad = corrupt(text)
    assert bad != text
    paths[target].write_text(bad)
    argv = ["verify", "--instance", str(paths["instance"])]
    if target != "instance":
        argv += [f"--{target}", str(paths[target])]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "{dir}"],
        ["run", "--instance", "{dir}", "--alg", "det"],
        ["verify", "--instance", "{inst}", "--trace", "{dir}"],
        ["gen", "random", "--n", "4", "--k", "2", "--beta", "1", "--T", "3", "-o", "{dir}"],
    ],
    ids=["report", "run-instance", "verify-trace", "gen-output"],
)
def test_directory_path_exit_2(tmp_path, capsys, argv):
    inst_path = gen_random_file(tmp_path)
    (tmp_path / "d1").mkdir()
    capsys.readouterr()
    argv = [a.format(dir=tmp_path / "d1", inst=inst_path) for a in argv]
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--alg", "opt", "--h", "0", "-o", "{tmp}/opt"],
        ["run", "--alg", "opt", "--h", "-1", "-o", "{tmp}/opt"],
        ["verify", "--trace", "{tmp}/det.trace.jsonl", "--capacity", "0"],
    ],
    ids=["run-h-0", "run-h-negative", "verify-capacity-0"],
)
def test_size_option_below_one_exit_2(tmp_path, capsys, argv):
    inst_path = gen_random_file(tmp_path)
    run_cli("run", "--instance", str(inst_path), "--alg", "det", "-o", str(tmp_path / "det"))
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run_cli(*argv, "--instance", str(inst_path)) == 2
    assert_one_error_line(capsys)


RUN = ["run", "--instance", "{inst}", "-o", "{tmp}/out", "--alg"]
OPTIONS_WITHOUT_EFFECT = {
    # the online algorithms run with cache size k: an --h there would only
    # relabel the summary, and they report their own cost model
    "h-det": [*RUN, "det", "--h", "2"],
    "h-frac": [*RUN, "frac", "--h", "2"],
    "h-frac-round": [*RUN, "frac-round", "--h", "2"],
    "h-bicriteria-fetch": [*RUN, "bicriteria-fetch", "--h", "2"],
    "model-det": [*RUN, "det", "--model", "fetch"],
    "model-bicriteria-fetch": [*RUN, "bicriteria-fetch", "--model", "fetch"],
    # only the roundings draw seeds
    "seeds-det": [*RUN, "det", "--seeds", "1"],
    "seeds-frac": [*RUN, "frac", "--seeds", "1"],
    "seeds-opt": [*RUN, "opt", "--seeds", "1"],
    # unit costs have no aspect ratio; a capacity bounds only a trace
    "delta-unit": ["gen", "random", "--n", "4", "--k", "2", "--beta", "1", "--T", "3",
                   "--delta", "8", "-o", "{tmp}/out.json"],
    "capacity-without-trace": ["verify", "--instance", "{inst}", "--capacity", "8"],
}


@pytest.mark.parametrize(
    "argv", list(OPTIONS_WITHOUT_EFFECT.values()), ids=list(OPTIONS_WITHOUT_EFFECT)
)
def test_option_without_effect_exit_2(tmp_path, capsys, argv):
    inst_path = gen_random_file(tmp_path)
    capsys.readouterr()
    assert run_cli(*[a.format(inst=inst_path, tmp=tmp_path) for a in argv]) == 2
    assert_one_error_line(capsys)
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "text",
    ['{"cost": 1', '{"cost": "x"}', "[1, 2]", '{"pass": "false"}',
     '{"cost": NaN, "pass": true}', '{"cost": 1.0, "ratio": Infinity, "pass": true}',
     '{"instance": ["x"], "cost": 1.0, "pass": true}', '{"h": 0, "cost": 1.0}',
     '{"h": 2.0, "cost": 1.0}', '{"h": true, "cost": 1.0}',
     '{"k": "4", "beta": 2, "h": 3, "cost": 1.0}', '{"k": 4, "beta": 2.5, "h": 3, "cost": 1.0}',
     '{"k": 4, "beta": 0, "h": 3, "cost": 1.0}'],
    ids=["invalid-json", "non-numeric-cost", "not-an-object", "non-boolean-pass",
         "nan-cost", "infinite-ratio", "list-instance", "zero-h", "float-h", "boolean-h",
         "string-k", "float-beta", "zero-beta"],
)
def test_report_malformed_summary_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.summary.json"
    path.write_text(text)
    assert run_cli("report", str(path)) == 2
    assert_one_error_line(capsys)


def test_report_lower_bound_blank_for_nonpositive_sizes(tmp_path, capsys):
    # h = k + 1 makes k - h + 1 = 0; a beta of 0, which once let that
    # division through, exits 2 (test_report_malformed_summary_exit_2)
    path = tmp_path / "zero.summary.json"
    path.write_text(json.dumps({"cost": 1.0, "k": 4, "beta": 1, "h": 5}))
    assert run_cli("report", str(path)) == 0
    row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert row["lower_bound"] == ""


def test_report_csv(tmp_path):
    inst_path = gen_random_file(tmp_path)
    run_cli("run", "--instance", str(inst_path), "--alg", "det",
            "-o", str(tmp_path / "det"))
    run_cli("run", "--instance", str(inst_path), "--alg", "frac",
            "-o", str(tmp_path / "frac"))
    out = tmp_path / "report.csv"
    code = run_cli(
        "report", str(tmp_path / "det.summary.json"),
        str(tmp_path / "frac.summary.json"), "-o", str(out),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["algorithm"] for r in rows] == ["det", "frac"]
    for row in rows:
        assert set(row) == {
            "instance", "algorithm", "model", "h", "cost", "oracle", "ratio",
            "bound", "lower_bound", "pass",
        }
        assert row["h"] == "4"
        assert row["pass"] == "pass"
        assert row["cost"] != ""


def test_report_h_column_tells_cache_sizes_apart(tmp_path, capsys):
    # one instance's optimum at h = k and at h = k // 2: only h differs
    paths = []
    for h, cost in ((4, 3.0), (2, 11.0)):
        path = tmp_path / f"opt-h{h}.summary.json"
        path.write_text(json.dumps(
            {"instance": "i", "algorithm": "opt", "model": "evict", "k": 4, "beta": 3,
             "h": h, "cost": cost, "oracle": cost, "pass": True}
        ))
        paths.append(str(path))
    assert run_cli("report", *paths) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(r["h"], r["cost"]) for r in rows] == [("4", "3"), ("2", "11")]
    # a summary without h has an empty h cell
    bare = tmp_path / "bare.summary.json"
    bare.write_text(json.dumps({"cost": 1.0}))
    assert run_cli("report", str(bare)) == 0
    assert next(csv.DictReader(capsys.readouterr().out.splitlines()))["h"] == ""


def test_report_lower_bound_column(tmp_path):
    # h <= k - beta + 1 gets the augmentation bound, otherwise empty
    small = tmp_path / "s.summary.json"
    small.write_text(json.dumps(
        {"instance": "i", "algorithm": "det", "model": "evict",
         "cost": 1.0, "k": 4, "beta": 2, "h": 3, "pass": True}
    ))
    big = tmp_path / "b.summary.json"
    big.write_text(json.dumps(
        {"instance": "i", "algorithm": "det", "model": "evict",
         "cost": 1.0, "k": 4, "beta": 2, "h": 4, "pass": True}
    ))
    out = tmp_path / "lb.csv"
    assert run_cli("report", str(small), str(big), "-o", str(out)) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # (k + (beta-1)(h-1)) / (k-h+1) = (4 + 2) / 2
    assert rows[0]["lower_bound"] == "3"
    assert rows[1]["lower_bound"] == ""


# ------------------------------------------- many calls in one process


@pytest.fixture
def fresh_parser():
    """A process whose ``main`` has not yet built its parser, and that
    leaves none behind for the tests after it."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch, capsys, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    inst_path = gen_random_file(tmp_path)
    first = len(built)
    assert first > 0 and built[0] == "blockcache"
    assert run_cli("run", "--instance", str(inst_path), "--alg", "det",
                   "-o", str(tmp_path / "det")) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--instance", str(inst_path), "--alg", "no-such-alg")
    assert exc.value.code == 2
    assert run_cli("verify", "--instance", str(inst_path),
                   "--trace", str(tmp_path / "det.trace.jsonl")) == 0
    assert len(built) == first
    assert cli.build_parser.cache_info().misses == 1


def test_option_values_do_not_leak_between_calls(tmp_path):
    inst_path = gen_random_file(tmp_path)
    assert run_cli("run", "--instance", str(inst_path), "--alg", "frac-round",
                   "--seeds", "3", "4", "-o", str(tmp_path / "two")) == 0
    assert run_cli("run", "--instance", str(inst_path), "--alg", "frac-round",
                   "-o", str(tmp_path / "default")) == 0
    assert json.loads((tmp_path / "two.summary.json").read_text())["seeds"] == [3, 4]
    assert json.loads((tmp_path / "default.summary.json").read_text())["seeds"] == [0]


def test_calls_after_errors_write_what_a_fresh_process_writes(tmp_path, capsys):
    inst_path = gen_random_file(tmp_path)
    assert run_cli("run", "--instance", str(inst_path), "--alg", "det",
                   "-o", str(tmp_path / "det")) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--instance", str(inst_path), "--alg", "opt", "--model", "both")
    assert exc.value.code == 2
    assert run_cli("run", "--instance", str(inst_path), "--alg", "det",
                   "--h", "2", "-o", str(tmp_path / "det-h")) == 2
    argv = ["run", "--instance", str(inst_path), "--alg", "frac-round", "--seeds", "0", "1"]
    (tmp_path / "in-process").mkdir()
    (tmp_path / "subprocess").mkdir()
    assert run_cli(*argv, "-o", str(tmp_path / "in-process" / "out")) == 0
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "blockcache.cli", *argv, "-o", str(tmp_path / "subprocess" / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    names = sorted(p.name for p in (tmp_path / "in-process").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "subprocess").iterdir())
    assert "out.summary.json" in names and "out.trace.jsonl" in names
    for name in names:
        assert ((tmp_path / "in-process" / name).read_bytes()
                == (tmp_path / "subprocess" / name).read_bytes()), name
