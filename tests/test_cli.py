import csv
import json

import pytest

from blockcache.cli import main
from blockcache.instance import Instance


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
    code = run_cli(
        "gen", "random", "--n", "3", "--k", "5", "--beta", "1", "--T", "4",
        "-o", str(tmp_path / "bad.json"),
    )
    assert code == 2


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
    inst_path = gen_random_file(tmp_path, n=6, k=3, T=8)
    for model in ("evict", "fetch"):
        prefix = tmp_path / f"opt-{model}"
        code = run_cli(
            "run", "--instance", str(inst_path), "--alg", "opt",
            "--model", model, "-o", str(prefix),
        )
        assert code == 0
        summary = json.loads((tmp_path / f"opt-{model}.summary.json").read_text())
        assert summary["cost"] == summary["oracle"]


def test_run_opt_intractable_exit_1(tmp_path):
    inst_path = gen_random_file(tmp_path, n=20, k=10, T=120, name="big.json")
    code = run_cli(
        "run", "--instance", str(inst_path), "--alg", "opt",
        "-o", str(tmp_path / "big-opt"),
    )
    assert code == 1


def test_verify_fixture(capsys):
    assert run_cli("verify", "--fixture", "coverage-example") == 0
    assert "PASS" in capsys.readouterr().out
    assert run_cli("verify", "--fixture", "nope") == 2


def test_verify_requires_something():
    assert run_cli("verify") == 2
    assert run_cli("verify", "--trace", "x.jsonl") == 2


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
    prefix = tmp_path / "det"
    run_cli("run", "--instance", str(inst_path), "--alg", "det", "-o", str(prefix))
    trace_path = tmp_path / "det.trace.jsonl"
    lines = trace_path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["cache"] = []  # requested page no longer cached
    lines[0] = json.dumps(rec)
    broken = tmp_path / "broken.trace.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run_cli(
        "verify", "--instance", str(inst_path), "--trace", str(broken)
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_trace_rejects_relabelled_step(tmp_path, capsys):
    # the relabelled step still caches the request of the step it claims to
    # be and its own, so only the step order gives it away
    inst_path = gen_random_file(tmp_path)
    inst = Instance.load(str(inst_path))
    run_cli("run", "--instance", str(inst_path), "--alg", "det", "-o", str(tmp_path / "det"))
    lines = (tmp_path / "det.trace.jsonl").read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    i, j = next(
        (i, j)
        for i, rec in enumerate(recs)
        for j in range(1, inst.T + 1)
        if j != rec["t"] and inst.request(j) in rec["cache"]
    )
    recs[i]["t"] = j
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
    # infeasible
    inst_path, lines = _frac_increment_lines(tmp_path)
    dropped = tmp_path / "dropped.jsonl"
    dropped.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert run_cli(
        "verify", "--instance", str(inst_path), "--increments", str(dropped)
    ) == 1
    assert "FAIL: increment log infeasible at tau=16" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "target,corrupt",
    [
        ("instance", lambda text: _drop_key(text, "requests")),
        ("instance", lambda text: text[: len(text) // 2]),
        ("increments", lambda text: text.replace('"block"', '"blk"', 1)),
        ("increments", lambda text: text.replace('"block": 0', '"block": 99', 1)),
        ("trace", lambda text: text.replace('"cache"', '"kache"', 1)),
        ("trace", lambda text: text.replace('"evict_cost_cum": 0.0', '"evict_cost_cum": NaN', 1)),
        ("instance", lambda text: text.replace('"n": 8,', '"n": 8.0,', 1)),
    ],
    ids=[
        "instance-missing-key", "instance-invalid-json", "increment-missing-key",
        "increment-unknown-block", "trace-missing-key", "trace-nan-cost",
        "instance-float-n",
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


@pytest.mark.parametrize(
    "text",
    ['{"cost": 1', '{"cost": "x"}', "[1, 2]"],
    ids=["invalid-json", "non-numeric-cost", "not-an-object"],
)
def test_report_malformed_summary_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.summary.json"
    path.write_text(text)
    assert run_cli("report", str(path)) == 2
    assert_one_error_line(capsys)


def test_report_lower_bound_blank_for_nonpositive_sizes(tmp_path, capsys):
    # beta = 0 with h = k + 1 once divided by k - h + 1 = 0
    path = tmp_path / "zero.summary.json"
    path.write_text(json.dumps({"cost": 1.0, "k": 4, "beta": 0, "h": 5}))
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
            "instance", "algorithm", "model", "cost", "oracle", "ratio",
            "bound", "lower_bound", "pass",
        }
        assert row["pass"] == "pass"
        assert row["cost"] != ""


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
