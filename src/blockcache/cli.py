"""Command-line harness: instance generation, algorithm runs with
certificates, verification suites, and CSV reports.

Exit codes: 0 success, 1 verification/run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys

from .det_online import run_deterministic
from .frac_online import run_fractional
from .instance import (
    Instance,
    InstanceError,
    PolicyTrace,
    RequestIndex,
    gen_beta_off,
    gen_gap_instance,
    gen_random,
    is_int_in,
    read_jsonl,
    round12,
)
from .oracle import (
    OracleIntractableError,
    opt_eviction,
    opt_fetching,
    trace_to_x_mean,
)
from .rounding import (
    bicriteria_round_evict,
    derandomize_ensemble,
    gamma_for,
    randomized_round,
    structure_stream,
)
from .submodular import CoverageOracle, FlushSet, check_feasible

COST_TOL = 1e-9  # det cost <= k * OPT: sums of block costs, float error only
DET_DUAL_TOL = 1e-6  # det dual <= OPT: float quotients summed over up to T raises
FRAC_BOUND_TOL = 1e-6  # frac cost <= bound * dual: duals are bisection roots to 1e-12


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    if args.kind == "gap":
        inst = gen_gap_instance(args.beta, args.rounds)
    elif args.kind == "beta-off":
        inst = gen_beta_off(args.beta, args.L, args.direction)
    else:
        inst = gen_random(
            args.n,
            args.k,
            args.beta,
            args.T,
            cost_profile=args.cost_profile,
            delta=args.delta,
            seed=args.seed,
        )
    inst.save(args.output)
    Instance.load(args.output)  # round-trip as validation
    print(f"wrote {args.output}: n={inst.n} k={inst.k} T={inst.T} beta={inst.beta}")
    return 0


# ---------------------------------------------------------------- run


def _ensemble_traces(inst: Instance, seeds: list[int]):
    frac = run_fractional(inst)
    incs = [(i.tau, i.flush, i.delta) for i in frac.solution.increments]
    stream = structure_stream(incs, inst)
    traces = [randomized_round(stream, inst, seed) for seed in seeds]
    return frac, stream, traces


def _oracle_cost(inst: Instance):
    """Exact eviction optimum at h = k, or None when the DP is out of budget."""
    try:
        return opt_eviction(inst, inst.k)[0]
    except OracleIntractableError:
        return None


def _at_least_one(flag: str, value) -> bool:
    """False, after one error line, when a size option is given below 1."""
    if value is not None and value < 1:
        print(f"error: --{flag} must be at least 1, got {value}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    if not _at_least_one("h", args.h):
        return 2
    inst = Instance.load(args.instance)
    prefix = args.output or os.path.splitext(args.instance)[0] + "." + args.alg
    h = inst.k if args.h is None else args.h
    summary: dict = {
        "instance": os.path.basename(args.instance),
        "algorithm": args.alg,
        "n": inst.n,
        "k": inst.k,
        "beta": inst.beta,
        "h": h,
    }
    if args.alg == "det":
        res = run_deterministic(inst)
        res.trace.validate()
        res.ledger.check_feasible(inst)
        res.trace.save(prefix + ".trace.jsonl")
        res.ledger.save_certificate(prefix + ".cert.json", inst, res.primal_cost)
        opt = _oracle_cost(inst)
        summary.update(
            model="evict",
            cost=round12(res.primal_cost),
            dual_objective=round12(res.ledger.objective),
            bound=inst.k,
        )
        ok = True
        if opt is not None:
            summary["oracle"] = round12(opt)
            summary["ratio"] = round12(res.primal_cost / opt) if opt > 0 else 0.0
            ok = res.primal_cost <= inst.k * opt + COST_TOL
            ok = ok and res.ledger.objective <= opt + DET_DUAL_TOL
        summary["pass"] = ok
    elif args.alg == "frac":
        res = run_fractional(inst)
        res.ledger.check_feasible(inst)
        res.solution.save_increments(prefix + ".increments.jsonl")
        res.ledger.save_certificate(prefix + ".cert.json", inst, res.primal_cost)
        dual = res.ledger.objective
        bound = res.competitive_bound
        summary.update(
            model="evict",
            cost=round12(res.primal_cost),
            dual_objective=round12(dual),
            bound=round12(bound),
        )
        summary["pass"] = res.primal_cost <= bound * dual + FRAC_BOUND_TOL
        opt = _oracle_cost(inst)
        if opt is not None:
            summary["oracle"] = round12(opt)
            summary["ratio"] = round12(res.primal_cost / opt) if opt > 0 else 0.0
    elif args.alg == "frac-round":
        seeds = args.seeds
        frac, stream, traces = _ensemble_traces(inst, seeds)
        for tr in traces:
            tr.validate()
        traces[0].save(prefix + ".trace.jsonl")
        costs = [tr.eviction_cost + tr.fetching_cost for tr in traces]
        mean, stderr = _mean_stderr(costs)
        gamma = gamma_for(inst)
        rhs = (gamma + 2.0) * stream.cost + inst.total_block_cost
        summary.update(
            model="evict",
            seeds=seeds,
            cost=round12(mean),
            stderr=round12(stderr),
            gamma=round12(gamma),
            structured_cost=round12(stream.cost),
            fractional_cost=round12(frac.primal_cost),
            bound=round12(rhs),
        )
        summary["pass"] = mean <= rhs * 1.1
    elif args.alg in ("bicriteria-fetch", "bicriteria-evict"):
        seeds = args.seeds
        _frac, _stream, traces = _ensemble_traces(inst, seeds)
        if args.alg == "bicriteria-fetch":
            out = derandomize_ensemble(traces, inst)
            cost = out.fetching_cost
            model = "fetch"
        else:
            out = bicriteria_round_evict(trace_to_x_mean(traces, inst), inst)
            cost = out.eviction_cost
            model = "evict"
        out.validate()
        out.save(prefix + ".trace.jsonl")
        summary.update(
            model=model,
            seeds=seeds,
            cost=round12(cost),
            space_bound=2 * inst.k,
        )
        summary["pass"] = True
    else:  # opt
        model = args.model
        try:
            if model == "evict":
                cost, trace = opt_eviction(inst, h)
            else:
                cost, trace = opt_fetching(inst, h)
        except OracleIntractableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        trace.validate()
        trace.save(prefix + ".trace.jsonl")
        summary.update(model=model, cost=round12(cost), oracle=round12(cost))
        summary["pass"] = True

    _write_json(prefix + ".summary.json", summary)
    print(f"{args.alg}: cost={summary['cost']} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


# ---------------------------------------------------------------- verify


def _verify_worked_example() -> list[str]:
    """Fixed 8-page, 3-block coverage example with known exact values."""
    inst = Instance(
        n=8,
        k=4,
        blocks=((1, 2, 3), (4, 5, 6), (7, 8)),
        costs=(1.0, 1.0, 1.0),
        requests=(1, 2, 3, 4, 5, 6, 3, 7, 8),
    )
    oracle = CoverageOracle(inst, RequestIndex(inst))
    tau = 9
    failures = []
    s1 = FlushSet.from_flushes(3, [(0, 4)])
    s2 = FlushSet.from_flushes(3, [(1, 8)])
    s12 = FlushSet.from_flushes(3, [(0, 4), (1, 8)])
    for S, want, label in ((s1, 2, "first"), (s2, 3, "second"), (s12, 4, "union")):
        got = oracle.f_tau(S, tau)
        if got != want:
            failures.append(f"worked example {label}: got {got}, want {want}")
    return failures


def _verify_instance(inst: Instance) -> list[str]:
    failures = []
    oracle = CoverageOracle(inst, RequestIndex(inst))
    rng = random.Random(0)
    ground = [
        (b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)
    ]
    for _ in range(100):
        if not ground or inst.T == 0:
            break
        tau = rng.randint(1, inst.T)
        S = FlushSet.from_flushes(
            inst.num_blocks, rng.sample(ground, rng.randint(0, min(6, len(ground))))
        )
        Sp = S.copy()
        extra = rng.choice(ground)
        Sp.add(*extra)
        fl = rng.choice(ground)
        m_small = oracle.marginal(S, fl, tau)
        m_large = oracle.marginal(Sp, fl, tau)
        if oracle.f_tau(Sp, tau) < oracle.f_tau(S, tau):
            failures.append(f"monotonicity violated at tau={tau}")
        if fl not in Sp and fl != extra and m_large > m_small:
            failures.append(f"diminishing returns violated at tau={tau}")
    return failures


def _verify_trace(path: str, inst: Instance, capacity: int) -> list[str]:
    trace = PolicyTrace.load(path, inst, capacity)
    try:
        trace.validate()
    except ValueError as exc:
        return [f"trace invalid: {exc}"]
    return []


def _verify_increments(path: str, inst: Instance) -> list[str]:
    """Exact feasibility at every tau of the mass logged up to tau."""

    def parse(rec: dict) -> tuple | None:
        tau, block, t, delta = rec["tau"], rec["block"], rec["t"], rec["delta"]
        ok = is_int_in(tau, 1, inst.T) and is_int_in(t, 0, inst.T)
        ok = ok and is_int_in(block, 0, inst.num_blocks - 1) and 0 < delta < math.inf
        return (tau, (block, t), delta) if ok else None

    entries = read_jsonl(path, parse)
    oracle = CoverageOracle(inst, RequestIndex(inst))
    phi = {(b, 0): 1.0 for b in range(inst.num_blocks)}
    failures = []
    i = 0
    for tau in range(1, inst.T + 1):
        while i < len(entries) and entries[i][0] <= tau:
            inc_tau, flush, delta = entries[i]
            if i and inc_tau < entries[i - 1][0]:
                return failures + [f"increment {i + 1} goes back in time to tau={inc_tau}"]
            phi[flush] = phi.get(flush, 0.0) + delta
            i += 1
        ok, _S = check_feasible(phi, oracle, tau)
        if not ok:
            failures.append(f"increment log infeasible at tau={tau}")
    return failures


def cmd_verify(args) -> int:
    if not _at_least_one("capacity", args.capacity):
        return 2
    failures: list[str] = []
    if args.fixture:
        if args.fixture != "coverage-example":
            print(f"error: unknown fixture {args.fixture!r}", file=sys.stderr)
            return 2
        failures += _verify_worked_example()
    inst = Instance.load(args.instance) if args.instance else None
    if inst is not None:
        failures += _verify_instance(inst)
    for flag, path in (("trace", args.trace), ("increments", args.increments)):
        if path and inst is None:
            print(f"error: --{flag} requires --instance", file=sys.stderr)
            return 2
    if args.trace:
        capacity = inst.k if args.capacity is None else args.capacity
        failures += _verify_trace(args.trace, inst, capacity)
    if args.increments:
        failures += _verify_increments(args.increments, inst)
    if not (args.fixture or args.instance):
        print("error: nothing to verify", file=sys.stderr)
        return 2
    for msg in failures:
        print(f"FAIL: {msg}")
    if not failures:
        print("PASS")
    return 1 if failures else 0


# ---------------------------------------------------------------- report


REPORT_COLUMNS = [
    "instance",
    "algorithm",
    "model",
    "cost",
    "oracle",
    "ratio",
    "bound",
    "lower_bound",
    "pass",
]


def _lower_bound(summary: dict) -> str:
    """Resource-augmentation lower bound (k+(beta-1)(h-1))/(k-h+1)."""
    k, beta, h = summary.get("k"), summary.get("beta"), summary.get("h")
    if not all(is_int_in(v, 1, math.inf) for v in (k, beta, h)):
        return ""
    if h > k - beta + 1:
        return ""
    return f"{(k + (beta - 1) * (h - 1)) / (k - h + 1):.12g}"


def _report_row(path: str) -> dict:
    """The CSV row of one summary file; ValueError if it is not a summary."""
    with open(path) as fh:
        s = json.load(fh)
    if not isinstance(s, dict):
        raise ValueError("a summary must be a JSON object")
    row = {c: "" for c in REPORT_COLUMNS}
    for c in ("instance", "algorithm", "model"):
        row[c] = s.get(c, "")
    for c in ("cost", "oracle", "ratio", "bound"):
        if c in s:
            if type(s[c]) not in (int, float):
                raise ValueError(f"{c} must be a number, got {s[c]!r}")
            row[c] = f"{s[c]:.12g}"
    row["lower_bound"] = _lower_bound(s)
    if "pass" in s:
        row["pass"] = "pass" if s["pass"] else "fail"
    return row


def cmd_report(args) -> int:
    rows = []
    for path in args.summaries:
        try:
            rows.append(_report_row(path))
        except ValueError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockcache", description="block-aware caching laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g1 = gen_sub.add_parser("gap", help="two-block round-robin family")
    g1.add_argument("--beta", type=int, required=True)
    g1.add_argument("--rounds", type=int, required=True)
    g2 = gen_sub.add_parser("beta-off", help="cost-model separation family")
    g2.add_argument("--beta", type=int, required=True)
    g2.add_argument("--L", type=int, required=True)
    g2.add_argument(
        "--direction", choices=["evict-heavy", "fetch-heavy"], default="evict-heavy"
    )
    g3 = gen_sub.add_parser("random", help="seeded random instance")
    g3.add_argument("--n", type=int, required=True)
    g3.add_argument("--k", type=int, required=True)
    g3.add_argument("--beta", type=int, required=True)
    g3.add_argument("--T", type=int, required=True)
    g3.add_argument("--seed", type=int, default=0)
    g3.add_argument("--cost-profile", choices=["unit", "log-uniform"], default="unit")
    g3.add_argument("--delta", type=float, default=1.0)
    for g in (g1, g2, g3):
        g.add_argument("-o", "--output", required=True)

    run = sub.add_parser("run", help="run an algorithm and write artifacts")
    run.add_argument("--instance", required=True)
    run.add_argument(
        "--alg",
        required=True,
        choices=["det", "frac", "frac-round", "bicriteria-fetch", "bicriteria-evict", "opt"],
    )
    run.add_argument("--model", choices=["evict", "fetch"], default="evict")
    run.add_argument("--seeds", type=int, nargs="+", default=[0])
    run.add_argument("--h", type=int, default=None, help="offline cache size")
    run.add_argument("-o", "--output", default=None, help="output path prefix")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--instance", default=None)
    ver.add_argument("--trace", default=None)
    ver.add_argument("--increments", default=None)
    ver.add_argument("--capacity", type=int, default=None)
    ver.add_argument("--fixture", default=None, help="named fixture: coverage-example")

    rep = sub.add_parser("report", help="summaries to CSV")
    rep.add_argument("summaries", nargs="+")
    rep.add_argument("-o", "--output", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_report(args)
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
