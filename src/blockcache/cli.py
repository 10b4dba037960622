"""Command-line harness: instance generation, algorithm runs with
certificates, verification suites, and CSV reports.

Exit codes: 0 success, 1 verification/run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from .det_online import run_deterministic
from .frac_online import load_increments, replay_failures, run_fractional
from .instance import (
    Instance,
    InstanceError,
    PolicyTrace,
    gen_beta_off,
    gen_gap_instance,
    gen_random,
    is_int_in,
    is_number,
    round12,
    write_json,
)
from .oracle import (
    COST_EPS,
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

DUAL_TOL = 1e-6  # dual <= OPT: det quotients or frac Newton roots summed over T raises
# cost <= bound * dual: det duals are quotients and frac duals Newton roots
# (ROOT_REL), each rounded, and the bound multiplies their error
BOUND_TOL = 1e-6
# frac-round mean cost <= ROUND_MEAN_SLACK * bound: the bound holds for the
# expected cost, and the mean over a few seeds may exceed it
ROUND_MEAN_SLACK = 1.1


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _outside(flag: str, given: bool, scope: str) -> bool:
    """True, after one error line, when an option is given where it has no
    effect: nothing is silently ignored."""
    if given:
        print(f"error: --{flag} applies only to {scope}", file=sys.stderr)
    return given


# ---------------------------------------------------------------- gen


def cmd_gen(args) -> int:
    if args.kind == "random" and _outside(
        "delta", args.delta is not None and args.cost_profile != "log-uniform",
        "--cost-profile log-uniform",
    ):
        return 2
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
            delta=1.0 if args.delta is None else args.delta,
            seed=args.seed,
        )
    inst.save(args.output)
    print(f"wrote {args.output}: n={inst.n} k={inst.k} T={inst.T} beta={inst.beta}")
    return 0


# ---------------------------------------------------------------- run


def _primal_dual_columns(summary: dict, inst: Instance, res, bound: float) -> bool:
    """Checks an online primal-dual run (det or frac) against its own dual
    and fills its summary columns.  Passes when cost <= bound * dual and,
    where the eviction DP at h = k is in budget, also dual <= OPT (weak
    duality) and cost <= bound * OPT; the oracle and ratio columns stay
    blank when the DP is out of budget."""
    cost, dual = res.primal_cost, res.ledger.objective
    res.ledger.check_feasible(inst)
    summary.update(cost=round12(cost), dual_objective=round12(dual), bound=round12(bound))
    ok = cost <= bound * dual + BOUND_TOL
    try:
        opt = opt_eviction(inst, inst.k)[0]
    except OracleIntractableError:
        return ok
    summary["oracle"] = round12(opt)
    summary["ratio"] = round12(cost / opt) if opt > 0 else 0.0
    return ok and dual <= opt + DUAL_TOL and cost <= bound * opt + COST_EPS


def _at_least_one(flag: str, value) -> bool:
    """False, after one error line, when a size option is given below 1."""
    if value is not None and value < 1:
        print(f"error: --{flag} must be at least 1, got {value}", file=sys.stderr)
        return False
    return True


# the --alg values each run option acts on: only the offline DP takes a cache
# size and a cost model, and only the rounding runs draw seeds
RUN_OPTION_ALGS = {
    "h": ("opt",),
    "model": ("opt",),
    "seeds": ("frac-round", "bicriteria-fetch", "bicriteria-evict"),
}


def cmd_run(args) -> int:
    if not _at_least_one("h", args.h):
        return 2
    for flag, algs in RUN_OPTION_ALGS.items():
        given = getattr(args, flag) is not None and args.alg not in algs
        if _outside(flag, given, f"--alg {'|'.join(algs)}, not {args.alg}"):
            return 2
    inst = Instance.load(args.instance)
    prefix = args.output or os.path.splitext(args.instance)[0] + "." + args.alg
    h = inst.k if args.h is None else args.h
    model = args.model or ("fetch" if args.alg == "bicriteria-fetch" else "evict")
    summary: dict = {
        "instance": os.path.basename(args.instance),
        "algorithm": args.alg,
        "n": inst.n,
        "k": inst.k,
        "beta": inst.beta,
        "h": h,
        "model": model,
    }
    trace = None  # frac writes its increment log instead
    try:
        if args.alg == "det":
            # det's trace is checked and written as it is recorded, so det
            # holds a batch of its steps, not all of them
            trace = PolicyTrace.open(inst, inst.k, prefix + ".trace.jsonl")
            res = run_deterministic(inst, trace)
            ok = _primal_dual_columns(summary, inst, res, inst.k)
        elif args.alg == "frac":
            res = run_fractional(inst)
            ok = _primal_dual_columns(summary, inst, res, res.competitive_bound)
        elif args.alg == "opt":
            try:
                cost, trace = (opt_eviction if model == "evict" else opt_fetching)(inst, h)
            except OracleIntractableError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            summary.update(cost=round12(cost), oracle=round12(cost))
            ok = True
        else:  # a rounding of the fractional solution, one trace per seed
            seeds = args.seeds or [0]
            summary["seeds"] = seeds
            frac = run_fractional(inst)
            stream = structure_stream(frac.solution.increments, inst)
            traces = [randomized_round(stream, seed) for seed in seeds]
            if args.alg == "frac-round":
                for tr in traces[1:]:
                    tr.validate()
                trace = traces[0]
                # the bound is on the eviction cost, the model the rounding is for
                mean, stderr = _mean_stderr([tr.eviction_cost for tr in traces])
                fetching = sum(tr.fetching_cost for tr in traces) / len(traces)
                gamma = gamma_for(inst)
                rhs = (gamma + 2.0) * stream.cost + inst.total_block_cost
                summary.update(
                    cost=round12(mean),
                    stderr=round12(stderr),
                    fetching_cost=round12(fetching),
                    gamma=round12(gamma),
                    structured_cost=round12(stream.cost),
                    fractional_cost=round12(frac.primal_cost),
                    bound=round12(rhs),
                )
                ok = mean <= rhs * ROUND_MEAN_SLACK
            else:
                if model == "fetch":
                    trace = derandomize_ensemble(traces)
                    cost = trace.fetching_cost
                else:
                    trace = bicriteria_round_evict(trace_to_x_mean(traces), inst)
                    cost = trace.eviction_cost
                summary.update(cost=round12(cost), space_bound=2 * inst.k)
                ok = True
        if trace is not None:
            trace.validate()
        # every check has passed: only now is any file written
        if args.alg in ("det", "frac"):
            res.ledger.write_certificate(prefix + ".cert.json")
        if args.alg == "frac":
            res.solution.save_increments(prefix + ".increments.jsonl")
        if trace is not None:
            trace.save(prefix + ".trace.jsonl")
        summary["pass"] = ok
        write_json(prefix + ".summary.json", summary)
    finally:
        if trace is not None:
            trace.discard()
    print(f"{args.alg}: cost={summary['cost']} pass={ok}")
    return 0 if ok else 1


# ---------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    if not _at_least_one("capacity", args.capacity):
        return 2
    if args.instance is None:
        print("error: verify needs --instance", file=sys.stderr)
        return 2
    if _outside("capacity", args.capacity is not None and args.trace is None, "--trace"):
        return 2
    inst = Instance.load(args.instance)
    failures = []
    if args.trace:
        capacity = inst.k if args.capacity is None else args.capacity
        problem = PolicyTrace.check_file(args.trace, inst, capacity)
        if problem is not None:
            failures.append(f"trace invalid: {problem}")
    if args.increments:
        failures += replay_failures(load_increments(args.increments, inst), inst)
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
    "h",
    "cost",
    "oracle",
    "ratio",
    "bound",
    "lower_bound",
    "pass",
]


def _lower_bound(summary: dict) -> str:
    """Resource-augmentation lower bound (k+(beta-1)(h-1))/(k-h+1), blank
    unless the summary has all three sizes (``_report_row`` has checked
    that each is an int >= 1) and h <= k - beta + 1."""
    k, beta, h = summary.get("k"), summary.get("beta"), summary.get("h")
    if None in (k, beta, h) or h > k - beta + 1:
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
        if type(row[c]) is not str:
            raise ValueError(f"{c} must be a string, got {row[c]!r}")
    for c in ("k", "beta", "h"):
        if c in s and not is_int_in(s[c], 1, math.inf):
            raise ValueError(f"{c} must be an integer of at least 1, got {s[c]!r}")
    row["h"] = s.get("h", "")
    for c in ("cost", "oracle", "ratio", "bound"):
        if c in s:
            if not is_number(s[c]):
                raise ValueError(f"{c} must be a finite number, got {s[c]!r}")
            row[c] = f"{s[c]:.12g}"
    row["lower_bound"] = _lower_bound(s)
    if "pass" in s:
        if type(s["pass"]) is not bool:
            raise ValueError(f"pass must be true or false, got {s['pass']!r}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call, not at import (which every process pays),
    and shared by every later call: parsing leaves it unchanged, since
    each ``parse_args`` fills a new namespace."""
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
    g3.add_argument("--delta", type=float, default=None)
    for g in (g1, g2, g3):
        g.add_argument("-o", "--output", required=True)

    run = sub.add_parser("run", help="run an algorithm and write artifacts")
    run.add_argument("--instance", required=True)
    run.add_argument(
        "--alg",
        required=True,
        choices=["det", "frac", "frac-round", "bicriteria-fetch", "bicriteria-evict", "opt"],
    )
    run.add_argument("--model", choices=["evict", "fetch"], default=None)
    run.add_argument("--seeds", type=int, nargs="+", default=None)
    run.add_argument("--h", type=int, default=None, help="offline cache size")
    run.add_argument("-o", "--output", default=None, help="output path prefix")

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--instance", default=None)
    ver.add_argument("--trace", default=None)
    ver.add_argument("--increments", default=None)
    ver.add_argument("--capacity", type=int, default=None)

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
