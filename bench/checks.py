"""Correctness checks on the artifacts of one ``blockcache run`` job, and the
digest of its outputs that lets two versions of the program be compared."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from blockcache.instance import Instance, PolicyTrace, RequestIndex
from blockcache.submodular import CoverageOracle, check_feasible_full

# summaries and artifacts carry floats rounded to 12 significant digits
TOL = 1e-9
# PolicyTrace.save writes cumulative costs with 12 significant digits, which
# moves each by at most 5e-12 of its value
SAVED_REL = 1e-11

ARTIFACTS = (".summary.json", ".trace.jsonl", ".cert.json", ".increments.jsonl")


def remove_artifacts(prefix: str) -> None:
    for suffix in ARTIFACTS:
        try:
            os.remove(prefix + suffix)
        except FileNotFoundError:
            pass


def fingerprint(prefix: str, rc) -> str:
    """Hash of a job's exit code and artifact bytes; equal fingerprints give
    equal check results, so a repeated pass need not be checked again."""
    h = hashlib.sha256(repr(rc).encode())
    for suffix in ARTIFACTS:
        h.update(suffix.encode())
        try:
            with open(prefix + suffix, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"-")
    return h.hexdigest()


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError):
        return None


def trace_capacity(alg: str, inst: Instance) -> int:
    return 2 * inst.k if alg.startswith("bicriteria") else inst.k


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def check_increments(path: str, inst: Instance) -> list[str]:
    """Exact feasibility (``check_feasible_full``) at every tau of the mass
    logged up to tau, with the prefix built in one running pass."""
    try:
        with open(path) as fh:
            recs = [json.loads(line) for line in fh]
    except (FileNotFoundError, ValueError) as exc:
        return [f"increment log unreadable: {exc}"]
    oracle = CoverageOracle(inst, RequestIndex(inst))
    phi = {(b, 0): 1.0 for b in range(inst.num_blocks)}
    i = 0
    last_tau = 0
    for tau in range(1, inst.T + 1):
        while i < len(recs) and recs[i]["tau"] <= tau:
            rec = recs[i]
            if rec["tau"] < last_tau:
                return [f"increment {i} goes back in time to tau={rec['tau']}"]
            last_tau = rec["tau"]
            flush = (rec["block"], rec["t"])
            phi[flush] = phi.get(flush, 0.0) + rec["delta"]
            if not _close(phi[flush], rec["phi_after"]):
                return [f"increment {i}: phi_after {rec['phi_after']} != running sum {phi[flush]}"]
            i += 1
        ok, _bad = check_feasible_full(phi, oracle, tau)
        if not ok:
            return [f"increment log infeasible at tau={tau}"]
    if i != len(recs):
        return [f"increment {i} lies past the last request"]
    return []


def check_trace(trace: PolicyTrace) -> tuple[list[str], bool]:
    """Problems in a saved trace, and whether ``PolicyTrace.validate`` rejects
    it only because ``save`` rounded its costs.

    ``validate`` demands cumulative costs within 1e-9 absolute, finer than
    the 12 significant digits ``save`` keeps once a cost passes about 1000,
    so the program can reject a trace it wrote itself.  Here each saved cost
    must lie within 1e-9 or the rounding of the recomputed sum, and
    ``validate`` then checks the trace with the recomputed sums in place.
    """
    try:
        trace.validate()
        return [], False
    except ValueError:
        pass
    inst = trace.instance
    evict = fetch = 0.0
    exact = []
    for step in trace.steps:
        evict += sum(inst.costs[b] for b, ft in step.flushes if ft >= 1)
        fetch += sum(inst.costs[b] for b in {inst.block_of(q) for q in step.fetched})
        for label, saved, true in (("eviction", step.evict_cost_cum, evict),
                                   ("fetching", step.fetch_cost_cum, fetch)):
            if abs(saved - true) > max(TOL, SAVED_REL * abs(true)):
                return [f"trace invalid: {label} cost {saved} at step {step.t},"
                        f" recomputed {true}"], False
        exact.append(dataclasses.replace(step, evict_cost_cum=evict, fetch_cost_cum=fetch))
    try:
        dataclasses.replace(trace, steps=exact).validate()
    except ValueError as exc:
        return [f"trace invalid: {exc}"], False
    return [], True


def check_job(alg: str, model: str, inst: Instance, prefix: str, rc) -> tuple[list[str], bool]:
    """Problems found in one job's outputs (an empty list means it passed),
    and whether its trace is one that ``validate`` rejects only for the
    rounding of its saved costs (see ``check_trace``).

    ``model`` is the cost model the job reports: "evict" or "fetch".
    """
    problems = []
    rounding = False
    if rc != 0:
        problems.append(f"exit code {rc}")
    summary = _load_json(prefix + ".summary.json")
    if summary is None:
        return problems + ["no readable summary.json"], rounding
    if summary.get("pass") is not True:
        problems.append("summary pass is not true")
    trace_path = prefix + ".trace.jsonl"
    if alg == "frac":
        problems += check_increments(prefix + ".increments.jsonl", inst)
    elif not os.path.exists(trace_path):
        problems.append("no trace written")
    else:
        try:
            trace = PolicyTrace.load(trace_path, inst, trace_capacity(alg, inst))
            trace_problems, rounding = check_trace(trace)
        except (ValueError, KeyError, TypeError) as exc:
            trace_problems = [f"trace invalid: {exc}"]
        problems += trace_problems
        if not trace_problems:
            # the trace must carry the cost the summary reports; a
            # frac-round summary reports the mean over its seeds instead
            if alg != "frac-round":
                cost = trace.fetching_cost if model == "fetch" else trace.eviction_cost
                if not _close(cost, summary.get("cost", float("nan"))):
                    problems.append(f"trace cost {cost} != summary cost {summary.get('cost')}")
    if alg == "det" and "oracle" in summary:
        if summary["cost"] > inst.k * summary["oracle"] + TOL:
            problems.append(f"det cost {summary['cost']} > k * oracle {summary['oracle']}")
    return problems, rounding


def job_record(prefix: str, rc) -> dict:
    """Outputs that identical program behaviour must reproduce exactly."""
    summary = _load_json(prefix + ".summary.json") or {}
    record = {
        "rc": rc,
        "cost": summary.get("cost"),
        "dual_objective": summary.get("dual_objective"),
        "oracle": summary.get("oracle"),
        "certificate": _load_json(prefix + ".cert.json"),
        "increments": None,
    }
    try:
        with open(prefix + ".increments.jsonl") as fh:
            record["increments"] = sum(1 for _ in fh)
    except FileNotFoundError:
        pass
    return record


def quality_ratio(prefix: str) -> float | None:
    """cost / oracle when the oracle is known, else cost / dual objective
    (a certified lower bound on OPT)."""
    summary = _load_json(prefix + ".summary.json") or {}
    cost = summary.get("cost")
    for key in ("oracle", "dual_objective"):
        base = summary.get(key)
        if cost is not None and base:
            return cost / base
    return None


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
