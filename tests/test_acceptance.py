"""Acceptance suite: one test per criterion, each printing a single
pass/fail line with its headline numbers and runtime."""

import math
import random
import time
from fractions import Fraction
from itertools import product

from blockcache.det_online import run_deterministic
from blockcache.frac_online import (
    integrate_rate_law,
    phi_closed_form,
    run_fractional,
)
from blockcache.instance import (
    Instance,
    RequestIndex,
    gen_beta_off,
    gen_gap_instance,
    gen_random,
)
from blockcache.oracle import (
    fractional_costs,
    gap_fractional_solution,
    naive_lp_check,
    opt_eviction,
    opt_fetching,
)
from blockcache.rounding import (
    bicriteria_round_fetch,
    derandomize_ensemble,
    gamma_for,
    randomized_round,
    structure_stream,
)
from blockcache.submodular import CoverageOracle, FlushSet, check_feasible


def _report(num: int, label: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num} [{label}]: {status} ({detail}; {elapsed:.2f}s)")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def structured_from(inst):
    res = run_fractional(inst)
    incs = [(i.tau, i.flush, i.delta) for i in res.solution.increments]
    return res, structure_stream(incs, inst)


def test_acceptance_1_coverage_fixture():
    start = time.monotonic()
    inst = Instance(
        n=8,
        k=4,
        blocks=((1, 2, 3), (4, 5, 6), (7, 8)),
        costs=(1.0, 1.0, 1.0),
        requests=(1, 2, 3, 4, 5, 6, 3, 7, 8),
    )
    oracle = CoverageOracle(inst, RequestIndex(inst))
    tau = 9
    got = (
        oracle.f_tau(FlushSet.from_flushes(3, [(0, 4)]), tau),
        oracle.f_tau(FlushSet.from_flushes(3, [(1, 8)]), tau),
        oracle.f_tau(FlushSet.from_flushes(3, [(0, 4), (1, 8)]), tau),
    )
    elapsed = time.monotonic() - start
    ok = got == (2, 3, 4) and elapsed < 1.0
    _report(1, "coverage fixture", ok, f"values {got}", elapsed)


def test_acceptance_2_submodularity_samples():
    start = time.monotonic()
    rng = random.Random(2024)
    violations = 0
    for trial in range(1000):
        n = rng.randint(4, 8)
        k = rng.randint(2, min(4, n - 1))
        inst = gen_random(n, k, 2, 8, seed=trial)
        oracle = CoverageOracle(inst, RequestIndex(inst))
        tau = rng.randint(1, inst.T)
        ground = [
            (b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)
        ]
        S = FlushSet.from_flushes(
            inst.num_blocks, rng.sample(ground, rng.randint(0, 6))
        )
        Sp = S.copy()
        for _ in range(rng.randint(1, 3)):
            Sp.add(*rng.choice(ground))
        v = rng.choice(ground)
        if oracle.f_tau(S, tau) > oracle.f_tau(Sp, tau):
            violations += 1
        if v not in Sp and oracle.marginal(S, v, tau) < oracle.marginal(
            Sp, v, tau
        ):
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 10.0
    _report(2, "submodularity samples", ok, f"{violations} violations", elapsed)


def _partitions(pages, max_blocks, max_size):
    if not pages:
        yield []
        return
    first, rest = pages[0], pages[1:]
    for tail in _partitions(rest, max_blocks, max_size):
        for i, blk in enumerate(tail):
            if len(blk) < max_size:
                yield tail[:i] + [blk + [first]] + tail[i + 1 :]
        if len(tail) < max_blocks:
            yield [[first]] + tail


def _det_case(inst, failures):
    res = run_deterministic(inst)
    res.trace.validate()
    res.ledger.check_feasible(inst)  # raises if any mass exceeds c_B + 1e-9
    opt, _ = opt_eviction(inst)
    if res.primal_cost > inst.k * opt:
        failures.append((inst, "ratio"))
    if res.ledger.objective > opt + 1e-6:
        failures.append((inst, "dual"))


def test_acceptance_3_deterministic_k_competitive():
    # truly exhaustive up to n=4, T=4 (the full stated range is billions of
    # request sequences), plus a broad seeded sample of the full range
    start = time.monotonic()
    failures: list = []
    count = 0
    for n in range(1, 5):
        for part in _partitions(list(range(1, n + 1)), 3, 3):
            blocks = tuple(tuple(sorted(b)) for b in part)
            beta = max(len(b) for b in blocks)
            for k in range(beta, min(3, n) + 1):
                for T in range(1, 5):
                    for reqs in product(range(1, n + 1), repeat=T):
                        inst = Instance(
                            n=n,
                            k=k,
                            blocks=blocks,
                            costs=(1.0,) * len(blocks),
                            requests=reqs,
                        )
                        _det_case(inst, failures)
                        count += 1
    rng = random.Random(3)
    for trial in range(2000):
        n = rng.randint(4, 6)
        k = rng.randint(2, 3)
        beta = rng.randint(1, min(2, k))
        inst = gen_random(n, k, beta, rng.randint(3, 6), seed=trial)
        _det_case(inst, failures)
        count += 1
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    _report(
        3,
        "deterministic k-competitive",
        ok,
        f"{count} instances, {len(failures)} failures",
        elapsed,
    )


def test_acceptance_4_fractional_certificates():
    start = time.monotonic()
    failures = []
    cases = [gen_random(20, 8, 4, 100, seed=4)]
    for seed in range(10):
        cases.append(gen_random(10, 4, 2, 40, seed=40 + seed))
    cases.append(
        gen_random(12, 5, 3, 50, cost_profile="log-uniform", delta=8.0, seed=9)
    )
    for inst in cases:
        res = run_fractional(inst)
        res.ledger.check_feasible(inst)
        bound = 2.0 * math.log(inst.k * inst.beta + 1.0)
        if res.primal_cost > bound * res.ledger.objective + 1e-6:
            failures.append("primal-dual gap")
        oracle = res.oracle
        partial = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        it = iter(res.solution.increments)
        pending = next(it, None)
        for tau in range(1, inst.T + 1):
            while pending is not None and pending.tau <= tau:
                partial[pending.flush] = (
                    partial.get(pending.flush, 0.0) + pending.delta
                )
                pending = next(it, None)
            if not check_feasible(partial, oracle, tau, eps=1e-9)[0]:
                failures.append(f"infeasible at {tau}")
    for k, beta, c, A in [(1, 1, 1.0, 0.5), (4, 2, 3.5, 2.0), (7, 3, 0.25, 0.2)]:
        closed = phi_closed_form(A, c, k, beta)
        integ = integrate_rate_law(A, c, k, beta, step=1e-6)
        if abs(closed - integ) > 1e-6:
            failures.append("integrator mismatch")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(
        4,
        "fractional certificates",
        ok,
        f"{len(cases)} runs, failures={failures}",
        elapsed,
    )


def test_acceptance_5a_bicriteria_exact():
    start = time.monotonic()
    failures = []
    for beta, rounds in [(3, 4), (4, 2)]:
        gs = gap_fractional_solution(beta, rounds)
        trace = bicriteria_round_fetch(gs.x, gs.instance)
        trace.validate()
        if any(len(s.cache) > 2 * gs.instance.k for s in trace.steps):
            failures.append("space")
        if trace.fetching_cost > 2.0 * float(gs.fetching_cost) + 1e-9:
            failures.append("fetch cost")
    for seed in range(10):
        inst = gen_random(8, 4, 2, 16, seed=500 + seed)
        _res, stream = structured_from(inst)
        traces = [randomized_round(stream, inst, s) for s in range(10)]
        out = derandomize_ensemble(traces, inst)  # asserts the 2x fetch bound
        if any(len(s.cache) > 2 * inst.k for s in out.steps):
            failures.append("space")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    _report(5, "bicriteria exact bounds (a)", ok, f"failures={failures}", elapsed)


def test_acceptance_5b_coverage_lemma():
    start = time.monotonic()
    inst = gen_random(8, 4, 2, 24, seed=55)
    res, stream = structured_from(inst)
    gamma = gamma_for(inst)
    floor = (inst.n - inst.k) * (1.0 - math.exp(-gamma))
    rng = random.Random(55)
    taus = sorted(rng.sample(range(1, inst.T + 1), 10))
    failures = []
    for tau in taus:
        partial: dict = {}
        for sweep, fl, d in stream.increments:
            if sweep <= tau:
                partial[fl] = min(1.0, partial.get(fl, 0.0) + d)
        for b in range(inst.num_blocks):
            partial[(b, 0)] = 1.0
        values = []
        for seed in range(500):
            coin = random.Random(tau * 100003 + seed)
            R = FlushSet.from_flushes(
                inst.num_blocks,
                (
                    fl
                    for fl, v in partial.items()
                    if coin.random() < min(1.0, gamma * v)
                ),
            )
            values.append(res.oracle.f_tau(R, tau))
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        stderr = math.sqrt(var / len(values))
        if mean < floor - 3.0 * stderr:
            failures.append((tau, mean))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    _report(
        5,
        "rounded coverage (b)",
        ok,
        f"floor {floor:.4f}, failures={failures}",
        elapsed,
    )


def test_acceptance_5c_rounding_mean_cost():
    start = time.monotonic()
    inst = gen_random(8, 4, 2, 24, seed=56)
    _res, stream = structured_from(inst)
    costs = []
    for seed in range(200):
        tr = randomized_round(stream, inst, seed)
        tr.validate()
        costs.append(tr.eviction_cost + tr.fetching_cost)
    mean = sum(costs) / len(costs)
    rhs = (gamma_for(inst) + 2.0) * stream.cost + inst.total_block_cost
    elapsed = time.monotonic() - start
    ok = mean <= rhs * 1.1 and elapsed < 300.0
    _report(
        5, "rounding mean cost (c)", ok, f"mean {mean:.3f} vs {rhs:.3f}", elapsed
    )


def test_acceptance_6_cost_model_separation():
    start = time.monotonic()
    results = {}
    for direction in ("evict-heavy", "fetch-heavy"):
        inst = gen_beta_off(2, 4, direction)
        evict, te = opt_eviction(inst)
        fetch, tf = opt_fetching(inst)
        te.validate()
        tf.validate()
        results[direction] = (evict, fetch)
    (e1, f1), (e2, f2) = results["evict-heavy"], results["fetch-heavy"]
    elapsed = time.monotonic() - start
    ok = e1 / f1 == 2.0 and f2 / e2 == 2.0 and elapsed < 60.0
    _report(
        6,
        "cost-model separation",
        ok,
        f"evict-heavy {e1}/{f1}, fetch-heavy {f2}/{e2}",
        elapsed,
    )


def test_acceptance_7_integrality_gap():
    start = time.monotonic()
    beta, rounds = 3, 4
    gs = gap_fractional_solution(beta, rounds)
    inst = gs.instance
    failures = []
    if naive_lp_check(gs.x, gs.phi_evict, +1, inst) is not None:
        failures.append("evict LP")
    if naive_lp_check(gs.x, gs.phi_fetch, -1, inst) is not None:
        failures.append("fetch LP")
    bound = Fraction(2 * rounds, beta) + 2
    if gs.eviction_cost > bound or gs.fetching_cost > bound:
        failures.append("fractional cost")
    opt_f, _ = opt_fetching(inst)
    if opt_f < rounds:
        failures.append("DP lower bound")
    gap = Fraction(int(opt_f)) / gs.fetching_cost
    if gap < Fraction(beta * rounds, 2 * rounds + 2 * beta):
        failures.append("gap value")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    _report(
        7,
        "integrality gap",
        ok,
        f"gap {gap} >= {Fraction(beta * rounds, 2 * rounds + 2 * beta)}",
        elapsed,
    )


def test_acceptance_8_fetch_evict_relation():
    start = time.monotonic()
    violations = 0
    checked = 0
    for seed in range(30):
        inst = gen_random(
            random.Random(seed).randint(5, 9), 4, 2, 18, seed=800 + seed
        )
        _res, stream = structured_from(inst)
        evict, fetch = fractional_costs(stream.phi, inst)
        checked += 1
        if fetch > inst.beta * (evict + inst.total_block_cost) + 1e-9:
            violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0
    _report(
        8,
        "fetch/evict cost relation",
        ok,
        f"{checked} structured solutions, {violations} violations",
        elapsed,
    )


def test_acceptance_9_derandomization():
    start = time.monotonic()
    inst = gen_random(8, 4, 2, 20, seed=9)
    _res, stream = structured_from(inst)
    traces = [randomized_round(stream, inst, s) for s in range(50)]
    out = derandomize_ensemble(traces, inst)
    out.validate()
    mean = sum(t.fetching_cost for t in traces) / len(traces)
    space_ok = all(len(s.cache) <= 2 * inst.k for s in out.steps)
    cost_ok = out.fetching_cost <= 2.0 * mean + 1e-6
    elapsed = time.monotonic() - start
    ok = space_ok and cost_ok and elapsed < 120.0
    _report(
        9,
        "derandomization",
        ok,
        f"cost {out.fetching_cost:.3f} vs 2x mean {2 * mean:.3f}",
        elapsed,
    )
