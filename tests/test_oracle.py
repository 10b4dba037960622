import random
from fractions import Fraction
from itertools import combinations

import pytest

from blockcache.instance import (
    Instance,
    RequestIndex,
    gen_beta_off,
    gen_gap_instance,
    gen_random,
)
from blockcache.oracle import (
    OracleIntractableError,
    fractional_costs,
    fractional_costs_from_x,
    gap_fractional_solution,
    naive_lp_check,
    opt_eviction,
    opt_eviction_flushsets,
    opt_fetching,
    trace_to_x_mean,
)
from blockcache.rounding import derive_block_rates
from blockcache.submodular import CoverageOracle, FlushSet


def test_singletons_simple():
    inst = Instance(
        n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2, 1)
    )
    cost, trace = opt_eviction(inst)
    trace.validate()
    assert cost == 2.0


def test_all_fit_zero_cost():
    inst = Instance(
        n=4, k=4, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0), requests=(1, 2, 3, 4, 1)
    )
    assert opt_eviction(inst)[0] == 0.0
    # each block batch-fetched once on first touch
    assert opt_fetching(inst)[0] == 2.0


def test_fetching_initial_cache_zero():
    inst = Instance(
        n=4,
        k=4,
        blocks=((1, 2), (3, 4)),
        costs=(1.0, 1.0),
        requests=(1, 2, 3, 4),
        initial_cache=frozenset({1, 2, 3, 4}),
    )
    assert opt_fetching(inst)[0] == 0.0


def test_fetching_batches_block():
    # fetching both pages of a block in one step costs the block once
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0), requests=(1, 2, 3, 4, 1, 2)
    )
    cost, trace = opt_fetching(inst)
    trace.validate()
    assert cost == 3.0  # block0, block1, block0 again


def test_dp_matches_flushset_enumeration():
    rng = random.Random(5)
    for trial in range(12):
        n = rng.randint(3, 5)
        k = rng.randint(1, min(3, n))
        inst = gen_random(n, k, min(2, k), rng.randint(2, 5), seed=900 + trial)
        dp_cost, trace = opt_eviction(inst)
        trace.validate()
        assert dp_cost == pytest.approx(opt_eviction_flushsets(inst), abs=1e-9)


def test_canonical_flushsets_match_full_enumeration():
    # every flush (b, t) with 1 <= t <= T, not only the canonical ones
    rng = random.Random(3)
    for _ in range(4):
        inst = Instance(
            n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 2.5),
            requests=tuple(rng.randint(1, 4) for _ in range(6)),
        )
        oracle = CoverageOracle(inst, RequestIndex(inst))
        ground = [(b, t) for b in range(2) for t in range(1, inst.T + 1)]
        best = min(
            sum(inst.costs[b] for b, _t in chosen)
            for size in range(len(ground) + 1)
            for chosen in combinations(ground, size)
            if all(
                oracle.f_tau(FlushSet.from_flushes(2, [(0, 0), (1, 0), *chosen]), tau)
                == inst.n - inst.k
                for tau in range(1, inst.T + 1)
            )
        )
        assert opt_eviction_flushsets(inst) == pytest.approx(best, abs=1e-12)


def test_dp_budget_gate():
    inst = gen_random(20, 10, 2, 200, seed=1)
    with pytest.raises(OracleIntractableError):
        opt_eviction(inst)


def test_h_smaller_than_k():
    inst = gen_random(6, 3, 2, 10, seed=3)
    full, _ = opt_eviction(inst)
    tight, trace = opt_eviction(inst, h=2)
    trace.validate()
    assert tight >= full


def test_beta_off_exact_separation():
    for direction, num, den in [("evict-heavy", "evict", "fetch"), ("fetch-heavy", "fetch", "evict")]:
        inst = gen_beta_off(2, 4, direction)
        evict, te = opt_eviction(inst)
        fetch, tf = opt_fetching(inst)
        te.validate()
        tf.validate()
        costs = {"evict": evict, "fetch": fetch}
        assert costs[num] == 4.0  # beta^2
        assert costs[den] == 2.0  # beta
        assert costs[num] / costs[den] == 2.0


def test_models_within_beta_factor():
    for seed in range(20):
        inst = gen_random(6, 3, 2, 10, seed=600 + seed)
        evict, _ = opt_eviction(inst)
        fetch, _ = opt_fetching(inst)
        lo = fetch / inst.beta - inst.total_block_cost - 1e-9
        hi = inst.beta * (fetch + inst.total_block_cost) + 1e-9
        assert lo <= evict <= hi


def test_trace_to_x_and_costs():
    inst = Instance(
        n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2, 1)
    )
    _cost, trace = opt_eviction(inst)
    x = trace_to_x_mean([trace], inst)
    assert x[0][1] == 1 and x[0][2] == 1
    evict, fetch = fractional_costs_from_x(x, inst)
    assert evict == trace.eviction_cost
    assert fetch == trace.fetching_cost


def test_fractional_costs_from_phi():
    inst = Instance(
        n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 2.0), requests=(1, 2)
    )
    phi = {(0, 0): 1.0, (1, 0): 1.0, (0, 2): 0.5}
    evict, fetch = fractional_costs(phi, inst)
    assert evict == pytest.approx(0.5)
    # page 1 drops 1 -> 0 at t=1 (cost 1); page 2 drops 1 -> 0 at t=2 (cost 2)
    assert fetch == pytest.approx(3.0)


def test_fetch_evict_relation_on_random_solutions():
    rng = random.Random(9)
    for trial in range(30):
        inst = gen_random(7, 3, 3, 12, seed=700 + trial)
        phi = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        for _ in range(rng.randint(0, 12)):
            b = rng.randrange(inst.num_blocks)
            t = rng.randint(1, inst.T)
            phi[(b, t)] = min(1.0, phi.get((b, t), 0.0) + rng.random())
        evict, fetch = fractional_costs(phi, inst)  # asserts the relation
        assert fetch <= inst.beta * (evict + inst.total_block_cost) + 1e-9


def test_naive_lp_on_integral_trace():
    inst = gen_random(6, 3, 2, 12, seed=12)
    _cost, trace = opt_eviction(inst)
    x = trace_to_x_mean([trace], inst)
    phi = derive_block_rates(x, inst, +1)
    assert naive_lp_check(x, phi, +1, inst) is None
    _cost, trace_f = opt_fetching(inst)
    xf = trace_to_x_mean([trace_f], inst)
    phif = derive_block_rates(xf, inst, -1)
    assert naive_lp_check(xf, phif, -1, inst) is None


def test_naive_lp_planted_violations():
    inst = Instance(
        n=3, k=1, blocks=((1,), (2,), (3,)), costs=(1.0,) * 3, requests=(1, 2)
    )
    _cost, trace = opt_eviction(inst)
    x = trace_to_x_mean([trace], inst)
    phi = derive_block_rates(x, inst, +1)
    bad_x = [row[:] if row else row for row in x]
    bad_x[1][inst.request(1)] = 0.4
    v = naive_lp_check(bad_x, phi, +1, inst)
    assert v is not None and v.kind == "requested-page" and v.t == 1
    bad_x2 = [list(row) if row else row for row in x]
    bad_x2[2][3] = 0.0  # capacity shortfall at t=2
    v2 = naive_lp_check(bad_x2, derive_block_rates(bad_x2, inst, +1), +1, inst)
    assert v2 is not None and v2.kind == "capacity" and v2.t == 2
    bad_phi = [row[:] if row else row for row in phi]
    for t in range(1, inst.T + 1):
        bad_phi[t] = [0.0] * inst.num_blocks
    v3 = naive_lp_check(x, bad_phi, +1, inst)
    assert v3 is not None and v3.kind == "block-rate"


def test_gap_solution_feasible_and_costs():
    for beta, rounds in [(3, 4), (4, 2)]:
        gs = gap_fractional_solution(beta, rounds)
        inst = gs.instance
        assert naive_lp_check(gs.x, gs.phi_evict, +1, inst) is None
        assert naive_lp_check(gs.x, gs.phi_fetch, -1, inst) is None
        bound = Fraction(2 * rounds, beta) + 2
        assert gs.eviction_cost <= bound
        assert gs.fetching_cost <= bound
        # steady state: each phase switch after the first costs exactly 1/beta
        assert gs.eviction_cost == Fraction(2 * rounds - 1, beta)


def test_gap_solution_zero_rounds():
    gs = gap_fractional_solution(3, 0)
    assert gs.instance.T == 0
    assert gs.eviction_cost == 0
    assert gs.fetching_cost == 0


def test_gap_dp_lower_bound():
    gs = gap_fractional_solution(3, 4)
    inst = gs.instance
    opt_f, _ = opt_fetching(inst)
    opt_e, _ = opt_eviction(inst)
    assert opt_f >= 4  # at least one block fetch per round
    assert opt_e >= 4
    gap = Fraction(int(opt_f)) / gs.fetching_cost
    assert gap >= Fraction(3 * 4, 2 * 4 + 2 * 3)
