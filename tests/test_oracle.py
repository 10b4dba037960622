import dataclasses
import math
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from blockcache import oracle
from blockcache.instance import (
    Instance,
    RequestIndex,
    gen_beta_off,
    gen_random,
)
from blockcache.oracle import (
    DP_MOVE_LIMIT,
    OracleIntractableError,
    fractional_costs_from_x,
    naive_lp_check,
    opt_eviction,
    opt_fetching,
    trace_to_x_mean,
)
from blockcache.rounding import derive_block_rates
from blockcache.submodular import CoverageOracle
from reference import (
    dp_move_bound_reference,
    fetching_moves_per_state_reference,
    fractional_costs,
    gap_fractional_solution,
    latest_at,
    opt_eviction_exhaustive,
    opt_eviction_flushsets,
    opt_fetching_exhaustive,
)


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


def test_fetching_start_is_the_whole_initial_cache():
    # evictions are free in the fetching model, so no start from a subset
    # of the initial cache beats the initial cache itself
    rng = random.Random(17)
    cases = [(gen_beta_off(2, 2, d), None) for d in ("evict-heavy", "fetch-heavy")]
    for trial in range(6):
        inst = gen_random(5, 3, 2, 6, seed=300 + trial)
        initial = rng.sample(range(1, inst.n + 1), rng.randint(1, inst.k))
        cases.append((dataclasses.replace(inst, initial_cache=frozenset(initial)), None))
    inst = dataclasses.replace(cases[-1][0], initial_cache=frozenset({1, 3, 5}))
    cases.append((inst, 2))  # h below |initial_cache|
    for inst, h in cases:
        cost, trace = opt_fetching(inst, h)
        trace.validate()
        assert cost == min(
            opt_fetching(dataclasses.replace(inst, initial_cache=frozenset(S)), h)[0]
            for r in range(len(inst.initial_cache) + 1)
            for S in combinations(sorted(inst.initial_cache), r)
        )


def test_fetching_batches_block():
    # fetching both pages of a block in one step costs the block once
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0), requests=(1, 2, 3, 4, 1, 2)
    )
    cost, trace = opt_fetching(inst)
    trace.validate()
    assert cost == 3.0  # block0, block1, block0 again


def test_eviction_evicts_a_whole_block():
    # k=2, blocks A={1,2}, B={3}, C={4}, unit costs, requests 1 2 3 4.  At
    # t=3 the cache {1,2} must lose a page.  Evicting page 1 alone costs
    # c_A = 1 and leaves {2,3}, so t=4 evicts again (page 2 or 3, 1 more):
    # 2 in all.  Evicting block A whole at t=3 costs c_A = 1 and leaves {3},
    # so page 4 fits at t=4: 1 in all, and no other path costs 1.
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3,), (4,)), costs=(1.0,) * 3, requests=(1, 2, 3, 4)
    )
    cost, trace = opt_eviction(inst)
    trace.validate()
    assert cost == 1.0
    assert trace.cache_at(3) == {3}
    assert opt_eviction_exhaustive(inst)[0] == opt_eviction_flushsets(inst) == 1.0


def test_fetching_drops_a_page_to_take_a_batch():
    # k=2, blocks A={1}, B={2,3}, unit costs, requests 1 2 3.  After t=1 the
    # cache holds h - 1 = 1 page.  Keeping page 1 at t=2 leaves no room to
    # batch page 3 with page 2, so t=3 fetches B again: 1 + 1 + 1 = 3.
    # Dropping page 1 and fetching {2,3} at t=2 costs 1 + 1 = 2.
    inst = Instance(
        n=3, k=2, blocks=((1,), (2, 3)), costs=(1.0, 1.0), requests=(1, 2, 3)
    )
    cost, trace = opt_fetching(inst)
    trace.validate()
    assert cost == 2.0
    assert trace.cache_at(2) == {2, 3}
    assert opt_fetching_exhaustive(inst)[0] == 2.0


def test_equal_cost_end_caches_break_ties_by_sorted_pages():
    # a DP state is a page bitmask, yet among equally cheap end caches the
    # one with the smaller sorted page list wins, not the smaller mask.
    # Fetching: page 2 alone or its whole block {1, 2} costs c_A once, and
    # [1, 2] < [2] although {2} is the smaller mask.
    inst = Instance(n=2, k=2, blocks=((1, 2),), costs=(1.0,), requests=(2,))
    cost, trace = opt_fetching(inst)
    trace.validate()
    assert cost == 1.0
    assert trace.cache_at(1) == {1, 2}
    # Eviction, k=3, blocks {1,4}, {2}, {3}, requests 1 4 2 3: the cache
    # {1, 2, 4} first overflows at t=4.  Evicting block {1, 4} there ends in
    # {2, 3}, evicting block {2} ends in {1, 3, 4}.  Both cost 1, and
    # [1, 3, 4] < [2, 3] although {2, 3} is the smaller mask.
    inst = Instance(
        n=4, k=3, blocks=((1, 4), (2,), (3,)), costs=(1.0,) * 3,
        requests=(1, 4, 2, 3),
    )
    cost, trace = opt_eviction(inst)
    trace.validate()
    assert cost == 1.0
    assert trace.cache_at(inst.T) == {1, 3, 4}


def test_dp_pages_beyond_64():
    # page ids past one machine word: bit p of a state is page p
    inst = Instance(
        n=70, k=2, blocks=tuple((p,) for p in range(1, 71)),
        costs=tuple(1.0 + p % 4 for p in range(1, 71)),
        requests=(70, 65, 3, 70, 64, 65, 1, 70),
        initial_cache=frozenset({66, 69}),
    )
    for fast, exhaustive in [
        (opt_eviction, opt_eviction_exhaustive),
        (opt_fetching, opt_fetching_exhaustive),
    ]:
        cost, trace = fast(inst)
        trace.validate()
        assert cost == pytest.approx(exhaustive(inst)[0], abs=1e-12)


def test_lazy_dps_match_exhaustive_search():
    # property: on tiny instances, with starting caches of up to k pages (so
    # some start above h), the lazy DPs give the optimum of the exhaustive
    # search over every step, and their traces validate at h
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a starting cache above h: a hit at step 1 must still evict
    above_h = Instance(
        n=5, k=4, blocks=((1, 2), (3, 4), (5,)), costs=(1.0, 2.0, 1.5),
        requests=(1, 3, 1, 5, 2), initial_cache=frozenset({1, 2, 3, 4}),
    )

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 7))
        k = draw(st.integers(1, n))
        profile = draw(st.sampled_from([{}, {"cost_profile": "log-uniform", "delta": 8}]))
        inst = gen_random(
            n, k, draw(st.integers(1, k)), draw(st.integers(1, 7)),
            seed=draw(st.integers(0, 2**16)), **profile,
        )
        cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        return inst, draw(st.integers(1, k))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example((above_h, 2))
    @hypothesis.example((above_h, 3))
    def check(case):
        inst, h = case
        for fast, exhaustive in [
            (opt_eviction, opt_eviction_exhaustive),
            (opt_fetching, opt_fetching_exhaustive),
        ]:
            cost, trace = fast(inst, h)
            trace.validate()
            assert trace.capacity_bound == h
            assert cost == pytest.approx(exhaustive(inst, h)[0], abs=1e-12)

    check()


def test_dp_paths_do_not_depend_on_move_order(monkeypatch):
    # the tie rule on paths reads states, not the order the moves come in:
    # with each step's moves shuffled, both DPs return the same trace
    cases = [(gen_beta_off(2, 2, d), None) for d in ("evict-heavy", "fetch-heavy")]
    cases += [(gen_random(8, 4, 2, 16, seed=seed), None) for seed in range(6)]
    cases += [(gen_random(10, 6, 3, 14, seed=seed), 4) for seed in range(4)]
    cases.append((dataclasses.replace(cases[-1][0], initial_cache=frozenset({1, 2, 3, 5, 8})), 4))
    expected = [[dp(inst, h) for dp in (opt_eviction, opt_fetching)] for inst, h in cases]
    rng = random.Random(23)
    run_dp = oracle._run_dp

    def shuffled(instance, h, transitions, moves_for):
        def wrapped(prev, t):
            moves = list(transitions(prev, t))
            rng.shuffle(moves)
            return moves

        return run_dp(instance, h, wrapped, moves_for)

    monkeypatch.setattr(oracle, "_run_dp", shuffled)
    for (inst, h), results in zip(cases, expected):
        for dp, (cost, trace) in zip((opt_eviction, opt_fetching), results):
            for _ in range(3):
                again_cost, again = dp(inst, h)
                assert again_cost == cost
                assert again.steps == trace.steps


def test_dp_matches_flushset_enumeration():
    # with and without a starting cache, whose pages the flush sets evict
    # through (B, 1) flushes
    rng = random.Random(5)
    cases = [gen_beta_off(2, 1, d) for d in ("evict-heavy", "fetch-heavy")]
    for trial in range(20):
        n = rng.randint(3, 5)
        k = rng.randint(1, min(3, n))
        inst = gen_random(n, k, min(2, k), rng.randint(2, 5), seed=900 + trial)
        if trial >= 12:
            initial = rng.sample(range(1, n + 1), rng.randint(1, k))
            inst = dataclasses.replace(inst, initial_cache=frozenset(initial))
        cases.append(inst)
    for inst in cases:
        dp_cost, trace = opt_eviction(inst)
        trace.validate()
        assert dp_cost == pytest.approx(opt_eviction_flushsets(inst), abs=1e-9)


def test_canonical_flushsets_match_full_enumeration():
    # every flush (b, t) with 1 <= t <= T, not only the canonical ones;
    # the last four instances start with two pages cached
    rng = random.Random(3)
    for trial in range(8):
        inst = Instance(
            n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 2.5),
            requests=tuple(rng.randint(1, 4) for _ in range(6)),
            initial_cache=frozenset(rng.sample(range(1, 5), 2) if trial >= 4 else ()),
        )
        oracle = CoverageOracle(inst, RequestIndex(inst))
        ground = [(b, t) for b in range(2) for t in range(1, inst.T + 1)]
        best = min(
            sum(inst.costs[b] for b, _t in chosen)
            for size in range(len(ground) + 1)
            for chosen in combinations(ground, size)
            if all(
                oracle.f_tau(latest_at([(0, 0), (1, 0), *chosen], 2, tau), tau)
                == inst.n - inst.k
                for tau in range(1, inst.T + 1)
            )
        )
        assert opt_eviction_flushsets(inst) == pytest.approx(best, abs=1e-12)


def count_dp_moves(monkeypatch) -> list[dict]:
    """Patch ``oracle._run_dp`` to wrap each call's ``transitions``; every
    call appends its bound for a state of h pages (``moves_per_state``) and
    for the starting cache (``start_moves``), the states it expanded at each
    step and the moves it made.  Every expansion of a state of m pages
    asserts that it made at most ``moves_for(max(h, m))`` moves, the
    per-state bound the DP's budget rests on."""
    calls = []
    run_dp = oracle._run_dp

    def counted(instance, h, transitions, moves_for):
        record = {
            "moves_per_state": moves_for(h),
            "start_moves": moves_for(max(h, len(instance.initial_cache))),
            "states": Counter(), "moves": 0,
        }
        calls.append(record)

        def wrapped(prev, t):
            moves = transitions(prev, t)
            assert len(moves) <= moves_for(max(h, prev.bit_count()))
            record["states"][t] += 1
            record["moves"] += len(moves)
            return moves

        return run_dp(instance, h, wrapped, moves_for)

    monkeypatch.setattr(oracle, "_run_dp", counted)
    return calls


def refusal_step(exc: OracleIntractableError) -> int:
    return int(re.search(r"at step (\d+),", str(exc)).group(1))


@pytest.mark.parametrize("dp", [opt_eviction, opt_fetching], ids=lambda dp: dp.__name__)
def test_dp_budget_gate(dp, monkeypatch):
    # the DP refuses at the first step whose states, held to step T, would
    # overrun the budget: it has read the requests of the steps before that
    # step only, and made fewer moves than the limit
    inst = gen_random(20, 10, 2, 200, seed=1)
    read = set()
    request = Instance.request

    def recorded(self, t):
        read.add(t)
        return request(self, t)

    monkeypatch.setattr(Instance, "request", recorded)
    calls = count_dp_moves(monkeypatch)
    with pytest.raises(OracleIntractableError) as refused:
        dp(inst)
    step = refusal_step(refused.value)
    assert 1 < step < inst.T
    assert read == set(range(1, step))
    assert calls[0]["moves"] < DP_MOVE_LIMIT


@pytest.mark.parametrize("dp", [opt_eviction, opt_fetching], ids=lambda dp: dp.__name__)
def test_frac_mid_shapes_are_refused_after_few_moves(dp, monkeypatch):
    # every run --alg det|frac calls opt_eviction, and frac-mid's instances
    # are out of budget: both DPs refuse them after fewer than 10^4 moves
    calls = count_dp_moves(monkeypatch)
    for profile in ({}, {"cost_profile": "log-uniform", "delta": 8}):
        for seed in (0, 1):
            inst = gen_random(32, 16, 4, 100, seed=seed, **profile)
            with pytest.raises(OracleIntractableError):
                dp(inst)
            assert calls[-1]["moves"] < 10**4


def test_fetching_moves_per_state_is_the_closed_form(monkeypatch):
    # Vandermonde's identity turns the sum over batch sizes into one
    # binomial for a state of m >= h pages, and the fetching DP charges it
    # per held state (m = h) and for an over-full starting cache (m > h)
    for beta in range(1, 31):
        for h in range(1, 31):
            for m in range(h, 31):
                assert math.comb(beta + m - 1, h - 1) == fetching_moves_per_state_reference(
                    beta, h, m
                )
    calls = count_dp_moves(monkeypatch)
    for seed, h in [(0, 1), (1, 3), (2, 5), (3, 6)]:
        inst = gen_random(10, 6, 4, 12, seed=seed)
        opt_fetching(inst, h)
        assert calls[-1]["moves_per_state"] == fetching_moves_per_state_reference(inst.beta, h)
        if h < inst.k:
            full = dataclasses.replace(inst, initial_cache=frozenset(range(1, inst.k + 1)))
            opt_fetching(full, h)
            assert calls[-1]["start_moves"] == fetching_moves_per_state_reference(
                inst.beta, h, inst.k
            )


def test_dp_budget_rule(monkeypatch):
    # property, under a limit of a few thousand moves on tiny instances: a
    # DP call that returns made at most the limit in moves and gives the
    # unlimited call's cost; a refused one made no more and refuses at the
    # first step t where the moves charged so far plus moves_per_state per
    # held state for each of steps t..T exceed the limit (the states held
    # are counted in the unlimited call, and step 1 is charged the starting
    # cache's own bound, which may hold up to k > h pages); every instance
    # that the old worst-case bound, with step 1 charged the start's bound,
    # admits is admitted
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    calls = count_dp_moves(monkeypatch)

    @st.composite
    def cases(draw):
        n = draw(st.integers(4, 10))
        k = draw(st.integers(1, n))
        inst = gen_random(
            n, k, draw(st.integers(1, k)), draw(st.integers(4, 24)),
            seed=draw(st.integers(0, 2**16)),
        )
        h = draw(st.integers(1, k))
        cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        return inst, h, draw(st.integers(1000, 3000))

    # a full start of 10 pages is charged 2^10 = 1024 eviction moves at h = 1
    # and C(14, 4) = 1001 fetching moves at h = 5: over the limit at step 1
    full = [
        dataclasses.replace(
            gen_random(10, 10, beta, 4, seed=0), initial_cache=frozenset(range(1, 11))
        )
        for beta in (1, 5)
    ]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases(), st.sampled_from([opt_eviction, opt_fetching]))
    @hypothesis.example((full[0], 1, 1000), opt_eviction)
    @hypothesis.example((full[1], 5, 1000), opt_fetching)
    def check(case, dp):
        inst, h, limit = case
        monkeypatch.setattr(oracle, "DP_MOVE_LIMIT", 10**9)
        unlimited_cost, _trace = dp(inst, h)
        states, moves_per_state = calls[-1]["states"], calls[-1]["moves_per_state"]
        start_moves = calls[-1]["start_moves"]
        charged, first_over = 0, None
        for t in range(1, inst.T + 1):
            charged += start_moves if t == 1 else states[t] * moves_per_state
            if charged + states[t] * moves_per_state * (inst.T - t) > limit:
                first_over = t
                break
        monkeypatch.setattr(oracle, "DP_MOVE_LIMIT", limit)
        try:
            cost, _trace = dp(inst, h)
        except OracleIntractableError as exc:
            assert refusal_step(exc) == first_over
            assert calls[-1]["moves"] <= limit
            old_bound = dp_move_bound_reference(inst, h, moves_per_state)
            assert old_bound - moves_per_state + start_moves > limit
            return
        assert first_over is None
        assert calls[-1]["moves"] <= limit
        assert cost == unlimited_cost

    check()


@pytest.mark.parametrize("dp", [opt_eviction, opt_fetching], ids=lambda dp: dp.__name__)
@pytest.mark.parametrize("h", [3, 5])
def test_an_over_full_start_is_charged_all_its_moves(dp, h, monkeypatch):
    # a starting cache above h has more step-1 moves than a state of h
    # pages (at h = 3, 36 fetching and 18 eviction moves against 10 and 8);
    # under every limit, a call that returns made at most the limit, and
    # under its own step-1 charge it returns the unlimited optimum
    inst = gen_random(12, 10, 3, 6, seed=0)
    inst = dataclasses.replace(
        inst, requests=inst.requests[:1], initial_cache=frozenset(range(1, 11))
    )
    calls = count_dp_moves(monkeypatch)
    unlimited_cost, _trace = dp(inst, h)
    moves, start_moves = calls[-1]["moves"], calls[-1]["start_moves"]
    assert calls[-1]["moves_per_state"] < moves <= start_moves
    for limit in range(calls[-1]["moves_per_state"], start_moves + 1):
        monkeypatch.setattr(oracle, "DP_MOVE_LIMIT", limit)
        try:
            cost, _trace = dp(inst, h)
        except OracleIntractableError:
            assert limit < start_moves
            continue
        assert calls[-1]["moves"] <= limit
        assert cost == unlimited_cost


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


def test_singleton_block_optima_differ_by_the_end_caches():
    # property: with beta = 1 a trajectory fetches a page once more than it
    # evicts it when the page ends cached and did not start cached, once
    # less in the reverse case, so its fetching cost is its eviction cost
    # plus c(end cache) - c(initial cache); the two exact DPs, which share
    # only _run_dp, must give optima that differ by at least -c(initial
    # cache) and at most h * c_max
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(2, 8))
        k = draw(st.integers(2, n))
        profile = draw(st.sampled_from([{}, {"cost_profile": "log-uniform", "delta": 8}]))
        inst = gen_random(
            n, k, 1, draw(st.integers(1, 10)), seed=draw(st.integers(0, 2**16)), **profile
        )
        cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        return inst, draw(st.sampled_from([k, k // 2]))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        inst, h = case
        gap = opt_fetching(inst, h)[0] - opt_eviction(inst, h)[0]
        start = sum(inst.costs[inst.block_of(p)] for p in inst.initial_cache)
        assert -start - 1e-9 <= gap <= h * max(inst.costs) + 1e-9

    check()


def test_trace_to_x_and_costs():
    inst = Instance(
        n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2, 1)
    )
    _cost, trace = opt_eviction(inst)
    x = trace_to_x_mean([trace])
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
    x = trace_to_x_mean([trace])
    phi = derive_block_rates(x, inst, +1)
    assert naive_lp_check(x, phi, +1, inst) is None
    _cost, trace_f = opt_fetching(inst)
    xf = trace_to_x_mean([trace_f])
    phif = derive_block_rates(xf, inst, -1)
    assert naive_lp_check(xf, phif, -1, inst) is None


def test_naive_lp_planted_violations():
    inst = Instance(
        n=3, k=1, blocks=((1,), (2,), (3,)), costs=(1.0,) * 3, requests=(1, 2)
    )
    _cost, trace = opt_eviction(inst)
    x = trace_to_x_mean([trace])
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
    bad_x3 = [list(row) if row else row for row in x]
    bad_x3[0][2] = 1.5
    v4 = naive_lp_check(bad_x3, phi, +1, inst)
    assert v4 is not None and v4.kind == "x-bounds" and (v4.t, v4.who) == (0, 2)
    bad_phi[1] = [0.0, -0.5, 0.0]
    v5 = naive_lp_check(x, bad_phi, +1, inst)
    assert v5 is not None and v5.kind == "phi-bounds" and (v5.t, v5.who) == (1, 1)


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
