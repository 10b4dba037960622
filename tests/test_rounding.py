import dataclasses
import math
import random

import pytest

from blockcache.frac_online import FractionalSolution, replay_failures, run_fractional
from blockcache.instance import Instance, RequestIndex, gen_beta_off, gen_random
from blockcache.oracle import opt_eviction, trace_to_x_mean
from blockcache.rounding import (
    AlterationError,
    StructuredStream,
    bicriteria_round_evict,
    bicriteria_round_fetch,
    derandomize_ensemble,
    derive_block_rates,
    gamma_for,
    randomized_round,
    structure_stream,
)
from blockcache.submodular import CoverageOracle, PhiView, flush_cost
from reference import gap_fractional_solution, structure_stream_reference


def test_gamma_value():
    inst = gen_random(8, 4, 2, 10, seed=0)
    assert inst.beta == 2 and inst.aspect_ratio == 1.0
    assert gamma_for(inst) == pytest.approx(math.log(128), abs=1e-12)


def test_structured_min_value_invariant():
    for seed in range(10):
        inst = gen_random(8, 4, 2, 24, seed=seed)
        stream = structure_stream(run_fractional(inst).solution.increments, inst)
        thr = 1.0 / (4.0 * inst.k**2)
        for (b, t), v in stream.phi.items():
            if t >= 1 and v > 0.0:
                assert v >= thr - 1e-12


def test_structured_half_stage_x_invariant():
    # online replay of the half-rounded stage: after the increments of each
    # step are applied, no page value sits in [1/2, 1) at that step; later
    # retroactive mass may land inside historical windows, so the invariant
    # is checked only at the then-current step
    for seed in range(10):
        inst = gen_random(8, 4, 2, 24, seed=40 + seed)
        stream = structure_stream(run_fractional(inst).solution.increments, inst)
        index = RequestIndex(inst)
        oracle = CoverageOracle(inst, index)
        half = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        idx = 0
        for tau in range(1, inst.T + 1):
            while idx < len(stream.half.increments) and (
                stream.half.increments[idx][0] <= tau
            ):
                _t, fl, d = stream.half.increments[idx]
                half[fl] = min(1.0, half.get(fl, 0.0) + d)
                idx += 1
            view = PhiView(half, inst.num_blocks)
            for b in range(inst.num_blocks):
                for xv in view.x(oracle, b, tau):
                    assert xv < 0.5 or xv >= 1.0 - 1e-9


@pytest.mark.parametrize("profile", ["unit", "log-uniform"])
def test_structured_stages_are_replays_of_their_logs(profile):
    # each stage's phi is exactly what applying its increment log in order
    # gives, and by_step is the log summed per flush at each step
    for seed in range(6):
        inst = gen_random(8, 4, 2, 24, cost_profile=profile, delta=4.0, seed=120 + seed)
        stream = structure_stream(run_fractional(inst).solution.increments, inst)
        for stage in (stream, stream.half):
            replay = FractionalSolution(inst)
            for tau, flush, delta in stage.increments:
                replay.apply(tau, flush, delta)
            assert replay.phi == stage.phi
        by_step = {}
        for tau, flush, delta in stream.increments:
            step = by_step.setdefault(tau, {})
            step[flush] = step.get(flush, 0.0) + delta
        assert by_step == stream.by_step
        assert stream.cost == flush_cost(stream.phi, inst)


def test_structured_cost_bound():
    for seed in range(10):
        inst = gen_random(8, 4, 2, 24, seed=80 + seed)
        res = run_fractional(inst)
        stream = structure_stream(res.solution.increments, inst)
        # doubling and half-rounding each cost at most a factor 2, plus one
        # bucket payment of up to c_B per block still pending at the end
        allowance = 4.0 * res.primal_cost + 2.0 * inst.total_block_cost
        assert stream.cost <= allowance + 1e-9


def test_structured_feasible_each_step():
    for seed in range(6):
        inst = gen_random(7, 3, 2, 16, seed=160 + seed)
        stream = structure_stream(run_fractional(inst).solution.increments, inst)
        assert replay_failures(stream.increments, inst) == []


def test_structured_integral_passthrough():
    inst = Instance(
        n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2)
    )
    incs = run_fractional(inst).solution.increments
    assert all(abs(d - 1.0) < 1e-12 for _t, _f, d in incs)
    stream = structure_stream(incs, inst)
    for (b, t), v in stream.phi.items():
        if t >= 1:
            assert v == 1.0


def test_bucket_accumulates_small_increments():
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0), requests=(1, 3, 1, 3)
    )
    thr = 1.0 / (4.0 * inst.k**2)  # 1/16
    tiny = thr / 8.0
    raw = [(t, (0, 1), tiny) for t in range(1, 5)]
    stream = structure_stream(raw, inst)
    assert not [fl for _t, fl, _d in stream.increments]  # below threshold
    raw8 = [(1, (0, 1), tiny)] * 8
    stream8 = structure_stream(raw8, inst)
    emitted = [(fl, d) for _t, fl, d in stream8.increments]
    assert emitted, "bucket should flush once the threshold is reached"
    assert sum(d for _fl, d in emitted) >= thr


def test_bucket_flush_emitted_twice_holds_twice_its_bucketed_mass():
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0), requests=(1, 3, 1, 3)
    )
    thr = 1.0 / (4.0 * inst.k**2)
    # every second increment fills the bucket, and each fill adds 2 * 1.2 thr
    stream = structure_stream([(1, (0, 1), 0.6 * thr)] * 4, inst)
    assert [(t, fl) for t, fl, _d in stream.increments] == [(1, (0, 1))] * 2
    assert [d for _t, _fl, d in stream.increments] == pytest.approx([2.4 * thr] * 2)
    assert stream.phi == pytest.approx({(0, 1): 0.3})


def test_randomized_round_feasible_and_deterministic():
    inst = gen_random(8, 4, 2, 24, seed=7)
    stream = structure_stream(run_fractional(inst).solution.increments, inst)
    t1 = randomized_round(stream, seed=123)
    t2 = randomized_round(stream, seed=123)
    t3 = randomized_round(stream, seed=124)
    t1.validate()
    assert [s.cache for s in t1.steps] == [s.cache for s in t2.steps]
    assert t1.eviction_cost == t2.eviction_cost
    # a different seed is allowed to coincide, but not across the whole suite
    assert any(
        randomized_round(stream, seed=s).eviction_cost != t1.eviction_cost
        for s in range(200, 210)
    ) or t3.eviction_cost != t1.eviction_cost


def test_randomized_round_cache_residency():
    # pages fully present fractionally are present integrally
    inst = gen_random(8, 4, 2, 20, seed=17)
    res = run_fractional(inst)
    stream = structure_stream(res.solution.increments, inst)
    view = PhiView(stream.phi, inst.num_blocks)
    oracle = CoverageOracle(inst, RequestIndex(inst))
    for seed in range(5):
        trace = randomized_round(stream, seed=seed)
        for t in range(1, inst.T + 1):
            cache = trace.cache_at(t)
            for b, blk in enumerate(inst.blocks):
                for p, xv in zip(blk, view.x(oracle, b, t), strict=True):
                    if xv == 0.0:
                        assert p in cache


def test_randomized_round_alteration_loop():
    # no coin fires (empty by_step), so every eviction is an alteration: the
    # block of the cached page with the largest x, ties to the lowest block
    inst = Instance(
        n=4, k=2, blocks=((1,), (2,), (3, 4)), costs=(1.0,) * 3, requests=(1, 2, 3, 4)
    )
    x = [
        [None, 1.0, 1.0, 1.0, 1.0],
        [None, 0.0, 1.0, 1.0, 1.0],
        [None, 0.0, 0.0, 1.0, 1.0],
        [None, 0.5, 0.5, 0.0, 1.0],  # tie between blocks 0 and 1
        [None, 1.0, 1.0, 0.3, 0.0],  # page 2 has the largest x
    ]
    trace = randomized_round(StructuredStream(instance=inst, x=x), seed=0)
    trace.validate()
    assert [step.flushes for step in trace.steps] == [[], [], [(0, 3)], [(1, 4)]]
    assert trace.cache_at(4) == {3, 4}
    x[3][1] = x[3][2] = 0.0  # no cached page can be evicted at t=3
    with pytest.raises(AlterationError):
        randomized_round(StructuredStream(instance=inst, x=x), seed=0)


def test_randomized_round_mean_cost():
    inst = gen_random(8, 4, 2, 24, seed=29)
    stream = structure_stream(run_fractional(inst).solution.increments, inst)
    costs = []
    for seed in range(100):
        tr = randomized_round(stream, seed=seed)
        tr.validate()
        costs.append(tr.eviction_cost + tr.fetching_cost)
    mean = sum(costs) / len(costs)
    bound = (gamma_for(inst) + 2.0) * stream.cost + inst.total_block_cost
    assert mean <= bound * 1.1


def test_bicriteria_fetch_threshold_rule():
    inst = Instance(
        n=4,
        k=2,
        blocks=((1, 2), (3, 4)),
        costs=(1.0, 1.0),
        requests=(1, 3, 1),
        initial_cache=frozenset({1, 2}),
    )
    x = [[None, 0.0, 0.0, 1.0, 1.0]]
    x.append([None, 0.0, 0.6, 1.0, 1.0])  # page 2 crosses 1/2: evicted
    x.append([None, 0.5, 0.6, 0.0, 1.0])  # page 1 at exactly 1/2: retained
    x.append([None, 0.0, 0.6, 0.5, 1.0])
    trace = bicriteria_round_fetch(x, inst)
    trace.validate()
    assert 2 not in trace.cache_at(1)
    assert 1 in trace.cache_at(2)
    # miss of page 3 at t=2 fetches only the block-mates with x <= 1/2
    assert set(trace.steps[1].fetched) == {3}


def test_bicriteria_fetch_rejects_infeasible():
    inst = Instance(n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1,))
    x = [[None, 1.0, 1.0], [None, 0.7, 0.0]]  # requested page not at 0
    with pytest.raises(ValueError):
        bicriteria_round_fetch(x, inst)
    x = [[None, 0.5, 1.0], [None, 0.0, 1.0]]  # page 1 starts outside the cache
    with pytest.raises(ValueError, match="starts outside the cache"):
        bicriteria_round_fetch(x, inst)


def test_bicriteria_fetch_on_gap_solution():
    gs = gap_fractional_solution(4, 3)
    inst = gs.instance
    trace = bicriteria_round_fetch(gs.x, inst)
    trace.validate()
    for step in trace.steps:
        assert len(step.cache) <= 2 * inst.k
    assert trace.fetching_cost <= 2.0 * float(gs.fetching_cost) + 1e-9


def test_bicriteria_evict_mirror():
    inst = gen_random(6, 3, 2, 12, seed=41)
    _cost, opt_trace = opt_eviction(inst)
    x = trace_to_x_mean([opt_trace])
    trace = bicriteria_round_evict([[v for v in row] if row else row for row in x], inst)
    trace.validate()
    for step in trace.steps:
        assert len(step.cache) <= 2 * inst.k
    # integral input: threshold rounding reproduces the eviction cost exactly
    assert trace.eviction_cost <= 2.0 * opt_trace.eviction_cost + 1e-9


def test_bicriteria_evict_no_rule_fire():
    inst = Instance(
        n=2, k=2, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2, 1)
    )
    x = [[None, 1.0, 1.0]] + [[None, 0.0, 0.0]] * 3
    x[1] = [None, 0.0, 1.0]
    x[2] = [None, 0.0, 0.0]
    x[3] = [None, 0.0, 0.0]
    trace = bicriteria_round_evict(x, inst)
    trace.validate()
    assert trace.eviction_cost == 0.0


def test_derandomize_single_member():
    inst = gen_random(6, 3, 2, 12, seed=53)
    stream = structure_stream(run_fractional(inst).solution.increments, inst)
    tr = randomized_round(stream, seed=0)
    out = derandomize_ensemble([tr])
    out.validate()
    assert out.fetching_cost <= 2.0 * tr.fetching_cost + 1e-6
    # duplicated members change nothing
    out2 = derandomize_ensemble([tr, tr])
    assert out2.fetching_cost == out.fetching_cost


def test_derandomize_ensemble_bounds():
    inst = gen_random(8, 4, 2, 20, seed=61)
    stream = structure_stream(run_fractional(inst).solution.increments, inst)
    traces = [randomized_round(stream, seed=s) for s in range(20)]
    out = derandomize_ensemble(traces)
    out.validate()
    mean = sum(t.fetching_cost for t in traces) / len(traces)
    assert out.fetching_cost <= 2.0 * mean + 1e-6
    for step in out.steps:
        assert len(step.cache) <= 2 * inst.k


@pytest.mark.parametrize("direction", ["evict-heavy", "fetch-heavy"])
def test_roundings_start_from_the_starting_cache(direction):
    inst = gen_beta_off(2, 2, direction)
    stream = structure_stream(run_fractional(inst).solution.increments, inst)
    traces = [randomized_round(stream, seed=s) for s in range(4)]
    x = trace_to_x_mean(traces)
    for trace in [*traces, bicriteria_round_fetch(x, inst), bicriteria_round_evict(x, inst)]:
        assert trace.cache_at(0) == inst.initial_cache
        trace.validate()


def test_derandomize_rejects_empty():
    inst = gen_random(4, 2, 2, 4, seed=0)
    with pytest.raises(ValueError):
        derandomize_ensemble([])


def test_derive_block_rates():
    inst = Instance(n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2))
    x = [[None, 0.3, 1.0], [None, 0.0, 1.0], [None, 0.8, 0.0]]
    phi = derive_block_rates(x, inst, +1)
    assert phi[1] == [0.0, 0.0]
    assert phi[2] == [pytest.approx(0.8), 0.0]
    psi = derive_block_rates(x, inst, -1)
    assert psi[1] == [pytest.approx(0.3), 0.0]
    assert psi[2] == [0.0, pytest.approx(1.0)]


def test_threshold_roundings_on_fractional_x():
    # property: x is the mean of 1-4 randomized roundings, lifted at random
    # towards 1 off the requested pages, which keeps it feasible for the
    # naive LP; without the lift a page with x <= 1/2 is always cached, so
    # no rounding would ever load more than the requested page.  Both
    # orientations must keep every cached and fetched page at x <= 1/2
    # within 2k space
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        st.integers(2, 8),
        st.data(),
        st.integers(0, 2**16),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.3, 1.0]),
    )
    def check(n, data, seed, members, lift):
        k = data.draw(st.integers(1, n))
        beta = data.draw(st.integers(1, k))
        inst = gen_random(n, k, beta, data.draw(st.integers(1, 12)), seed=seed)
        stream = structure_stream(run_fractional(inst).solution.increments, inst)
        traces = [randomized_round(stream, seed=s) for s in range(members)]
        x = trace_to_x_mean(traces)
        rng = random.Random(seed)
        for t in range(1, inst.T + 1):
            for p in range(1, inst.n + 1):
                if p != inst.request(t):
                    x[t][p] += (1.0 - x[t][p]) * lift * rng.random()
        for rounding in (bicriteria_round_fetch, bicriteria_round_evict):
            trace = rounding(x, inst)
            assert trace.capacity_bound == 2 * inst.k
            trace.validate()
            for step in trace.steps:
                assert all(x[step.t][p] <= 0.5 for p in step.cache)
                assert all(x[step.t][p] <= 0.5 for p in step.fetched)
                if rounding is bicriteria_round_evict:
                    assert set(step.fetched) <= {inst.request(step.t)}

    check()


def assert_same_stream(raw, inst):
    stream, reference = structure_stream(raw, inst), structure_stream_reference(raw, inst)
    assert stream.x == reference.x
    assert stream.increments == reference.increments
    assert stream.by_step == reference.by_step
    assert stream.half.increments == reference.half.increments
    return stream


def test_structuring_matches_the_sweep_that_reads_everything():
    # property: skipping the reads whose answer is known keeps every output
    # bit for bit, on the fractional run's log or on a drawn monotone raw
    # log of up to three increments a step, each to a flush at or before
    # its step, with deltas large enough that blocks often cross 1/2
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(2, 10))
        k = draw(st.integers(1, n))
        profile = draw(st.sampled_from(["unit", "log-uniform"]))
        inst = gen_random(
            n, k, draw(st.integers(1, k)), draw(st.integers(1, 16)), profile,
            draw(st.floats(1.0, 100.0)), seed=draw(st.integers(0, 2**16)),
        )
        cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        if not draw(st.booleans()):
            return inst, run_fractional(inst).solution.increments
        raw = []
        for tau in range(1, inst.T + 1):
            for _ in range(draw(st.integers(0, 3))):
                flush = (draw(st.integers(0, inst.num_blocks - 1)), draw(st.integers(1, tau)))
                raw.append((tau, flush, draw(st.floats(0.01, 0.6))))
        return inst, raw

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        inst, raw = case
        assert_same_stream(raw, inst)

    check()


ONE_BLOCK_PAIR = dict(n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0))


def test_a_page_requested_between_two_reads_of_its_block():
    # the read at tau 2 finds page 1 at 0.25; page 1 is requested at 4, and
    # the read at 5 finds page 2 at 0.3, which 0.25 more at 6 takes to 1/2
    inst = Instance(**ONE_BLOCK_PAIR, requests=(1, 2, 3, 1, 4, 3))
    raw = [
        (2, (0, 1), 0.3), (2, (0, 2), 0.25), (4, (0, 3), 0.2), (5, (0, 5), 0.1),
        (6, (0, 6), 0.25),
    ]
    stream = assert_same_stream(raw, inst)
    assert stream.half.phi[(0, 6)] == 1.0


def test_a_block_that_went_full_crosses_again_after_a_request():
    # both pages go full at 3; page 1, requested at 5, climbs to 0.55 by 7
    inst = Instance(**ONE_BLOCK_PAIR, requests=(1, 2, 3, 4, 1, 3, 4))
    raw = [(3, (0, 3), 0.6), (6, (0, 6), 0.3), (7, (0, 7), 0.25)]
    stream = assert_same_stream(raw, inst)
    assert stream.half.phi[(0, 3)] == 1.0 and stream.half.phi[(0, 7)] == 1.0


def test_a_flush_after_the_last_read_gains_mass_later():
    # the read at tau 3 finds page 1 at 0.2; flush time 4, after that read,
    # gains 0.1 at 4 and 0.15 at 6, and page 1 reaches 0.55 at 6
    inst = Instance(**ONE_BLOCK_PAIR, requests=(1, 2, 3, 4, 3, 4))
    raw = [
        (2, (0, 2), 0.2), (3, (0, 1), 0.35), (4, (0, 4), 0.1), (6, (0, 4), 0.15),
        (6, (0, 5), 0.1),
    ]
    stream = assert_same_stream(raw, inst)
    assert stream.half.phi[(0, 6)] == 1.0
