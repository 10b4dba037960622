import dataclasses
import json
import random
import re

import pytest

from blockcache.det_online import run_deterministic
from blockcache.instance import (
    Instance,
    InstanceError,
    PolicyTrace,
    RequestIndex,
    TraceStep,
    gen_beta_off,
    gen_gap_instance,
    gen_random,
)


def small_instance(**kw):
    base = dict(
        n=4,
        k=2,
        blocks=((1, 2), (3, 4)),
        costs=(1.0, 2.0),
        requests=(1, 2, 3, 4),
    )
    base.update(kw)
    return Instance(**base)


def test_basic_properties():
    inst = small_instance()
    assert inst.T == 4
    assert inst.beta == 2
    assert inst.num_blocks == 2
    assert inst.aspect_ratio == 2.0
    assert inst.total_block_cost == 3.0
    assert inst.block_of(1) == 0 and inst.block_of(4) == 1
    assert inst.request(1) == 1 and inst.request(4) == 4


@pytest.mark.parametrize(
    "kw",
    [
        dict(k=0),
        dict(k=5),
        dict(blocks=((1, 2), (3,))),
        dict(blocks=((1, 2), (2, 3, 4))),
        dict(blocks=((1, 2, 3), (4,)), k=2),  # block bigger than cache
        dict(costs=(1.0,)),
        dict(costs=(1.0, 0.0)),
        dict(costs=(1.0, float("nan"))),
        dict(costs=(float("inf"), 1.0)),
        dict(costs=(1.0, float("-inf"))),
        dict(requests=(1, 5)),
        dict(initial_cache=frozenset({1, 2, 3})),
        dict(initial_cache=frozenset({9})),
        dict(n=4.0),
        dict(k=2.0),
        dict(blocks=((1.0, 2), (3, 4))),
        dict(requests=(1, 2.0)),
        dict(initial_cache=frozenset({1.0})),
        dict(blocks=((1, 2), (), (3, 4)), costs=(1.0, 1.0, 1.0)),
    ],
)
def test_validation_rejects(kw):
    with pytest.raises(InstanceError):
        small_instance(**kw)


def test_json_round_trip(tmp_path):
    inst = small_instance(initial_cache=frozenset({1, 3}))
    path = tmp_path / "inst.json"
    inst.save(str(path))
    loaded = Instance.load(str(path))
    assert loaded == inst
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    with pytest.raises(InstanceError):
        Instance.from_json({**doc, "version": 2})


def test_last_request():
    inst = small_instance(requests=(1, 2, 1))
    idx = RequestIndex(inst)
    assert idx.last_request(1, 3) == 3
    assert idx.last_request(2, 3) == 2
    assert idx.last_request(2, 1) is None
    assert idx.last_request(3, 3) is None


def test_starting_page_counts_as_requested_at_time_0():
    # pages 1 and 3 start cached; page 1 is requested again at step 2
    inst = small_instance(requests=(2, 1), initial_cache=frozenset({1, 3}))
    idx = RequestIndex(inst)
    assert idx.last_request(1, 0) == idx.last_request(1, 1) == 0
    assert idx.last_request(1, 2) == 2
    assert idx.last_request(3, 2) == 0
    assert idx.last_request(4, 2) is None
    assert idx.block_last_requests(1, 0) == (-1, 0)
    # evicting a starting page takes a flush (B, 1), paid like any other
    assert idx.alive_flushes(1) == sorted({(0, 1), (1, 1)})
    assert idx.alive_flushes(2) == sorted({(0, 2), (1, 1)})


def test_block_rows_kept_across_queries_match_a_fresh_index():
    # property: the index keeps each block's row at the last t it was asked
    # about; any interleaving of queries (repeats, t going backwards, every
    # block) answers what a fresh index answers
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 8), st.data(), st.integers(0, 2**16))
    def check(n, data, seed):
        k = data.draw(st.integers(1, n))
        beta = data.draw(st.integers(1, k))
        inst = gen_random(n, k, beta, data.draw(st.integers(1, 12)), seed=seed)
        cached = data.draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        blocks = st.integers(0, inst.num_blocks - 1)
        times = st.integers(0, inst.T + 1)
        queries = data.draw(st.lists(st.tuples(blocks, times), max_size=30))
        t = data.draw(times)
        # every block at t, again at t, then at an earlier t
        queries += [(b, u) for u in (t, t, max(t - 1, 0)) for b in range(inst.num_blocks)]
        index = RequestIndex(inst)
        for b, u in queries:
            assert index.block_last_requests(b, u) == RequestIndex(inst).block_last_requests(b, u)

    check()


def test_block_rows_follow_any_query_order():
    # property: a block's row is advanced through its requests when t goes
    # forward and rebuilt when t goes back; under any sequence of forward,
    # repeated and backward queries, with a starting cache so that r = 0
    # repeats, every row is the block's sorted last requests at t by their
    # definition, and last_request answers by its definition too
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a move goes forward, stays or goes back, and queries every block (-1)
    # or one, so that blocks keep rows at different t
    moves = st.tuples(
        st.sampled_from(["forward", "repeat", "backward"]), st.integers(1, 6), st.integers(-1, 7)
    )

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 8), st.data(), st.integers(0, 2**16))
    def check(n, data, seed):
        k = data.draw(st.integers(1, n))
        inst = gen_random(n, k, data.draw(st.integers(1, k)), data.draw(st.integers(1, 16)),
                          seed=seed)
        cached = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))

        def last(p, t):
            asked = [s for s in range(1, t + 1) if s <= inst.T and inst.request(s) == p]
            return asked[-1] if asked else (0 if p in inst.initial_cache else None)

        index = RequestIndex(inst)
        t = 0
        for kind, step, which in data.draw(st.lists(moves, min_size=1, max_size=20)):
            if kind == "forward":
                t = min(t + step, inst.T + 1)
            elif kind == "backward":
                t = max(t - step, 0)
            queried = range(inst.num_blocks) if which < 0 else [which % inst.num_blocks]
            for b in queried:
                blk = inst.blocks[b]
                expected = tuple(sorted(-1 if (r := last(p, t)) is None else r for p in blk))
                assert index.block_last_requests(b, t) == expected
            assert all(index.last_request(p, t) == last(p, t) for p in range(1, n + 1))

    check()


def test_alive_flushes():
    inst = Instance(
        n=2, k=2, blocks=((1, 2),), costs=(1.0,), requests=(1, 2)
    )
    idx = RequestIndex(inst)
    assert idx.alive_flushes(2) == sorted({(0, 2)})
    inst2 = Instance(n=1, k=1, blocks=((1,),), costs=(1.0,), requests=(1, 1, 1))
    idx2 = RequestIndex(inst2)
    assert idx2.alive_flushes(3) == sorted(set())  # r+1 = 4 > tau


def test_alive_flushes_at_most_beta_per_block():
    rng = random.Random(4)
    for trial in range(20):
        inst = gen_random(8, 4, 3, 15, seed=trial)
        idx = RequestIndex(inst)
        tau = rng.randint(1, inst.T)
        alive = idx.alive_flushes(tau)
        for b in range(inst.num_blocks):
            count = sum(1 for fl in alive if fl[0] == b)
            requested = len(
                {p for p in inst.blocks[b] if idx.last_request(p, tau) is not None}
            )
            assert count <= min(inst.beta, requested)
        assert all(1 <= t <= tau for _b, t in alive)


def _small_trace():
    """An honest trace of small_instance: block 0 is flushed at step 3."""
    trace = PolicyTrace(instance=small_instance(), capacity_bound=2)
    trace.record((), {1})
    trace.record((), {1, 2})
    trace.record({0}, {3})
    trace.record((), {3, 4})
    return trace


def test_trace_costs_and_validation():
    trace = _small_trace()
    trace.validate()
    assert [step.t for step in trace.steps] == [1, 2, 3, 4]
    assert [step.flushes for step in trace.steps] == [[], [], [(0, 3)], []]
    assert [step.fetched for step in trace.steps] == [[1], [2], [3], [4]]
    assert trace.eviction_cost == 1.0
    # fetches: block 0 at steps 1,2 and block 1 at steps 3,4
    assert trace.fetching_cost == 1.0 + 1.0 + 2.0 + 2.0
    assert trace.cache_at(0) == frozenset()
    assert trace.cache_at(2) == frozenset({1, 2})
    started = PolicyTrace(instance=small_instance(initial_cache=frozenset({4})), capacity_bound=2)
    assert started.cache_at(0) == frozenset({4})
    short = PolicyTrace(instance=trace.instance, capacity_bound=2, steps=trace.steps[:3])
    with pytest.raises(
        ValueError, match="^trace length does not match request sequence: 3 steps, T=4$"
    ):
        short.validate()


def test_trace_validate_catches_missing_request():
    trace = PolicyTrace(instance=small_instance(requests=(1,)), capacity_bound=2)
    trace.record((), {1})
    trace.validate()
    trace.steps[0].cache = frozenset()
    with pytest.raises(ValueError, match="absent"):
        trace.validate()


def test_trace_validate_catches_overflow():
    trace = PolicyTrace(instance=small_instance(requests=(1,)), capacity_bound=1)
    trace.record((), {1})
    trace.validate()
    trace.steps[0].cache = frozenset({1, 2})
    with pytest.raises(ValueError, match="^cache exceeds bound at step 1: 2 pages, bound 1$"):
        trace.validate()


@pytest.mark.parametrize(
    "index, field, value, message",
    [
        (2, "evict_cost_cum", 0.25,
         "eviction cost mismatch at step 3: recorded 0.25, recomputed 1.0"),
        (3, "fetch_cost_cum", 5.9,
         "fetching cost mismatch at step 4: recorded 5.9, recomputed 6.0"),
    ],
)
def test_trace_validate_names_both_cost_totals(index, field, value, message):
    trace = _small_trace()
    setattr(trace.steps[index], field, value)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace.validate()


def test_trace_validate_catches_refetch():
    trace = _small_trace()
    trace.steps[1].fetched = [1, 2]
    with pytest.raises(ValueError, match="page 1 fetched at step 2 was already cached"):
        trace.validate()


def test_trace_validate_catches_fetch_not_kept():
    # page 3 is fetched at step 1 and gone after it with no flush of its
    # block: the fetching totals, restated, charge block 1 for a page that
    # never entered, 5.0 where the pages that entered cost 3.0.  A saved
    # trace cannot state this: load rebuilds each cache with its fetches
    inst = small_instance(requests=(1, 3))
    trace = PolicyTrace(instance=inst, capacity_bound=2)
    trace.record((), {1})
    trace.record((), {1, 3})
    trace.validate()
    first, second = trace.steps
    first.fetched = [1, 3]
    first.fetch_cost_cum += 2.0
    second.fetch_cost_cum += 2.0
    assert trace.fetching_cost == 5.0
    with pytest.raises(ValueError, match="page 3 fetched at step 1 is not cached after it"):
        trace.validate()


@pytest.mark.parametrize("flushes", [[], [(0, 0)], [(1, 3)]])
def test_trace_validate_catches_leave_without_flush(flushes):
    # pages 1 and 2 leave at step 3; only a flush (0, 3) may remove them
    trace = _small_trace()
    trace.steps[2].flushes = flushes
    with pytest.raises(ValueError, match="page 1 leaves the cache at step 3"):
        trace.validate()


def test_trace_validate_catches_entry_without_fetch():
    trace = _small_trace()
    trace.steps[1].fetched = []
    with pytest.raises(ValueError, match="page 2 enters the cache at step 2 unfetched"):
        trace.validate()


def _restate_eviction(trace):
    evict = 0.0
    for step in trace.steps:
        evict += trace.step_cost(step.flushes, step.fetched)[0]
        step.evict_cost_cum = evict


def test_trace_validate_catches_flush_dated_at_another_step():
    # block 1's flush at step 4 also listed at step 1: eviction 3.0, not 1.0
    trace = _small_trace()
    trace.steps[0].flushes = [(1, 4)]
    _restate_eviction(trace)
    assert trace.eviction_cost == 3.0
    with pytest.raises(ValueError, match="block 1's flush at step 1 is dated t=4"):
        trace.validate()


def test_trace_validate_catches_flush_listed_twice():
    # block 0's flush at step 3 listed twice: eviction 2.0, not 1.0
    trace = _small_trace()
    trace.steps[2].flushes = [(0, 3), (0, 3)]
    _restate_eviction(trace)
    assert trace.eviction_cost == 2.0
    with pytest.raises(ValueError, match="block 0 is flushed twice at step 3"):
        trace.validate()


def test_trace_validate_rejects_teleporting_trace():
    # pages appear with no fetch and vanish with no flush, at cost 0, on an
    # instance whose optimal eviction cost is 2
    inst = small_instance(requests=(1, 3, 2, 4))
    caches = [{1}, {1, 3}, {2, 3}, {2, 4}]
    steps = [TraceStep(t, [], [], frozenset(c), 0.0, 0.0) for t, c in enumerate(caches, 1)]
    trace = PolicyTrace(instance=inst, capacity_bound=2, steps=steps)
    assert trace.eviction_cost == trace.fetching_cost == 0.0
    with pytest.raises(ValueError, match="page 1 enters the cache at step 1 unfetched"):
        trace.validate()


def _det_trace():
    from blockcache.det_online import run_deterministic

    return run_deterministic(gen_random(8, 4, 2, 30, seed=5)).trace


def test_trace_validate_catches_relabelled_step():
    trace = _det_trace()
    inst = trace.instance
    # a step relabelled to another step whose request it also caches
    i, j = next(
        (i, j)
        for i, step in enumerate(trace.steps, 1)
        for j in range(1, inst.T + 1)
        if j != i and inst.request(j) in step.cache
    )
    trace.validate()
    trace.steps[i - 1].t = j
    with pytest.raises(ValueError, match=f"step {i} is labelled t={j}"):
        trace.validate()


def test_trace_validate_catches_swapped_steps():
    trace = _det_trace()
    inst = trace.instance
    # two adjacent free steps that each cache both requests
    i = next(
        i
        for i in range(1, inst.T)
        if all(
            inst.request(t) in trace.steps[u - 1].cache
            and not trace.steps[u - 1].flushes
            and not trace.steps[u - 1].fetched
            for t in (i, i + 1)
            for u in (i, i + 1)
        )
    )
    trace.validate()
    trace.steps[i - 1], trace.steps[i] = trace.steps[i], trace.steps[i - 1]
    with pytest.raises(ValueError, match=f"step {i} is labelled t={i + 1}"):
        trace.validate()


def test_trace_file_round_trip(tmp_path):
    trace = _small_trace()
    path = tmp_path / "trace.jsonl"
    trace.save(str(path))
    loaded = PolicyTrace.load(str(path), trace.instance, 2)
    loaded.validate()
    assert loaded.eviction_cost == trace.eviction_cost
    assert [s.cache for s in loaded.steps] == [s.cache for s in trace.steps]


def test_det_trace_steps_share_an_unchanged_cache(tmp_path):
    inst = gen_random(16, 8, 4, 200, seed=5)
    trace = run_deterministic(inst).trace
    shared = 0
    cache = set(inst.initial_cache)
    for t, step in enumerate(trace.steps, 1):
        if step.cache == trace.cache_at(t - 1):
            assert step.cache is trace.cache_at(t - 1)
            shared += 1
        # a det flush evicts its block's pages other than the request
        flushed = {p for b, _ft in step.flushes for p in inst.blocks[b]}
        cache = (cache | set(step.fetched)) - (flushed - {inst.request(t)})
        assert trace.cache_at(t) == cache
    assert shared > 0
    path = tmp_path / "det.trace.jsonl"
    trace.save(str(path))
    loaded = PolicyTrace.load(str(path), inst, inst.k)
    assert [s.cache for s in loaded.steps] == [s.cache for s in trace.steps]
    # load shares a frozenset exactly where record did, so validate skips
    # the same steps' leave and entry checks
    def shared(steps):
        return [b.cache is a.cache for a, b in zip(steps, steps[1:])]

    assert shared(loaded.steps) == shared(trace.steps)


def _edit_step_3(lines, key, value):
    rec = json.loads(lines[3])
    rec[key] = value
    return lines[:3] + [json.dumps(rec)] + lines[4:]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[1:],
         """line 1: ValueError('not a trace: the first line must be {"format": 2}')"""),
        (lambda lines: [], "empty, not a trace"),
        # step 3 flushes block 0: pages 1 and 2 leave, page 3 enters
        (lambda lines: _edit_step_3(lines, "evicted", [1, 2, 4]),
         "line 4: ValueError('step 3 evicts page 4, which is not cached')"),
        (lambda lines: _edit_step_3(lines, "evicted", [1, 2, 3]),
         "line 4: ValueError('step 3 evicts page 3, which it also fetches')"),
    ],
    ids=["no-header", "empty", "evicts-uncached-page", "evicts-fetched-page"],
)
def test_trace_load_refuses(tmp_path, edit, message):
    trace = _small_trace()
    path = tmp_path / "trace.jsonl"
    trace.save(str(path))
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"format": 2}
    assert json.loads(lines[3])["evicted"] == [1, 2]
    path.write_text("".join(line + "\n" for line in edit(lines)))
    with pytest.raises(InstanceError, match=re.escape(message)):
        PolicyTrace.load(str(path), trace.instance, 2)


def test_gap_generator_dimensions():
    inst = gen_gap_instance(4, 5)
    assert (inst.n, inst.k, inst.T) == (8, 7, 40)
    assert inst.requests[:8] == (1, 2, 3, 4, 5, 6, 7, 8)
    inst2 = gen_gap_instance(2, 2)
    assert (inst2.n, inst2.k, inst2.T) == (4, 3, 8)
    with pytest.raises(InstanceError):
        gen_gap_instance(1, 3)


def test_beta_off_generator_dimensions():
    inst = gen_beta_off(2, 4)
    assert (inst.n, inst.k) == (8, 4)
    assert inst.initial_cache == frozenset(range(1, 5))
    inst3 = gen_beta_off(3, 1)
    assert (inst3.n, inst3.k, inst3.T) == (18, 9, 27)
    fetchy = gen_beta_off(2, 4, "fetch-heavy")
    assert fetchy.initial_cache == frozenset(range(5, 9))
    # complementary rounds: each round requests exactly the other pages
    ev = gen_beta_off(2, 1)
    fe = gen_beta_off(2, 1, "fetch-heavy")
    round_len = len(ev.requests) // 2
    for i in range(2):
        a = set(ev.requests[i * round_len : (i + 1) * round_len])
        b = set(fe.requests[i * round_len : (i + 1) * round_len])
        assert a | b == set(range(1, 9)) and not (a & b)
    with pytest.raises(InstanceError):
        gen_beta_off(2, 4, "sideways")


def test_random_generator_determinism():
    a = gen_random(6, 3, 2, 10, seed=1)
    b = gen_random(6, 3, 2, 10, seed=1)
    c = gen_random(6, 3, 2, 10, seed=2)
    assert a == b
    assert a != c
    assert a.beta <= 2


def test_random_generator_cost_ratio():
    inst = gen_random(6, 3, 2, 10, cost_profile="log-uniform", delta=4.0, seed=3)
    assert inst.aspect_ratio <= 4.0 + 1e-9
    with pytest.raises(InstanceError):
        gen_random(4, 5, 2, 10)
