import json
import random

import pytest

from blockcache.instance import (
    Instance,
    InstanceError,
    PolicyTrace,
    RequestIndex,
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


def test_alive_flushes():
    inst = Instance(
        n=2, k=2, blocks=((1, 2),), costs=(1.0,), requests=(1, 2)
    )
    idx = RequestIndex(inst)
    assert idx.alive_flushes(2) == {(0, 2)}
    inst2 = Instance(n=1, k=1, blocks=((1,),), costs=(1.0,), requests=(1, 1, 1))
    idx2 = RequestIndex(inst2)
    assert idx2.alive_flushes(3) == set()  # r+1 = 4 > tau


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


def test_trace_costs_and_validation():
    inst = small_instance()
    trace = PolicyTrace(instance=inst, capacity_bound=2)
    trace.record(1, [], [1], {1})
    trace.record(2, [], [2], {1, 2})
    trace.record(3, [(0, 3)], [3], {3})
    trace.record(4, [], [4], {3, 4})
    trace.validate()
    assert trace.eviction_cost == 1.0
    # fetches: block 0 at steps 1,2 and block 1 at steps 3,4
    assert trace.fetching_cost == 1.0 + 1.0 + 2.0 + 2.0
    assert trace.cache_at(0) == frozenset()
    assert trace.cache_at(2) == frozenset({1, 2})


def test_trace_validate_catches_missing_request():
    inst = small_instance(requests=(1,))
    trace = PolicyTrace(instance=inst, capacity_bound=2)
    trace.record(1, [], [], set())
    with pytest.raises(ValueError, match="absent"):
        trace.validate()


def test_trace_validate_catches_overflow():
    inst = small_instance(requests=(1,))
    trace = PolicyTrace(instance=inst, capacity_bound=1)
    trace.record(1, [], [1, 2], {1, 2})
    with pytest.raises(ValueError, match="bound"):
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
    inst = small_instance()
    trace = PolicyTrace(instance=inst, capacity_bound=2)
    trace.record(1, [], [1], {1})
    trace.record(2, [], [2], {1, 2})
    trace.record(3, [(0, 3)], [3], {3})
    trace.record(4, [], [4], {3, 4})
    path = tmp_path / "trace.jsonl"
    trace.save(str(path))
    loaded = PolicyTrace.load(str(path), inst, 2)
    loaded.validate()
    assert loaded.eviction_cost == trace.eviction_cost
    assert [s.cache for s in loaded.steps] == [s.cache for s in trace.steps]


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
