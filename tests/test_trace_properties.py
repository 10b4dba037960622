"""Planted-fault property for ``PolicyTrace.validate``: a trace of a small
instance from any producer of steps (det, both exact DPs, randomized
rounding, the eviction threshold rounding) passes, and the same trace with
one planted fault (a relabelled or swapped step, a requested page dropped
from the cache, a cache over its bound, an understated cumulative cost, a
page that enters without a fetch, a fetched page left out of the step's
fetch list or a page absent before and after the step added to it, each
with the fetching totals restated, a page that leaves without a flush of
its block, a flush dated at another step or a block listed twice, with the
eviction totals restated) fails.  Instances are drawn with or without a
starting cache, and the last five faults may fall on step 1.  Each fault
raises the same message whether or not unchanged steps share the previous
step's cache object."""

import dataclasses

import pytest

from blockcache.instance import PolicyTrace

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blockcache.det_online import run_deterministic  # noqa: E402
from blockcache.frac_online import run_fractional  # noqa: E402
from blockcache.instance import gen_random  # noqa: E402
from blockcache.oracle import opt_eviction, opt_fetching, trace_to_x_mean  # noqa: E402
from blockcache.rounding import (  # noqa: E402
    bicriteria_round_evict,
    randomized_round,
    structure_stream,
)

PROPERTY = settings(max_examples=200, deadline=None)

MIN_UNDERSTATEMENT = 1e-6  # far above validate's 1e-9 cost tolerance


def _trace(inst, kind: str, seed: int):
    if kind == "det":
        return run_deterministic(inst).trace
    if kind == "opt-evict":
        return opt_eviction(inst)[1]
    if kind == "opt-fetch":
        return opt_fetching(inst)[1]
    stream = structure_stream(run_fractional(inst).solution.increments, inst)
    if kind == "randomized":
        return randomized_round(stream, seed)
    # two randomized traces averaged, rounded in 2k space
    x = trace_to_x_mean([randomized_round(stream, s) for s in (seed, seed + 1)])
    return bicriteria_round_evict(x, inst)


KINDS = ["det", "opt-evict", "opt-fetch", "randomized", "bicriteria-evict"]


@st.composite
def traces(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    beta = draw(st.integers(1, k))
    T = draw(st.integers(2, 10))
    inst = gen_random(n, k, beta, T, seed=draw(st.integers(0, 2**16)))
    cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
    inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
    kind = draw(st.sampled_from(KINDS))
    return _trace(inst, kind, draw(st.integers(0, 2**16)))


def _relabel(trace, draw):
    T = len(trace.steps)
    step = trace.steps[draw(st.integers(0, T - 1))]
    step.t = (step.t - 1 + draw(st.integers(1, T - 1))) % T + 1


def _swap(trace, draw):
    i, j = draw(
        st.lists(
            st.integers(0, len(trace.steps) - 1), min_size=2, max_size=2, unique=True
        )
    )
    trace.steps[i], trace.steps[j] = trace.steps[j], trace.steps[i]


def _drop_request(trace, draw):
    step = trace.steps[draw(st.integers(0, len(trace.steps) - 1))]
    step.cache = step.cache - {trace.instance.request(step.t)}


def _overfill(trace, draw):
    step = trace.steps[draw(st.integers(0, len(trace.steps) - 1))]
    absent = [p for p in range(1, trace.instance.n + 1) if p not in step.cache]
    need = trace.capacity_bound + 1 - len(step.cache)
    assume(len(absent) >= need)  # a bicriteria bound of 2k can exceed n
    step.cache = step.cache | frozenset(absent[:need])


def _understate(trace, draw):
    step = trace.steps[draw(st.integers(0, len(trace.steps) - 1))]
    cut = draw(st.floats(MIN_UNDERSTATEMENT, 10.0))
    if draw(st.booleans()):
        step.evict_cost_cum -= cut
    else:
        step.fetch_cost_cum -= cut


def _absent_spot(trace, draw) -> tuple[int, int]:
    """A step index i and a page cached neither before nor after step i+1."""
    spots = [
        (i, q)
        for i in range(len(trace.steps))
        for q in range(1, trace.instance.n + 1)
        if q not in trace.cache_at(i) and q not in trace.steps[i].cache
    ]
    assume(spots)
    return draw(st.sampled_from(spots))


def _restate_fetching(trace) -> None:
    fetch = 0.0
    for step in trace.steps:
        fetch += trace.step_cost(step.flushes, step.fetched)[1]
        step.fetch_cost_cum = fetch


def _restate_eviction(trace) -> None:
    evict = 0.0
    for step in trace.steps:
        evict += trace.step_cost(step.flushes, step.fetched)[0]
        step.evict_cost_cum = evict


def _enter_unfetched(trace, draw):
    i, q = _absent_spot(trace, draw)
    trace.steps[i].cache = trace.steps[i].cache | {q}


def _unrecord_fetch(trace, draw):
    # the page stays in the cache as before and the fetching totals are
    # restated without it, so only the entry check can see the fault
    spots = [(i, q) for i, step in enumerate(trace.steps) for q in step.fetched]
    assume(spots)
    i, q = draw(st.sampled_from(spots))
    trace.steps[i].fetched = [p for p in trace.steps[i].fetched if p != q]
    _restate_fetching(trace)


def _fetch_uncached(trace, draw):
    # the cache is left as before and the fetching totals are restated with
    # the page, so only the check that a fetched page is cached after its
    # step can see the fault
    i, q = _absent_spot(trace, draw)
    trace.steps[i].fetched = sorted([*trace.steps[i].fetched, q])
    _restate_fetching(trace)


def _relist_flush(trace, draw):
    # the cache is left as before and the eviction totals are restated with
    # the listed flush, so only the check of each step's flush list can see
    # the fault
    i = draw(st.integers(0, len(trace.steps) - 1))
    step = trace.steps[i]
    b = draw(st.integers(0, trace.instance.num_blocks - 1))
    ft = draw(st.integers(0, len(trace.steps)))
    assume(ft != step.t or (b, ft) in step.flushes)
    step.flushes = [*step.flushes, (b, ft)]
    _restate_eviction(trace)


def _leave_unflushed(trace, draw):
    inst = trace.instance
    spots = [
        (i, q)
        for i in range(len(trace.steps))
        for q in sorted(trace.cache_at(i) & trace.steps[i].cache)
        if q != inst.request(i + 1)
        and (inst.block_of(q), i + 1) not in trace.steps[i].flushes
    ]
    assume(spots)
    i, q = draw(st.sampled_from(spots))
    trace.steps[i].cache = trace.steps[i].cache - {q}


FAULTS = [
    _relabel,
    _swap,
    _drop_request,
    _overfill,
    _understate,
    _enter_unfetched,
    _unrecord_fetch,
    _fetch_uncached,
    _leave_unflushed,
    _relist_flush,
]


@PROPERTY
@given(traces(), st.sampled_from(FAULTS), st.data())
def test_validate_rejects_one_planted_fault(trace, fault, data):
    trace.validate()
    fault(trace, data.draw)
    with pytest.raises(ValueError):
        trace.validate()


def _message(trace) -> str | None:
    try:
        trace.validate()
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(traces(), st.sampled_from([None, *FAULTS]), st.data())
def test_shared_caches_hide_no_fault(trace, fault, data):
    # validate skips the leave and entry checks of a step that shares the
    # previous step's cache; a copy whose every step holds its own cache
    # runs them all, and must get the same verdict and message
    if fault is not None:
        fault(trace, data.draw)
    unshared = PolicyTrace(
        instance=trace.instance,
        capacity_bound=trace.capacity_bound,
        steps=[dataclasses.replace(s, cache=frozenset(sorted(s.cache))) for s in trace.steps],
    )
    assert all(s.cache is not unshared.cache_at(i) for i, s in enumerate(unshared.steps))
    assert _message(trace) == _message(unshared)
