"""Planted-fault property for ``PolicyTrace.validate``: a det, opt or
randomized trace of a small instance passes, and the same trace with one
planted fault (a relabelled or swapped step, a requested page dropped from
the cache, a cache over its bound, an understated cumulative cost) fails."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blockcache.det_online import run_deterministic  # noqa: E402
from blockcache.frac_online import run_fractional  # noqa: E402
from blockcache.instance import gen_random  # noqa: E402
from blockcache.oracle import opt_eviction  # noqa: E402
from blockcache.rounding import randomized_round, structure_stream  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None)

MIN_UNDERSTATEMENT = 1e-6  # far above validate's 1e-9 cost tolerance


def _trace(inst, kind: str, seed: int):
    if kind == "det":
        return run_deterministic(inst).trace
    if kind == "opt":
        return opt_eviction(inst)[1]
    frac = run_fractional(inst)
    incs = [(i.tau, i.flush, i.delta) for i in frac.solution.increments]
    return randomized_round(structure_stream(incs, inst), inst, seed)


@st.composite
def traces(draw):
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    beta = draw(st.integers(1, k))
    T = draw(st.integers(2, 10))
    inst = gen_random(n, k, beta, T, seed=draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["det", "opt", "randomized"]))
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
    step.cache = step.cache | frozenset(absent[:need])


def _understate(trace, draw):
    step = trace.steps[draw(st.integers(0, len(trace.steps) - 1))]
    cut = draw(st.floats(MIN_UNDERSTATEMENT, 10.0))
    if draw(st.booleans()):
        step.evict_cost_cum -= cut
    else:
        step.fetch_cost_cum -= cut


FAULTS = [_relabel, _swap, _drop_request, _overfill, _understate]


@PROPERTY
@given(traces(), st.sampled_from(FAULTS), st.data())
def test_validate_rejects_one_planted_fault(trace, fault, data):
    trace.validate()
    fault(trace, data.draw)
    with pytest.raises(ValueError):
        trace.validate()
