"""Prefix consistency: an online policy decides step t from requests 1..t
alone, so its run on the instance cut to the first T' requests is its run
on the whole instance up to T'.  For det that is every trace step and every
dual record with tau <= T'; for frac, every increment with tau <= T', and
for its rounding every structured increment and every step of the rounded
trace with tau <= T', and so for the two bicriteria roundings of the
rounded traces' mean x.  A policy that reads a request past the current
step changes some output at some cut, so the check is exact: the offline
eviction and fetching DPs, which read the whole stream, fail it."""

import dataclasses

import pytest

from blockcache.det_online import run_deterministic
from blockcache.frac_online import run_fractional
from blockcache.instance import gen_random
from blockcache.oracle import opt_eviction, opt_fetching, trace_to_x_mean
from blockcache.rounding import (
    bicriteria_round_evict,
    derandomize_ensemble,
    randomized_round,
    structure_stream,
)


def det_outputs(inst):
    res = run_deterministic(inst)
    return [(s.t, s) for s in res.trace.steps], [(r.tau, r) for r in res.ledger.records]


def frac_outputs(inst, seeds):
    """frac's raw increments, the structured ones, the steps of the traces
    rounded from them at each seed, and the steps of the two bicriteria
    roundings of those traces' mean x."""
    raw = run_fractional(inst).solution.increments
    stream = structure_stream(raw, inst)
    traces = [randomized_round(stream, seed) for seed in seeds]
    x = trace_to_x_mean(traces)
    bicriteria = [bicriteria_round_evict(x, inst), derandomize_ensemble(traces)]
    return (
        [(inc.tau, inc) for inc in raw],
        [(inc.tau, inc) for inc in stream.increments],
        *([(s.t, s) for s in trace.steps] for trace in traces + bicriteria),
    )


def offline_outputs(dp):
    return lambda inst: ([(s.t, s) for s in dp(inst)[1].steps],)


def inconsistent_cuts(outputs, inst) -> list[int]:
    """The cuts T' < T at which some output list of the cut instance's run,
    of (time, item) pairs, is not the whole run's list up to time T'."""
    whole = outputs(inst)
    bad = []
    for cut in range(1, inst.T):
        part = outputs(dataclasses.replace(inst, requests=inst.requests[:cut]))
        if any(p != [x for x in w if x[0] <= cut] for p, w in zip(part, whole)):
            bad.append(cut)
    return bad


def test_det_and_frac_are_prefix_consistent():
    # property: at every cut of a gen_random instance, both cost profiles,
    # with a starting cache, det's steps and records, frac's increments, the
    # structured increments, the rounded steps at 1-4 drawn seeds and the
    # steps of both bicriteria roundings of their mean, up to the cut are
    # those of the whole run.  The structuring sweep builds row t
    # of x only once it has passed step t, so it reads the index a step
    # behind the sweep
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(2, 10), st.data(), st.integers(0, 2**16))
    def check(n, data, seed):
        k = data.draw(st.integers(1, n - 1))
        inst = gen_random(
            n, k, data.draw(st.integers(1, k)), data.draw(st.integers(2, 24)),
            cost_profile=data.draw(st.sampled_from(["unit", "log-uniform"])), delta=10.0,
            seed=seed,
        )
        cached = data.draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        assert inconsistent_cuts(det_outputs, inst) == []
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=4))
        assert inconsistent_cuts(lambda cut: frac_outputs(cut, seeds), inst) == []

    check()


def test_the_offline_dp_fails_prefix_consistency():
    # negative control: the eviction and fetching DPs plan for requests
    # past the cut
    inst = gen_random(8, 4, 2, 12, seed=1)
    for dp in (opt_eviction, opt_fetching):
        assert inconsistent_cuts(offline_outputs(dp), inst) != [], dp.__name__
