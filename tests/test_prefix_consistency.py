"""Prefix consistency: an online policy decides step t from requests 1..t
alone, so its run on the instance cut to the first T' requests is its run
on the whole instance up to T'.  For det that is every trace step and every
dual record with tau <= T'; for frac, every increment with tau <= T'.  A
policy that reads a request past the current step changes some output at
some cut, so the check is exact: the offline eviction DP, which reads the
whole stream, fails it."""

import dataclasses

import pytest

from blockcache.det_online import run_deterministic
from blockcache.frac_online import run_fractional
from blockcache.instance import gen_random
from blockcache.oracle import opt_eviction


def det_outputs(inst):
    res = run_deterministic(inst)
    return [(s.t, s) for s in res.trace.steps], [(r.tau, r) for r in res.ledger.records]


def frac_outputs(inst):
    return ([(inc.tau, inc) for inc in run_fractional(inst).solution.increments],)


def opt_outputs(inst):
    return ([(s.t, s) for s in opt_eviction(inst)[1].steps],)


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
    # with a starting cache, det's steps and records and frac's increments
    # up to the cut are those of the whole run
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
        assert inconsistent_cuts(frac_outputs, inst) == []

    check()


def test_the_offline_dp_fails_prefix_consistency():
    # negative control: the eviction DP plans for requests past the cut
    assert inconsistent_cuts(opt_outputs, gen_random(8, 4, 2, 12, seed=1)) != []
