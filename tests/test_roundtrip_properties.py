"""Round-trip properties of the saved formats: an instance file loads back as
an equal instance, and an increment log loads back as the same log, replays
to the same phi and is feasible at every step.  On the same instances the
exact DPs, which enumerate only dominant moves, match their exhaustive
references in ``reference``."""

import dataclasses
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blockcache.frac_online import (  # noqa: E402
    FractionalSolution,
    load_increments,
    replay_failures,
    run_fractional,
)
from blockcache.instance import Instance, gen_random  # noqa: E402
from blockcache.oracle import COST_EPS, DP_TIE_EPS, opt_eviction, opt_fetching  # noqa: E402
from reference import opt_eviction_exhaustive, opt_fetching_exhaustive  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None)
SNAP_ULP = 2.0**-52  # one ulp at 1.0


@st.composite
def instances(draw, max_n=8):
    """Small random instances with unit or log-uniform costs, with or
    without a starting cache."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n))
    beta = draw(st.integers(1, k))
    T = draw(st.integers(1, 12))
    profile = draw(st.sampled_from(["unit", "log-uniform"]))
    delta = draw(st.floats(1.0, 1000.0))
    inst = gen_random(n, k, beta, T, profile, delta, seed=draw(st.integers(0, 2**16)))
    cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
    return dataclasses.replace(inst, initial_cache=frozenset(cached))


def _saved_and_loaded(save, load):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "artifact")
        save(path)
        return load(path)


@PROPERTY
@given(instances())
def test_instance_round_trip(inst):
    assert _saved_and_loaded(inst.save, Instance.load) == inst


@PROPERTY
@given(instances())
def test_increment_log_round_trip(inst):
    sol = run_fractional(inst).solution
    loaded = _saved_and_loaded(sol.save_increments, lambda p: load_increments(p, inst))
    assert loaded == sol.increments
    replayed = FractionalSolution(inst)
    for tau, fl, delta in loaded:
        replayed.apply(tau, fl, delta)
    assert replayed.phi.keys() == sol.phi.keys()
    # a flush whose dual constraint went tight is snapped to exactly 1.0
    # after its last increment, which the sum of its deltas may miss by an ulp
    assert all(abs(replayed.phi[fl] - v) <= SNAP_ULP for fl, v in sol.phi.items())
    assert all(replayed.phi[fl] == v for fl, v in sol.phi.items() if v != 1.0)
    assert replay_failures(loaded, inst) == []


@PROPERTY
@given(instances(max_n=6), st.data())
def test_pruned_dp_matches_exhaustive(inst, data):
    h = data.draw(st.integers(1, inst.k))
    for fast, exhaustive, model in [
        (opt_eviction, opt_eviction_exhaustive, "eviction_cost"),
        (opt_fetching, opt_fetching_exhaustive, "fetching_cost"),
    ]:
        cost, trace = fast(inst, h)
        best, _ = exhaustive(inst, h)
        assert cost == pytest.approx(best, rel=DP_TIE_EPS, abs=DP_TIE_EPS)
        trace.validate()
        assert getattr(trace, model) == pytest.approx(cost, abs=COST_EPS)
