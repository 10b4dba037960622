"""Property tests for the one fast missing-value path: a PhiView grown in
place and the structured stream's dense trajectory both agree with the
reference evaluator ``x_from_phi``; row t of the stream's trajectory sees
only the increments logged up to t.  Instances are drawn with or without a
starting cache, whose pages start at x = 0."""

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blockcache.instance import Instance, RequestIndex, gen_random  # noqa: E402
from blockcache.rounding import structure_stream  # noqa: E402
from blockcache.submodular import CoverageOracle, PhiView  # noqa: E402
from reference import x_from_phi  # noqa: E402

X_TOL = 1e-12  # the two evaluators sum the same values in different orders

PROPERTY = settings(max_examples=200, deadline=None)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    beta = draw(st.integers(1, k))
    T = draw(st.integers(1, 12))
    inst = gen_random(n, k, beta, T, seed=draw(st.integers(0, 2**16)))
    cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
    return dataclasses.replace(inst, initial_cache=frozenset(cached))


@st.composite
def instance_and_adds(draw):
    inst = draw(instances())
    adds = draw(
        st.lists(
            st.tuples(
                st.integers(0, inst.num_blocks - 1),
                st.integers(0, inst.T),
                st.floats(0.0, 1.0),
            ),
            max_size=30,
        )
    )
    return inst, draw(st.booleans()), adds


@st.composite
def instance_and_raw_log(draw):
    inst = draw(instances())
    log = []
    for tau in sorted(draw(st.lists(st.integers(1, inst.T), max_size=30))):
        b = draw(st.integers(0, inst.num_blocks - 1))
        t = draw(st.integers(1, tau))
        log.append((tau, (b, t), draw(st.floats(1e-6, 1.0))))
    return inst, log


@PROPERTY
@given(instance_and_adds())
def test_grown_phi_view_matches_reference(case):
    inst, time_zero, adds = case
    phi = {(b, 0): 1.0 for b in range(inst.num_blocks)} if time_zero else {}
    view = PhiView(phi, inst.num_blocks)
    for b, t, delta in adds:
        view.add((b, t), delta)
        phi[(b, t)] = phi.get((b, t), 0.0) + delta
    oracle = CoverageOracle(inst, RequestIndex(inst))
    for t in range(inst.T + 1):
        for b, blk in enumerate(inst.blocks):
            for p, xv in zip(blk, view.x(oracle, b, t), strict=True):
                want = x_from_phi(phi, oracle, p, t)
                assert abs(xv - want) <= X_TOL


# page 1 is requested at steps 1 and 3; mass 0.6 logged at step 3 for the
# flush at step 2 completes that flush then, inside page 1's window (1, 2]
# of step 2, where it must not show yet
LATE_MASS = (
    Instance(n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2, 1)),
    [(3, (0, 2), 0.6)],
)


@PROPERTY
@given(instance_and_raw_log())
@example(LATE_MASS)
def test_stream_x_matches_reference(case):
    inst, log = case
    stream = structure_stream(log, inst)
    oracle = CoverageOracle(inst, RequestIndex(inst))
    assert len(stream.x) == inst.T + 1
    assert stream.x[0][1:] == [0.0 if p in inst.initial_cache else 1.0
                               for p in range(1, inst.n + 1)]
    for t in range(1, inst.T + 1):
        logged: dict = {}
        for tau, flush, delta in stream.increments:
            if tau <= t:
                logged[flush] = logged.get(flush, 0.0) + delta
        for p in range(1, inst.n + 1):
            want = x_from_phi(logged, oracle, p, t)
            assert abs(stream.x[t][p] - want) <= X_TOL
