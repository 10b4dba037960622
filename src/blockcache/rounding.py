"""Structuring transform, randomized rounding with alterations, bicriteria
threshold rounding, and ensemble derandomization."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .frac_online import FractionalSolution
from .instance import Instance, PolicyTrace, RequestIndex
from .oracle import (
    COST_EPS,
    LP_EPS,
    derive_block_rates,
    fractional_costs_from_x,
    naive_lp_check,
    trace_to_x_mean,
)
from .submodular import Flush

FULL_EPS = 1e-12  # a capped window sum this close to 1 is fully missing, not crossing 1/2
# a block's bound on its open values and a page's window sum add the same
# increments in different orders, so the sum may exceed the bound by rounding
CROSSING_SLACK = 1e-9


def gamma_for(instance: Instance) -> float:
    """Rounding intensity ln(4 k^2 beta Delta); natural log, since the
    coverage guarantee burns an e^-gamma term."""
    return math.log(4.0 * instance.k**2 * instance.beta * instance.aspect_ratio)


@dataclass
class StructuredStream(FractionalSolution):
    """Causal stream of structured increments derived from a raw log.

    ``phi`` is the final structured solution (doubled, bucketed, with full
    flushes emitted whenever a half-rounded page value crosses 1/2); like a
    raw solution's it lists only flushes after time 0, and every nonzero
    coordinate is at least 1/(4k^2).  It is the ``PhiView`` that ``x`` is
    read from: ``x[t][p]`` is the missing-value trajectory of the
    increments logged up to step t, and ``by_step`` maps each step to its
    increments summed per flush; the one sweep that emits the increments
    builds all three.
    ``half`` is the pre-doubling half-rounded stage, whose page values stay
    in [0,1/2)+{1}; the tests check that invariant on its increments.
    """

    x: list[list] = field(default_factory=list)
    by_step: dict[int, dict[Flush, float]] = field(default_factory=dict)
    half: FractionalSolution = field(init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.half = FractionalSolution(self.instance)


def structure_stream(raw_increments, instance: Instance) -> StructuredStream:
    """Turn a raw monotone-incremental log into a structured one.

    One causal sweep over the log combines: completion of any flush that
    has accumulated half its mass (emitted integrally at its original
    time), full block flushes whenever a page's half-rounded missing value
    reaches 1/2, per-block bucketing of small mass with threshold 1/(4k^2),
    and a final doubling capped at 1 on emission.

    The sweep reads a block's values only where they can have changed, from
    one request index at steps that never fall, so the index's cursor takes
    in each request once.

    *Crossing checks.*  Each block keeps ``open_bound``, an upper bound on
    its half-rounded values that are still below 1 - FULL_EPS.  Every
    half-rounded increment ``eff`` raises its block's bound by ``eff``, and
    the check after a raw increment reads the block only when the bound is
    at least 1/2 - CROSSING_SLACK.  A read sets the bound to the largest
    value below 1 - FULL_EPS, or 0.0 if there is none.  The bound holds at
    every later step tau: take a page of the block at the last read, at
    tau' <= tau.  If it was requested since, its last request r is after
    tau', and its window (r, tau] holds only flush times after tau', whose
    mass all came after the read.  A request only lowers a value, to 0.
    If it was not requested since and its value was at least 1 - FULL_EPS
    (1.0 when never requested), its window only gained times on the right,
    so its value stays there and it cannot cross.  Otherwise its window
    lost nothing: it gained the flush times in (tau', tau], whose mass, and
    any mass added since to the times it had, all came after the read.  A
    window holds each flush once, so the page gained at most the sum of
    the ``eff`` since the read, and its value is at most the bound.
    CROSSING_SLACK covers the one gap between the two: the page's sum and
    the bound add the same increments in different orders.

    *Row reuse.*  Row t of ``x`` is built once the sweep has passed step t,
    so it sees the emissions of steps up to t; row t - 1 saw those up to
    t - 1.  A block with no emission at step t (``by_step[t]``) has the
    same flush values, and no mass at time t, so its window sums at t are
    those at t - 1 unless one of its pages is requested at t.  Row t is row
    t - 1 with those two kinds of blocks read again; row 0 is read whole.
    """
    index = RequestIndex(instance)
    k = instance.k
    threshold = 1.0 / (4.0 * k * k)

    stream = StructuredStream(instance)
    half = stream.half.phi
    bucket = [0.0] * instance.num_blocks
    open_bound = [0.0] * instance.num_blocks

    def add_rows(upto: int) -> None:
        # row t sees only the increments emitted up to t: mass a later step
        # adds to an earlier flush is not yet there
        for t in range(len(stream.x), upto + 1):
            if t == 0:
                row = [None] * (instance.n + 1)
                changed = range(instance.num_blocks)
            else:
                row = stream.x[t - 1].copy()
                changed = {instance.block_of(instance.request(t))}
                changed.update(b for b, _s in stream.by_step.get(t, ()))
            for b in changed:
                for p, xv in zip(instance.blocks[b], stream.phi.x(index, b, t)):
                    row[p] = xv
            stream.x.append(row)

    def add_half(tau: int, flush: Flush, delta: float) -> float:
        eff = min(delta, 1.0 - half.get(flush, 0.0))
        if eff <= 0.0:
            return 0.0
        stream.half.apply(tau, flush, eff)
        open_bound[flush[0]] += eff
        return eff

    def emit(tau: int, flush: Flush, value_target: float) -> None:
        delta = value_target - stream.phi.get(flush, 0.0)
        if delta > 0.0:
            stream.apply(tau, flush, delta)
            step = stream.by_step.setdefault(tau, {})
            step[flush] = step.get(flush, 0.0) + delta

    def complete(tau: int, flush: Flush) -> None:
        add_half(tau, flush, 1.0)
        emit(tau, flush, 1.0)

    for tau, flush, delta in raw_increments:
        add_rows(tau - 1)
        b = flush[0]
        eff = add_half(tau, flush, delta)
        if eff > 0.0:
            if half.get(flush, 0.0) >= 0.5:
                # coordinate half-rounding: once a flush holds half its mass
                # it is completed and emitted integrally, so it stays aligned
                # with the integral part of the doubled output
                complete(tau, flush)
            else:
                bucket[b] += eff
                if bucket[b] >= threshold:
                    # the flush holds twice its bucketed mass: doubling is exact
                    value = min(stream.phi.get((b, tau), 0.0) + 2.0 * bucket[b], 1.0)
                    bucket[b] = 0.0
                    if value == 1.0:
                        complete(tau, (b, tau))
                    else:
                        emit(tau, (b, tau), value)
        # crossing check for the touched block's pages, when one can cross
        if open_bound[b] >= 0.5 - CROSSING_SLACK:
            open_bound[b] = max(
                (xv for xv in half.x(index, b, tau) if xv < 1.0 - FULL_EPS), default=0.0
            )
            if open_bound[b] >= 0.5:
                complete(tau, (b, tau))
    add_rows(instance.T)
    return stream


class AlterationError(AssertionError):
    """The alteration loop found no evictable block; signals a broken input."""


def randomized_round(stream: StructuredStream, seed: int) -> PolicyTrace:
    """Rounds a structured stream into an integral eviction policy.

    Each flush that gained mass delta at a step triggers an independent coin
    with probability min(1, gamma*delta); while the cache overflows, the
    block holding the page with the largest fractional missing value is
    evicted (ties to the lowest block id).
    """
    instance = stream.instance
    rng = random.Random(seed)
    gamma = gamma_for(instance)
    trace = PolicyTrace(instance=instance, capacity_bound=instance.k)
    cache = set(instance.initial_cache)

    for tau in range(1, instance.T + 1):
        xs = stream.x[tau]
        step_flush_blocks: set[int] = set()

        def evict_block(b: int) -> None:
            victims = {p for p in instance.blocks[b] if xs[p] > 0.0}
            step_flush_blocks.add(b)
            cache.difference_update(victims)

        for flush, delta in stream.by_step.get(tau, {}).items():
            if rng.random() < min(1.0, gamma * delta):
                evict_block(flush[0])
        p_tau = instance.request(tau)
        cache.add(p_tau)
        while len(cache) > instance.k:
            candidates = [p for p in cache if xs[p] > 0.0]
            if not candidates:
                raise AlterationError("no cached page with positive missing value")
            worst = max(candidates, key=lambda p: (xs[p], -instance.block_of(p)))
            evict_block(instance.block_of(worst))
        trace.record(step_flush_blocks, cache)
    return trace


def _check_initial_row(x, instance):
    # pages outside the starting cache must begin fully missing, otherwise
    # their first fetch cannot be charged against a 1/2 fractional drop
    for p in range(1, instance.n + 1):
        if p not in instance.initial_cache and x[0][p] < 1.0 - LP_EPS:
            raise ValueError(f"page {p} starts outside the cache but x[0]={x[0][p]}")


def _threshold_round(x: list[list], instance: Instance, sigma: int) -> PolicyTrace:
    """Threshold rounding at 1/2 of an x feasible for the naive LP in
    orientation sigma (-1 fetching, +1 eviction).  Evicts every cached page
    with x > 1/2, one flush per block; a miss loads the block's pages with
    x <= 1/2 when fetching, the requested page alone when evicting.  Cached
    pages have x <= 1/2 and x sums to at least n - k, so at most 2k are."""
    bad = naive_lp_check(x, derive_block_rates(x, instance, sigma), sigma, instance)
    if bad is not None:
        raise ValueError(f"fractional input infeasible: {bad}")
    trace = PolicyTrace(instance=instance, capacity_bound=2 * instance.k)
    cache = set(instance.initial_cache)
    for t in range(1, instance.T + 1):
        evicted = {p for p in cache if x[t][p] > 0.5}
        cache -= evicted
        p_t = instance.request(t)
        if p_t not in cache:
            if sigma < 0:
                blk = instance.blocks[instance.block_of(p_t)]
                cache.update(p for p in blk if x[t][p] <= 0.5)
            else:
                cache.add(p_t)
        assert p_t in cache
        assert len(cache) <= trace.capacity_bound
        trace.record({instance.block_of(p) for p in evicted}, cache)
    return trace


def bicriteria_round_fetch(x: list[list], instance: Instance) -> PolicyTrace:
    """Threshold rounding against fetching cost: at most 2k space and twice
    the fractional fetching cost, both asserted."""
    _check_initial_row(x, instance)
    trace = _threshold_round(x, instance, -1)
    _evict, frac_fetch = fractional_costs_from_x(x, instance)
    assert trace.fetching_cost <= 2.0 * frac_fetch + COST_EPS
    return trace


def bicriteria_round_evict(x: list[list], instance: Instance) -> PolicyTrace:
    """Threshold rounding against eviction cost, in at most 2k space."""
    return _threshold_round(x, instance, +1)


def derandomize_ensemble(traces: list[PolicyTrace]) -> PolicyTrace:
    """Averages ensemble cache indicators into a fractional trajectory x and
    threshold-rounds it.  The rounded trace costs at most twice the
    ensemble's mean fetching cost: ``bicriteria_round_fetch`` asserts that
    it costs at most 2 F(x) + COST_EPS, where F(x) is x's fetching cost, and
    F(x) is at most the mean.

    Proof: F(x) sums, over steps t and blocks B, c_B times the largest drop
    x[t-1][p] - x[t][p] over the pages p of B.  x[t][p] is the share of the
    N traces without p after step t, so p's drop at t is at most the share
    of traces that hold p after t but not after t - 1.  ``record`` lists
    every page that enters a cache as fetched, so each of those traces
    fetched a page of B at t and pays c_B for it.  Summed over t and B,
    that is at most the mean fetching cost, up to float error in the sums.
    """
    if not traces:
        raise ValueError("empty ensemble")
    return bicriteria_round_fetch(trace_to_x_mean(traces), traces[0].instance)
