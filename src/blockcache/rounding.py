"""Structuring transform, randomized rounding with alterations, bicriteria
threshold rounding, and ensemble derandomization."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .instance import Instance, PolicyTrace, RequestIndex
from .oracle import (
    derive_block_rates,
    fractional_costs_from_x,
    naive_lp_check,
    phi_to_x,
    trace_to_x_mean,
)
from .submodular import CoverageOracle, Flush, PhiView, flush_cost


def gamma_for(instance: Instance) -> float:
    """Rounding intensity ln(4 k^2 beta Delta); natural log, since the
    coverage guarantee burns an e^-gamma term."""
    return math.log(4.0 * instance.k**2 * instance.beta * instance.aspect_ratio)


@dataclass
class StructuredStream:
    """Causal stream of structured increments derived from a raw log.

    ``phi`` is the final structured solution (doubled, bucketed, with full
    flushes emitted whenever a half-rounded page value crosses 1/2); every
    nonzero coordinate is at least 1/(4k^2), ``x`` is its missing-value
    trajectory x[t][p], and ``by_step`` maps each step to its increments
    summed per flush.  ``half_increments`` log the pre-doubling
    half-rounded stage whose page values stay in [0,1/2)+{1}.
    """

    instance: Instance
    increments: list[tuple[int, Flush, float]] = field(default_factory=list)
    half_increments: list[tuple[int, Flush, float]] = field(default_factory=list)
    phi: dict[Flush, float] = field(default_factory=dict)
    x: list[list] = field(default_factory=list)
    by_step: dict[int, dict[Flush, float]] = field(default_factory=dict)
    raw_cost: float = 0.0

    @property
    def cost(self) -> float:
        return flush_cost(self.phi, self.instance)


def structure_stream(raw_increments, instance: Instance) -> StructuredStream:
    """Turn a raw monotone-incremental log into a structured one.

    One causal sweep over the log combines: completion of any flush that
    has accumulated half its mass (emitted integrally at its original
    time), full block flushes whenever a page's half-rounded missing value
    reaches 1/2, per-block bucketing of small mass with threshold 1/(4k^2),
    and a final doubling capped at 1 on emission.
    """
    oracle = CoverageOracle(instance, RequestIndex(instance))
    k = instance.k
    threshold = 1.0 / (4.0 * k * k)

    stream = StructuredStream(instance=instance)
    out: dict[Flush, float] = {(b, 0): 1.0 for b in range(instance.num_blocks)}
    half = PhiView(out, instance.num_blocks)  # copies out
    bucketed: dict[Flush, float] = {}
    bucket = [0.0] * instance.num_blocks

    def add_half(tau: int, flush: Flush, delta: float) -> float:
        eff = min(delta, 1.0 - half.get(flush))
        if eff <= 0.0:
            return 0.0
        half.add(flush, eff)
        stream.half_increments.append((tau, flush, eff))
        return eff

    def emit(tau: int, flush: Flush, value_target: float) -> None:
        cur = out.get(flush, 0.0)
        if value_target > cur:
            out[flush] = value_target
            stream.increments.append((tau, flush, value_target - cur))

    def flush_bucket(b: int, tau: int) -> None:
        if bucket[b] >= threshold:
            flush = (b, tau)
            bucketed[flush] = bucketed.get(flush, 0.0) + bucket[b]
            bucket[b] = 0.0
            value = min(2.0 * bucketed[flush], 1.0)
            if value == 1.0:
                add_half(tau, flush, 1.0)
            emit(tau, flush, value)

    def full_flush(b: int, tau: int) -> None:
        add_half(tau, (b, tau), 1.0)
        emit(tau, (b, tau), 1.0)

    for tau, flush, delta in raw_increments:
        b = flush[0]
        stream.raw_cost += instance.costs[b] * delta if flush[1] >= 1 else 0.0
        eff = add_half(tau, flush, delta)
        if eff > 0.0:
            if half.get(flush) >= 0.5:
                # coordinate half-rounding: once a flush holds half its mass
                # it is completed and emitted integrally, so it stays aligned
                # with the integral part of the doubled output
                add_half(tau, flush, 1.0)
                emit(tau, flush, 1.0)
            else:
                bucket[b] += eff
                flush_bucket(b, tau)
        # crossing check for the touched block's pages
        for p in instance.blocks[b]:
            xv = half.x(oracle, p, tau)
            if 0.5 <= xv < 1.0 - 1e-12:
                full_flush(b, tau)
                break

    stream.phi = out
    stream.x = phi_to_x(out, instance)
    for tau, flush, delta in stream.increments:
        step = stream.by_step.setdefault(tau, {})
        step[flush] = step.get(flush, 0.0) + delta
    return stream


class AlterationError(AssertionError):
    """The alteration loop found no evictable block; signals a broken input."""


def randomized_round(
    stream: StructuredStream, instance: Instance, seed: int
) -> PolicyTrace:
    """Rounds a structured stream into an integral eviction policy.

    Each flush that gained mass delta at a step triggers an independent coin
    with probability min(1, gamma*delta); while the cache overflows, the
    block holding the page with the largest fractional missing value is
    evicted (ties to the lowest block id).
    """
    rng = random.Random(seed)
    gamma = gamma_for(instance)
    trace = PolicyTrace(instance=instance, capacity_bound=instance.k)
    cache: set[int] = set()

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
        fetched = [] if p_tau in cache else [p_tau]
        cache.add(p_tau)
        while len(cache) > instance.k:
            candidates = [p for p in cache if xs[p] > 0.0]
            if not candidates:
                raise AlterationError("no cached page with positive missing value")
            worst = max(candidates, key=lambda p: (xs[p], -instance.block_of(p)))
            evict_block(instance.block_of(worst))
        trace.record(
            tau, [(b, tau) for b in sorted(step_flush_blocks)], fetched, cache
        )
    return trace


def _check_naive_feasible(x, phi, sigma, instance):
    bad = naive_lp_check(x, phi, sigma, instance)
    if bad is not None:
        raise ValueError(f"fractional input infeasible: {bad}")


def _check_initial_row(x, instance):
    # pages outside the starting cache must begin fully missing, otherwise
    # their first fetch cannot be charged against a 1/2 fractional drop
    for p in range(1, instance.n + 1):
        if p not in instance.initial_cache and x[0][p] < 1.0 - 1e-9:
            raise ValueError(f"page {p} starts outside the cache but x[0]={x[0][p]}")


def bicriteria_round_fetch(x: list[list], instance: Instance) -> PolicyTrace:
    """Threshold rounding against fetching cost.

    Evicts any page whose missing value exceeds 1/2 and, on a miss, fetches
    every block-mate with missing value at most 1/2.  Uses at most 2k space
    and at most twice the fractional fetching cost; both are asserted.
    """
    _check_naive_feasible(x, derive_block_rates(x, instance, -1), -1, instance)
    _check_initial_row(x, instance)
    initial = frozenset(p for p in instance.initial_cache if x[0][p] <= 0.5)
    trace = PolicyTrace(
        instance=instance, capacity_bound=2 * instance.k, initial_cache=initial
    )
    cache = set(initial)
    for t in range(1, instance.T + 1):
        evicted = {p for p in cache if x[t][p] > 0.5}
        cache -= evicted
        flushes = [(b, t) for b in {instance.block_of(p) for p in evicted}]
        p_t = instance.request(t)
        fetched: list[int] = []
        if p_t not in cache:
            blk = instance.blocks[instance.block_of(p_t)]
            fetched = [p for p in blk if x[t][p] <= 0.5 and p not in cache]
            cache.update(fetched)
        assert p_t in cache
        assert len(cache) <= 2 * instance.k
        trace.record(t, flushes, fetched, cache)
    _evict, frac_fetch = fractional_costs_from_x(x, instance)
    assert trace.fetching_cost <= 2.0 * frac_fetch + 1e-9
    return trace


def bicriteria_round_evict(x: list[list], instance: Instance) -> PolicyTrace:
    """Mirror of the fetch rounding for the eviction cost model.

    Fetches the requested page on a miss; whenever a cached page's missing
    value exceeds 1/2 its whole block's high-value pages are evicted in one
    batch.  Space stays at most 2k.
    """
    _check_naive_feasible(x, derive_block_rates(x, instance, +1), +1, instance)
    initial = frozenset(p for p in instance.initial_cache if x[0][p] <= 0.5)
    trace = PolicyTrace(
        instance=instance, capacity_bound=2 * instance.k, initial_cache=initial
    )
    cache = set(initial)
    for t in range(1, instance.T + 1):
        evicted = {p for p in cache if x[t][p] > 0.5}
        cache -= evicted
        flushes = [(b, t) for b in {instance.block_of(p) for p in evicted}]
        p_t = instance.request(t)
        fetched = [] if p_t in cache else [p_t]
        cache.add(p_t)
        assert len(cache) <= 2 * instance.k
        trace.record(t, flushes, fetched, cache)
    return trace


def derandomize_ensemble(
    traces: list[PolicyTrace], instance: Instance
) -> PolicyTrace:
    """Averages ensemble cache indicators into a fractional trajectory and
    threshold-rounds it; cost at most twice the ensemble mean fetching cost."""
    if not traces:
        raise ValueError("empty ensemble")
    out = bicriteria_round_fetch(trace_to_x_mean(traces, instance), instance)
    mean_fetch = sum(tr.fetching_cost for tr in traces) / len(traces)
    assert out.fetching_cost <= 2.0 * mean_fetch + 1e-6
    return out
