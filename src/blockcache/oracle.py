"""Ground truth: brute-force offline optima, fractional cost functionals,
the naive LP checker, and the hand-built gap-instance fractional solution."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb

from .instance import Instance, PolicyTrace, RequestIndex, gen_gap_instance
from .submodular import CoverageOracle, Flush, FlushSet, PhiView, flush_cost

DP_STATE_LIMIT = 10**6
LP_EPS = 1e-9


class OracleIntractableError(ValueError):
    """State space exceeds the exact-DP budget."""


def _subsets(items):
    items = list(items)
    return chain.from_iterable(
        combinations(items, r) for r in range(len(items) + 1)
    )


def _check_dp_budget(instance: Instance, h: int) -> None:
    size = comb(instance.n, min(h, instance.n)) * max(1, instance.T)
    if size > DP_STATE_LIMIT:
        raise OracleIntractableError(
            f"DP state bound {size} exceeds limit {DP_STATE_LIMIT}"
        )


def _trace_from_path(
    instance: Instance, h: int, states: list[frozenset[int]]
) -> PolicyTrace:
    """Rebuild a step trace from the DP's cache-contents path."""
    trace = PolicyTrace(
        instance=instance, capacity_bound=h, initial_cache=states[0]
    )
    for t in range(1, instance.T + 1):
        prev, cur = states[t - 1], states[t]
        evicted = prev - cur
        fetched = sorted(cur - prev)
        flushes = [(b, t) for b in {instance.block_of(p) for p in evicted}]
        trace.record(t, flushes, fetched, cur)
    return trace


def _run_dp(
    instance: Instance, h: int, transitions, free_initial_evictions: bool
) -> tuple[float, PolicyTrace]:
    """Shortest path over cache-contents states.

    ``transitions(prev, t)`` yields (next_state, step_cost).  With
    ``free_initial_evictions`` the start layer contains every subset of the
    initial cache at zero cost (the fetching model, where evictions are
    free); otherwise the cache starts exactly as given and dropping initial
    pages is paid like any other eviction.
    """
    best: dict[frozenset[int], tuple[float, tuple]] = {}
    if free_initial_evictions:
        for sub in _subsets(instance.initial_cache):
            best[frozenset(sub)] = (0.0, None)
    else:
        best[frozenset(instance.initial_cache)] = (0.0, None)
    for t in range(1, instance.T + 1):
        nxt: dict[frozenset[int], tuple[float, tuple]] = {}
        for prev, (cost, _) in best.items():
            for state, step_cost in transitions(prev, t):
                total = cost + step_cost
                cur = nxt.get(state)
                if cur is None or total < cur[0] - 1e-12:
                    nxt[state] = (total, (prev, best[prev]))
        best = nxt
    end_state = min(best, key=lambda s: (best[s][0], sorted(s)))
    cost = best[end_state][0]
    path = [end_state]
    link = best[end_state][1]
    while link is not None:
        path.append(link[0])
        link = link[1][1]
    path.reverse()
    return cost, _trace_from_path(instance, h, path)


def opt_eviction(instance: Instance, h: int | None = None) -> tuple[float, PolicyTrace]:
    """Exact minimum eviction cost over all feasible trajectories.

    Fetches are free, so the next cache may keep any subset of the previous
    contents plus the requested page; each evicted block costs c_B once per
    step.  Evicting initially cached pages is paid like any other eviction.
    """
    h = instance.k if h is None else h
    _check_dp_budget(instance, h)

    def transitions(prev: frozenset[int], t: int):
        p = instance.request(t)
        pool = sorted((prev | {p}) - {p})
        for evicted in _subsets(pool):
            state = (prev | {p}) - set(evicted)
            if len(state) > h:
                continue
            cost = sum(
                instance.costs[b]
                for b in {instance.block_of(q) for q in evicted}
            )
            yield frozenset(state), cost

    return _run_dp(instance, h, transitions, free_initial_evictions=False)


def opt_fetching(instance: Instance, h: int | None = None) -> tuple[float, PolicyTrace]:
    """Exact minimum fetching cost; evictions are free.

    Batched fetches only ever pay off within the requested page's block, so
    transitions fetch a subset of that block; every fetch batch costs the
    block cost once.
    """
    h = instance.k if h is None else h
    _check_dp_budget(instance, h)

    def transitions(prev: frozenset[int], t: int):
        p = instance.request(t)
        block = instance.blocks[instance.block_of(p)]
        extra = sorted(set(block) - prev - {p})
        for kept in _subsets(sorted(prev - {p})):
            for batch in _subsets(extra):
                state = frozenset(kept) | set(batch) | {p}
                if len(state) > h:
                    continue
                fetched_any = p not in prev or batch
                cost = instance.costs[instance.block_of(p)] if fetched_any else 0.0
                yield frozenset(state), cost

    return _run_dp(instance, h, transitions, free_initial_evictions=True)


def opt_eviction_flushsets(instance: Instance) -> float:
    """Eviction optimum by enumerating flush sets; independent of the DP.

    Only canonical flushes (B(p_r), r+1) with r+1 <= T are enumerated, on
    top of the time-0 flushes.  That loses nothing: moving a flush (B, t)
    back to just after the previous request of a page of B keeps its cost
    and makes a superset of pages missing at every tau >= t, and with no
    earlier request of B it is dominated by the time-0 flush.  Exponential
    in T; tiny instances only.  The flush formulation assumes an empty
    starting cache.
    """
    if instance.initial_cache:
        raise ValueError("flush-set enumeration requires an empty initial cache")
    index = RequestIndex(instance)
    oracle = CoverageOracle(instance, index)
    ground = sorted(
        {(instance.block_of(instance.request(r)), r + 1) for r in range(1, instance.T)}
    )
    best = None
    for chosen in _subsets(ground):
        S = FlushSet(instance.num_blocks)
        for b, t in chosen:
            S.add(b, t)
        if all(
            oracle.f_tau(S, tau) == instance.n - instance.k
            for tau in range(1, instance.T + 1)
        ):
            cost = sum(instance.costs[b] for b, _t in chosen)
            if best is None or cost < best:
                best = cost
    assert best is not None  # the all-flushes set is always feasible
    return best


def trace_to_x_mean(traces: list[PolicyTrace], instance: Instance) -> list[list]:
    """Mean missing-value trajectory of an ensemble of integral traces."""
    N = len(traces)
    x: list[list] = []
    for t in range(instance.T + 1):
        row = [None]
        for p in range(1, instance.n + 1):
            present = sum(1 for tr in traces if p in tr.cache_at(t))
            row.append(1.0 - present / N)
        x.append(row)
    return x


def derive_block_rates(x: list[list], instance: Instance, sigma: int) -> list[list]:
    """Minimal per-block flush/fetch extents consistent with a trajectory:
    phi[t][b] is the largest rise (sigma=+1) or drop (sigma=-1) of a member
    page's missing value at step t, and 0 if there is none."""
    phi: list[list] = [None]
    for t in range(1, instance.T + 1):
        phi.append([
            max([sigma * (x[t][p] - x[t - 1][p]) for p in blk] + [0])
            for blk in instance.blocks
        ])
    return phi


def fractional_costs_from_x(x: list[list], instance: Instance) -> tuple:
    """(eviction, fetching) cost of a per-page trajectory: the block rates of
    ``derive_block_rates`` weighted by c_B, for sigma = +1 and -1."""
    return tuple(
        sum(
            instance.costs[b] * rate
            for row in derive_block_rates(x, instance, sigma)[1:]
            for b, rate in enumerate(row)
        )
        for sigma in (+1, -1)
    )


def phi_to_x(phi: dict[Flush, float], instance: Instance) -> list[list]:
    """Missing-value trajectory x[t][p] of a sparse flush solution, t in
    [0,T]; row 0 is the starting cache."""
    oracle = CoverageOracle(instance, RequestIndex(instance))
    view = PhiView(phi, instance.num_blocks)
    pages = range(1, instance.n + 1)
    x = [[None] + [0.0 if p in instance.initial_cache else 1.0 for p in pages]]
    for t in range(1, instance.T + 1):
        x.append([None] + [view.x(oracle, p, t) for p in pages])
    return x


def fractional_costs(phi: dict[Flush, float], instance: Instance) -> tuple[float, float]:
    """(eviction, fetching) cost of a sparse flush solution.

    Eviction is the weighted flush mass after time 0; fetching is derived
    from the induced per-page missing trajectory.
    """
    evict = flush_cost(phi, instance)
    _evict_from_x, fetch = fractional_costs_from_x(phi_to_x(phi, instance), instance)
    assert fetch <= instance.beta * (evict + instance.total_block_cost) + 1e-9
    return evict, fetch


@dataclass
class LPViolation:
    kind: str
    t: int
    who: int  # page or block index depending on kind
    amount: float

    def __str__(self):
        return f"{self.kind} violated at t={self.t} ({self.who}): {self.amount}"


def naive_lp_check(
    x: list[list],
    phi: list[list],
    sigma: int,
    instance: Instance,
    eps: float = LP_EPS,
) -> LPViolation | None:
    """Checks the simple per-page LP; sigma=+1 is the eviction orientation,
    sigma=-1 the fetching orientation.  Returns the first violation."""
    assert sigma in (+1, -1)
    n, T = instance.n, instance.T
    for t in range(T + 1):
        for p in range(1, n + 1):
            v = x[t][p]
            if v < -eps or v > 1 + eps:
                return LPViolation("x-bounds", t, p, float(v))
    for t in range(1, T + 1):
        for b in range(instance.num_blocks):
            v = phi[t][b]
            if v < -eps or v > 1 + eps:
                return LPViolation("phi-bounds", t, b, float(v))
    for t in range(1, T + 1):
        p_t = instance.request(t)
        if abs(x[t][p_t]) > eps:
            return LPViolation("requested-page", t, p_t, float(x[t][p_t]))
        total = sum(x[t][p] for p in range(1, n + 1))
        if total < n - instance.k - eps:
            return LPViolation("capacity", t, 0, float(total))
        for b, blk in enumerate(instance.blocks):
            for p in blk:
                need = sigma * (x[t][p] - x[t - 1][p])
                if phi[t][b] < need - eps:
                    return LPViolation("block-rate", t, b, float(need - phi[t][b]))
    return None


@dataclass
class GapSolution:
    """Hand-built fractional solution for the gap instance.

    Keeps the requested block fully loaded and the other block loaded to
    extent (beta-1)/beta; values are exact rationals.
    """

    instance: Instance
    x: list[list]
    phi_evict: list[list]
    phi_fetch: list[list]

    @property
    def eviction_cost(self) -> Fraction:
        return sum(
            Fraction(self.instance.costs[b]) * self.phi_evict[t][b]
            for t in range(1, self.instance.T + 1)
            for b in range(self.instance.num_blocks)
        )

    @property
    def fetching_cost(self) -> Fraction:
        return sum(
            Fraction(self.instance.costs[b]) * self.phi_fetch[t][b]
            for t in range(1, self.instance.T + 1)
            for b in range(self.instance.num_blocks)
        )


def gap_fractional_solution(beta: int, rounds: int) -> GapSolution:
    instance = gen_gap_instance(beta, max(rounds, 1))
    if rounds == 0:
        instance = Instance(
            n=instance.n,
            k=instance.k,
            blocks=instance.blocks,
            costs=instance.costs,
            requests=(),
        )
    n, T = instance.n, instance.T
    small = Fraction(1, beta)
    x: list[list] = [[None] + [Fraction(1)] * n]
    for t in range(1, T + 1):
        phase = 0 if ((t - 1) % (2 * beta)) < beta else 1
        x.append([None] + [
            Fraction(0) if instance.block_of(p) == phase else small
            for p in range(1, n + 1)
        ])
    return GapSolution(
        instance=instance,
        x=x,
        phi_evict=derive_block_rates(x, instance, +1),
        phi_fetch=derive_block_rates(x, instance, -1),
    )
