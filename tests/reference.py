"""Independent references for the tests: slow enumerations, a numerical
integrator and an exact-rational LP point that the fast code paths of
``blockcache`` are checked against.  Tiny inputs only."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from blockcache.det_online import DualLedger, DualRecord, first_tight
from blockcache.frac_online import TARGET_EPS, EventOutcome, phi_closed_form
from blockcache.instance import Instance, PolicyTrace, RequestIndex, gen_gap_instance
from blockcache.oracle import COST_EPS, derive_block_rates, fractional_costs_from_x
from blockcache.rounding import FULL_EPS, StructuredStream
from blockcache.submodular import FEAS_EPS, CoverageOracle, Flush, flush_cost

# latest flush time of a block without one: below every last request, the
# never-requested -1 included, so it makes no page missing
NO_FLUSH = -2


def latest_at(flushes, num_blocks: int, tau: int) -> list[int]:
    """Each block's latest flush time <= tau in a plain set of flushes, the
    list the coverage queries take; NO_FLUSH where a block has none."""
    latest = [NO_FLUSH] * num_blocks
    for b, t in flushes:
        if latest[b] < t <= tau:
            latest[b] = t
    return latest


def as_flushes(latest: list[int]) -> set[Flush]:
    """The plain flush set with one flush per block at its entry of
    ``latest``: the same missing pages at tau as any set with that list."""
    return {(b, t) for b, t in enumerate(latest) if t != NO_FLUSH}


def _subsets(items):
    """Every subset of ``items``, as tuples, smallest first."""
    items = list(items)
    return chain.from_iterable(
        combinations(items, r) for r in range(len(items) + 1)
    )


def _shortest_path(
    instance: Instance, h: int, transitions
) -> tuple[float, PolicyTrace]:
    """Cheapest path over frozenset cache states from the starting cache;
    ``transitions(prev, t)`` yields (next_state, step_cost).  It keeps each
    state's whole path, a state encoding independent of ``_run_dp``'s."""
    start = frozenset(instance.initial_cache)
    best = {start: (0.0, (start,))}
    for t in range(1, instance.T + 1):
        nxt: dict[frozenset[int], tuple[float, tuple]] = {}
        for prev, (cost, path) in best.items():
            for state, step_cost in transitions(prev, t):
                if state not in nxt or cost + step_cost < nxt[state][0]:
                    nxt[state] = (cost + step_cost, (*path, state))
        best = nxt
    cost, path = min(best.values(), key=lambda entry: entry[0])
    trace = PolicyTrace(instance=instance, capacity_bound=h)
    for prev, cur in zip(path, path[1:]):
        trace.record({instance.block_of(p) for p in prev - cur}, cur)
    return cost, trace


def opt_eviction_exhaustive(
    instance: Instance, h: int | None = None
) -> tuple[float, PolicyTrace]:
    """``opt_eviction``'s optimum with every subset of the cache as a
    candidate eviction, not only whole blocks; no budget check."""
    h = instance.k if h is None else h

    def transitions(prev: frozenset[int], t: int):
        p = instance.request(t)
        for evicted in _subsets(sorted(prev - {p})):
            state = (prev | {p}) - set(evicted)
            if len(state) > h:
                continue
            cost = sum(
                instance.costs[b]
                for b in {instance.block_of(q) for q in evicted}
            )
            yield frozenset(state), cost

    return _shortest_path(instance, h, transitions)


def opt_fetching_exhaustive(
    instance: Instance, h: int | None = None
) -> tuple[float, PolicyTrace]:
    """``opt_fetching``'s optimum with every subset of the cache as a
    candidate kept set, not only maximal ones; no budget check."""
    h = instance.k if h is None else h

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

    return _shortest_path(instance, h, transitions)


def dp_move_bound_reference(instance: Instance, h: int, moves_per_state: int) -> int:
    """The exact DPs' former a-priori budget, a reference only: after step 0
    a state is a cache of at most h pages, so each of the T steps keeps at
    most sum_{i<=h} C(n, i) states, each expanded into at most
    ``moves_per_state`` moves."""
    states = sum(math.comb(instance.n, i) for i in range(min(h, instance.n) + 1))
    return states * max(1, instance.T) * moves_per_state


def fetching_moves_per_state_reference(beta: int, h: int, m: int | None = None) -> int:
    """The fetching DP's moves for a state of m >= h pages (by default h)
    as a sum over the batch size j: at most C(beta - 1, j) batches, each
    with C(m, h - 1 - j) kept sets."""
    m = h if m is None else m
    return sum(math.comb(beta - 1, j) * math.comb(m, h - 1 - j) for j in range(min(beta, h)))


def raise_dual_keeping_zeros(
    ledger: DualLedger, tau: int, coefficient: int, dy: float, rates: dict[Flush, int]
) -> None:
    """``DualLedger.raise_dual`` without leaving out zero raises: every raise
    is recorded and every candidate gets a mass entry, 0.0 after a raise by
    0.  It raises the same positive dual."""
    ledger.records.append(DualRecord(tau=tau, coefficient=coefficient, y=dy))
    for flush, rate in rates.items():
        ledger.mass[flush] = ledger.mass.get(flush, 0.0) + rate * dy


def opt_eviction_flushsets(instance: Instance) -> float:
    """Eviction optimum by enumerating flush sets; independent of the DP.

    Only canonical flushes (B(p_r), r+1) with r+1 <= T are enumerated, on
    top of the time-0 flushes; a page of the starting cache counts as
    requested at r = 0, so its block adds (B, 1).  That loses nothing:
    moving a flush (B, t) back to just after the previous request of a page
    of B keeps its cost and makes a superset of pages missing at every tau
    >= t, and with no earlier request of B it is dominated by the time-0
    flush.
    """
    oracle = CoverageOracle(instance, RequestIndex(instance))
    ground = sorted(
        {(instance.block_of(instance.request(r)), r + 1) for r in range(1, instance.T)}
        | {(instance.block_of(p), 1) for p in instance.initial_cache}
    )
    best = None
    zero = [(b, 0) for b in range(instance.num_blocks)]
    for chosen in _subsets(ground):
        if all(
            oracle.f_tau(latest_at([*zero, *chosen], instance.num_blocks, tau), tau)
            == instance.n - instance.k
            for tau in range(1, instance.T + 1)
        ):
            cost = sum(instance.costs[b] for b, _t in chosen)
            if best is None or cost < best:
                best = cost
    assert best is not None  # the all-flushes set is always feasible
    return best


def constraint_slack(
    phi: dict[Flush, float], S: set[Flush], oracle: CoverageOracle, tau: int
) -> float:
    """LHS minus RHS of the covering constraint indexed by (S, tau), from
    the pages ``is_missing`` finds under S and under S plus each flush of
    phi outside S, not through the coverage oracle.

    Negative slack means the constraint is violated.  Coefficients are exact
    integers; only phi carries float error.
    """
    inst = oracle.instance
    before = {p for p in range(1, inst.n + 1) if is_missing(oracle, S, p, tau)}
    target = max(0, inst.n - inst.k - len(before))
    lhs = 0.0
    for flush, value in phi.items():
        if value > 0.0 and flush not in S:
            grown = S | {flush}
            new = sum(
                1 for p in inst.blocks[flush[0]]
                if p not in before and is_missing(oracle, grown, p, tau)
            )
            if min(new, target):
                lhs += min(new, target) * value
    return lhs - target


def least_slack(
    phi: dict[Flush, float], oracle: CoverageOracle, tau: int, ground, base=()
) -> tuple[float, set[Flush]]:
    """The least slack at tau, and a set reaching it, over the constraint
    sets ``base`` plus every subset of ``ground``."""
    best = None
    for combo in _subsets(ground):
        S = {*base, *combo}
        slack = constraint_slack(phi, S, oracle, tau)
        if best is None or slack < best[0]:
            best = (slack, S)
    return best


def check_feasible_exhaustive(
    phi: dict[Flush, float], oracle: CoverageOracle, tau: int
) -> tuple[bool, set[Flush] | None]:
    """``check_feasible`` by enumerating every constraint set (S, tau)."""
    inst = oracle.instance
    ground = [(b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)]
    slack, S = least_slack(phi, oracle, tau, ground)
    return (True, None) if slack >= -FEAS_EPS else (False, S)


def has_flush_in(S: set[Flush], block: int, lo: int, hi: int) -> bool:
    """True iff some flush time t of the block in S satisfies lo < t <= hi."""
    return any(b == block and lo < t <= hi for b, t in S)


def is_missing(oracle: CoverageOracle, S: set[Flush], p: int, tau: int) -> bool:
    """Page p is missing at tau under S: a flush of its block in S falls in
    (r(p,tau), tau], with r = -1 for a page not yet requested."""
    r = oracle.index.last_request(p, tau)
    lo = r if r is not None else -1
    return has_flush_in(S, oracle.instance.block_of(p), lo, tau)


def x_from_phi(
    phi: dict[Flush, float],
    oracle: CoverageOracle,
    p: int,
    t: int,
) -> float:
    """Fractional amount by which page p is missing at time t.

    Never-requested pages are fully missing; otherwise the flush mass of the
    page's block over (r(p,t), t] is summed and capped at 1.
    """
    r = oracle.index.last_request(p, t)
    if r is None:
        return 1.0
    block = oracle.instance.block_of(p)
    total = 0.0
    for (b, u), value in phi.items():
        if b == block and r < u <= t:
            total += value
    return min(1.0, total)


def fractional_costs(phi: dict[Flush, float], instance: Instance) -> tuple[float, float]:
    """(eviction, fetching) cost of a sparse flush solution.

    Eviction is the weighted flush mass after time 0; fetching is derived
    from the induced missing trajectory ``x_from_phi``, whose row 0 is the
    starting cache: its pages count as requested at time 0.
    """
    oracle = CoverageOracle(instance, RequestIndex(instance))
    pages = range(1, instance.n + 1)
    x = [[None] + [x_from_phi(phi, oracle, p, t) for p in pages] for t in range(instance.T + 1)]
    evict = flush_cost(phi, instance)
    _evict_from_x, fetch = fractional_costs_from_x(x, instance)
    assert fetch <= instance.beta * (evict + instance.total_block_cost) + COST_EPS
    return evict, fetch


def integrate_rate_law(
    A: float, c_B: float, k: int, beta: int, step: float = 1e-6
) -> float:
    """Midpoint-rule integration of the growth dynamics, an independent
    cross-check of ``phi_closed_form``."""
    kb = k * beta
    eta = math.log(kb + 1.0) / c_B
    n_steps = max(1, int(math.ceil(A / step)))
    h = A / n_steps
    phi = 0.0
    for _ in range(n_steps):
        mid = phi + 0.5 * h * eta * (phi + 1.0 / kb)
        phi += h * eta * (mid + 1.0 / kb)
    return phi


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


def most_violated_constraint_reference(
    phi: dict[Flush, float], oracle: CoverageOracle, tau: int
) -> tuple[float, list[int]]:
    """``most_violated_constraint`` as it was before its coverage index,
    state window and flat arrays, kept verbatim as the bit-identity
    reference, except that its set of the time-0 flushes, the chosen
    thresholds and every integral flush is returned as ``latest_at`` it.

    Exact separation over every constraint set containing the integral
    flushes, in polynomial time.

    The pages a block's flushes can make missing at tau form a chain in the
    flush time, so any constraint set is equivalent (same slack) to one with
    a single threshold flush per block.  Thresholds across blocks couple
    only through the capped residual n - k - |covered|, so for each residual
    value the best thresholds are found by a small knapsack-style sweep over
    blocks.

    A flush's capped count min(cnt, residual) stops changing once the
    residual reaches the largest count, so every residual from there on
    reads its answer off one shared sweep: the states at coverage g do not
    depend on where the sweep is cut.
    """
    inst = oracle.instance
    cap = inst.n - inst.k
    num_blocks = inst.num_blocks

    # one pass over phi: per block, the forced minimum threshold (largest
    # integral flush time <= tau) and the fractional flushes up to tau
    t_min = [0] * num_blocks
    frac_of: list[list[tuple[int, float]]] = [[] for _ in range(num_blocks)]
    for (b, t), v in phi.items():
        if t <= tau:
            if v >= 1.0:
                t_min[b] = max(t_min[b], t)
            elif v > 0.0:
                frac_of[b].append((t, v))

    # per block: its candidate thresholds, each with its coverage and
    # hs[r - 1] = h(T, r) = sum over fractional flushes of min(count, r) *
    # mass, where a flush's count is the uncapped number of pages it newly
    # makes missing; hs stops at the threshold's largest count, above which
    # h is constant, and no residual from `saturated` on caps any count
    blocks_data = []
    saturated = 1
    for b in range(num_blocks):
        rs = oracle.index.block_last_requests(b, tau)
        lo = t_min[b]
        frac = [(t, v) for t, v in frac_of[b] if t > lo]
        thresholds = sorted({lo} | {r + 1 for r in rs if lo < r + 1 <= tau})
        per_thr = []
        for T in thresholds:
            cover = bisect_left(rs, T)
            counts = [(max(0, bisect_left(rs, t) - cover), v) for t, v in frac]
            top_count = max([1] + [cnt for cnt, _v in counts])
            hs = [
                sum(min(cnt, r) * v for cnt, v in counts)
                for r in range(1, top_count + 1)
            ]
            saturated = max(saturated, top_count)
            per_thr.append((T, cover, hs))
        blocks_data.append((b, per_thr))

    def sweep(residual: int, top: int):
        """dp[g] = (min sum of capped contributions, chosen (block, threshold)
        pairs as a linked list) over the blocks, for coverage g <= top."""
        dp: list = [None] * (top + 1)
        dp[0] = (0.0, None)
        for b, per_thr in blocks_data:
            options = [
                (T, cover, hs[min(residual, len(hs)) - 1]) for T, cover, hs in per_thr
            ]
            nxt: list = [None] * (top + 1)
            for g, state in enumerate(dp):
                if state is None:
                    continue
                base, chain = state
                for T, cover, h in options:
                    g2 = g + cover
                    if g2 > top:
                        break  # covers grow with the threshold
                    cur = nxt[g2]
                    val = base + h
                    if cur is None or val < cur[0]:
                        nxt[g2] = (val, ((b, T), chain))
            dp = nxt
        return dp

    shared = None
    best: tuple[float, object] | None = None
    for residual in range(1, cap + 1):
        top = cap - residual
        if residual < saturated:
            dp = sweep(residual, top)
        else:
            if shared is None:
                shared = sweep(residual, top)
            dp = shared
        state = dp[top]
        if state is not None:
            slack = state[0] - residual
            if best is None or slack < best[0]:
                best = (slack, state[1])

    # best is None when the integral flushes alone make n - k pages
    # missing: every marginal is then 0, and so is their set's slack
    slack, chain = (0.0, None) if best is None else best
    S = {(b, 0) for b in range(num_blocks)}
    while chain is not None:
        (b, T), chain = chain
        if T >= 1:
            S.add((b, T))
    for (b, t), v in phi.items():
        if v >= 1.0:
            S.add((b, t))
    return slack, latest_at(S, num_blocks, tau)


BISECT_REL = 1e-12  # bisection bracket width relative to the root: near double precision


def solve_event_reference(
    candidates: list[tuple[Flush, int, float, float]],
    target: float,
    k: int,
    beta: int,
) -> EventOutcome:
    """``solve_event`` as it was before its Newton iteration, kept verbatim
    as the reference for the root it returns.

    Next event while raising the current dual variable.

    Candidates are (flush, marginal, accumulated mass, cost) with marginal
    >= 1.  Either the candidates' combined contribution reaches ``target``
    (root found by bisection; the contribution is strictly increasing), or
    some candidate's dual constraint becomes tight first.
    """
    dy_tight, tight_flush = first_tight(candidates)

    def g(y: float) -> float:
        return sum(
            f * phi_closed_form(A + f * y, c, k, beta)
            for _fl, f, A, c in candidates
        )

    if g(dy_tight) <= target + TARGET_EPS:
        return EventOutcome(delta_y=dy_tight, kind="flush-tightened", flush=tight_flush)
    lo, hi = 0.0, dy_tight
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= BISECT_REL * max(1.0, hi):
            break
    return EventOutcome(delta_y=hi, kind="primal-satisfied", flush=None)


def structure_stream_reference(raw_increments, instance: Instance) -> StructuredStream:
    """``structure_stream`` as it was before it skipped reads, kept verbatim
    as the bit-identity reference: it reads every block for every row of
    x, and the touched block after every raw increment.

    Turn a raw monotone-incremental log into a structured one.

    One causal sweep over the log combines: completion of any flush that
    has accumulated half its mass (emitted integrally at its original
    time), full block flushes whenever a page's half-rounded missing value
    reaches 1/2, per-block bucketing of small mass with threshold 1/(4k^2),
    and a final doubling capped at 1 on emission.
    """
    index = RequestIndex(instance)
    k = instance.k
    threshold = 1.0 / (4.0 * k * k)

    stream = StructuredStream(instance)
    half = stream.half.phi
    bucket = [0.0] * instance.num_blocks

    def add_rows(upto: int) -> None:
        # row t sees only the increments emitted up to t: mass a later step
        # adds to an earlier flush is not yet there
        for t in range(len(stream.x), upto + 1):
            row = [None] * (instance.n + 1)
            for b, blk in enumerate(instance.blocks):
                for p, xv in zip(blk, stream.phi.x(index, b, t)):
                    row[p] = xv
            stream.x.append(row)

    def add_half(tau: int, flush: Flush, delta: float) -> float:
        eff = min(delta, 1.0 - half.get(flush, 0.0))
        if eff <= 0.0:
            return 0.0
        stream.half.apply(tau, flush, eff)
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
        # crossing check for the touched block's pages
        if any(0.5 <= xv < 1.0 - FULL_EPS for xv in half.x(index, b, tau)):
            complete(tau, (b, tau))
    add_rows(instance.T)
    return stream
