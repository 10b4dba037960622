"""Ground truth: the exact offline optima, fractional cost functionals and
the naive LP checker."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .instance import Instance, PolicyTrace

# moves the exact DPs may enumerate: a state is the int bitmask of its pages,
# each step's moves are built one block (or one batch page) at a time, and a
# move takes about 1 us of pure Python on a 2-core VM, so an oracle call in
# budget finishes in about 10 s at most
DP_MOVE_LIMIT = 10**7
LP_EPS = 1e-9  # x and rates are float means and differences: this close meets a bound
COST_EPS = 1e-9  # bounds between two float sums of c_B-weighted rates hold up to this
DP_TIE_EPS = 1e-12  # a DP path replaces another only when cheaper beyond float error


class OracleIntractableError(ValueError):
    """The DP's projected moves exceed the exact-DP budget."""


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def _pages(mask: int) -> list[int]:
    """The pages of a state, ascending: bit p of the mask is page p."""
    return [bit.bit_length() - 1 for bit in _bits(mask)]


def _mask(pages) -> int:
    """The state holding ``pages``."""
    return sum(1 << p for p in pages)


def _run_dp(
    instance: Instance, h: int, transitions, moves_for
) -> tuple[float, PolicyTrace]:
    """Shortest path over cache-contents states, starting from
    ``instance.initial_cache``.  A state is the int bitmask of its pages
    (bit p is page p).  Each step expands its states in ascending mask
    order, and a move replaces a state's path only when it is cheaper by
    more than ``DP_TIE_EPS``: among equally cheap paths into a state the
    one through the smallest previous mask wins, whatever order
    ``transitions`` lists its moves in.  Among equally cheap end states the
    one with the smaller sorted page list wins.

    ``transitions(prev, t)`` returns at most ``moves_for(max(h, m))``
    (next_state, step_cost) pairs for a state ``prev`` of m pages.  Every
    state after the start holds at most h pages, so step 1 is charged
    ``moves_for(max(h, |initial_cache|))`` and every later step
    ``moves_for(h)`` per held state.  Before step t it refuses when the
    moves charged for steps 1..t plus ``moves_for(h)`` per state held
    before step t for each of steps t+1..T exceed ``DP_MOVE_LIMIT``; a
    call that returns made no more moves.
    """
    start = _mask(instance.initial_cache)
    best = {start: 0.0}
    links: dict[int, tuple | None] = {start: None}  # state -> (prev, links[prev])
    moves_per_state = moves_for(h)
    spent = 0  # the moves charged for the steps expanded so far
    for t in range(1, instance.T + 1):
        spent += moves_for(max(h, start.bit_count())) if t == 1 else len(best) * moves_per_state
        projected = spent + len(best) * moves_per_state * (instance.T - t)
        if projected > DP_MOVE_LIMIT:
            raise OracleIntractableError(
                f"DP projects {projected} moves at step {t}, over limit {DP_MOVE_LIMIT}"
            )
        nxt: dict[int, float] = {}
        parent: dict[int, int] = {}
        for prev in sorted(best):
            cost = best[prev]
            for state, step_cost in transitions(prev, t):
                total = cost + step_cost
                cur = nxt.get(state)
                if cur is None or total < cur - DP_TIE_EPS:
                    nxt[state] = total
                    parent[state] = prev
        links = {state: (prev, links[prev]) for state, prev in parent.items()}
        best = nxt
    end_state = min(best, key=lambda s: (best[s], _pages(s)))
    path = [end_state]
    link = links[end_state]
    while link is not None:
        path.append(link[0])
        link = link[1]
    path.reverse()
    trace = PolicyTrace(instance=instance, capacity_bound=h)
    for prev, cur in zip(path, path[1:]):
        trace.record({instance.block_of(p) for p in _pages(prev & ~cur)}, frozenset(_pages(cur)))
    return best[end_state], trace


def opt_eviction(instance: Instance, h: int | None = None) -> tuple[float, PolicyTrace]:
    """Exact minimum eviction cost over all feasible trajectories.

    Fetches are free and only the requested page enters, so a step keeps a
    subset of the previous contents plus the requested page; each block
    with an evicted page costs c_B once per step.  Evicting initially
    cached pages is paid like any other eviction.

    Only lazy whole-block steps are enumerated: a step whose cache plus
    the requested page p fits in h pages evicts nothing, and any other step
    evicts, for some set E of blocks, every cached page of E except p.
    This loses nothing.

    *A subset state is at least as good.*  Let S' be a subset of S'' at
    step t.  If S'' continues with S''_u for u > t, let S' continue with
    S'_u = S''_u & (S'_{u-1} | {p_u}).  Then S'_u is a subset of S''_u,
    so it fits in h pages and holds p_u.  The pages it evicts,
    (S'_{u-1} | {p_u}) - S''_u, are a subset of those S'' evicts, so
    every block it pays for S'' pays for too.

    *A lazy step dominates.*  Let A = ``prev`` | {p_t} fit in h pages, and
    let a step evict the pages E instead, paying c(E), the sum of c_B over
    the blocks of E, and reaching S_t = A - E.  Keeping A costs nothing.
    At t = T that is no worse.  Otherwise let S_t continue to S_{t+1},
    evicting E' at cost c(E').  A can step straight to S_{t+1}, which lies
    in S_t | {p_{t+1}} and so in A | {p_{t+1}}.  The pages that step
    evicts, (A | {p_{t+1}}) - S_{t+1}, lie in E | E', so it costs at most
    c(E) + c(E'), and from then on both paths agree.  So an eviction waits
    one step at no extra cost; repeated, it waits for the first step where
    the cache overflows, pays the same c_B there, and in the meantime the
    lazy path holds a superset of the eager one.

    *A whole-block step dominates.*  A step from ``prev`` that evicts pages
    of the blocks E costs the sum of c_B over E.  Evicting every page of E
    in ``prev - {p}`` costs the same and reaches a subset of that state.

    From every state, then, one of the enumerated steps is optimal over all
    steps, and by induction from the last step the optimum over the
    enumerated steps equals the optimum over all of them.  A state holds
    pages of at most min(m, #blocks) blocks, so a state of m pages has at
    most 2^min(m, #blocks) moves instead of 2^m.
    """
    h = instance.k if h is None else h
    block_masks = [_mask(blk) for blk in instance.blocks]

    def transitions(prev: int, t: int):
        pbit = 1 << instance.request(t)
        if (prev | pbit).bit_count() <= h:
            return [(prev | pbit, 0.0)]
        rest = prev & ~pbit
        moves = [(prev | pbit, 0.0)]
        for b, m in enumerate(block_masks):
            if held := rest & m:  # each move so far, and each with b evicted
                c = instance.costs[b]
                moves += [(state & ~held, cost + c) for state, cost in moves]
        return [move for move in moves if move[0].bit_count() <= h]

    return _run_dp(
        instance, h, transitions, lambda m: 2 ** min(m, instance.num_blocks)
    )


def opt_fetching(instance: Instance, h: int | None = None) -> tuple[float, PolicyTrace]:
    """Exact minimum fetching cost; evictions are free.

    Batched fetches only ever pay off within the requested page's block, so
    a step fetches the requested page (if missing) and a batch of the
    block's other missing pages; it costs the block cost once if it
    fetches anything.

    Only lazy steps with kept sets of maximal size are enumerated: a hit
    on a cache of at most h pages keeps the cache as it is, and any other
    step keeps, for each batch, min(|prev - {p}|, h - |batch| - 1) pages of
    ``prev - {p}``.  This loses nothing.

    *A superset state is at least as good.*  Let S' be a superset of S''
    at step t.  If S'' steps to S''_{t+1}, S' can step there too, evicting
    for free.  The pages it fetches, S''_{t+1} - S', are a subset of those
    S'' fetches, all in the requested block, so it pays only if S'' pays;
    from then on both follow the same path.

    *A lazy hit dominates.*  Let p_t, of block B, hit ``prev``, which fits
    in h pages.  A step that fetches nothing reaches a subset of ``prev``,
    so keeping ``prev`` is at least as good.  Let a step instead fetch a
    batch Q of B at cost c_B and go on along S_t, S_{t+1}, ..., fetching
    F_u at step u.  The lazy path keeps ``prev`` at step t for free, and
    then holds S_u less M_u, where M_t = S_t - ``prev`` lies in Q and M_u
    is M_{u-1} less the pages of F_u.  Each of its steps fetches a subset
    of F_u, so it pays only when the eager path pays, and it holds each
    requested page until the first step u that requests a page of M_{u-1}.
    That page is of block B, so the lazy path can fetch M_{u-1} with F_u
    there, paying c_B once, as the eager path did at step t; from then on
    both paths agree.  If no such step comes, it saves c_B.  So a prefetch
    at a hit can wait for that later miss of block B, which pays c_B anyway.

    *A maximal kept set dominates.*  For a fixed batch the step's cost does
    not depend on which pages are kept.  Every smaller kept set lies inside
    one of maximal size, which reaches a superset state at the same cost.

    From every state, then, one of the enumerated steps is optimal over all
    steps, and by induction from the last step the optimum over the
    enumerated steps equals the optimum over all of them.  A starting cache
    above h pages gets every step at step 1.

    *The whole initial cache is the best start.*  Starting from a subset S
    of the initial cache I gains nothing: any first step from S, keeping
    ``kept`` and fetching ``batch``, is matched from I by keeping ``kept``
    plus the pages of ``batch`` (and the requested page) already in I and
    fetching the rest of ``batch``.  That reaches the same state, and it
    fetches only if the step from S fetches, so it costs no more.

    With |batch| = j a state of m pages has at most C(beta - 1, j) batches
    and C(m, h - 1 - j) kept sets (a cache missing p may hold m pages to
    choose from); summed over j, by Vandermonde's identity, that is
    C(beta + m - 1, h - 1) moves.
    """
    h = instance.k if h is None else h
    block_masks = [_mask(blk) for blk in instance.blocks]

    def transitions(prev: int, t: int):
        p = instance.request(t)
        pbit = 1 << p
        hit = prev & pbit
        if hit and prev.bit_count() <= h:
            return [(prev, 0.0)]
        b = instance.block_of(p)
        others = _bits(prev & ~pbit)
        batches = [(pbit, 0)]  # (fetched pages, batch size j)
        for bit in _bits(block_masks[b] & ~prev & ~pbit):
            batches += [(fetched | bit, j + 1) for fetched, j in batches if j + 2 <= h]
        cost = instance.costs[b]
        return [
            (fetched | sum(kept), cost if j or not hit else 0.0)
            for fetched, j in batches
            for kept in combinations(others, min(len(others), h - j - 1))
        ]

    return _run_dp(
        instance, h, transitions, lambda m: comb(instance.beta + m - 1, h - 1)
    )


def trace_to_x_mean(traces: list[PolicyTrace]) -> list[list]:
    """Mean missing-value trajectory of a nonempty ensemble of integral
    traces of one instance."""
    instance = traces[0].instance
    N = len(traces)
    x: list[list] = []
    for t in range(instance.T + 1):
        present = Counter(p for tr in traces for p in tr.cache_at(t))
        x.append([None] + [1.0 - present[p] / N for p in range(1, instance.n + 1)])
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


@dataclass
class LPViolation:
    kind: str
    t: int
    who: int  # page or block index depending on kind
    amount: float

    def __str__(self):
        return f"{self.kind} violated at t={self.t} ({self.who}): {self.amount}"


def naive_lp_check(
    x: list[list], phi: list[list], sigma: int, instance: Instance
) -> LPViolation | None:
    """Checks the simple per-page LP; sigma=+1 is the eviction orientation,
    sigma=-1 the fetching orientation.  Returns the first violation."""
    assert sigma in (+1, -1)
    n, T = instance.n, instance.T
    for t in range(T + 1):
        for p in range(1, n + 1):
            v = x[t][p]
            if v < -LP_EPS or v > 1 + LP_EPS:
                return LPViolation("x-bounds", t, p, float(v))
    for t in range(1, T + 1):
        for b in range(instance.num_blocks):
            v = phi[t][b]
            if v < -LP_EPS or v > 1 + LP_EPS:
                return LPViolation("phi-bounds", t, b, float(v))
    for t in range(1, T + 1):
        p_t = instance.request(t)
        if abs(x[t][p_t]) > LP_EPS:
            return LPViolation("requested-page", t, p_t, float(x[t][p_t]))
        total = sum(x[t][p] for p in range(1, n + 1))
        if total < n - instance.k - LP_EPS:
            return LPViolation("capacity", t, 0, float(total))
        for b, blk in enumerate(instance.blocks):
            for p in blk:
                need = sigma * (x[t][p] - x[t - 1][p])
                if phi[t][b] < need - LP_EPS:
                    return LPViolation("block-rate", t, b, float(need - phi[t][b]))
    return None
