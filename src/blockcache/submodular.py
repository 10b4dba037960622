"""Missing-page coverage function over flush sets, its marginals, and the
strengthened LP constraint checks.

A constraint set enters the constraint at tau only through each block's
latest flush time <= tau, so it is passed as that list, ``latest``: entry
b is block b's latest flush time <= tau.  The online sets always hold the
time-0 flushes, so their entries are >= 0."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from math import inf

from .instance import Instance, RequestIndex

FEAS_EPS = 1e-9  # covering slack >= -FEAS_EPS holds: integer coefficients, float phi

Flush = tuple[int, int]  # (block id, time), 0 <= time <= T


class CoverageOracle:
    """Evaluates the capped missing-page count and its marginals.

    A page p is missing at time tau under S if some flush (B(p), t) in S has
    r(p,tau) < t <= tau; never-requested pages (r = -1) are missing via
    time-0 flushes.  With L = latest[b] the block's latest flush <= tau in
    S, that is r(p,tau) < L, so each query bisects the block's sorted last
    requests from the index instead of visiting its pages.  The value is
    capped at n - k.
    """

    def __init__(self, instance: Instance, index: RequestIndex):
        self.instance = instance
        self.index = index
        # per block, the (key, table) that most_violated_constraint last built
        self.tables: list[tuple | None] = [None] * instance.num_blocks

    def f_tau(self, latest: list[int], tau: int) -> int:
        inst = self.instance
        count = sum(
            bisect_left(self.index.block_last_requests(b, tau), L) for b, L in enumerate(latest)
        )
        return min(inst.n - inst.k, count)

    def marginal(self, latest: list[int], flush: Flush, tau: int, residual: int) -> int:
        """f_tau(S + flush) - f_tau(S): the pages the flush newly makes
        missing, those with L <= r(p,tau) < t for L = latest[block], capped
        at ``residual`` = n - k - f_tau(S), which every caller already holds
        as its constraint's right-hand side.  A flush at or before L, or
        after tau, makes none."""
        block, t = flush
        L = latest[block]
        if not L < t <= tau:
            return 0
        rs = self.index.block_last_requests(block, tau)
        return min(bisect_left(rs, t) - bisect_left(rs, L), residual)


def constraint_lhs(
    phi: dict[Flush, float], latest: list[int], oracle: CoverageOracle, tau: int, residual: int
) -> float:
    """Left-hand side of the covering constraint indexed by (S, tau), whose
    right-hand side is ``residual``: the flush mass outside S, each flush
    weighted by its marginal.  A flush at or before its block's latest
    flush in S makes no page missing and is skipped."""
    lhs = 0.0
    for flush, value in phi.items():
        if value > 0.0 and flush[1] > latest[flush[0]]:
            m = oracle.marginal(latest, flush, tau, residual)
            if m:
                lhs += m * value
    return lhs


def most_violated_constraint(
    phi: dict[Flush, float], oracle: CoverageOracle, tau: int
) -> tuple[float, list[int]]:
    """Exact separation over every constraint set containing the integral
    flushes, in polynomial time: the least slack and, per block, the
    latest flush time <= tau of a set that reaches it.

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

    Each block's option table is built once and kept on the oracle until
    the block's last requests, forced threshold or fractional flushes
    change.  A sweep keeps flat value and back-pointer lists, and at each
    block visits only the coverages from which the remaining blocks can
    still reach a coverage the sweep is read at.
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

    # per block: its thresholds (T, cover), cover being the pages T makes
    # missing, and options[r - 1] = [(cover, h(T, r))]: the sum over the
    # fractional flushes of min(count, r) * mass, where a flush at position
    # pos in rs newly makes count = pos - cover pages missing (one with no
    # count under the forced threshold adds 0.0 to every h and is left out).
    # options stops at the largest count, above which h is constant, and no
    # residual from `saturated` on caps any count.  A block's table depends
    # only on its last requests, whether the largest is below tau, its
    # forced threshold and its fractional flushes in phi's order; it is
    # rebuilt only when that key differs from the one it was last built at
    blocks_data = []
    saturated = 1
    tables = oracle.tables
    for b in range(num_blocks):
        rs = oracle.index.block_last_requests(b, tau)
        lo = t_min[b]
        key = (rs, rs[-1] < tau, lo, frac_of[b])
        entry = tables[b]
        if entry is None or entry[0] != key:
            c0 = bisect_left(rs, lo)
            frac = [(pos, v) for t, v in frac_of[b] if (pos := bisect_left(rs, t)) > c0]
            # threshold r + 1 (lo <= r < tau) covers rs up to r's last copy: j + 1 pages
            nexts = rs[1:] + (tau,)
            thresholds = [(lo, c0)] + [
                (r + 1, j + 1) for j, r in enumerate(rs) if lo <= r < nexts[j]
            ]
            top_count = max([1] + [pos - c0 for pos, _v in frac])
            options = [
                [(cover, sum([min(pos - cover, r) * v for pos, v in frac if pos > cover]))
                 for _T, cover in thresholds]
                for r in range(1, top_count + 1)
            ]
            entry = tables[b] = (key, (thresholds, options, top_count))
        thresholds, options, top_count = entry[1]
        saturated = max(saturated, top_count)
        blocks_data.append((thresholds, options))

    def sweep(residual: int, top_lo: int, top: int):
        """dp[g] = min sum of capped contributions at coverage top_lo <= g <=
        top (inf if unreached); per block, back[g] = the coverage before it."""
        least = sum(thresholds[0][1] for thresholds, _options in blocks_data)
        most = sum(thresholds[-1][1] for thresholds, _options in blocks_data)
        dp = [0.0] + [inf] * top
        backs = []
        g_lo = g_hi = 0
        for thresholds, options in blocks_data:
            opts = options[min(residual, len(options)) - 1]
            least -= thresholds[0][1]
            most -= thresholds[-1][1]
            lo2, hi2 = max(0, top_lo - most), top - least
            nxt = [inf] * (top + 1)
            back = [0] * (top + 1)
            for g in range(g_lo, g_hi + 1):
                base = dp[g]
                if base == inf:
                    continue
                for cover, h in opts:
                    g2 = g + cover
                    if g2 > hi2:
                        break  # covers grow with the threshold
                    val = base + h
                    if g2 >= lo2 and val < nxt[g2]:
                        nxt[g2] = val
                        back[g2] = g
            dp = nxt
            backs.append(back)
            g_lo, g_hi = lo2, hi2
        return dp, backs

    shared = None
    best = None
    for residual in range(1, cap + 1):
        top = cap - residual
        if residual < saturated:
            dp, backs = sweep(residual, top, top)
        else:
            dp, backs = shared = shared or sweep(residual, 0, top)
        if dp[top] < inf:
            slack = dp[top] - residual
            if best is None or slack < best[0]:
                best = (slack, backs, top)

    # best is None when the integral flushes alone make n - k pages
    # missing: every marginal is then 0, and so is their set's slack
    if best is None:
        return 0.0, t_min
    slack, backs, g = best
    latest = [0] * num_blocks
    for b in range(num_blocks - 1, -1, -1):
        prev = backs[b][g]
        latest[b] = next(T for T, cover in blocks_data[b][0] if cover == g - prev)
        g = prev
    return slack, latest


def check_feasible(
    phi: dict[Flush, float], oracle: CoverageOracle, tau: int
) -> tuple[bool, list[int] | None]:
    """Feasibility at tau against every constraint set, via exact separation.
    A violated result returns the most violated set's latest flush times as
    the certificate."""
    slack, latest = most_violated_constraint(phi, oracle, tau)
    if slack >= -FEAS_EPS:
        return True, None
    return False, latest


check_feasible_full = check_feasible  # old name, still imported by bench/checks.py


def flush_cost(phi: dict[Flush, float], instance: Instance) -> float:
    """Eviction cost of a sparse phi: c_B times the flush mass after time 0."""
    return sum(instance.costs[b] * v for (b, t), v in phi.items() if t >= 1)


class PhiView(dict):
    """A sparse phi with a per-block time-sorted index for fast window sums.
    Its values are raised through ``FractionalSolution.apply``, via ``add``."""

    def __init__(self, phi: dict[Flush, float], num_blocks: int):
        super().__init__(phi)
        self._by_block: list[list[int]] = [[] for _ in range(num_blocks)]
        for (b, t), v in phi.items():
            if v > 0.0:
                insort(self._by_block[b], t)

    def add(self, flush: Flush, delta: float) -> None:
        """Raises phi at the flush; its time is indexed once it is positive."""
        cur = self.get(flush, 0.0)
        if cur <= 0.0 < cur + delta:
            insort(self._by_block[flush[0]], flush[1])
        self[flush] = cur + delta

    def x(self, oracle: CoverageOracle, block: int, t: int) -> list[float]:
        """The block's missing values at t, in block order: 1.0 for a page
        not requested by t, else phi summed over the block's flush times
        after the page's last request and up to t, in time order, capped
        at 1.0."""
        times = self._by_block[block]
        j = bisect_right(times, t)
        values = [self[(block, s)] for s in times[:j]]
        last_request = oracle.index.last_request
        return [
            1.0 if (r := last_request(p, t)) is None
            else min(1.0, sum(values[bisect_right(times, r, 0, j):]))
            for p in oracle.instance.blocks[block]
        ]
