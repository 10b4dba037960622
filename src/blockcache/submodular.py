"""Missing-page coverage function over flush sets, its marginals, and the
strengthened LP constraint checks."""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import combinations

from .instance import Instance, RequestIndex

FEAS_EPS = 1e-9

Flush = tuple[int, int]  # (block id, time), 0 <= time <= T


class FlushSet:
    """A set of flushes with per-block sorted time lists for interval queries.

    ``with_time_zero`` seeds every block with its time-0 flush, the usual
    starting state for the online algorithms.
    """

    def __init__(self, num_blocks: int, with_time_zero: bool = True):
        self.num_blocks = num_blocks
        self._times: list[list[int]] = [[] for _ in range(num_blocks)]
        self._members: set[Flush] = set()
        if with_time_zero:
            for b in range(num_blocks):
                self.add(b, 0)

    def add(self, block: int, t: int) -> None:
        if (block, t) not in self._members:
            self._members.add((block, t))
            insort(self._times[block], t)

    def __contains__(self, flush: Flush) -> bool:
        return flush in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(sorted(self._members))

    def has_flush_in(self, block: int, lo: int, hi: int) -> bool:
        """True iff some flush time t of the block satisfies lo < t <= hi."""
        times = self._times[block]
        i = bisect_right(times, lo)
        return i < len(times) and times[i] <= hi

    def copy(self) -> "FlushSet":
        out = FlushSet(self.num_blocks, with_time_zero=False)
        out._members = set(self._members)
        out._times = [list(ts) for ts in self._times]
        return out

    @classmethod
    def from_flushes(cls, num_blocks: int, flushes) -> "FlushSet":
        out = cls(num_blocks, with_time_zero=False)
        for b, t in flushes:
            out.add(b, t)
        return out


class CoverageOracle:
    """Evaluates the capped missing-page count and its marginals.

    A page p is missing at time tau under S if some flush (B(p), t) in S has
    r(p,tau) < t <= tau; never-requested pages are missing via time-0
    flushes.  The value is capped at n - k.
    """

    def __init__(self, instance: Instance, index: RequestIndex):
        self.instance = instance
        self.index = index

    def is_missing(self, S: FlushSet, p: int, tau: int) -> bool:
        r = self.index.last_request(p, tau)
        lo = r if r is not None else -1
        return S.has_flush_in(self.instance.block_of(p), lo, tau)

    def missing_count(self, S: FlushSet, tau: int) -> int:
        """Uncapped number of missing pages at tau."""
        return sum(
            1
            for p in range(1, self.instance.n + 1)
            if self.is_missing(S, p, tau)
        )

    def f_tau(self, S: FlushSet, tau: int) -> int:
        inst = self.instance
        return min(inst.n - inst.k, self.missing_count(S, tau))

    def marginal(self, S: FlushSet, flush: Flush, tau: int) -> int:
        """f_tau(S + flush) - f_tau(S), computed from block-local changes."""
        inst = self.instance
        block, t = flush
        if t > tau or flush in S:
            return 0
        new = 0
        for p in inst.blocks[block]:
            r = self.index.last_request(p, tau)
            lo = r if r is not None else -1
            if lo < t <= tau and not S.has_flush_in(block, lo, tau):
                new += 1
        if new == 0:
            return 0
        base = self.missing_count(S, tau)
        cap = inst.n - inst.k
        return min(cap, base + new) - min(cap, base)


def constraint_lhs(
    phi: dict[Flush, float], S: FlushSet, oracle: CoverageOracle, tau: int
) -> float:
    """Left-hand side of the covering constraint indexed by (S, tau): the
    flush mass outside S, each flush weighted by its marginal."""
    lhs = 0.0
    for flush, value in phi.items():
        if value > 0.0 and flush not in S:
            m = oracle.marginal(S, flush, tau)
            if m:
                lhs += m * value
    return lhs


def constraint_slack(
    phi: dict[Flush, float], S: FlushSet, oracle: CoverageOracle, tau: int
) -> float:
    """LHS minus RHS of the covering constraint indexed by (S, tau).

    Negative slack means the constraint is violated.  Coefficients are exact
    integers; only phi carries float error.
    """
    inst = oracle.instance
    target = inst.n - inst.k - oracle.f_tau(S, tau)
    return constraint_lhs(phi, S, oracle, tau) - target


def most_violated_constraint(
    phi: dict[Flush, float], oracle: CoverageOracle, tau: int
) -> tuple[float, FlushSet]:
    """Exact separation over every constraint set containing the integral
    flushes, in polynomial time.

    The pages a block's flushes can make missing at tau form a chain in the
    flush time, so any constraint set is equivalent (same slack) to one with
    a single threshold flush per block.  Thresholds across blocks couple
    only through the capped residual n - k - |covered|, so for each residual
    value the best thresholds are found by a small knapsack-style sweep over
    blocks.
    """
    inst = oracle.instance
    cap = inst.n - inst.k
    num_blocks = inst.num_blocks

    # per block: last-request times, the forced minimum threshold (largest
    # integral flush time <= tau), fractional flushes above it, and the
    # candidate thresholds with their coverage counts
    blocks_data = []
    for b in range(num_blocks):
        rs = []
        for p in inst.blocks[b]:
            r = oracle.index.last_request(p, tau)
            rs.append(-1 if r is None else r)
        t_min = max(
            [0]
            + [t for (bb, t), v in phi.items() if bb == b and v >= 1.0 and t <= tau]
        )
        frac = [
            (t, v)
            for (bb, t), v in phi.items()
            if bb == b and 0.0 < v < 1.0 and t_min < t <= tau
        ]
        thresholds = sorted(
            {t_min} | {r + 1 for r in rs if t_min < r + 1 <= tau}
        )
        per_thr = []
        for T in thresholds:
            cover = sum(1 for r in rs if r < T)
            # uncapped per-flush counts of newly missing pages
            counts = [
                (sum(1 for r in rs if T <= r < t), v) for t, v in frac
            ]
            per_thr.append((T, cover, counts))
        blocks_data.append(per_thr)

    best_slack = float("inf")
    best_choice: list[int] | None = None
    for residual in range(1, cap + 1):
        g_star = cap - residual
        # dp[g] = (min sum of capped contributions, threshold choices)
        dp: list[tuple[float, list[int]] | None] = [None] * (g_star + 1)
        dp[0] = (0.0, [])
        for per_thr in blocks_data:
            nxt: list[tuple[float, list[int]] | None] = [None] * (g_star + 1)
            for g, state in enumerate(dp):
                if state is None:
                    continue
                for T, cover, counts in per_thr:
                    g2 = g + cover
                    if g2 > g_star:
                        continue
                    h = state[0] + sum(
                        min(cnt, residual) * v for cnt, v in counts
                    )
                    if nxt[g2] is None or h < nxt[g2][0]:
                        nxt[g2] = (h, state[1] + [T])
            dp = nxt
        if dp[g_star] is not None:
            slack = dp[g_star][0] - residual
            if slack < best_slack:
                best_slack, best_choice = slack, dp[g_star][1]

    S = FlushSet(num_blocks)
    if best_choice is None:
        # every threshold combination already covers n - k pages
        return 0.0, S
    for b, T in enumerate(best_choice):
        if T >= 1:
            S.add(b, T)
    for (b, t), v in phi.items():
        if v >= 1.0:
            S.add(b, t)
    return best_slack, S


def check_feasible(
    phi: dict[Flush, float], oracle: CoverageOracle, tau: int, eps: float = FEAS_EPS
) -> tuple[bool, FlushSet | None]:
    """Feasibility at tau against every constraint set, via exact separation.
    A violated result returns the most violated set as the certificate."""
    slack, S = most_violated_constraint(phi, oracle, tau)
    if slack >= -eps:
        return True, None
    return False, S


check_feasible_full = check_feasible  # old name, still imported by bench/checks.py


def check_feasible_exhaustive(
    phi: dict[Flush, float],
    oracle: CoverageOracle,
    tau: int,
    eps: float = FEAS_EPS,
) -> tuple[bool, FlushSet | None]:
    """Enumerates every constraint (S', tau).  Exponential; tiny inputs only."""
    inst = oracle.instance
    ground = [(b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)]
    for size in range(len(ground) + 1):
        for combo in combinations(ground, size):
            S = FlushSet.from_flushes(inst.num_blocks, combo)
            if constraint_slack(phi, S, oracle, tau) < -eps:
                return False, S
    return True, None


def flush_cost(phi: dict[Flush, float], instance: Instance) -> float:
    """Eviction cost of a sparse phi: c_B times the flush mass after time 0."""
    return sum(instance.costs[b] * v for (b, t), v in phi.items() if t >= 1)


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


class PhiView:
    """Per-block time-sorted view of a sparse phi for fast window sums."""

    def __init__(self, phi: dict[Flush, float], num_blocks: int):
        self._by_block: list[list[int]] = [[] for _ in range(num_blocks)]
        self._vals: dict[Flush, float] = dict(phi)
        for (b, t), v in phi.items():
            if v > 0.0:
                insort(self._by_block[b], t)

    def get(self, flush: Flush) -> float:
        return self._vals.get(flush, 0.0)

    def add(self, flush: Flush, delta: float) -> None:
        """Raises phi at the flush; its time is indexed once it is positive."""
        cur = self._vals.get(flush, 0.0)
        if cur <= 0.0 < cur + delta:
            insort(self._by_block[flush[0]], flush[1])
        self._vals[flush] = cur + delta

    def window_sum(self, block: int, lo: int, hi: int) -> float:
        """Sum of phi over flush times t of the block with lo < t <= hi."""
        times = self._by_block[block]
        i = bisect_right(times, lo)
        j = bisect_right(times, hi)
        return sum(self._vals[(block, times[m])] for m in range(i, j))

    def x(self, oracle: CoverageOracle, p: int, t: int) -> float:
        r = oracle.index.last_request(p, t)
        if r is None:
            return 1.0
        return min(1.0, self.window_sum(oracle.instance.block_of(p), r, t))
