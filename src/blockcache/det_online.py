"""k-competitive deterministic online algorithm with primal/dual bookkeeping."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .instance import Instance, PolicyTrace, RequestIndex, round12
from .submodular import CoverageOracle, Flush

DUAL_EPS = 1e-9  # dual mass <= c_B up to float error: masses sum rate * dy over raises
# dual increases this close differ only by float error: they tie
TIE_EPS = 1e-15


@dataclass
class DualRecord:
    tau: int
    coefficient: int
    y: float


@dataclass
class DualLedger:
    """Accumulated dual mass per tracked flush plus the raised dual records.

    A flush's mass is the sum over raised variables of its marginal
    coefficient at raise time; feasibility means mass <= c_B for every
    tracked flush.  Coefficients are frozen at raise time, so past
    contributions never change.
    """

    mass: dict[Flush, float] = field(default_factory=dict)
    records: list[DualRecord] = field(default_factory=list)

    @property
    def objective(self) -> float:
        return sum(r.coefficient * r.y for r in self.records)

    def raise_dual(self, tau: int, coefficient: int, dy: float, rates: dict[Flush, int]):
        """Record y_tau = dy and add rate * dy to each candidate's mass; a
        raise by exactly 0 is not part of the dual and leaves no trace."""
        if dy == 0.0:
            return
        self.records.append(DualRecord(tau=tau, coefficient=coefficient, y=dy))
        for flush, rate in rates.items():
            self.mass[flush] = self.mass.get(flush, 0.0) + rate * dy

    def check_feasible(self, instance: Instance) -> None:
        for (b, t), a in self.mass.items():
            c = instance.costs[b]
            if a > c + DUAL_EPS:
                raise AssertionError(
                    f"dual constraint of flush {(b, t)} overshot: mass {a} > c_B {c} by {a - c}"
                )

    def write_certificate(self, path: str) -> None:
        """Writes the dual solution as one JSON line: its records, its
        objective and the mass of each flush that gained any, in flush
        order.  The costs c_B are the instance's.  The file is written one
        entry at a time, so no document is built; its bytes are those of
        ``json.dumps`` of the whole document, with its default separators."""
        records = (
            json.dumps({"tau": r.tau, "coefficient": r.coefficient, "y": round12(r.y)})
            for r in self.records
        )
        masses = (
            json.dumps({"block": b, "t": t, "mass": round12(self.mass[b, t])})
            for b, t in sorted(self.mass)
        )
        with open(path, "w") as fh:
            fh.write('{"records": [')
            _write_joined(fh, records)
            fh.write(f'], "dual_objective": {json.dumps(round12(self.objective))}, "mass": [')
            _write_joined(fh, masses)
            fh.write("]}\n")


def _write_joined(fh, entries) -> None:
    """Writes the entries separated by ", ", as ``json.dumps`` separates
    the items of a list."""
    for i, entry in enumerate(entries):
        fh.write(", " + entry if i else entry)


@dataclass
class DetResult:
    trace: PolicyTrace
    ledger: DualLedger
    primal_cost: float


def first_tight(candidates) -> tuple[float, Flush]:
    """(dual increase, flush) of the candidate whose dual constraint goes
    tight first: the least (c - A) / m over (flush, m, A, c) candidates, ties
    within TIE_EPS to the smaller flush.  The tie band is not transitive, so
    the result can depend on the candidates' order; both callers pass them
    in flush order."""
    best: tuple[float, Flush] | None = None
    for flush, m, A, c in candidates:
        gap = (c - A) / m
        if best is None or gap < best[0] - TIE_EPS or (
            abs(gap - best[0]) <= TIE_EPS and flush < best[1]
        ):
            best = (gap, flush)
    if best is None:
        raise AssertionError("no candidate flush with marginal >= 1")
    return best


def priced_candidates(
    ledger: DualLedger,
    latest: list[int],
    oracle: CoverageOracle,
    tau: int,
    residual: int,
) -> list[tuple[Flush, int, float, float]]:
    """(flush, marginal, mass, cost) of every alive flush outside S whose
    marginal at tau, capped at ``residual`` = n - k - f_tau(S), is at least
    1, in flush order; ``latest`` holds S's latest flush time <= tau per
    block.

    Dead flushes are dominated by the latest alive flush at or before them,
    so restricting to alive ones loses nothing.  An alive flush at or before
    its block's latest flush in S, a flush of S among them, makes no page
    missing and is skipped without pricing.
    """
    costs = oracle.instance.costs
    candidates = []
    for flush in oracle.index.alive_flushes(tau):
        if flush[1] <= latest[flush[0]]:
            continue
        m = oracle.marginal(latest, flush, tau, residual)
        if m >= 1:
            candidates.append((flush, m, ledger.mass.get(flush, 0.0), costs[flush[0]]))
    return candidates


def next_tight_increase(
    ledger: DualLedger,
    latest: list[int],
    oracle: CoverageOracle,
    tau: int,
    residual: int,
) -> tuple[Flush, float, dict[Flush, int]]:
    """Smallest dual increase that makes some candidate's constraint tight,
    with the candidates' rates.  Ties break lexicographically on (block, t).
    """
    candidates = priced_candidates(ledger, latest, oracle, tau, residual)
    gap, flush = first_tight(candidates)
    return flush, gap, {fl: m for fl, m, _A, _c in candidates}


def run_deterministic(instance: Instance, trace: PolicyTrace | None = None) -> DetResult:
    """Primal-dual deterministic policy: on overflow, raise the current dual
    variable until an alive flush's constraint is tight, then flush that
    block at the current step.  Its flush set is held as each block's
    latest flush time, starting from the time-0 flushes.  The steps are
    recorded into ``trace``, an empty trace of capacity k such as one that
    ``PolicyTrace.open`` writes as it goes, or else into a new in-memory
    trace."""
    index = RequestIndex(instance)
    oracle = CoverageOracle(instance, index)
    latest = [0] * instance.num_blocks
    ledger = DualLedger()
    if trace is None:
        trace = PolicyTrace(instance=instance, capacity_bound=instance.k)
    cache = set(instance.initial_cache)

    for tau in range(1, instance.T + 1):
        p = instance.request(tau)
        cache.add(p)
        flushed: tuple[int, ...] = ()
        if len(cache) > instance.k:
            coefficient = instance.n - instance.k - oracle.f_tau(latest, tau)
            (b0, _t0), dy, rates = next_tight_increase(ledger, latest, oracle, tau, coefficient)
            ledger.raise_dual(tau, coefficient, dy, rates)
            ledger.mass[(b0, _t0)] = instance.costs[b0]  # snap to exactly tight
            cache -= set(instance.blocks[b0]) - {p}
            latest[b0] = tau
            flushed = (b0,)
        trace.record(flushed, cache)

    return DetResult(trace=trace, ledger=ledger, primal_cost=trace.eviction_cost)
