"""Monotone-incremental fractional algorithm, run as an event-driven
simulation of the continuous primal-dual dynamics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .det_online import DualLedger, first_tight, priced_candidates
from .instance import (
    Instance, InstanceError, RequestIndex, is_int_in, is_number, read_jsonl, write_jsonl
)
from .submodular import (
    CoverageOracle,
    FEAS_EPS,
    Flush,
    PhiView,
    check_feasible,
    constraint_lhs,
    flush_cost,
)

TARGET_EPS = 1e-12  # contribution this close to the target at the tight point reaches it
ROOT_REL = 1e-12  # Newton stops at steps below this times max(1, y): near double precision


class Increment(NamedTuple):
    """Mass ``delta`` added at step ``tau`` to ``flush``."""

    tau: int
    flush: Flush
    delta: float


@dataclass
class FractionalSolution:
    """Sparse flush values plus the ordered increment log.

    ``phi`` lists only flushes after time 0; the time-0 flushes are
    integral and held by every constraint set, whose latest flush times
    start at 0.  Values only increase, by
    ``apply``, which logs each increment; a flush whose dual constraint is
    tight has value exactly 1 (snapped, as downstream logic branches on it).
    """

    instance: Instance
    phi: PhiView = field(init=False)
    increments: list[Increment] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        self.phi = PhiView({}, self.instance.num_blocks)

    def apply(self, tau: int, flush: Flush, delta: float) -> None:
        if delta <= 0.0:
            raise ValueError("increments must be positive")
        self.phi.add(flush, delta)
        self.increments.append(Increment(tau, flush, delta))

    def snap_to_one(self, tau: int, flush: Flush) -> None:
        cur = self.phi.get(flush, 0.0)
        if cur < 1.0:
            self.apply(tau, flush, 1.0 - cur)
        self.phi[flush] = 1.0

    @property
    def cost(self) -> float:
        return flush_cost(self.phi, self.instance)

    def save_increments(self, path: str) -> None:
        """One line per increment; ``phi_after`` is the flush's running sum.
        Both numbers are written exactly, so a loaded log is this log."""
        records = []
        running: dict[Flush, float] = {}
        for tau, (b, t), delta in self.increments:
            v = running[b, t] = running.get((b, t), 0.0) + delta
            records.append(
                {"tau": tau, "block": b, "t": t, "delta": delta, "phi_after": v}
            )
        write_jsonl(path, records)


def load_increments(path: str, instance: Instance) -> list[Increment]:
    """Reads a saved increment log.  InstanceError names a line that is not an
    increment of this instance (1 <= t <= tau, positive finite delta, finite
    phi_after) or whose phi_after is not exactly its flush's running sum;
    the sums run in (tau, phi_after) order, the order a monotone log is
    written in, so they add each flush's deltas in the order
    ``save_increments`` did, and a reordered log loads and
    ``replay_failures`` reports it."""

    def parse(rec: dict) -> tuple[Increment, float] | None:
        tau, block, t, delta = rec["tau"], rec["block"], rec["t"], rec["delta"]
        phi_after = rec["phi_after"]
        ok = is_int_in(tau, 1, instance.T) and is_int_in(t, 1, tau) and is_number(phi_after)
        ok = ok and is_int_in(block, 0, instance.num_blocks - 1) and is_number(delta) and delta > 0
        return (Increment(tau, (block, t), delta), phi_after) if ok else None

    records = list(read_jsonl(path, parse))
    running: dict[Flush, float] = {}
    for i in sorted(range(len(records)), key=lambda i: (records[i][0].tau, records[i][1])):
        (_tau, flush, delta), phi_after = records[i]
        phi = running[flush] = running.get(flush, 0.0) + delta
        if phi_after != phi:
            raise InstanceError(
                f"{path} line {i + 1}: phi_after {phi_after} is not the running sum {phi}"
            )
    return [inc for inc, _phi_after in records]


def replay_failures(increments, instance: Instance) -> list[str]:
    """Replays a (tau, flush, delta) log and runs exact separation
    (``check_feasible``) at every tau on the mass logged up to tau: one line
    per infeasible step, naming the violated set's nonzero latest flush
    times and its constraint's two sides, and a last one where the log goes
    back in time."""
    oracle = CoverageOracle(instance, RequestIndex(instance))
    sol = FractionalSolution(instance)
    failures = []
    i = 0
    for tau in range(1, instance.T + 1):
        while i < len(increments) and increments[i][0] <= tau:
            inc_tau, flush, delta = increments[i]
            if i and inc_tau < increments[i - 1][0]:
                return failures + [f"increment {i + 1} goes back in time to tau={inc_tau}"]
            sol.apply(inc_tau, flush, delta)
            i += 1
        feasible, latest = check_feasible(sol.phi, oracle, tau)
        if not feasible:
            rhs = instance.n - instance.k - oracle.f_tau(latest, tau)
            lhs = constraint_lhs(sol.phi, latest, oracle, tau, rhs)
            nonzero = {b: L for b, L in enumerate(latest) if L}
            failures.append(
                f"increment log infeasible at tau={tau}: on latest flushes {nonzero},"
                f" constraint_lhs {lhs!r} < n - k - f_tau = {rhs}"
            )
    return failures


def phi_closed_form(A: float, c_B: float, k: int, beta: int) -> float:
    """Primal value as a function of accumulated dual mass.

    Solves d(phi)/dA = ln(k*beta+1)/c_B * (phi + 1/(k*beta)); the value hits
    exactly 1 when A reaches c_B.
    """
    kb = k * beta
    return ((kb + 1.0) ** (A / c_B) - 1.0) / kb


@dataclass
class EventOutcome:
    delta_y: float
    kind: str  # "primal-satisfied" | "flush-tightened"
    flush: Flush | None


def solve_event(
    candidates: list[tuple[Flush, int, float, float]],
    target: float,
    k: int,
    beta: int,
) -> EventOutcome:
    """Next event while raising the current dual variable.

    Candidates are (flush, marginal, accumulated mass, cost) with marginal
    >= 1.  Either the candidates' combined contribution g reaches ``target``
    (root found by Newton's method from the right), or some candidate's dual
    constraint becomes tight first.
    """
    dy_tight, tight_flush = first_tight(candidates)
    kb = k * beta
    base, rate = kb + 1.0, math.log(kb + 1.0) / kb

    def g_slope(y: float) -> tuple[float, float]:
        # phi_closed_form inlined; each power serves both g and its slope
        gy = slope = 0.0
        for _fl, f, A, c in candidates:
            power = base ** ((A + f * y) / c)
            gy += f * ((power - 1.0) / kb)
            slope += f * f / c * power
        return gy, rate * slope

    y, (gy, slope) = dy_tight, g_slope(dy_tight)
    if gy <= target + TARGET_EPS:
        return EventOutcome(delta_y=dy_tight, kind="flush-tightened", flush=tight_flush)
    for _ in range(100):  # g is convex and increasing, so each iterate keeps g >= target
        step = (gy - target) / slope
        if step <= ROOT_REL * max(1.0, y):
            break
        y_next = y - step
        g_next, slope_next = g_slope(y_next)
        if g_next < target:  # rounding put y_next just below the root
            y_up = y_next + ROOT_REL * max(1.0, y_next)
            y = y_up if g_slope(y_up)[0] >= target else y
            break
        y, gy, slope = y_next, g_next, slope_next
    else:
        raise AssertionError(f"Newton root of the dual event (target {target}) did not converge")
    return EventOutcome(delta_y=y, kind="primal-satisfied", flush=None)


@dataclass
class FracResult:
    solution: FractionalSolution
    ledger: DualLedger
    primal_cost: float

    @property
    def competitive_bound(self) -> float:
        inst = self.solution.instance
        return 2.0 * math.log(inst.k * inst.beta + 1.0)


def run_fractional(instance: Instance) -> FracResult:
    """Event-driven run of the continuous fractional dynamics.

    Within one dual-raising event the marginals are frozen; they are
    recomputed when the violated constraint changes or the integral set
    grows.  The while-condition quantifies over every constraint set
    containing the integral flushes, decided by exact separation.
    """
    oracle = CoverageOracle(instance, RequestIndex(instance))
    sol = FractionalSolution(instance)
    ledger = DualLedger()
    k, beta = instance.k, instance.beta
    cap = instance.n - instance.k

    for tau in range(1, instance.T + 1):
        for _guard in range(100_000):
            ok, latest = check_feasible(sol.phi, oracle, tau)
            if ok:
                break
            target0 = cap - oracle.f_tau(latest, tau)
            candidates = priced_candidates(ledger, latest, oracle, tau, target0)
            rates = {fl: f for fl, f, _A, _c in candidates}
            # the constraint's left side from the flushes this event does not raise
            unraised = {fl: v for fl, v in sol.phi.items() if fl not in rates}
            frozen = constraint_lhs(unraised, latest, oracle, tau, target0)
            # rate inequality over the alive flushes outside the set; those that are
            # not candidates have marginal 0
            assert sum(rates.values()) / (k * beta) <= target0 + FEAS_EPS
            outcome = solve_event(candidates, target0 - frozen, k, beta)
            ledger.raise_dual(tau, target0, outcome.delta_y, rates)
            for flush, f, A, c in candidates:
                new_phi = min(1.0, phi_closed_form(A + f * outcome.delta_y, c, k, beta))
                delta = new_phi - sol.phi.get(flush, 0.0)
                if delta > 0.0:
                    sol.apply(tau, flush, delta)
            if outcome.kind == "flush-tightened":
                flush0 = outcome.flush
                ledger.mass[flush0] = instance.costs[flush0[0]]
                sol.snap_to_one(tau, flush0)
        else:
            raise AssertionError(f"dual raising did not converge at step {tau}")
    return FracResult(solution=sol, ledger=ledger, primal_cost=sol.cost)
