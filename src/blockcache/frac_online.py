"""Monotone-incremental fractional algorithm, run as an event-driven
simulation of the continuous primal-dual dynamics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .det_online import DualLedger, first_tight
from .instance import Instance, RequestIndex, round12
from .submodular import (
    CoverageOracle,
    FEAS_EPS,
    Flush,
    FlushSet,
    check_feasible,
    constraint_lhs,
    flush_cost,
)


@dataclass
class Increment:
    tau: int
    flush: Flush
    delta: float
    phi_after: float


@dataclass
class FractionalSolution:
    """Sparse flush values plus the ordered increment log.

    Values only ever increase; flushes in the integral set S have value
    exactly 1 (snapped, because downstream logic branches on it).
    """

    instance: Instance
    phi: dict[Flush, float] = field(default_factory=dict)
    increments: list[Increment] = field(default_factory=list)
    integral: FlushSet | None = None

    def __post_init__(self):
        if not self.phi:
            self.phi = {(b, 0): 1.0 for b in range(self.instance.num_blocks)}
        if self.integral is None:
            self.integral = FlushSet(self.instance.num_blocks)

    def apply(self, tau: int, flush: Flush, delta: float) -> None:
        if delta <= 0.0:
            raise ValueError("increments must be positive")
        new = self.phi.get(flush, 0.0) + delta
        self.phi[flush] = new
        self.increments.append(
            Increment(tau=tau, flush=flush, delta=delta, phi_after=new)
        )

    def snap_to_one(self, tau: int, flush: Flush) -> None:
        cur = self.phi.get(flush, 0.0)
        if cur < 1.0:
            self.apply(tau, flush, 1.0 - cur)
            self.increments[-1].phi_after = 1.0
        self.phi[flush] = 1.0

    @property
    def cost(self) -> float:
        return flush_cost(self.phi, self.instance)

    def save_increments(self, path: str) -> None:
        with open(path, "w") as fh:
            for inc in self.increments:
                fh.write(
                    json.dumps(
                        {
                            "tau": inc.tau,
                            "block": inc.flush[0],
                            "t": inc.flush[1],
                            "delta": round12(inc.delta),
                            "phi_after": round12(inc.phi_after),
                        }
                    )
                )
                fh.write("\n")

    @classmethod
    def replay(cls, instance: Instance, increments) -> "FractionalSolution":
        sol = cls(instance)
        for tau, flush, delta in increments:
            sol.apply(tau, flush, delta)
        return sol


def phi_closed_form(A: float, c_B: float, k: int, beta: int) -> float:
    """Primal value as a function of accumulated dual mass.

    Solves d(phi)/dA = ln(k*beta+1)/c_B * (phi + 1/(k*beta)); the value hits
    exactly 1 when A reaches c_B.
    """
    kb = k * beta
    return ((kb + 1.0) ** (A / c_B) - 1.0) / kb


def integrate_rate_law(
    A: float, c_B: float, k: int, beta: int, step: float = 1e-6
) -> float:
    """Midpoint-rule integration of the growth dynamics, used as an
    independent cross-check of the closed form."""
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

    if g(dy_tight) <= target + 1e-12:
        return EventOutcome(delta_y=dy_tight, kind="flush-tightened", flush=tight_flush)
    lo, hi = 0.0, dy_tight
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return EventOutcome(delta_y=hi, kind="primal-satisfied", flush=None)


@dataclass
class FracResult:
    solution: FractionalSolution
    ledger: DualLedger
    oracle: CoverageOracle
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
    index = RequestIndex(instance)
    oracle = CoverageOracle(instance, index)
    sol = FractionalSolution(instance)
    S = sol.integral
    ledger = DualLedger()
    k, beta = instance.k, instance.beta
    cap = instance.n - instance.k

    for tau in range(1, instance.T + 1):
        for _guard in range(100_000):
            ok, Sv = check_feasible(sol.phi, oracle, tau)
            if ok:
                break
            target0 = cap - oracle.f_tau(Sv, tau)
            lhs = constraint_lhs(sol.phi, Sv, oracle, tau)
            candidates = []
            frozen = lhs
            for flush in sorted(index.alive_flushes(tau)):
                if flush in Sv:
                    continue
                m = oracle.marginal(Sv, flush, tau)
                if m < 1:
                    continue
                A = ledger.mass.get(flush, 0.0)
                c = instance.costs[flush[0]]
                candidates.append((flush, m, A, c))
                frozen -= m * sol.phi.get(flush, 0.0)
            # rate inequality over the alive flushes outside Sv; those that are
            # not candidates have marginal 0
            rate = sum(m for _fl, m, _A, _c in candidates)
            assert rate / (k * beta) <= target0 + FEAS_EPS
            outcome = solve_event(candidates, target0 - frozen, k, beta)
            rates = {fl: f for fl, f, _A, _c in candidates}
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
                S.add(*flush0)
        else:
            raise AssertionError(f"dual raising did not converge at step {tau}")
    return FracResult(
        solution=sol, ledger=ledger, oracle=oracle, primal_cost=sol.cost
    )
