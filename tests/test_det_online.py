import dataclasses
import json

import pytest

from blockcache import det_online, frac_online
from blockcache.det_online import (
    DUAL_EPS, DualLedger, first_tight, next_tight_increase, priced_candidates, run_deterministic
)
from blockcache.instance import Instance, RequestIndex, gen_beta_off, gen_random, round12
from blockcache.oracle import opt_eviction
from blockcache.submodular import CoverageOracle

from reference import raise_dual_keeping_zeros


def run_and_check(inst):
    res = run_deterministic(inst)
    res.trace.validate()
    res.ledger.check_feasible(inst)
    return res


def test_two_singleton_blocks():
    inst = Instance(
        n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2, 1)
    )
    res = run_and_check(inst)
    assert res.primal_cost == 2.0
    assert {fl for step in res.trace.steps for fl in step.flushes} >= {(0, 2), (1, 3)}
    opt, _ = opt_eviction(inst)
    assert opt == 2.0
    assert res.ledger.objective <= opt + 1e-6


def test_no_overflow_no_cost():
    inst = Instance(n=3, k=2, blocks=((1,), (2,), (3,)), costs=(1.0,) * 3, requests=(1, 1, 1, 1))
    res = run_and_check(inst)
    assert res.primal_cost == 0.0
    assert res.ledger.objective == 0.0
    assert not res.ledger.records


def test_two_blocks_of_two():
    inst = Instance(
        n=4,
        k=2,
        blocks=((1, 2), (3, 4)),
        costs=(1.0, 1.0),
        requests=(1, 2, 3, 4, 1, 2),
    )
    res = run_and_check(inst)
    opt, _ = opt_eviction(inst)
    assert res.primal_cost <= inst.k * opt


def test_primal_at_most_k_times_dual():
    # unit and log-uniform costs, and both beta-off directions, which start
    # from a full cache that det pays to evict
    insts = [gen_random(7, 3, 2, 14, seed=seed) for seed in range(30)]
    insts += [
        gen_random(7, 3, 2, 14, cost_profile="log-uniform", delta=8.0, seed=seed)
        for seed in range(30)
    ]
    insts += [
        gen_beta_off(beta, L, direction)
        for beta in (2, 3)
        for L in (1, 2, 3)
        for direction in ("evict-heavy", "fetch-heavy")
    ]
    for inst in insts:
        res = run_and_check(inst)
        assert res.primal_cost <= inst.k * res.ledger.objective + 1e-9
        for rec in res.ledger.records:
            assert rec.coefficient >= 1


def test_against_oracle_random_sample():
    for seed in range(40):
        inst = gen_random(6, 3, 2, 10, seed=1000 + seed)
        res = run_and_check(inst)
        opt, _ = opt_eviction(inst)
        assert res.primal_cost <= inst.k * opt + 1e-9
        assert res.ledger.objective <= opt + 1e-6


@pytest.mark.parametrize("direction", ["evict-heavy", "fetch-heavy"])
def test_beta_off_pays_to_evict_the_starting_cache(direction):
    # det starts from the starting cache and pays to evict it, as the
    # eviction optimum does, so it cannot undercut that optimum
    inst = gen_beta_off(2, 2, direction)
    res = run_and_check(inst)
    assert res.trace.cache_at(0) == inst.initial_cache
    opt, _ = opt_eviction(inst)
    assert opt <= res.primal_cost <= inst.k * opt
    assert res.ledger.objective <= opt + 1e-6


def test_weighted_costs():
    for seed in range(15):
        inst = gen_random(
            6, 3, 2, 12, cost_profile="log-uniform", delta=5.0, seed=seed
        )
        res = run_and_check(inst)
        opt, _ = opt_eviction(inst)
        assert res.primal_cost <= inst.k * opt + 1e-9
        assert res.ledger.objective <= opt + 1e-6


def test_flushed_constraints_are_tight():
    inst = gen_random(8, 3, 3, 16, seed=9)
    res = run_and_check(inst)
    flushed = {b for step in res.trace.steps for b, _t in step.flushes}
    assert flushed
    for b in flushed:
        # mass is tracked under the alive flush chosen at that step
        assert any(
            abs(a - inst.costs[bb]) <= 1e-9
            for (bb, _t), a in res.ledger.mass.items()
            if bb == b
        )
    # a tight constraint may overshoot c_B by float error only
    fl = next(fl for fl, a in res.ledger.mass.items() if a == inst.costs[fl[0]])
    res.ledger.mass[fl] += 0.5 * DUAL_EPS
    res.ledger.check_feasible(inst)
    res.ledger.mass[fl] += DUAL_EPS
    with pytest.raises(AssertionError, match="overshot") as err:
        res.ledger.check_feasible(inst)
    # the message names the flush, its mass, c_B and the excess
    a, c = res.ledger.mass[fl], inst.costs[fl[0]]
    assert str(err.value) == (
        f"dual constraint of flush {fl} overshot: mass {a} > c_B {c} by {a - c}"
    )


def test_next_tight_increase_tie_break():
    # two candidates with equal gaps: (c=1, A=0, f=2) vs (c=1, A=0.5, f=1)
    inst = Instance(
        n=4,
        k=2,
        blocks=((1, 2), (3,), (4,)),
        costs=(1.0, 1.0, 1.0),
        requests=(1, 2, 3),
    )
    oracle = CoverageOracle(inst, RequestIndex(inst))
    ledger = DualLedger()
    S = [0] * inst.num_blocks
    tau = 3
    residual = inst.n - inst.k - oracle.f_tau(S, tau)
    # alive: (0,2) covering p1, (0,3) covering p2... marginals computed live;
    # plant mass to force the tie between lexicographically ordered flushes
    cands = {
        fl: m
        for fl in oracle.index.alive_flushes(tau)
        if (m := oracle.marginal(S, fl, tau, residual)) >= 1
    }
    assert cands
    flush, dy, rates = next_tight_increase(ledger, S, oracle, tau, residual)
    best_gap = min((inst.costs[fl[0]] - 0.0) / m for fl, m in cands.items())
    achievers = sorted(
        fl for fl, m in cands.items() if abs(inst.costs[fl[0]] / m - best_gap) < 1e-15
    )
    assert flush == achievers[0]
    assert abs(dy - best_gap) < 1e-15
    assert rates == cands
    with pytest.raises(AssertionError, match="no candidate"):
        first_tight([])


def test_priced_candidates_in_flush_order():
    # det and frac both pass priced_candidates' list to first_tight, whose
    # tie band makes its answer depend on the order
    for seed in range(4):
        inst = gen_random(16, 8, 4, 40, seed=seed)
        oracle = CoverageOracle(inst, RequestIndex(inst))
        S = [0] * inst.num_blocks
        for tau in range(1, inst.T + 1):
            residual = inst.n - inst.k - oracle.f_tau(S, tau)
            candidates = priced_candidates(DualLedger(), S, oracle, tau, residual)
            flushes = [fl for fl, _m, _A, _c in candidates]
            assert flushes == sorted(flushes), (seed, tau)


def test_priced_candidates_match_pricing_every_flush(monkeypatch):
    # priced_candidates skips an alive flush at or before its block's
    # latest flush in S without pricing it; at every event of det and frac
    # runs it must return what pricing each alive flush returns
    def priced_by_marginal(ledger, S, oracle, tau, residual):
        candidates = []
        for flush in sorted(oracle.index.alive_flushes(tau)):
            m = oracle.marginal(S, flush, tau, residual)
            if m >= 1:
                cost = oracle.instance.costs[flush[0]]
                candidates.append((flush, m, ledger.mass.get(flush, 0.0), cost))
        return candidates

    skipped_before_latest = 0

    def checked(ledger, S, oracle, tau, residual):
        nonlocal skipped_before_latest
        candidates = priced_candidates(ledger, S, oracle, tau, residual)
        assert candidates == priced_by_marginal(ledger, S, oracle, tau, residual)
        skipped_before_latest += sum(1 for b, t in oracle.index.alive_flushes(tau) if t < S[b])
        return candidates

    monkeypatch.setattr(det_online, "priced_candidates", checked)
    monkeypatch.setattr(frac_online, "priced_candidates", checked)
    for seed in range(3):
        inst = gen_random(12, 6, 3, 30, seed=seed)
        run_deterministic(inst)
        frac_online.run_fractional(inst)
    assert skipped_before_latest > 0


def test_certificate_file(tmp_path):
    inst = gen_random(6, 3, 2, 10, seed=2)
    res = run_and_check(inst)
    path = tmp_path / "cert.json"
    res.ledger.write_certificate(str(path))
    doc = json.loads(path.read_text())
    # only the positive dual: no zero raise, no copied cost, no primal cost
    assert "primal_cost" not in doc
    assert doc["records"] and all(rec["y"] > 0 for rec in doc["records"])
    assert doc["dual_objective"] == pytest.approx(res.ledger.objective, abs=1e-9)
    for rec in doc["mass"]:
        assert "cost" not in rec
        assert rec["mass"] <= inst.costs[rec["block"]] + 1e-9


def test_certificate_holds_the_positive_dual_only(monkeypatch, tmp_path):
    # on tiny det and frac runs, both cost profiles, with and without a
    # starting cache: no record of a zero raise, no mass entry without mass,
    # no copy of a cost; keeping the zero raises, as the reference ledger
    # does, gives the same objective and the same positive masses
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def instances(draw):
        n = draw(st.integers(3, 9))
        k = draw(st.integers(1, n - 1))
        profile = draw(st.sampled_from(["unit", "log-uniform"]))
        inst = gen_random(
            n, k, draw(st.integers(1, k)), draw(st.integers(4, 20)), cost_profile=profile,
            delta=draw(st.sampled_from([1.0, 4.0, 10.0])), seed=draw(st.integers(0, 2**16)),
        )
        cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        return dataclasses.replace(inst, initial_cache=frozenset(cached))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(instances(), st.sampled_from([run_deterministic, frac_online.run_fractional]))
    def check(inst, run):
        res = run(inst)
        res.ledger.write_certificate(str(tmp_path / "cert.json"))
        doc = json.loads((tmp_path / "cert.json").read_text())
        assert set(doc) == {"records", "dual_objective", "mass"}
        assert all(rec["y"] > 0 for rec in doc["records"])
        for entry in doc["mass"]:
            assert set(entry) == {"block", "t", "mass"}
            assert 0 < entry["mass"] <= inst.costs[entry["block"]] + DUAL_EPS
        with monkeypatch.context() as m:
            m.setattr(DualLedger, "raise_dual", raise_dual_keeping_zeros)
            ref = run(inst)
        assert res.ledger.objective == ref.ledger.objective
        assert res.ledger.records == [r for r in ref.ledger.records if r.y != 0.0]
        assert res.ledger.mass == {fl: a for fl, a in ref.ledger.mass.items() if a > 0.0}

    check()


def test_streamed_certificate_is_the_dumped_document(tmp_path):
    # property: write_certificate, which writes one entry at a time, writes
    # the bytes of json.dumps of the whole document, built here from the
    # ledger: det and frac runs, and a ledger with no records
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "cert.json"

    def check_ledger(ledger):
        doc = {
            "records": [
                {"tau": r.tau, "coefficient": r.coefficient, "y": round12(r.y)}
                for r in ledger.records
            ],
            "dual_objective": round12(ledger.objective),
            "mass": [
                {"block": b, "t": t, "mass": round12(a)}
                for (b, t), a in sorted(ledger.mass.items())
            ],
        }
        ledger.write_certificate(str(path))
        assert path.read_text() == json.dumps(doc) + "\n"

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        st.integers(2, 9), st.data(), st.integers(0, 2**16),
        st.sampled_from([run_deterministic, frac_online.run_fractional]),
    )
    def check(n, data, seed, run):
        k = data.draw(st.integers(1, n - 1))
        profile = data.draw(st.sampled_from(["unit", "log-uniform"]))
        inst = gen_random(
            n, k, data.draw(st.integers(1, k)), data.draw(st.integers(1, 20)),
            cost_profile=profile, delta=10.0, seed=seed,
        )
        check_ledger(run(inst).ledger)

    check()
    empty = DualLedger()
    check_ledger(empty)
    assert path.read_text() == '{"records": [], "dual_objective": 0.0, "mass": []}\n'


def test_trace_matches_flush_set():
    # at most one flush per step, made at that step, and the primal cost is
    # the block costs of the flushes summed
    inst = gen_random(7, 3, 2, 14, seed=77)
    res = run_and_check(inst)
    recorded = [fl for step in res.trace.steps for fl in step.flushes]
    assert recorded
    for step in res.trace.steps:
        assert len(step.flushes) <= 1 and all(t == step.t for _b, t in step.flushes)
    assert res.primal_cost == sum(inst.costs[b] for b, _ in recorded)


def test_dual_coefficient_is_always_one(monkeypatch):
    # a starting cache holds at most k pages and a step adds at most one, so
    # an overflow has |cache| = k + 1 and n - k - f_tau(S) = |cache| - k = 1:
    # det prices at residual 1, every priced marginal is 1, and the
    # candidates are exactly (B(q), r(q,tau) + 1) over the cached pages q
    # other than the request; drawn over unit and log-uniform random
    # instances and both beta-off directions, which start from a full cache
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pricings = []

    def recorded(ledger, latest, oracle, tau, residual):
        candidates = priced_candidates(ledger, latest, oracle, tau, residual)
        pricings.append((tau, residual, candidates))
        return candidates

    monkeypatch.setattr(det_online, "priced_candidates", recorded)

    @st.composite
    def instances(draw):
        if draw(st.booleans()):
            return gen_beta_off(
                draw(st.integers(2, 3)), draw(st.integers(1, 2)),
                draw(st.sampled_from(["evict-heavy", "fetch-heavy"])),
            )
        n = draw(st.integers(2, 10))
        k = draw(st.integers(1, n - 1))
        return gen_random(
            n, k, draw(st.integers(1, k)), draw(st.integers(1, 30)),
            cost_profile=draw(st.sampled_from(["unit", "log-uniform"])), delta=8.0,
            seed=draw(st.integers(0, 2**16)),
        )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(instances())
    def check(inst):
        pricings.clear()
        res = run_deterministic(inst)
        index = RequestIndex(inst)
        # one pricing per overflow, and det flushes once at each
        assert len(pricings) == sum(1 for step in res.trace.steps if step.flushes)
        assert all(r.coefficient == 1 for r in res.ledger.records)
        for tau, residual, candidates in pricings:
            p = inst.request(tau)
            cache = res.trace.cache_at(tau - 1) | {p}
            assert len(cache) == inst.k + 1 and residual == 1
            assert all(m == 1 for _fl, m, _A, _c in candidates)
            assert {fl for fl, *_ in candidates} == {
                (inst.block_of(q), index.last_request(q, tau) + 1) for q in cache - {p}
            }

    check()
