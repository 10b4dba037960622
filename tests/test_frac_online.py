import json
import math
import random

import pytest

from blockcache.frac_online import (
    FractionalSolution,
    integrate_rate_law,
    phi_closed_form,
    run_fractional,
    solve_event,
)
from blockcache.instance import Instance, gen_random
from blockcache.oracle import opt_eviction
from blockcache.submodular import check_feasible


def run_checked(inst):
    res = run_fractional(inst)
    res.ledger.check_feasible(inst)
    assert res.primal_cost <= res.competitive_bound * res.ledger.objective + 1e-6
    return res


def test_closed_form_endpoints():
    for k, beta, c in [(1, 1, 1.0), (4, 2, 3.5), (7, 3, 0.25)]:
        assert phi_closed_form(0.0, c, k, beta) == 0.0
        assert phi_closed_form(c, c, k, beta) == 1.0
        mid = phi_closed_form(0.5 * c, c, k, beta)
        assert 0.0 < mid < 1.0


def test_closed_form_known_value():
    # k=1, beta=1, c=1, A=0.5: (2^0.5 - 1)
    assert phi_closed_form(0.5, 1.0, 1, 1) == pytest.approx(
        math.sqrt(2) - 1, abs=1e-12
    )


def test_closed_form_matches_integrator():
    rng = random.Random(3)
    for _ in range(8):
        k = rng.randint(1, 6)
        beta = rng.randint(1, k)
        c = rng.uniform(0.3, 2.0)
        A = rng.uniform(0.0, c)
        closed = phi_closed_form(A, c, k, beta)
        integ = integrate_rate_law(A, c, k, beta, step=1e-4)
        assert abs(closed - integ) < 1e-6


def test_solve_event_single_candidate():
    out = solve_event([((0, 1), 1, 0.0, 1.0)], target=1.0, k=1, beta=1)
    assert out.kind == "flush-tightened"
    assert out.flush == (0, 1)
    assert out.delta_y == pytest.approx(1.0)


def test_solve_event_primal_satisfied_root():
    # two symmetric candidates, kb=2: 2 * (3^y - 1)/2 = 1 at y = log_3 2
    cands = [((0, 2), 1, 0.0, 1.0), ((1, 3), 1, 0.0, 1.0)]
    out = solve_event(cands, target=1.0, k=2, beta=1)
    assert out.kind == "primal-satisfied"
    assert out.delta_y == pytest.approx(math.log(2) / math.log(3), abs=1e-9)


def test_solve_event_zero_rate_never_tightens():
    cands = [((0, 1), 1, 0.0, 1.0), ((1, 1), 0, 0.9, 1.0)]
    out = solve_event([c for c in cands if c[1] >= 1], target=1.0, k=1, beta=1)
    assert out.flush == (0, 1)


def test_three_singletons_example():
    inst = Instance(
        n=3, k=2, blocks=((1,), (2,), (3,)), costs=(1.0,) * 3, requests=(1, 2, 3)
    )
    res = run_checked(inst)
    phi = res.solution.phi
    assert phi[(0, 2)] == pytest.approx(0.5, abs=1e-9)
    assert phi[(1, 3)] == pytest.approx(0.5, abs=1e-9)
    assert res.primal_cost == pytest.approx(1.0, abs=1e-9)


def test_single_candidate_collapses_to_integral():
    inst = Instance(n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 2))
    res = run_checked(inst)
    assert res.primal_cost == pytest.approx(1.0)
    assert (0, 2) in res.solution.integral
    assert res.solution.phi[(0, 2)] == 1.0


def test_repeated_single_page_no_increments():
    inst = Instance(n=2, k=1, blocks=((1,), (2,)), costs=(1.0, 1.0), requests=(1, 1, 1))
    res = run_checked(inst)
    assert not res.solution.increments
    assert res.primal_cost == 0.0


def test_monotone_increments_and_replay():
    for seed in range(10):
        inst = gen_random(8, 4, 2, 20, seed=seed)
        res = run_checked(inst)
        sol = res.solution
        assert all(inc.delta > 0 for inc in sol.increments)
        taus = [inc.tau for inc in sol.increments]
        assert taus == sorted(taus)
        for inc in sol.increments:
            assert inc.flush[1] <= inc.tau  # causal: touches the past only
        replayed = FractionalSolution.replay(
            inst, [(i.tau, i.flush, i.delta) for i in sol.increments]
        )
        for fl, v in sol.phi.items():
            assert replayed.phi.get(fl, 0.0) == pytest.approx(v, abs=1e-12)


def test_integral_set_values_snapped():
    for seed in range(10):
        inst = gen_random(7, 3, 2, 16, seed=50 + seed)
        res = run_checked(inst)
        for fl in res.solution.integral:
            assert res.solution.phi[fl] == 1.0
        for fl, v in res.solution.phi.items():
            assert -1e-15 <= v <= 1.0


def test_rate_inequality_holds():
    # run_fractional asserts the rate inequality at every event
    for seed in range(8):
        inst = gen_random(7, 3, 3, 14, seed=seed)
        run_checked(inst)


def test_dual_objective_below_oracle():
    for seed in range(20):
        inst = gen_random(6, 3, 2, 10, seed=400 + seed)
        res = run_checked(inst)
        opt, _ = opt_eviction(inst)
        assert res.ledger.objective <= opt + 1e-6


def test_weighted_run():
    inst = gen_random(
        10, 4, 2, 30, cost_profile="log-uniform", delta=6.0, seed=8
    )
    run_checked(inst)


def test_feasible_at_every_step_standalone():
    # re-derive feasibility from the final solution restricted to each step
    inst = gen_random(8, 4, 2, 18, seed=21)
    res = run_fractional(inst)
    partial = {(b, 0): 1.0 for b in range(inst.num_blocks)}
    inc_iter = iter(res.solution.increments)
    pending = next(inc_iter, None)
    for tau in range(1, inst.T + 1):
        while pending is not None and pending.tau <= tau:
            partial[pending.flush] = partial.get(pending.flush, 0.0) + pending.delta
            pending = next(inc_iter, None)
        ok, _ = check_feasible(partial, res.oracle, tau)
        assert ok


def test_feasible_against_all_constraint_sets():
    # the solver separates over every set containing the integral flushes,
    # so the final prefix solutions must pass the full check as well
    for seed in range(8):
        inst = gen_random(7, 3, 2, 14, seed=70 + seed)
        res = run_fractional(inst)
        partial = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        inc_iter = iter(res.solution.increments)
        pending = next(inc_iter, None)
        for tau in range(1, inst.T + 1):
            while pending is not None and pending.tau <= tau:
                partial[pending.flush] = (
                    partial.get(pending.flush, 0.0) + pending.delta
                )
                pending = next(inc_iter, None)
            ok, bad = check_feasible(partial, res.oracle, tau)
            assert ok, f"violated set at tau={tau}: {sorted(bad)}"


def test_increment_file_round_trip(tmp_path):
    inst = gen_random(6, 3, 2, 12, seed=31)
    res = run_checked(inst)
    path = tmp_path / "inc.jsonl"
    res.solution.save_increments(str(path))
    entries = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            entries.append((rec["tau"], (rec["block"], rec["t"]), rec["delta"]))
    replayed = FractionalSolution.replay(inst, entries)
    assert replayed.cost == pytest.approx(res.primal_cost, abs=1e-6)


def test_apply_rejects_nonpositive():
    inst = gen_random(4, 2, 2, 4, seed=0)
    sol = FractionalSolution(inst)
    with pytest.raises(ValueError):
        sol.apply(1, (0, 1), 0.0)
