import math
import random

import pytest

from blockcache import submodular
from blockcache.det_online import first_tight
from blockcache.frac_online import (
    ROOT_REL,
    FractionalSolution,
    load_increments,
    phi_closed_form,
    replay_failures,
    run_fractional,
    solve_event,
)
from blockcache.instance import Instance, gen_random
from blockcache.oracle import opt_eviction
from blockcache.rounding import structure_stream
from blockcache.submodular import flush_cost
from reference import (
    integrate_rate_law, most_violated_constraint_reference, solve_event_reference
)


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
    assert out.delta_y == pytest.approx(math.log(2) / math.log(3), abs=ROOT_REL)


# The first dual event of gen_random(32, 16, 4, 100, cost_profile="log-uniform",
# delta=8.0, seed=1), at tau=22: Newton's last iterate lands 4e-16 below the
# target in floats, and the safeguard's iterate one tolerance up is returned
SAFEGUARD_EVENT = (
    [(flush, 1, 0.0, c) for flush, c in [
        ((0, 12), 4.866360545663235), ((2, 13), 6.866238028478127),
        ((3, 16), 2.376008202560825), ((3, 17), 2.376008202560825),
        ((3, 19), 2.376008202560825), ((5, 4), 6.804860974987502),
        ((5, 9), 6.804860974987502), ((8, 3), 4.503095365367147),
        ((8, 18), 4.503095365367147), ((9, 10), 1.8521117884120137),
        ((9, 21), 1.8521117884120137), ((10, 22), 4.689519087599668),
        ((11, 8), 6.43850698958872), ((11, 20), 6.43850698958872),
        ((12, 2), 7.567185288712953), ((12, 5), 7.567185288712953),
    ]],
    1.0, 16, 4,
)


def test_solve_event_newton_matches_bisection_reference():
    # property: Newton from the right picks the bisection's event, and a
    # primal-satisfied root has g >= target, lies at or below the tight
    # point and is within two tolerances of the bisection's root
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def g(cands, y, k, beta):
        return sum(f * phi_closed_form(A + f * y, c, k, beta) for _fl, f, A, c in cands)

    @st.composite
    def events(draw):
        k = draw(st.integers(1, 16))
        beta = draw(st.integers(1, min(k, 64 // k)))
        log_uniform = draw(st.booleans())
        cands = []
        for i in range(draw(st.integers(1, 25))):
            c = 8.0 ** draw(st.floats(0.0, 1.0)) if log_uniform else 1.0
            A = draw(st.floats(0.0, 1.0, exclude_max=True)) * c
            cands.append(((i, 1), draw(st.integers(1, 8)), A, c))
        g0 = g(cands, 0.0, k, beta)
        g_tight = g(cands, first_tight(cands)[0], k, beta)
        target = g0 + draw(st.floats(0.0, 1.5, exclude_min=True)) * (g_tight - g0)
        return cands, target, k, beta

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(events())
    @hypothesis.example(SAFEGUARD_EVENT)
    def check(event):
        cands, target, k, beta = event
        out, ref = solve_event(*event), solve_event_reference(*event)
        assert (out.kind, out.flush) == (ref.kind, ref.flush)
        if out.kind == "flush-tightened":
            assert out.delta_y == ref.delta_y
            return
        y = out.delta_y
        assert g(cands, y, k, beta) >= target
        assert y <= first_tight(cands)[0]
        assert abs(y - ref.delta_y) <= 2 * ROOT_REL * max(1.0, ref.delta_y)

    check()


def test_solve_event_raises_when_newton_does_not_converge():
    with pytest.raises(AssertionError, match="did not converge"):
        solve_event([((0, 1), 1, 0.0, 1.0)], target=math.nan, k=1, beta=1)


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
        replayed = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        for _tau, fl, delta in sol.increments:
            replayed[fl] = replayed.get(fl, 0.0) + delta
        for fl, v in sol.phi.items():
            assert replayed.get(fl, 0.0) == pytest.approx(v, abs=1e-12)


def test_integral_set_values_snapped():
    for seed in range(10):
        inst = gen_random(7, 3, 2, 16, seed=50 + seed)
        res = run_checked(inst)
        for fl, mass in res.ledger.mass.items():
            if mass == inst.costs[fl[0]]:  # tight dual constraint
                assert res.solution.phi[fl] == 1.0
        for fl, v in res.solution.phi.items():
            assert -1e-15 <= v <= 1.0
    # snapping a partial flush logs the top-up and ends at exactly 1
    sol = FractionalSolution(gen_random(4, 2, 2, 4, seed=0))
    sol.apply(1, (0, 1), 0.3)
    sol.snap_to_one(2, (0, 1))
    assert sol.phi[(0, 1)] == 1.0
    assert sol.increments[-1] == (2, (0, 1), 1.0 - 0.3)


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
    assert replay_failures(run_fractional(inst).solution.increments, inst) == []


def test_feasible_against_all_constraint_sets():
    # the solver separates over every set containing the integral flushes,
    # so the final prefix solutions must pass the full check as well
    for seed in range(8):
        inst = gen_random(7, 3, 2, 14, seed=70 + seed)
        assert replay_failures(run_fractional(inst).solution.increments, inst) == []


def test_increment_file_round_trip(tmp_path):
    inst = gen_random(6, 3, 2, 12, seed=31)
    res = run_checked(inst)
    path = tmp_path / "inc.jsonl"
    res.solution.save_increments(str(path))
    replayed: dict = {}
    for _tau, fl, delta in load_increments(str(path), inst):
        replayed[fl] = replayed.get(fl, 0.0) + delta
    assert flush_cost(replayed, inst) == pytest.approx(res.primal_cost, abs=1e-6)


def test_saved_increment_log_loads_as_the_run_made_it(tmp_path):
    # a frac-mid shape: every delta and phi_after is written exactly, so the
    # loaded log is the in-memory one, and so is anything built from it
    inst = gen_random(32, 16, 4, 100, cost_profile="log-uniform", delta=8, seed=0)
    sol = run_fractional(inst).solution
    path = tmp_path / "inc.jsonl"
    sol.save_increments(str(path))
    loaded = load_increments(str(path), inst)
    assert len(loaded) > 1000
    assert loaded == sol.increments
    assert structure_stream(loaded, inst).x == structure_stream(sol.increments, inst).x


def test_apply_rejects_nonpositive():
    inst = gen_random(4, 2, 2, 4, seed=0)
    sol = FractionalSolution(inst)
    with pytest.raises(ValueError):
        sol.apply(1, (0, 1), 0.0)


@pytest.mark.parametrize("profile", ["unit", "log-uniform"])
@pytest.mark.parametrize("seed", [0, 1])
def test_run_matches_reference_separation_on_bench_shape(monkeypatch, profile, seed):
    # the frac-mid instance shape: the separation's coverage index, state
    # window and flat arrays leave every increment and dual record as the
    # reference separation makes them, bit for bit
    inst = gen_random(32, 16, 4, 100, cost_profile=profile, delta=8.0, seed=seed)
    res = run_fractional(inst)
    monkeypatch.setattr(submodular, "most_violated_constraint", most_violated_constraint_reference)
    ref = run_fractional(inst)
    assert res.solution.increments == ref.solution.increments
    assert res.ledger.records == ref.ledger.records
