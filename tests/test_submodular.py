import random
from itertools import combinations

from blockcache.instance import Instance, RequestIndex, gen_random
from blockcache.submodular import (
    CoverageOracle,
    FlushSet,
    PhiView,
    check_feasible,
    check_feasible_exhaustive,
    constraint_slack,
    most_violated_constraint,
    x_from_phi,
)


def make_oracle(inst):
    return CoverageOracle(inst, RequestIndex(inst))


def worked_example():
    """8 pages, 3 blocks, k=4; two flushes with known coverage values."""
    inst = Instance(
        n=8,
        k=4,
        blocks=((1, 2, 3), (4, 5, 6), (7, 8)),
        costs=(1.0, 1.0, 1.0),
        requests=(1, 2, 3, 4, 5, 6, 3, 7, 8),
    )
    return inst, make_oracle(inst)


def naive_is_missing(inst, idx, S, p, tau):
    """Straight-from-definition recomputation, no index tricks."""
    r = idx.last_request(p, tau)
    lo = r if r is not None else -1
    b = inst.block_of(p)
    return any(bb == b and lo < t <= tau for bb, t in S)


def random_flush_set(rng, inst, max_size=6, with_zero=False):
    ground = [(b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)]
    chosen = rng.sample(ground, rng.randint(0, min(max_size, len(ground))))
    S = FlushSet(inst.num_blocks, with_time_zero=with_zero)
    for b, t in chosen:
        S.add(b, t)
    return S


def test_worked_example_values():
    inst, oracle = worked_example()
    tau = 9
    s1 = FlushSet.from_flushes(3, [(0, 4)])
    s2 = FlushSet.from_flushes(3, [(1, 8)])
    s12 = FlushSet.from_flushes(3, [(0, 4), (1, 8)])
    assert oracle.f_tau(s1, tau) == 2
    assert oracle.f_tau(s2, tau) == 3
    assert oracle.f_tau(s12, tau) == 4  # capped at n - k
    assert oracle.marginal(s1, (1, 8), tau) == 2
    assert oracle.marginal(FlushSet(3, with_time_zero=False), (1, 8), tau) == 3


def test_missing_basics():
    inst, oracle = worked_example()
    S = FlushSet(3)  # time-0 flushes only
    # requested page is never missing at its own request time
    for tau in range(1, inst.T + 1):
        assert not oracle.is_missing(S, inst.request(tau), tau)
    # page 8 is unrequested before tau=8 and missing via the time-0 flush
    assert oracle.is_missing(S, 8, 5)
    empty = FlushSet(3, with_time_zero=False)
    assert not oracle.is_missing(empty, 8, 5)


def test_missing_interval_semantics():
    inst = Instance(
        n=3, k=2, blocks=((1, 2), (3,)), costs=(1.0, 1.0), requests=(1, 2, 3, 1, 2)
    )
    oracle = make_oracle(inst)
    # r(1,5)=4: a flush at t=5 covers, a flush at t<=4 does not
    hit = FlushSet.from_flushes(2, [(0, 5)])
    miss = FlushSet.from_flushes(2, [(0, 4)])
    assert oracle.is_missing(hit, 1, 5)
    assert not oracle.is_missing(miss, 1, 5)


def test_index_matches_naive_recomputation():
    rng = random.Random(7)
    for trial in range(30):
        inst = gen_random(7, 3, 2, 10, seed=trial)
        idx = RequestIndex(inst)
        oracle = CoverageOracle(inst, idx)
        S = random_flush_set(rng, inst, with_zero=rng.random() < 0.5)
        tau = rng.randint(1, inst.T)
        for p in range(1, inst.n + 1):
            assert oracle.is_missing(S, p, tau) == naive_is_missing(
                inst, idx, set(S), p, tau
            )


def test_monotone_and_submodular_samples():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(4, 8)
        inst = gen_random(n, rng.randint(2, min(4, n)), 2, 8, seed=trial)
        oracle = make_oracle(inst)
        tau = rng.randint(1, inst.T)
        S = random_flush_set(rng, inst)
        Sp = S.copy()
        ground = [(b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)]
        for _ in range(rng.randint(1, 3)):
            Sp.add(*rng.choice(ground))
        v = rng.choice(ground)
        assert oracle.f_tau(S, tau) <= oracle.f_tau(Sp, tau)
        if v not in Sp:
            assert oracle.marginal(S, v, tau) >= oracle.marginal(Sp, v, tau)


def test_marginal_matches_difference():
    rng = random.Random(13)
    for trial in range(100):
        inst = gen_random(6, 3, 2, 8, seed=100 + trial)
        oracle = make_oracle(inst)
        tau = rng.randint(1, inst.T)
        S = random_flush_set(rng, inst, with_zero=rng.random() < 0.5)
        b = rng.randrange(inst.num_blocks)
        t = rng.randint(0, inst.T)
        Sv = S.copy()
        Sv.add(b, t)
        assert oracle.marginal(S, (b, t), tau) == oracle.f_tau(
            Sv, tau
        ) - oracle.f_tau(S, tau)


def test_marginal_bounds():
    rng = random.Random(17)
    for trial in range(50):
        inst = gen_random(6, 3, 2, 8, seed=200 + trial)
        oracle = make_oracle(inst)
        tau = rng.randint(1, inst.T)
        S = random_flush_set(rng, inst)
        b = rng.randrange(inst.num_blocks)
        t = rng.randint(0, inst.T)
        m = oracle.marginal(S, (b, t), tau)
        cap = inst.n - inst.k - oracle.f_tau(S, tau)
        assert 0 <= m <= min(inst.beta, cap)
        S.add(b, t)
        assert oracle.marginal(S, (b, t), tau) == 0


def test_cap_reached_by_all_flushes():
    inst = gen_random(6, 2, 2, 12, seed=5)
    oracle = make_oracle(inst)
    S = FlushSet(inst.num_blocks)
    for b in range(inst.num_blocks):
        for t in range(1, inst.T + 1):
            S.add(b, t)
    for tau in range(1, inst.T + 1):
        assert oracle.f_tau(S, tau) == inst.n - inst.k


def test_integer_point_characterization():
    # feasible integral flush sets are exactly those covering n-k at every tau
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0), requests=(1, 3, 2)
    )
    oracle = make_oracle(inst)
    ground = [(b, t) for b in range(2) for t in range(inst.T + 1)]
    for size in range(len(ground) + 1):
        for combo in combinations(ground, size):
            S = FlushSet.from_flushes(2, combo)
            phi = {fl: 1.0 for fl in combo}
            covers = all(
                oracle.f_tau(S, tau) == inst.n - inst.k
                for tau in range(1, inst.T + 1)
            )
            satisfies = all(
                check_feasible_exhaustive(phi, oracle, tau)[0]
                for tau in range(1, inst.T + 1)
            )
            assert covers == satisfies


def test_constraint_slack_signs():
    inst = Instance(
        n=3, k=1, blocks=((1,), (2,), (3,)), costs=(1.0,) * 3, requests=(1, 2)
    )
    oracle = make_oracle(inst)
    zero = {(b, 0): 1.0 for b in range(3)}
    S0 = FlushSet(3)
    # at tau=2 only page 3 is missing under time-0 flushes; need n-k=2
    assert constraint_slack(zero, S0, oracle, 2) < 0
    ok, bad = check_feasible(zero, oracle, 2)
    assert not ok and bad is not None
    full = dict(zero)
    full[(0, 2)] = 1.0
    ok, _ = check_feasible(full, oracle, 2)
    assert ok


def test_separation_matches_exhaustive_enumeration():
    # the per-block threshold search must find a violated constraint set
    # exactly when brute force over all sets containing the integral
    # flushes does, with matching certificate slack
    rng = random.Random(29)
    for trial in range(30):
        n = rng.randint(3, 4)
        k = rng.randint(1, n - 1)
        inst = gen_random(n, k, min(2, k), rng.randint(2, 3), seed=trial)
        oracle = make_oracle(inst)
        phi = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        for _ in range(rng.randint(0, 6)):
            b = rng.randrange(inst.num_blocks)
            t = rng.randint(1, inst.T)
            bump = rng.choice([0.2, 0.5, 1.0]) * rng.random() * 2
            phi[(b, t)] = min(1.0, phi.get((b, t), 0.0) + bump)
        tau = rng.randint(1, inst.T)
        integral = [fl for fl, v in phi.items() if v >= 1.0]
        ground = [
            (b, t)
            for b in range(inst.num_blocks)
            for t in range(1, inst.T + 1)
            if (b, t) not in integral
        ]
        best = 0.0
        for size in range(len(ground) + 1):
            for combo in combinations(ground, size):
                S = FlushSet.from_flushes(inst.num_blocks, list(combo) + integral)
                best = min(best, constraint_slack(phi, S, oracle, tau))
        slack, S_sep = most_violated_constraint(phi, oracle, tau)
        if best < -1e-9:
            assert abs(slack - best) < 1e-9
            assert abs(constraint_slack(phi, S_sep, oracle, tau) - slack) < 1e-9
            ok, bad = check_feasible(phi, oracle, tau)
            assert not ok and bad is not None
        else:
            assert slack >= -1e-9
            assert check_feasible(phi, oracle, tau)[0]


def test_x_from_phi():
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0), requests=(1, 3, 2, 1)
    )
    oracle = make_oracle(inst)
    phi = {(0, 0): 1.0, (1, 0): 1.0, (0, 2): 0.3, (0, 3): 0.4}
    # r(1,3)=1: window (1,3] holds 0.3+0.4
    assert abs(x_from_phi(phi, oracle, 1, 3) - 0.7) < 1e-12
    # never-requested page 4
    assert x_from_phi(phi, oracle, 4, 3) == 1.0
    # requested page at its own time has an empty window
    assert x_from_phi(phi, oracle, 2, 3) == 0.0
    phi[(0, 3)] = 0.9
    assert x_from_phi(phi, oracle, 1, 3) == 1.0  # capped


def test_phi_view_matches_x_from_phi():
    rng = random.Random(23)
    for trial in range(30):
        inst = gen_random(6, 3, 2, 8, seed=300 + trial)
        oracle = make_oracle(inst)
        phi = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        for _ in range(10):
            b = rng.randrange(inst.num_blocks)
            t = rng.randint(1, inst.T)
            phi[(b, t)] = phi.get((b, t), 0.0) + rng.random() * 0.4
        view = PhiView(phi, inst.num_blocks)
        for p in range(1, inst.n + 1):
            for t in range(1, inst.T + 1):
                assert abs(
                    view.x(oracle, p, t) - x_from_phi(phi, oracle, p, t)
                ) < 1e-12


def test_flush_set_queries():
    S = FlushSet(2, with_time_zero=False)
    S.add(0, 3)
    S.add(0, 7)
    assert S.has_flush_in(0, 2, 3)
    assert not S.has_flush_in(0, 3, 6)
    assert S.has_flush_in(0, 3, 7)
    assert not S.has_flush_in(1, 0, 10)
    assert len(S) == 2 and (0, 3) in S
    C = S.copy()
    C.add(1, 1)
    assert (1, 1) not in S and (1, 1) in C
