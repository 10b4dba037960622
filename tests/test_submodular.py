import dataclasses
import random
from itertools import combinations

import pytest

from blockcache.instance import Instance, RequestIndex, gen_random
from blockcache.submodular import (
    CoverageOracle,
    PhiView,
    check_feasible,
    constraint_lhs,
    most_violated_constraint,
)
from reference import (
    as_flushes,
    check_feasible_exhaustive,
    constraint_slack,
    is_missing,
    latest_at,
    least_slack,
    most_violated_constraint_reference,
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
    zero = [(b, 0) for b in range(inst.num_blocks)] if with_zero else []
    return set(zero + chosen)


def test_worked_example_values():
    inst, oracle = worked_example()
    tau = 9
    s1 = latest_at([(0, 4)], 3, tau)
    s2 = latest_at([(1, 8)], 3, tau)
    s12 = latest_at([(0, 4), (1, 8)], 3, tau)
    assert oracle.f_tau(s1, tau) == 2
    assert oracle.f_tau(s2, tau) == 3
    assert oracle.f_tau(s12, tau) == 4  # capped at n - k
    assert oracle.marginal(s1, (1, 8), tau, inst.n - inst.k - oracle.f_tau(s1, tau)) == 2
    empty = latest_at([], 3, tau)
    assert oracle.marginal(empty, (1, 8), tau, inst.n - inst.k - oracle.f_tau(empty, tau)) == 3


def test_missing_basics():
    inst, oracle = worked_example()
    S = {(b, 0) for b in range(3)}  # time-0 flushes only
    # requested page is never missing at its own request time
    for tau in range(1, inst.T + 1):
        assert not is_missing(oracle, S, inst.request(tau), tau)
    # page 8 is unrequested before tau=8 and missing via the time-0 flush
    assert is_missing(oracle, S, 8, 5)
    assert not is_missing(oracle, set(), 8, 5)


def test_missing_interval_semantics():
    inst = Instance(
        n=3, k=2, blocks=((1, 2), (3,)), costs=(1.0, 1.0), requests=(1, 2, 3, 1, 2)
    )
    oracle = make_oracle(inst)
    # r(1,5)=4: a flush at t=5 covers, a flush at t<=4 does not
    hit = {(0, 5)}
    miss = {(0, 4)}
    assert is_missing(oracle, hit, 1, 5)
    assert not is_missing(oracle, miss, 1, 5)


def test_index_matches_naive_recomputation():
    rng = random.Random(7)
    for trial in range(30):
        inst = gen_random(7, 3, 2, 10, seed=trial)
        idx = RequestIndex(inst)
        oracle = CoverageOracle(inst, idx)
        S = random_flush_set(rng, inst, with_zero=rng.random() < 0.5)
        tau = rng.randint(1, inst.T)
        for p in range(1, inst.n + 1):
            assert is_missing(oracle, S, p, tau) == naive_is_missing(inst, idx, S, p, tau)


def test_block_queries_match_per_page_definitions():
    # property: the index's per-block sorted last requests, and f_tau,
    # marginal and alive_flushes computed from them, equal their per-page
    # definitions; flush sets may lack the time-0 flushes and hold flushes
    # after tau, and the pages of a starting cache count as requested at 0
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 8), st.data(), st.integers(0, 2**16))
    def check(n, data, seed):
        k = data.draw(st.integers(1, n))
        beta = data.draw(st.integers(1, k))
        inst = gen_random(n, k, beta, data.draw(st.integers(1, 12)), seed=seed)
        cached = data.draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        index = RequestIndex(inst)
        oracle = CoverageOracle(inst, index)
        for b, blk in enumerate(inst.blocks):
            for t in range(inst.T + 2):
                rs = (index.last_request(p, t) for p in blk)
                expected = tuple(sorted(-1 if r is None else r for r in rs))
                assert index.block_last_requests(b, t) == expected

        ground = [(b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)]
        flushes = data.draw(st.lists(st.sampled_from(ground), max_size=8))
        if data.draw(st.booleans()):
            flushes += [(b, 0) for b in range(inst.num_blocks)]
        S = set(flushes)
        tau = data.draw(st.integers(1, inst.T))
        latest = latest_at(S, inst.num_blocks, tau)
        cap = inst.n - inst.k

        def missing(flushes):
            pages = range(1, inst.n + 1)
            return {p for p in pages if naive_is_missing(inst, index, flushes, p, tau)}

        before = missing(S)
        assert oracle.f_tau(latest, tau) == min(cap, len(before))
        residual = cap - oracle.f_tau(latest, tau)
        for flush in ground:
            new = missing(S | {flush}) - before
            assert oracle.marginal(latest, flush, tau, residual) == min(len(new), residual)
        alive = set()
        for p in range(1, inst.n + 1):
            r = index.last_request(p, tau)
            if r is not None and r + 1 <= tau:
                alive.add((inst.block_of(p), r + 1))
        # a sorted list of the set: in (block, t) order, each flush once
        assert index.alive_flushes(tau) == sorted(alive)

    check()


def test_monotone_and_submodular_samples():
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randint(4, 8)
        inst = gen_random(n, rng.randint(2, min(4, n)), 2, 8, seed=trial)
        oracle = make_oracle(inst)
        tau = rng.randint(1, inst.T)
        S = random_flush_set(rng, inst)
        ground = [(b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)]
        Sp = S | {rng.choice(ground) for _ in range(rng.randint(1, 3))}
        v = rng.choice(ground)
        L, Lp = (latest_at(X, inst.num_blocks, tau) for X in (S, Sp))
        assert oracle.f_tau(L, tau) <= oracle.f_tau(Lp, tau)
        if v not in Sp:
            res, res_p = (inst.n - inst.k - oracle.f_tau(X, tau) for X in (L, Lp))
            assert oracle.marginal(L, v, tau, res) >= oracle.marginal(Lp, v, tau, res_p)


def test_marginal_matches_difference():
    rng = random.Random(13)
    for trial in range(100):
        inst = gen_random(6, 3, 2, 8, seed=100 + trial)
        oracle = make_oracle(inst)
        tau = rng.randint(1, inst.T)
        S = random_flush_set(rng, inst, with_zero=rng.random() < 0.5)
        b = rng.randrange(inst.num_blocks)
        t = rng.randint(0, inst.T)
        L, Lv = (latest_at(X, inst.num_blocks, tau) for X in (S, S | {(b, t)}))
        residual = inst.n - inst.k - oracle.f_tau(L, tau)
        assert oracle.marginal(L, (b, t), tau, residual) == oracle.f_tau(
            Lv, tau
        ) - oracle.f_tau(L, tau)


def test_marginal_bounds():
    rng = random.Random(17)
    for trial in range(50):
        inst = gen_random(6, 3, 2, 8, seed=200 + trial)
        oracle = make_oracle(inst)
        tau = rng.randint(1, inst.T)
        S = random_flush_set(rng, inst)
        b = rng.randrange(inst.num_blocks)
        t = rng.randint(0, inst.T)
        L = latest_at(S, inst.num_blocks, tau)
        cap = inst.n - inst.k - oracle.f_tau(L, tau)
        m = oracle.marginal(L, (b, t), tau, cap)
        assert 0 <= m <= min(inst.beta, cap)
        L = latest_at(S | {(b, t)}, inst.num_blocks, tau)
        assert oracle.marginal(L, (b, t), tau, inst.n - inst.k - oracle.f_tau(L, tau)) == 0


def test_cap_reached_by_all_flushes():
    inst = gen_random(6, 2, 2, 12, seed=5)
    oracle = make_oracle(inst)
    S = {(b, t) for b in range(inst.num_blocks) for t in range(inst.T + 1)}
    for tau in range(1, inst.T + 1):
        assert oracle.f_tau(latest_at(S, inst.num_blocks, tau), tau) == inst.n - inst.k


def test_integer_point_characterization():
    # feasible integral flush sets are exactly those covering n-k at every tau
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3, 4)), costs=(1.0, 1.0), requests=(1, 3, 2)
    )
    oracle = make_oracle(inst)
    ground = [(b, t) for b in range(2) for t in range(inst.T + 1)]
    for size in range(len(ground) + 1):
        for combo in combinations(ground, size):
            phi = {fl: 1.0 for fl in combo}
            covers = all(
                oracle.f_tau(latest_at(combo, 2, tau), tau) == inst.n - inst.k
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
    S0 = {(b, 0) for b in range(3)}
    # at tau=2 only page 3 is missing under time-0 flushes; need n-k=2
    assert constraint_slack(zero, S0, oracle, 2) < 0
    ok, bad = check_feasible(zero, oracle, 2)
    assert not ok and bad is not None
    full = dict(zero)
    full[(0, 2)] = 1.0
    ok, _ = check_feasible(full, oracle, 2)
    assert ok


def test_constraint_lhs_matches_per_page_reference():
    # property: constraint_lhs, which skips each flush at or before its
    # block's latest entry, minus the right-hand side n - k - f_tau equals
    # the slack that the reference counts page by page over the plain set,
    # skipping only the set's own flushes; sets may lack the time-0
    # flushes, and phi holds flushes before, at and after the latest ones
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.integers(1, 8), st.data(), st.integers(0, 2**16))
    def check(n, data, seed):
        k = data.draw(st.integers(1, n))
        beta = data.draw(st.integers(1, k))
        inst = gen_random(n, k, beta, data.draw(st.integers(1, 10)), seed=seed)
        oracle = make_oracle(inst)
        uniform = st.tuples(st.integers(0, inst.num_blocks - 1), st.integers(0, inst.T))
        # a flush at a request of its block, or just after one: a flush one
        # step after a latest flush makes the page requested there missing
        at_request = st.tuples(st.integers(1, inst.T), st.integers(0, 1)).map(
            lambda rd: (inst.block_of(inst.request(rd[0])), min(rd[0] + rd[1], inst.T))
        )
        ground = st.one_of(uniform, at_request)
        S = set(data.draw(st.lists(ground, max_size=6)))
        if data.draw(st.booleans()):
            S |= {(b, 0) for b in range(inst.num_blocks)}
        values = st.one_of(st.floats(0.0, 1.0), st.just(1.0))
        phi = data.draw(st.dictionaries(ground, values, max_size=10))
        tau = data.draw(st.integers(1, inst.T))
        latest = latest_at(S, inst.num_blocks, tau)
        residual = inst.n - inst.k - oracle.f_tau(latest, tau)
        lhs = constraint_lhs(phi, latest, oracle, tau, residual)
        assert lhs - residual == constraint_slack(phi, S, oracle, tau)

    check()


def test_constraint_lhs_prices_the_flush_just_after_the_latest():
    # block 0's latest flush in S is at 1, where page 1 is requested: the
    # flush at 1 makes no page missing and is skipped, the one at 2 makes
    # page 1 missing and is priced
    inst = Instance(
        n=4, k=2, blocks=((1, 2), (3,), (4,)), costs=(1.0,) * 3, requests=(1, 2, 3)
    )
    oracle = make_oracle(inst)
    S = {(0, 0), (1, 0), (2, 0), (0, 1)}
    latest = latest_at(S, inst.num_blocks, 3)
    phi = {(0, 1): 0.5, (0, 2): 0.25}
    residual = inst.n - inst.k - oracle.f_tau(latest, 3)  # page 4 is missing
    assert (latest, residual) == ([1, 0, 0], 1)
    assert constraint_lhs(phi, latest, oracle, 3, residual) == 0.25
    assert constraint_slack(phi, S, oracle, 3) == 0.25 - 1


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
        best = min(0.0, brute_force_slack(phi, oracle, tau))
        slack, S_sep = most_violated_constraint(phi, oracle, tau)
        if best < -1e-9:
            assert abs(slack - best) < 1e-9
            assert abs(constraint_slack(phi, as_flushes(S_sep), oracle, tau) - slack) < 1e-9
            ok, bad = check_feasible(phi, oracle, tau)
            assert not ok and bad is not None
        else:
            assert slack >= -1e-9
            assert check_feasible(phi, oracle, tau)[0]


def brute_force_slack(phi, oracle, tau):
    """Least slack over every set of flushes at or before tau that contains
    the integral flushes (later flushes change nothing at tau)."""
    inst = oracle.instance
    integral = [fl for fl, v in phi.items() if v >= 1.0]
    ground = [
        (b, t)
        for b in range(inst.num_blocks)
        for t in range(1, tau + 1)
        if (b, t) not in integral
    ]
    return least_slack(phi, oracle, tau, ground, integral)[0]


def test_separation_exact_when_residual_exceeds_counts():
    # n - k up to 5 against block sizes up to 3, so the residuals above the
    # largest count share one sweep; blocks flushed integrally at tau carry
    # no fractional mass and have a single candidate threshold
    rng = random.Random(31)
    checked = with_fixed = violated = 0
    for trial in range(200):
        n = rng.randint(3, 6)
        k = rng.randint(1, n // 2)
        beta = rng.randint(1, min(3, k))
        inst = gen_random(n, k, beta, rng.randint(2, 6), seed=1000 + trial)
        tau = rng.randint(2, inst.T)
        oracle = make_oracle(inst)
        phi = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        fixed = rng.sample(range(inst.num_blocks), rng.randint(0, inst.num_blocks // 2))
        for b in fixed:
            phi[(b, tau)] = 1.0
        free = [b for b in range(inst.num_blocks) if b not in fixed]
        for _ in range(rng.randint(0, 6)):
            b = rng.choice(free)
            t = rng.randint(1, inst.T)
            bump = rng.choice([0.05, 0.2, 0.5, 1.0]) * rng.random()
            phi[(b, t)] = min(1.0, phi.get((b, t), 0.0) + bump)
        integral = sum(1 for (b, t), v in phi.items() if v >= 1.0 and 1 <= t <= tau)
        if inst.num_blocks * tau - integral > 12:
            continue  # brute force enumerates at most 2^12 sets
        slack, S = most_violated_constraint(phi, oracle, tau)
        best = brute_force_slack(phi, oracle, tau)
        assert abs(min(slack, 0.0) - best) < 1e-9
        assert abs(constraint_slack(phi, as_flushes(S), oracle, tau) - slack) < 1e-9
        checked += 1
        with_fixed += bool(fixed)
        violated += best < -1e-9
    assert checked >= 100 and with_fixed >= 60 and violated >= 40


# n = k: no constraint has a positive right-hand side
FULL_CACHE = (gen_random(4, 4, 2, 8, seed=0), 5, {(0, 3): 0.5, (1, 5): 1.0})
# cap 1 against a flush at (0, 5) that newly makes all four pages of block 0
# missing; integral flushes before, at and after tau that make no page
# missing; block 1's two starting-cache pages share last request 0; the
# flushes at (0, 1) and (2, 3) make no page missing
COUNT_ABOVE_CAP = (
    Instance(
        n=9, k=8, blocks=((1, 2, 3, 4), (5, 6), (7,), (8,), (9,)),
        costs=(1.0, 2.0, 1.0, 0.5, 1.0), requests=(1, 2, 3, 4, 7, 9, 2, 1),
        initial_cache=frozenset({5, 6, 8}),
    ),
    6,
    {(0, 5): 0.4, (0, 4): 0.3, (0, 1): 0.7, (1, 3): 0.6, (2, 3): 0.2, (3, 2): 0.5,
     (4, 4): 1.0, (4, 6): 1.0, (3, 8): 1.0},
)


def test_separation_bit_identical_to_reference():
    # property: the separation returns the slack (==, same type) and the
    # latest flush times of the set that the reference implementation
    # builds, for phi as a plain dict holding the time-0 flushes and as a
    # PhiView without them
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 16))
        k = draw(st.one_of(st.integers(1, n), st.integers(max(1, n - 2), n)))
        beta = draw(st.integers(1, min(4, k)))
        inst = gen_random(n, k, beta, draw(st.integers(1, 30)), seed=draw(st.integers(0, 2**16)))
        cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        tau = draw(st.integers(1, inst.T))
        near_tau = st.sampled_from(sorted({max(1, tau - 1), tau, min(inst.T, tau + 1)}))
        flush = st.tuples(
            st.integers(0, inst.num_blocks - 1),
            st.one_of(st.integers(1, inst.T), near_tau),
            st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0)),
        )
        phi = {(b, t): v for b, t, v in draw(st.lists(flush, max_size=3 * inst.num_blocks))}
        return inst, tau, phi

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example(FULL_CACHE)
    @hypothesis.example(COUNT_ABOVE_CAP)
    def check(case):
        inst, tau, drawn = case
        oracle = make_oracle(inst)
        plain = {(b, 0): 1.0 for b in range(inst.num_blocks)}
        plain.update(drawn)
        for phi in (plain, PhiView(drawn, inst.num_blocks)):
            slack, latest = most_violated_constraint(phi, oracle, tau)
            want_slack, want_latest = most_violated_constraint_reference(phi, oracle, tau)
            assert slack == want_slack and type(slack) is type(want_slack)
            assert latest == want_latest

    check()


# block 2 (page 5) is requested last at step 2: advancing tau from 2 to 3
# adds its threshold 3, which makes page 5 missing at no cost and is part
# of the least-slack set at tau = 3, while nothing else about block 2 changes
ADVANCE_PAST_LAST_REQUEST = (
    Instance(n=6, k=2, blocks=((1, 2), (3, 4), (5,), (6,)), costs=(1.0,) * 4,
             requests=(3, 5, 3), initial_cache=frozenset({1, 2})),
    2,
    [("add", 0, 2, 0.6), ("add", 0, 1, 0.5), ("add", 3, 1, 0.75), ("add", 3, 2, 0.95),
     ("add", 2, 1, 0.5), ("add", 1, 2, 0.8), ("advance", 0, 1, 0.0)],
)
# a new integral flush (0, 2) raises block 0's forced threshold from 0 to 2
# below its fractional flush at 3, leaving its last requests and fractional
# flushes as they were
NEW_INTEGRAL_FLUSH = (
    Instance(n=6, k=3, blocks=((1, 2, 3), (4, 5, 6)), costs=(1.0, 1.0),
             requests=(1, 2, 3, 4, 5, 6)),
    6,
    [("add", 0, 3, 0.2), ("integral", 0, 2, 0.0)],
)


def test_separation_tables_kept_across_calls_match_fresh_oracle():
    # property: one oracle answers a sequence of separation calls, between
    # which phi rises at its flush times, gains a flush, gains an integral
    # flush, or tau repeats or advances, or the block requested at tau gains
    # a flush near 1 at tau and tau advances past that request; every call
    # returns the slack (==, same type) and the latest flush times that a
    # fresh oracle and the reference return, and leaves the tables a fresh
    # oracle builds
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(2, 12))
        k = draw(st.integers(1, n))
        beta = draw(st.integers(1, min(4, k)))
        inst = gen_random(n, k, beta, draw(st.integers(2, 20)), seed=draw(st.integers(0, 2**16)))
        cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
        inst = dataclasses.replace(inst, initial_cache=frozenset(cached))
        op = st.tuples(
            st.sampled_from(["raise", "add", "integral", "repeat", "advance", "late"]),
            st.integers(0, inst.num_blocks - 1),
            st.integers(1, inst.T),
            st.floats(0.0, 1.0, exclude_max=True),
        )
        return inst, draw(st.integers(1, inst.T)), draw(st.lists(op, min_size=1, max_size=12))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(cases())
    @hypothesis.example(ADVANCE_PAST_LAST_REQUEST)
    @hypothesis.example(NEW_INTEGRAL_FLUSH)
    def check(case):
        inst, tau, ops = case
        oracle = make_oracle(inst)
        phi = PhiView({}, inst.num_blocks)

        def separate():
            slack, latest = most_violated_constraint(phi, oracle, tau)
            fresh = make_oracle(inst)
            for want_slack, want_latest in (
                most_violated_constraint(phi, fresh, tau),
                most_violated_constraint_reference(phi, oracle, tau),
            ):
                assert slack == want_slack and type(slack) is type(want_slack)
                assert latest == want_latest
            assert [entry[1] for entry in oracle.tables] == [entry[1] for entry in fresh.tables]

        separate()
        for kind, b, t, f in ops:
            if kind == "raise":  # the block's fractional flushes, times kept
                for flush, v in list(phi.items()):
                    if flush[0] == b and v < 1.0:
                        phi.add(flush, (1.0 - v) * f)
            elif kind == "add":
                phi.add((b, t), f)
            elif kind == "integral":  # at or before tau, as snap_to_one leaves it
                flush = (b, 1 + (t - 1) % tau)
                phi.add(flush, 1.0 - phi.get(flush, 0.0))
                phi[flush] = 1.0
            elif kind == "advance":
                tau = min(inst.T, tau + 1)
            elif kind == "late":  # its table is kept at tau, then read at tau + 1
                flush = (inst.block_of(inst.request(tau)), tau)
                phi.add(flush, (1.0 - phi.get(flush, 0.0)) * (0.9 + 0.1 * f))
                separate()
                tau = min(inst.T, tau + 1)
            separate()

    check()


def test_reused_oracle_matches_fresh_oracle():
    # the coverage queries keep no state between calls: growing the set,
    # moving tau and changing a copy must each give the values a fresh
    # oracle gives
    inst = gen_random(10, 4, 3, 16, seed=3)
    index = RequestIndex(inst)
    oracle = CoverageOracle(inst, index)

    def marginal(orc, S, fl, tau):
        L = latest_at(S, inst.num_blocks, tau)
        return orc.marginal(L, fl, tau, inst.n - inst.k - orc.f_tau(L, tau))

    def values(orc, S, tau):
        flushes = sorted(index.alive_flushes(tau))
        L = latest_at(S, inst.num_blocks, tau)
        return orc.f_tau(L, tau), [marginal(orc, S, fl, tau) for fl in flushes]

    def check(S, tau):
        got = values(oracle, S, tau)
        assert got == values(CoverageOracle(inst, index), S, tau)
        return got

    S = {(b, 0) for b in range(inst.num_blocks)}
    tau = 12
    before = check(S, tau)
    S.add(max(index.alive_flushes(tau), key=lambda fl: marginal(oracle, S, fl, tau)))
    assert check(S, tau) != before
    assert check(S, tau - 1) != check(S, tau)
    C = set(S)
    check(C, tau)
    C.add(max(index.alive_flushes(tau), key=lambda fl: marginal(oracle, C, fl, tau)))
    S.add((0, tau + 1))  # same size as C again, same count as before
    assert check(C, tau) != check(S, tau)


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
        for b, blk in enumerate(inst.blocks):
            for t in range(1, inst.T + 1):
                for p, xv in zip(blk, view.x(oracle.index, b, t), strict=True):
                    assert abs(xv - x_from_phi(phi, oracle, p, t)) < 1e-12


def test_phi_view_block_row():
    # x reads a block's row in block order: a page never requested reads
    # 1.0, and one whose window (r, t] holds no flush reads 0.0, whether the
    # window is empty (page 1, requested at t) or holds only times without
    # a flush (page 2, requested at 3, flushes at 2 and 3)
    inst = Instance(
        n=5, k=4, blocks=((1, 2, 3, 4), (5,)), costs=(1.0, 1.0), requests=(1, 4, 2, 1, 1)
    )
    oracle = make_oracle(inst)
    view = PhiView({(0, 2): 0.5, (0, 3): 0.25}, inst.num_blocks)
    assert view.x(oracle.index, 0, 5) == [0.0, 0.0, 1.0, 0.25]
    assert view.x(oracle.index, 0, 2) == [0.5, 1.0, 1.0, 0.0]
    assert view.x(oracle.index, 1, 5) == [1.0]
