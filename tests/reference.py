"""Independent references for the tests: slow enumerations that the fast
code paths of ``blockcache`` are checked against.  Tiny inputs only."""

from __future__ import annotations

from blockcache.instance import Instance, PolicyTrace
from blockcache.oracle import _run_dp, _subsets


def opt_eviction_exhaustive(
    instance: Instance, h: int | None = None
) -> tuple[float, PolicyTrace]:
    """``opt_eviction``'s DP with every subset of the cache as a candidate
    eviction, not only whole blocks; no budget check."""
    h = instance.k if h is None else h

    def transitions(prev: frozenset[int], t: int):
        p = instance.request(t)
        for evicted in _subsets(sorted(prev - {p})):
            state = (prev | {p}) - set(evicted)
            if len(state) > h:
                continue
            cost = sum(
                instance.costs[b]
                for b in {instance.block_of(q) for q in evicted}
            )
            yield frozenset(state), cost

    return _run_dp(instance, h, transitions)


def opt_fetching_exhaustive(
    instance: Instance, h: int | None = None
) -> tuple[float, PolicyTrace]:
    """``opt_fetching``'s DP with every subset of the cache as a candidate
    kept set, not only maximal ones; no budget check."""
    h = instance.k if h is None else h

    def transitions(prev: frozenset[int], t: int):
        p = instance.request(t)
        block = instance.blocks[instance.block_of(p)]
        extra = sorted(set(block) - prev - {p})
        for kept in _subsets(sorted(prev - {p})):
            for batch in _subsets(extra):
                state = frozenset(kept) | set(batch) | {p}
                if len(state) > h:
                    continue
                fetched_any = p not in prev or batch
                cost = instance.costs[instance.block_of(p)] if fetched_any else 0.0
                yield frozenset(state), cost

    return _run_dp(instance, h, transitions)
