"""Problem data model: instances, request indexing, generators, serialization."""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field


class InstanceError(ValueError):
    """Raised when instance data violates a structural invariant."""


def round12(v: float) -> float:
    """Round-trip a float through 12 significant digits for stable files."""
    return float(f"{v:.12g}")


def is_int_in(v, lo: int, hi: float) -> bool:
    """True iff v is an int (not a bool) with lo <= v <= hi."""
    return type(v) is int and lo <= v <= hi


def read_jsonl(path: str, parse) -> list:
    """parse(record) for every line of a JSON-lines file.  A line that is not
    JSON, lacks a field parse reads, or that parse returns None for raises
    InstanceError naming the line."""
    items = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                item = parse(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise InstanceError(f"{path} line {lineno}: {exc!r}") from None
            if item is None:
                raise InstanceError(f"{path} line {lineno}: malformed record")
            items.append(item)
    return items


@dataclass(frozen=True)
class Instance:
    """A block-aware caching instance.

    Pages are 1-based ids partitioned into disjoint blocks; each block has a
    positive cost.  ``initial_cache`` is explicit data because some
    constructions pre-fill the cache; evicting those pages later is paid in
    the eviction cost model.
    """

    n: int
    k: int
    blocks: tuple[tuple[int, ...], ...]
    costs: tuple[float, ...]
    requests: tuple[int, ...]
    initial_cache: frozenset[int] = frozenset()

    def __post_init__(self):
        if not is_int_in(self.n, 1, math.inf):
            raise InstanceError(f"n must be a positive integer, got {self.n!r}")
        if not is_int_in(self.k, 1, math.inf):
            raise InstanceError(f"k must be a positive integer, got {self.k!r}")
        if self.k > self.n:
            raise InstanceError("cache larger than page universe")
        seen: set[int] = set()
        for blk in self.blocks:
            if not blk:
                raise InstanceError("empty block")
            for p in blk:
                if not is_int_in(p, 1, self.n) or p in seen:
                    raise InstanceError("blocks must partition pages 1..n")
                seen.add(p)
        if len(seen) != self.n:
            raise InstanceError("blocks must cover all pages 1..n")
        if len(self.costs) != len(self.blocks):
            raise InstanceError("one cost per block required")
        if not all(0 < c < math.inf for c in self.costs):
            raise InstanceError("block costs must be positive and finite")
        if self.beta > self.k:
            raise InstanceError("max block size exceeds cache size")
        for p in self.requests:
            if not is_int_in(p, 1, self.n):
                raise InstanceError(f"invalid requested page {p!r}")
        if len(self.initial_cache) > self.k:
            raise InstanceError("initial cache exceeds cache size")
        for p in self.initial_cache:
            if not is_int_in(p, 1, self.n):
                raise InstanceError(f"invalid initial-cache page {p!r}")

    @property
    def T(self) -> int:
        return len(self.requests)

    @property
    def beta(self) -> int:
        return max(len(b) for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def aspect_ratio(self) -> float:
        return max(self.costs) / min(self.costs)

    @property
    def total_block_cost(self) -> float:
        return sum(self.costs)

    def block_of(self, p: int) -> int:
        return self._block_map[p]

    @property
    def _block_map(self) -> dict[int, int]:
        m = self.__dict__.get("_bm")
        if m is None:
            m = {p: i for i, blk in enumerate(self.blocks) for p in blk}
            object.__setattr__(self, "_bm", m)
        return m

    def request(self, t: int) -> int:
        """Page requested at step t (1-based)."""
        return self.requests[t - 1]

    def to_json(self) -> dict:
        return {
            "version": 1,
            "n": self.n,
            "k": self.k,
            "blocks": [list(b) for b in self.blocks],
            "costs": list(self.costs),
            "requests": list(self.requests),
            "initial_cache": sorted(self.initial_cache),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Instance":
        if not isinstance(doc, dict):
            raise InstanceError("an instance must be a JSON object")
        if doc.get("version") != 1:
            raise InstanceError(f"unsupported instance version {doc.get('version')!r}")
        try:
            return cls(
                n=doc["n"],
                k=doc["k"],
                blocks=tuple(tuple(b) for b in doc["blocks"]),
                costs=tuple(float(c) for c in doc["costs"]),
                requests=tuple(doc["requests"]),
                initial_cache=frozenset(doc.get("initial_cache", [])),
            )
        except InstanceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"malformed instance: {exc!r}") from None

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Instance":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise InstanceError(f"{path}: invalid JSON: {exc}") from None
        return cls.from_json(doc)


class RequestIndex:
    """Materialized last-request table r(p,t) plus alive-flush queries.

    ``last_request`` returns None as the "never requested" sentinel; it is
    deliberately not a number so nothing can do arithmetic on it.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._times: dict[int, list[int]] = {p: [] for p in range(1, instance.n + 1)}
        for t, p in enumerate(instance.requests, start=1):
            self._times[p].append(t)

    def last_request(self, p: int, t: int) -> int | None:
        """r(p,t): last time <= t at which p was requested, or None."""
        times = self._times[p]
        i = bisect_right(times, t)
        return times[i - 1] if i else None

    def alive_flushes(self, tau: int) -> set[tuple[int, int]]:
        """All flushes (block, t) with t = r(p,tau)+1 <= tau for some page p.

        Time-0 flushes are excluded; they are part of the initial flush set.
        """
        inst = self.instance
        out: set[tuple[int, int]] = set()
        for b, blk in enumerate(inst.blocks):
            for p in blk:
                r = self.last_request(p, tau)
                if r is not None and r + 1 <= tau:
                    out.add((b, r + 1))
        return out


@dataclass
class TraceStep:
    t: int
    flushes: list[tuple[int, int]]
    fetched: list[int]
    cache: frozenset[int]
    evict_cost_cum: float
    fetch_cost_cum: float


@dataclass
class PolicyTrace:
    """Per-step record of a cache policy run.

    Eviction cost sums c_B over performed flushes with t >= 1; fetching cost
    sums c_B over (block, step) pairs with at least one fetched page.
    """

    instance: Instance
    capacity_bound: int
    initial_cache: frozenset[int] = frozenset()
    steps: list[TraceStep] = field(default_factory=list)

    @property
    def eviction_cost(self) -> float:
        return self.steps[-1].evict_cost_cum if self.steps else 0.0

    @property
    def fetching_cost(self) -> float:
        return self.steps[-1].fetch_cost_cum if self.steps else 0.0

    def cache_at(self, t: int) -> frozenset[int]:
        """Cache contents after step t; t=0 gives the starting cache."""
        if t == 0:
            return self.initial_cache
        return self.steps[t - 1].cache

    def step_cost(self, flushes, fetched) -> tuple[float, float]:
        """(eviction, fetching) cost of one step's flushes and fetched pages."""
        inst = self.instance
        evict = sum(inst.costs[b] for b, ft in flushes if ft >= 1)
        fetch = sum(inst.costs[b] for b in {inst.block_of(p) for p in fetched})
        return evict, fetch

    def record(self, t: int, flushes, fetched, cache) -> None:
        evict, fetch = self.step_cost(flushes, fetched)
        self.steps.append(
            TraceStep(
                t=t,
                flushes=sorted(flushes),
                fetched=sorted(fetched),
                cache=frozenset(cache),
                evict_cost_cum=self.eviction_cost + evict,
                fetch_cost_cum=self.fetching_cost + fetch,
            )
        )

    def validate(self) -> None:
        inst = self.instance
        if len(self.steps) != inst.T:
            raise ValueError("trace length does not match request sequence")
        evict = fetch = 0.0
        for i, step in enumerate(self.steps, 1):
            if step.t != i:
                raise ValueError(f"step {i} is labelled t={step.t}")
            p = inst.request(step.t)
            if p not in step.cache:
                raise ValueError(f"requested page {p} absent after step {step.t}")
            if len(step.cache) > self.capacity_bound:
                raise ValueError(f"cache exceeds bound at step {step.t}")
            step_evict, step_fetch = self.step_cost(step.flushes, step.fetched)
            evict += step_evict
            fetch += step_fetch
            if abs(step.evict_cost_cum - evict) > 1e-9:
                raise ValueError(f"eviction cost mismatch at step {step.t}")
            if abs(step.fetch_cost_cum - fetch) > 1e-9:
                raise ValueError(f"fetching cost mismatch at step {step.t}")

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            for step in self.steps:
                fh.write(
                    json.dumps(
                        {
                            "t": step.t,
                            "flushes": [list(f) for f in step.flushes],
                            "fetched": step.fetched,
                            "cache": sorted(step.cache),
                            "evict_cost_cum": round12(step.evict_cost_cum),
                            "fetch_cost_cum": round12(step.fetch_cost_cum),
                        }
                    )
                )
                fh.write("\n")

    @classmethod
    def load(cls, path: str, instance: Instance, capacity_bound: int) -> "PolicyTrace":
        """Reads a saved trace; a line that is not a well-formed step of this
        instance raises InstanceError."""
        inst = instance

        def parse(rec: dict) -> TraceStep | None:
            step = TraceStep(
                t=rec["t"],
                flushes=[tuple(f) for f in rec["flushes"]],
                fetched=rec["fetched"],
                cache=frozenset(rec["cache"]),
                evict_cost_cum=rec["evict_cost_cum"],
                fetch_cost_cum=rec["fetch_cost_cum"],
            )
            ok = is_int_in(step.t, 1, inst.T)
            ok = ok and math.isfinite(step.evict_cost_cum + step.fetch_cost_cum)
            ok = ok and all(is_int_in(p, 1, inst.n) for p in [*step.fetched, *step.cache])
            ok = ok and all(
                is_int_in(b, 0, inst.num_blocks - 1) and is_int_in(t, 0, inst.T)
                for b, t in step.flushes
            )
            return step if ok else None

        return cls(instance=instance, capacity_bound=capacity_bound, steps=read_jsonl(path, parse))


def gen_gap_instance(beta: int, rounds: int) -> Instance:
    """Two blocks of size beta, k = 2*beta - 1, round-robin full-block requests.

    The construction behind the naive LP's integrality gap: each round
    requests all of block 1 and then all of block 2.
    """
    if beta < 2:
        raise InstanceError("gap instance needs beta >= 2")
    if rounds < 1:
        raise InstanceError("gap instance needs at least one round")
    n = 2 * beta
    blocks = (tuple(range(1, beta + 1)), tuple(range(beta + 1, 2 * beta + 1)))
    requests: list[int] = []
    for _ in range(rounds):
        requests.extend(range(1, beta + 1))
        requests.extend(range(beta + 1, 2 * beta + 1))
    return Instance(
        n=n,
        k=2 * beta - 1,
        blocks=blocks,
        costs=(1.0, 1.0),
        requests=tuple(requests),
    )


def gen_beta_off(beta: int, repeats: int, direction: str = "evict-heavy") -> Instance:
    """Instance family separating the two cost models by a factor of beta.

    2*beta blocks of size beta (P blocks then Q blocks), k = beta^2.  In the
    evict-heavy direction the cache starts full of P pages and round i
    requests the first beta-i pages of each P block plus the first i Q blocks
    in full; the fetch-heavy direction requests the complement and starts
    with the Q pages cached.
    """
    if beta < 2:
        raise InstanceError("beta-off instance needs beta >= 2")
    if repeats < 1:
        raise InstanceError("beta-off instance needs repeats >= 1")
    if direction not in ("evict-heavy", "fetch-heavy"):
        raise InstanceError(f"unknown direction {direction!r}")
    n = 2 * beta * beta
    blocks = tuple(
        tuple(range(b * beta + 1, (b + 1) * beta + 1)) for b in range(2 * beta)
    )
    p_blocks = blocks[:beta]
    q_blocks = blocks[beta:]
    requests: list[int] = []
    for i in range(1, beta + 1):
        base: list[int] = []
        if direction == "evict-heavy":
            for blk in p_blocks:
                base.extend(blk[: beta - i])
            for blk in q_blocks[:i]:
                base.extend(blk)
        else:
            for blk in p_blocks:
                base.extend(blk[beta - i :])
            for blk in q_blocks[i:]:
                base.extend(blk)
        for _ in range(repeats):
            requests.extend(base)
    if direction == "evict-heavy":
        initial = frozenset(p for blk in p_blocks for p in blk)
    else:
        initial = frozenset(p for blk in q_blocks for p in blk)
    return Instance(
        n=n,
        k=beta * beta,
        blocks=blocks,
        costs=(1.0,) * (2 * beta),
        requests=tuple(requests),
        initial_cache=initial,
    )


def gen_random(
    n: int,
    k: int,
    beta: int,
    T: int,
    cost_profile: str = "unit",
    delta: float = 1.0,
    seed: int = 0,
) -> Instance:
    """Seed-deterministic random instance with block sizes <= beta."""
    if not (1 <= beta <= k <= n):
        raise InstanceError("need 1 <= beta <= k <= n")
    if T < 1:
        raise InstanceError("need at least one request")
    if cost_profile not in ("unit", "log-uniform"):
        raise InstanceError(f"unknown cost profile {cost_profile!r}")
    if cost_profile == "log-uniform" and delta < 1.0:
        raise InstanceError("aspect ratio must be >= 1")
    rng = random.Random(seed)
    pages = list(range(1, n + 1))
    rng.shuffle(pages)
    blocks: list[tuple[int, ...]] = []
    i = 0
    while i < n:
        size = rng.randint(1, beta)
        blocks.append(tuple(sorted(pages[i : i + size])))
        i += size
    if cost_profile == "unit":
        costs = tuple(1.0 for _ in blocks)
    else:
        costs = tuple(math.exp(rng.uniform(0.0, math.log(delta))) for _ in blocks)
    requests = tuple(rng.randint(1, n) for _ in range(T))
    return Instance(
        n=n, k=k, blocks=tuple(blocks), costs=costs, requests=requests
    )
