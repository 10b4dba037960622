"""Problem data model: instances, request indexing, generators, serialization."""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, TextIO

# recorded cumulative cost vs the re-summed step costs: float summation error;
# saved traces keep 12 significant digits, more than this past a cost of 1000
COST_CUM_EPS = 1e-9
# line 1 of a saved trace: the file format, whose step lines hold deltas
TRACE_HEADER = {"format": 2}
# steps a trace opened on a file checks and writes at once, and a streamed
# check reads at once: 512 held steps are about 1 MB of caches at k = 32,
# and checking and writing each step as it was recorded made det's run on a
# 12,000-step stream 5-9% slower
TRACE_BATCH = 512


class InstanceError(ValueError):
    """Raised when instance data violates a structural invariant."""


def round12(v: float) -> float:
    """Round-trip a float through 12 significant digits for stable files."""
    return float(f"{v:.12g}")


def is_int_in(v, lo: int, hi: float) -> bool:
    """True iff v is an int (not a bool) with lo <= v <= hi."""
    return type(v) is int and lo <= v <= hi


def is_number(v) -> bool:
    """True iff v is a finite int or float (not a bool)."""
    return type(v) in (int, float) and math.isfinite(v)


def read_jsonl(path: str, parse) -> Iterator:
    """Yields parse(record) for every line of a JSON-lines file, one line at a
    time.  A line that is not JSON, lacks a field parse reads, or that parse
    returns None for raises InstanceError naming the line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                item = parse(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise InstanceError(f"{path} line {lineno}: {exc!r}") from None
            if item is None:
                raise InstanceError(f"{path} line {lineno}: malformed record")
            yield item


def write_jsonl(path: str, records) -> None:
    """Writes every record of an iterable as one JSON line."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)


def write_json(path: str, doc) -> None:
    """Writes one JSON document on one line."""
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


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
        if not all(is_number(c) and c > 0 for c in self.costs):
            raise InstanceError("block costs must be positive finite numbers")
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

    @cached_property
    def _block_map(self) -> dict[int, int]:
        # cached_property writes the instance __dict__ directly, which a
        # frozen dataclass allows
        return {p: i for i, blk in enumerate(self.blocks) for p in blk}

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
                costs=tuple(float(c) if is_number(c) else c for c in doc["costs"]),
                requests=tuple(doc["requests"]),
                initial_cache=frozenset(doc.get("initial_cache", [])),
            )
        except InstanceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceError(f"malformed instance: {exc!r}") from None

    def save(self, path: str) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "Instance":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise InstanceError(f"{path}: invalid JSON: {exc}") from None
        return cls.from_json(doc)


class RequestIndex:
    """A cursor over the request stream: the last request r(p,t) of every
    page, and per block the sorted last requests of its pages, at the step t
    it has reached.

    A page of the starting cache counts as requested at time 0: r(p,t) = 0
    until its first request, so evicting it takes a flush (B, 1) or later.
    ``last_request`` returns None as the "never requested" sentinel; it is
    deliberately not a number so nothing can do arithmetic on it.
    ``block_last_requests`` writes a never-requested page as -1, below every
    flush time: a flush at t makes a page with last request r missing
    exactly when r < t, so the coverage queries count pages with a bisect.

    A query at a later t >= 0 takes in the requests up to t one at a time,
    and one at an earlier t starts again from step 0; a query past T reads
    the rows at T.  So queries at rising t, as every online run makes them,
    take in each request once and read none after the step asked, and the
    index holds n + 1 last requests and one row per block, nothing per
    request.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._start()

    def _start(self) -> None:
        """Puts the cursor at step 0."""
        inst = self.instance
        self._t = 0
        self._last = [-1] * (inst.n + 1)
        for p in inst.initial_cache:
            self._last[p] = 0
        self._rows = [tuple(sorted(self._last[p] for p in blk)) for blk in inst.blocks]

    def _seek(self, t: int) -> None:
        """Moves the cursor to step min(t, T)."""
        inst = self.instance
        t = min(t, inst.T)
        if t < self._t:
            self._start()
        last, rows, block_of = self._last, self._rows, inst.block_of
        for s in range(self._t + 1, t + 1):
            # the request moves its page's last request from the one before
            # it to s, the latest in its block, so appending keeps the row
            # sorted
            p = inst.requests[s - 1]
            b = block_of(p)
            row = rows[b]
            i = row.index(last[p])
            rows[b] = row[:i] + row[i + 1:] + (s,)
            last[p] = s
        self._t = t

    def last_request(self, p: int, t: int) -> int | None:
        """r(p,t): last time <= t at which p was requested, or None."""
        if t != self._t:
            self._seek(t)
        r = self._last[p]
        return None if r < 0 else r

    def block_last_requests(self, block: int, t: int) -> tuple[int, ...]:
        """The sorted r(p,t) over the block's pages, -1 for a page not
        requested by t."""
        if t != self._t:
            self._seek(t)
        return self._rows[block]

    def alive_flushes(self, tau: int) -> list[tuple[int, int]]:
        """All flushes (block, t) with t = r(p,tau)+1 <= tau for some page p,
        in (block, t) order.

        Time-0 flushes are excluded; they are part of the initial flush set.
        A block's row is sorted, and only r = 0 can repeat in it (its
        starting pages), so skipping each r not above the last one taken
        leaves every flush once.
        """
        alive = []
        for b in range(self.instance.num_blocks):
            last = -1
            for r in self.block_last_requests(b, tau):
                if last < r < tau:
                    alive.append((b, r + 1))
                    last = r
        return alive


@dataclass(slots=True)
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

    Eviction cost sums c_B over the flushes listed at each step; fetching
    cost sums c_B over (block, step) pairs with at least one fetched page.

    A trace built directly holds every step from step 1 in ``steps``.  A
    trace made by ``open`` holds only its latest steps: ``_base`` steps come
    before ``steps[0]``, and its first ``_written`` steps have passed
    ``validate``'s checks, with recomputed cost sums ``_sums``, and are in
    its temporary file ``_out``.
    """

    instance: Instance
    capacity_bound: int
    steps: list[TraceStep] = field(default_factory=list)
    _base: int = field(default=0, init=False, repr=False, compare=False)
    _written: int = field(default=0, init=False, repr=False, compare=False)
    _sums: tuple[float, float] = field(default=(0.0, 0.0), init=False, repr=False, compare=False)
    _out: TextIO | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def open(cls, instance: Instance, capacity_bound: int, path: str) -> "PolicyTrace":
        """An empty trace that ``record`` checks and writes as it goes, so
        that it holds at most TRACE_BATCH + 1 steps: once TRACE_BATCH steps
        are unwritten, it runs ``validate``'s checks on them, writes their
        lines to the temporary file path + ".tmp" and keeps only the last.
        ``validate`` checks the step count and checks and writes the rest;
        ``save`` checks and writes what ``validate`` has not and renames the
        file into place; ``discard`` removes it unless ``save`` has."""
        trace = cls(instance=instance, capacity_bound=capacity_bound)
        trace._out = open(path + ".tmp", "w")
        trace._out.write(json.dumps(TRACE_HEADER) + "\n")
        return trace

    @property
    def eviction_cost(self) -> float:
        return self.steps[-1].evict_cost_cum if self.steps else 0.0

    @property
    def fetching_cost(self) -> float:
        return self.steps[-1].fetch_cost_cum if self.steps else 0.0

    def cache_at(self, t: int) -> frozenset[int]:
        """Cache contents after step t; t=0 gives instance.initial_cache.
        An opened trace answers only for t = 0 and the steps it holds."""
        if t == 0:
            return self.instance.initial_cache
        return self.steps[t - 1 - self._base].cache

    def step_cost(self, flushes, fetched) -> tuple[float, float]:
        """(eviction, fetching) cost of one step's flushes and fetched pages."""
        inst = self.instance
        evict = sum(inst.costs[b] for b, _ft in flushes)
        fetch = sum(inst.costs[b] for b in {inst.block_of(p) for p in fetched})
        return evict, fetch

    def record(self, flushed, cache) -> None:
        """Appends the next step from the blocks flushed at it and the cache
        after it.  The step is one past the last recorded, every flushed
        block is flushed at it, and its fetched pages are those that
        entered the cache; an unchanged cache shares the previous frozenset.
        An opened trace checks and writes its steps once TRACE_BATCH of
        them are unwritten."""
        t = self._base + len(self.steps) + 1
        prev = self.cache_at(t - 1)
        flushes = [(b, t) for b in sorted(flushed)]
        fetched = sorted(cache - prev)
        # nothing entered and nothing left: the cache is the previous one
        kept = not fetched and len(cache) == len(prev)
        evict, fetch = self.step_cost(flushes, fetched) if flushes or fetched else (0.0, 0.0)
        self.steps.append(
            TraceStep(
                t=t,
                flushes=flushes,
                fetched=fetched,
                cache=prev if kept else frozenset(cache),
                evict_cost_cum=self.eviction_cost + evict,
                fetch_cost_cum=self.fetching_cost + fetch,
            )
        )
        if self._out is not None and t - self._written == TRACE_BATCH:
            self._advance()

    def validate(self) -> None:
        """Raises ValueError at the first step that is out of place, leaves
        its request uncached, exceeds the capacity bound, misstates a
        cumulative cost, or changes the cache other than by its own fetches
        and flushes: a fetched page must have been absent before the step
        and be cached after it, a page that leaves must belong to a block
        flushed at the step, and a page that enters must have been fetched.
        So a step's fetched pages are exactly those that entered, as
        ``record`` writes them.  Each listed flush must then be dated at its
        own step, and no block may be listed twice at one step.  Step 1
        starts from the instance's starting cache.  A step that shares the
        previous step's cache object changes no page, so its leave and
        entry checks have nothing to find and are skipped.  An opened trace
        checked its written steps as it wrote them, so it checks and writes
        the rest, and ``save`` then only renames its file; any other trace
        is left as it was.
        """
        self._check_count(self._base + len(self.steps))
        if self._out is None:
            self._check(self._written + 1, *self._sums)
        else:
            self._advance()

    def _check_count(self, count: int) -> None:
        if count != self.instance.T:
            raise ValueError(
                "trace length does not match request sequence:"
                f" {count} steps, T={self.instance.T}"
            )

    def _check(self, start: int, evict: float, fetch: float) -> tuple[float, float]:
        """``validate``'s checks on the held steps from step start on, given
        the costs recomputed over the steps before it; returns the costs
        recomputed over all of them."""
        inst = self.instance
        prev = self.cache_at(start - 1)
        for i, step in enumerate(self.steps[start - 1 - self._base :], start):
            if step.t != i:
                raise ValueError(f"step {i} is labelled t={step.t}")
            p = inst.request(step.t)
            if p not in step.cache:
                raise ValueError(f"requested page {p} absent after step {step.t}")
            if len(step.cache) > self.capacity_bound:
                raise ValueError(
                    f"cache exceeds bound at step {step.t}:"
                    f" {len(step.cache)} pages, bound {self.capacity_bound}"
                )
            fetched = set(step.fetched)
            refetched = fetched & prev
            if refetched:
                raise ValueError(
                    f"page {min(refetched)} fetched at step {step.t} was already cached"
                )
            unkept = fetched - step.cache
            if unkept:
                raise ValueError(
                    f"page {min(unkept)} fetched at step {step.t} is not cached after it"
                )
            if step.cache is not prev:
                flushed = {b for b, ft in step.flushes if ft == step.t}
                unflushed = [q for q in prev - step.cache if inst.block_of(q) not in flushed]
                if unflushed:
                    raise ValueError(
                        f"page {min(unflushed)} leaves the cache at step {step.t}"
                        " with no flush of its block"
                    )
                unfetched = step.cache - prev - fetched
                if unfetched:
                    raise ValueError(
                        f"page {min(unfetched)} enters the cache at step {step.t} unfetched"
                    )
                prev = step.cache
            listed: set[int] = set()
            for b, ft in step.flushes:
                if ft != step.t:
                    raise ValueError(f"block {b}'s flush at step {step.t} is dated t={ft}")
                if b in listed:
                    raise ValueError(f"block {b} is flushed twice at step {step.t}")
                listed.add(b)
            if step.flushes or step.fetched:
                step_evict, step_fetch = self.step_cost(step.flushes, step.fetched)
                evict += step_evict
                fetch += step_fetch
            if abs(step.evict_cost_cum - evict) > COST_CUM_EPS:
                raise ValueError(
                    f"eviction cost mismatch at step {step.t}:"
                    f" recorded {step.evict_cost_cum!r}, recomputed {evict!r}"
                )
            if abs(step.fetch_cost_cum - fetch) > COST_CUM_EPS:
                raise ValueError(
                    f"fetching cost mismatch at step {step.t}:"
                    f" recorded {step.fetch_cost_cum!r}, recomputed {fetch!r}"
                )
        return evict, fetch

    def _lines(self, start: int) -> Iterator[dict]:
        """The format-2 line of each held step from step start on: its
        flushes, fetched and evicted pages and cumulative costs.  The
        evicted pages are the cache before the step minus the cache after
        it; a step that shares the previous cache evicts none."""
        prev = self.cache_at(start - 1)
        for step in self.steps[start - 1 - self._base :]:
            evicted = [] if step.cache is prev else sorted(prev - step.cache)
            prev = step.cache
            yield {
                "t": step.t,
                "flushes": step.flushes,
                "fetched": step.fetched,
                "evicted": evicted,
                "evict_cost_cum": round12(step.evict_cost_cum),
                "fetch_cost_cum": round12(step.fetch_cost_cum),
            }

    def _advance(self) -> None:
        """Runs ``validate``'s checks on the held steps not yet written,
        writes their lines if the trace is opened on a file, and then holds
        only the last step."""
        start = self._written + 1
        self._sums = self._check(start, *self._sums)
        if self._out is not None:
            self._out.writelines(json.dumps(line) + "\n" for line in self._lines(start))
        self._written = self._base + len(self.steps)
        del self.steps[:-1]
        self._base = self._written - len(self.steps)

    def save(self, path: str) -> None:
        """Writes the format-2 file: the header line, then one line per step
        (see ``_lines``).  An opened trace checks and writes the steps it
        has not yet written, none after ``validate``, and renames its
        temporary file to path."""
        if self._out is None:
            write_jsonl(path, chain([TRACE_HEADER], self._lines(1)))
            return
        self._advance()
        self._out.flush()
        os.replace(self._out.name, path)
        self._out.close()

    def discard(self) -> None:
        """Closes and removes an opened trace's temporary file, unless
        ``save`` has renamed it into place."""
        if self._out is not None and not self._out.closed:
            self._out.close()
            os.remove(self._out.name)

    @staticmethod
    def read_steps(path: str, instance: Instance) -> Iterator[TraceStep]:
        """Reads a format-2 trace one step at a time, rebuilding each step's
        cache from the one before it (step 1's is ``instance.initial_cache``)
        as (cache minus evicted) plus fetched; a step that fetches and
        evicts nothing shares the previous frozenset, as ``record`` writes
        it.  A file without the header, a line that is not a well-formed
        step of this instance, or a step that evicts a page it fetches or a
        page not cached before it raises InstanceError when it is read."""
        inst = instance
        prev = None  # the cache before the next step, once the header is read

        def parse(rec: dict) -> dict | TraceStep | None:
            nonlocal prev
            if prev is None:
                if rec != TRACE_HEADER:
                    raise ValueError(
                        f"not a trace: the first line must be {json.dumps(TRACE_HEADER)}"
                    )
                prev = inst.initial_cache
                return rec
            t, fetched, evicted = rec["t"], rec["fetched"], rec["evicted"]
            flushes = [tuple(f) for f in rec["flushes"]]
            ok = is_int_in(t, 1, inst.T)
            ok = ok and is_number(rec["evict_cost_cum"]) and is_number(rec["fetch_cost_cum"])
            ok = ok and all(is_int_in(p, 1, inst.n) for p in [*fetched, *evicted])
            ok = ok and all(
                is_int_in(b, 0, inst.num_blocks - 1) and is_int_in(ft, 0, inst.T)
                for b, ft in flushes
            )
            if not ok:
                return None
            gone = frozenset(evicted)
            refetched = gone.intersection(fetched)
            if refetched:
                raise ValueError(f"step {t} evicts page {min(refetched)}, which it also fetches")
            uncached = gone - prev
            if uncached:
                raise ValueError(f"step {t} evicts page {min(uncached)}, which is not cached")
            if gone or fetched:
                prev = (prev - gone).union(fetched)
            return TraceStep(
                t=t,
                flushes=flushes,
                fetched=fetched,
                cache=prev,
                evict_cost_cum=rec["evict_cost_cum"],
                fetch_cost_cum=rec["fetch_cost_cum"],
            )

        lines = read_jsonl(path, parse)
        next(lines, None)  # the header
        yield from lines
        if prev is None:
            raise InstanceError(f"{path}: empty, not a trace")

    @classmethod
    def load(cls, path: str, instance: Instance, capacity_bound: int) -> "PolicyTrace":
        """The trace of a format-2 file, every step of it (see ``read_steps``)."""
        steps = list(cls.read_steps(path, instance))
        return cls(instance=instance, capacity_bound=capacity_bound, steps=steps)

    @classmethod
    def check_file(cls, path: str, instance: Instance, capacity_bound: int) -> str | None:
        """The message of the ValueError that ``validate`` raises on ``load(path,
        instance, capacity_bound)``, or None when it passes; what ``load``
        refuses raises InstanceError, as ``load`` does.  The steps are read
        one at a time and checked in the batches of an opened trace, so at
        most TRACE_BATCH + 1 are held.  After a batch fails, the rest of the
        file is still read, so that a malformed line is refused and a wrong
        step count reported first, as ``load`` and ``validate`` order them."""
        trace = cls(instance=instance, capacity_bound=capacity_bound)
        failure = None
        count = 0
        for count, step in enumerate(cls.read_steps(path, instance), 1):
            if failure is not None:
                continue
            trace.steps.append(step)
            if count - trace._written == TRACE_BATCH:
                try:
                    trace._advance()
                except ValueError as exc:
                    failure = str(exc)
        try:
            trace._check_count(count)
            if failure is None:
                trace.validate()
        except ValueError as exc:
            return str(exc)
        return failure


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
    fetch_heavy = direction == "fetch-heavy"

    def part(seq, cut):
        # the fetch-heavy direction takes the other side of every cut
        return seq[cut:] if fetch_heavy else seq[:cut]

    requests: list[int] = []
    for i in range(1, beta + 1):
        base = [p for blk in p_blocks for p in part(blk, beta - i)]
        base += [p for blk in part(q_blocks, i) for p in blk]
        requests.extend(base * repeats)
    cached = q_blocks if fetch_heavy else p_blocks
    return Instance(
        n=n,
        k=beta * beta,
        blocks=blocks,
        costs=(1.0,) * (2 * beta),
        requests=tuple(requests),
        initial_cache=frozenset(p for blk in cached for p in blk),
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
    if cost_profile == "log-uniform" and not 1.0 <= delta < math.inf:
        raise InstanceError("aspect ratio must be finite and >= 1")
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
