"""A trace opened on a file checks and writes its steps in batches as det
records them, and ``verify --trace`` reads a trace in the same batches.
With the batch size patched small so that a stream spans several batches:
the opened trace's file is the in-memory trace's file byte for byte, it
never holds more than a batch and one step, and ``PolicyTrace.check_file``
gives every file, faulty or not, the verdict that ``load`` and ``validate``
give it.  A fault planted past the first batch stops ``run --alg det``
while it records, names its step, and leaves no file behind.  The run
checks each step once."""

import dataclasses
import json

import pytest

from blockcache import cli, instance
from blockcache.det_online import run_deterministic
from blockcache.instance import InstanceError, PolicyTrace, gen_random

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def streams(draw):
    """A random instance whose stream spans several batches of the drawn
    size, with or without a starting cache, and the batch size."""
    batch = draw(st.integers(1, 6))
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    T = draw(st.integers(2 * batch + 1, 6 * batch + 5))
    profile = draw(st.sampled_from(["unit", "log-uniform"]))
    inst = gen_random(n, k, draw(st.integers(1, k)), T, profile, 8.0,
                      seed=draw(st.integers(0, 2**16)))
    cached = draw(st.lists(st.integers(1, n), max_size=k, unique=True))
    return dataclasses.replace(inst, initial_cache=frozenset(cached)), batch


def _held_sizes(monkeypatch):
    """The number of steps a trace holds after each ``record`` and when each
    check of held steps starts."""
    sizes = []
    record, advance = PolicyTrace.record, PolicyTrace._advance

    def counted_record(self, flushed, cache):
        record(self, flushed, cache)
        sizes.append(len(self.steps))

    def counted_advance(self):
        sizes.append(len(self.steps))
        advance(self)

    monkeypatch.setattr(PolicyTrace, "record", counted_record)
    monkeypatch.setattr(PolicyTrace, "_advance", counted_advance)
    return sizes


def _load_verdict(path, inst, capacity):
    try:
        PolicyTrace.load(path, inst, capacity).validate()
    except InstanceError as exc:
        return "refused", str(exc)
    except ValueError as exc:
        return "invalid", str(exc)
    return None


def _stream_verdict(path, inst, capacity):
    try:
        problem = PolicyTrace.check_file(path, inst, capacity)
    except InstanceError as exc:
        return "refused", str(exc)
    return None if problem is None else ("invalid", problem)


# faults a saved file can state: an understated cost, a relabelled step, a
# lost last line, a malformed line, and a capacity bound 1 lower
FILE_FAULTS = ["cost", "label", "truncate", "malformed", "capacity"]


@PROPERTY
@given(streams(), st.lists(st.sampled_from(FILE_FAULTS), max_size=2), st.data())
def test_opened_trace_writes_the_in_memory_file(tmp_path_factory, stream, faults, data):
    inst, batch = stream
    work = tmp_path_factory.mktemp("stream")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(instance, "TRACE_BATCH", batch)
        held = _held_sizes(m)
        expected = run_deterministic(inst)
        expected.trace.save(str(work / "memory.trace.jsonl"))
        held.clear()
        trace = PolicyTrace.open(inst, inst.k, str(work / "opened.trace.jsonl"))
        res = run_deterministic(inst, trace)
        trace.validate()
        trace.save(str(work / "opened.trace.jsonl"))
        assert max(held) <= batch + 1
        assert res.primal_cost == expected.primal_cost
        assert res.ledger == expected.ledger
        assert sorted(p.name for p in work.iterdir()) == [
            "memory.trace.jsonl", "opened.trace.jsonl"
        ]
        written = (work / "opened.trace.jsonl").read_text()
        assert written == (work / "memory.trace.jsonl").read_text()

        lines = written.splitlines(keepends=True)
        capacity = inst.k
        # a malformed line is planted last, so that no other fault has to
        # read the line it replaced
        for fault in sorted(faults, key=lambda f: f == "malformed"):
            i = data.draw(st.integers(1, len(lines) - 1))
            if fault == "capacity":
                capacity = max(1, capacity - 1)
            elif fault == "truncate":
                lines = lines[:-1]
            elif fault == "malformed":
                lines[i] = "{not json\n"
            else:
                rec = json.loads(lines[i])
                if fault == "cost":
                    rec["evict_cost_cum"] -= 0.5
                else:
                    rec["t"] = rec["t"] % inst.T + 1
                lines[i] = json.dumps(rec) + "\n"
        faulty = work / "faulty.trace.jsonl"
        faulty.write_text("".join(lines))
        held.clear()
        verdict = _stream_verdict(str(faulty), inst, capacity)
        assert max(held, default=0) <= batch + 1
        assert verdict == _load_verdict(str(faulty), inst, capacity)
        if not faults:
            assert verdict is None


def test_fault_past_the_first_batch_stops_the_run_and_leaves_no_file(tmp_path, monkeypatch):
    batch = 4
    inst = gen_random(8, 4, 2, 40, seed=3)
    path = tmp_path / "inst.json"
    inst.save(str(path))
    monkeypatch.setattr(instance, "TRACE_BATCH", batch)
    record = PolicyTrace.record
    planted, recorded = [], []

    def dropping_record(self, flushed, cache):
        # past the first batch, one cached page of an unflushed block leaves
        # the recorded cache without a flush
        t = self._base + len(self.steps) + 1
        if not planted and t > batch + 1:
            p = inst.request(t)
            kept = {self.instance.block_of(p)} | set(flushed)
            droppable = sorted(q for q in cache if self.instance.block_of(q) not in kept)
            if droppable:
                planted.append((t, droppable[0]))
                cache = set(cache) - {droppable[0]}
        record(self, flushed, cache)
        recorded.append(t)

    monkeypatch.setattr(PolicyTrace, "record", dropping_record)
    with pytest.raises(ValueError) as err:
        cli.main(["run", "--instance", str(path), "--alg", "det", "-o", str(tmp_path / "det")])
    (t, q), = planted
    assert str(err.value) == f"page {q} leaves the cache at step {t} with no flush of its block"
    # raised by the batch check while det records, not at the end of the run
    assert recorded[-1] < inst.T
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json"]


@pytest.mark.parametrize("batch", [4, 7])
def test_run_det_checks_each_step_once(tmp_path, monkeypatch, batch):
    # the batch checks while det records, validate's check of the rest and
    # save together visit the steps 1..T exactly once
    inst = gen_random(8, 4, 2, 42, seed=5)
    path = tmp_path / "inst.json"
    inst.save(str(path))
    monkeypatch.setattr(instance, "TRACE_BATCH", batch)
    check, visited = PolicyTrace._check, []

    def visiting_check(self, start, evict, fetch):
        visited.extend(range(start, self._base + len(self.steps) + 1))
        return check(self, start, evict, fetch)

    monkeypatch.setattr(PolicyTrace, "_check", visiting_check)
    argv = ["run", "--instance", str(path), "--alg", "det", "-o", str(tmp_path / "det")]
    assert cli.main(argv) == 0
    assert visited == list(range(1, inst.T + 1))


def test_save_without_validate_checks_and_writes_the_rest(tmp_path, monkeypatch):
    # T is not a multiple of the batch, so steps are left for save
    inst = gen_random(8, 4, 2, 42, seed=5)
    monkeypatch.setattr(instance, "TRACE_BATCH", 4)
    run_deterministic(inst).trace.save(str(tmp_path / "memory.trace.jsonl"))
    trace = PolicyTrace.open(inst, inst.k, str(tmp_path / "opened.trace.jsonl"))
    run_deterministic(inst, trace)
    trace.save(str(tmp_path / "opened.trace.jsonl"))
    opened = (tmp_path / "opened.trace.jsonl").read_text()
    assert opened == (tmp_path / "memory.trace.jsonl").read_text()
    trace = PolicyTrace.open(inst, inst.k, str(tmp_path / "faulty.trace.jsonl"))
    run_deterministic(inst, trace)
    trace.steps[-1].evict_cost_cum -= 0.5
    with pytest.raises(ValueError, match=f"eviction cost mismatch at step {inst.T}"):
        trace.save(str(tmp_path / "faulty.trace.jsonl"))
    trace.discard()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "memory.trace.jsonl", "opened.trace.jsonl"
    ]
