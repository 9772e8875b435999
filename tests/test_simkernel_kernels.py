"""Cross-kernel property tests: calendar and heap must be bit-identical.

The calendar kernel is the default; the binary-heap loop is kept as the
parity oracle.  For any workload, both kernels must produce the same
callback order, the same clock trajectory, and the same counters —
``(now, events_executed, trace)`` equality is the contract that lets
recorded scenario fingerprints stand for both.

The second half unit-tests the ``_CalendarQueue`` regimes directly
(heap mode, bucket mode, migrations, resize, pathological fallback),
which high-level workloads rarely reach because repo scenarios keep
queues small.
"""

import random

import pytest

from repro.simkernel import ScheduledCallback, Simulation
from repro.simkernel.sim import _CalendarQueue


# -- randomized cross-kernel identity -----------------------------------


def _run_workload(kernel: str, seed: int):
    """A seeded random workload: nested schedules, same-instant bursts,
    cancels, and a run-until boundary mid-flight.

    Both kernels construct identical rng streams *because* they execute
    callbacks in identical order — any divergence desynchronizes the
    draws and shows up as a trace mismatch.
    """
    sim = Simulation(kernel=kernel)
    rng = random.Random(seed)
    trace = []
    budget = [300]

    def cb(tag):
        trace.append((sim.now, tag))
        if budget[0] <= 0:
            return
        for k in range(rng.randint(0, 2)):
            budget[0] -= 1
            # 0.0 delays exercise the calendar's epoch fast path
            # (schedule-at-now joins the draining batch).
            delay = rng.random() * 4.0 if rng.random() < 0.7 else 0.0
            h = sim.schedule(delay, cb, f"{tag}.{k}")
            if rng.random() < 0.25:
                h.cancel()

    for i in range(100):
        # Duplicate timestamps force multi-entry epochs.
        t = rng.choice([2.5, 2.5, 10.0, rng.random() * 40.0])
        h = sim.schedule_at(t, cb, f"i{i}")
        if rng.random() < 0.2:
            h.cancel()

    sim.run(until=15.0)
    trace.append(("pause", sim.now, sim.events_executed))
    sim.run()
    return trace, sim.now, sim.events_executed, sim.pending_count


@pytest.mark.parametrize("seed", range(8))
def test_kernels_identical_on_random_workloads(seed):
    assert _run_workload("calendar", seed) == _run_workload("heap", seed)


def test_kernels_identical_on_pathological_spacing():
    """Exponentially growing gaps — the distribution calendars hate."""

    def run(kernel):
        sim = Simulation(kernel=kernel)
        trace = []
        t = 0.001
        for i in range(120):
            sim.schedule_at(t, lambda i=i: trace.append((sim.now, i)))
            t *= 1.7
        sim.run()
        return trace, sim.now, sim.events_executed

    assert run("calendar") == run("heap")


def test_invariants_after_compaction_both_kernels():
    for kernel in ("calendar", "heap"):
        sim = Simulation(kernel=kernel)
        live = [sim.schedule(float(t), lambda: None) for t in range(1, 21)]
        doomed = [sim.schedule(100.0, lambda: None) for _ in range(300)]
        for h in doomed:
            h.cancel()
        assert sim.pending_count == 20, kernel
        assert sim.kernel_stats()["compactions"] >= 1, kernel
        sim.run()
        assert sim.events_executed == 20, kernel
        assert sim.pending_count == 0, kernel
        assert sim._queue_len() == 0, kernel
        assert all(h.executed for h in live), kernel


# -- _CalendarQueue regime unit tests ------------------------------------


def _entries(times):
    return [ScheduledCallback(t, seq, lambda: None, ()) for seq, t in enumerate(times)]


def _drain(q):
    out = []
    while True:
        batch = q.extract_batch(None)
        if batch is None:
            return out
        t, entries = batch
        for e in entries:
            out.append((t, e.seq))


class TestCalendarQueueRegimes:
    def test_small_queue_stays_in_heap_mode(self):
        q = _CalendarQueue()
        for e in _entries([3.0, 1.0, 2.0]):
            q.insert(e)
        assert q.stats()["mode"] == "heap"
        assert _drain(q) == [(1.0, 1), (2.0, 2), (3.0, 0)]

    def test_grow_migrates_to_buckets(self):
        q = _CalendarQueue()
        times = [(i * 37 % 100) / 10.0 for i in range(q.GROW_AT + 10)]
        for e in _entries(times):
            q.insert(e)
        assert q.stats()["mode"] == "buckets"
        assert q.migrations >= 1
        drained = _drain(q)
        assert drained == sorted(drained)
        assert len(drained) == len(times)

    def test_shrink_migrates_back_to_heap(self):
        q = _CalendarQueue()
        n = q.GROW_AT + 20
        for e in _entries([float(i) for i in range(n)]):
            q.insert(e)
        assert q.stats()["mode"] == "buckets"
        drained = _drain(q)
        assert len(drained) == n
        assert q.stats()["mode"] == "heap"  # crossed SHRINK_AT on the way down
        assert q.migrations >= 2

    def test_equal_times_drain_in_seq_order_across_migration(self):
        q = _CalendarQueue()
        # All entries at one instant: migration must preserve seq order.
        for e in _entries([5.0] * (q.GROW_AT + 5)):
            q.insert(e)
        batch = q.extract_batch(None)
        assert batch is not None
        t, entries = batch
        assert t == 5.0
        assert [e.seq for e in entries] == list(range(q.GROW_AT + 5))

    def test_lazy_cancel_discard_accounting(self):
        q = _CalendarQueue()
        entries = _entries([float(i) for i in range(100)])
        for e in entries:
            q.insert(e)
        for e in entries[::2]:
            e.cancelled = True
        drained = _drain(q)
        assert [seq for _, seq in drained] == list(range(1, 100, 2))
        assert q.discards == 50
        assert q.qsize == 0

    def test_compact_drops_cancelled_in_both_modes(self):
        for n in (10, 100):  # heap regime, bucket regime
            q = _CalendarQueue()
            entries = _entries([float(i) for i in range(n)])
            for e in entries:
                q.insert(e)
            for e in entries[: n // 2]:
                e.cancelled = True
            q.compact()
            assert q.qsize == n - n // 2
            assert [seq for _, seq in _drain(q)] == list(range(n // 2, n))

    def test_sparse_gap_triggers_direct_search(self):
        # A dense cluster plus a far-away band inserted *after* the
        # rebuild sized the calendar around the cluster: once the
        # cluster drains, a whole year of buckets is empty and the
        # cursor walk must give up and search directly.
        q = _CalendarQueue()
        for e in _entries([i / 70.0 for i in range(70)]):
            q.insert(e)
        assert q.stats()["mode"] == "buckets"
        far = [ScheduledCallback(1000.0 + i, 1000 + i, lambda: None, ()) for i in range(30)]
        for e in far:
            q.insert(e)
        drained = _drain(q)
        assert len(drained) == 100
        assert drained == sorted(drained)
        assert q.direct_searches >= 1
        assert not q.fallback  # one recovery search is not pathological

    def test_fallback_mode_still_extracts_in_order(self):
        q = _CalendarQueue()
        for e in _entries([float(i % 7) for i in range(80)]):
            q.insert(e)
        # Force the permanent fallback directly; extraction must agree
        # with plain (time, seq) ordering from then on.
        q._consec_direct = q.FALLBACK_AFTER - 1
        q._direct_search()
        assert q.fallback and q.use_heap
        drained = _drain(q)
        assert drained == sorted(drained)
        assert len(drained) == 80
        assert q.stats()["mode"] == "fallback"

    def test_insert_behind_cursor_is_not_lost(self):
        q = _CalendarQueue()
        n = q.GROW_AT + 10
        for e in _entries([100.0 + i for i in range(n)]):
            q.insert(e)
        assert q.stats()["mode"] == "buckets"
        t, entries = q.extract_batch(None)
        assert t == 100.0
        # Now insert earlier than the cursor's bucket.
        early = ScheduledCallback(1.0, 10_000, lambda: None, ())
        q.insert(early)
        t2, entries2 = q.extract_batch(None)
        assert t2 == 1.0 and entries2[0] is early

    def test_resize_grows_bucket_count(self):
        q = _CalendarQueue()
        for e in _entries([float(i) * 0.125 for i in range(600)]):
            q.insert(e)
        assert q.nbuckets > q.MIN_BUCKETS
        assert q.resizes >= 1
        assert len(_drain(q)) == 600


# -- lazy-cancel compaction at scale -------------------------------------


def test_heap_kernel_keeps_events_through_compaction(monkeypatch):
    """64 churned streams cross the 64-cancel compaction threshold.

    Compaction must rebuild the heap in place: the run loops drain a
    local alias of it, so rebinding the attribute silently dropped every
    event scheduled afterwards.
    """
    import repro.simkernel
    from repro.experiments.bench import _run_stress_blkio

    sims = []

    class Recording(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(repro.simkernel, "Simulation", Recording)
    events = {}
    for kernel in ("calendar", "heap"):
        for dispatch in ("batched", "scalar"):
            _, executed, _ = _run_stress_blkio(
                True, kernel=kernel, dispatch=dispatch, n_streams=64
            )
            events[kernel, dispatch] = executed
            if kernel == "heap":
                assert sims[-1].kernel_stats()["compactions"] >= 1
    assert len(set(events.values())) == 1, events
