"""Ordering oracle for the event loop.

Whatever the loop does internally — epoch extraction, same-instant
appends to the draining batch, grouped dispatch, lazy cancellation,
in-place heap compaction, ``until=`` stops — the executed entries must
come out in exactly ``(time, seq)`` order, and they must be exactly the
scheduled entries that were never cancelled.  The oracle needs no
second implementation: it sorts what was scheduled.

Workloads are sized so each mechanism engages (>64 pending entries,
>=64 lazy cancels), and ``kernel_stats()`` confirms it did.
"""

import random

import pytest

from repro.simkernel import Simulation, batch_dispatch


class _Receiver:
    """A receiver with a batchable handler, so grouped dispatch engages."""

    def __init__(self, fire):
        self.fire = fire

    def hit(self, key):
        self.fire(key)

    def _hit_batch(self, entries):
        for entry in entries:
            self.fire(*entry.args)


batch_dispatch(_Receiver.hit, _Receiver._hit_batch)


def _run_oracle_workload(dispatch: str, seed: int):
    """A seeded random workload; returns (executed, scheduled, sim).

    ``executed`` lists ``(sim.now, seq)`` per executed entry, in
    execution order; ``scheduled`` holds every handle ever returned.
    """
    sim = Simulation(dispatch=dispatch)
    rng = random.Random(seed)
    handles = []
    executed = []
    budget = [1200]

    def fire(key):
        handle = handles[key]
        assert handle.time == sim.now
        executed.append((sim.now, handle.seq))
        for _ in range(rng.randint(0, 2)):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            # Delay 0 cascades within the epoch being drained.
            add(0.0 if rng.random() < 0.3 else rng.random() * 3.0)
        if rng.random() < 0.4:
            # Any handle: a same-epoch sibling, a heap entry, or an
            # already executed one (a no-op).
            handles[rng.randrange(len(handles))].cancel()

    receivers = [_Receiver(fire) for _ in range(3)]

    def add(delay, at=None):
        key = len(handles)
        # Mostly batchable receivers, so consecutive same-receiver runs
        # form inside an epoch; plain callbacks split those runs.
        pick = rng.randrange(5)
        callback = fire if pick >= len(receivers) else receivers[pick].hit
        if at is None:
            handles.append(sim.schedule(delay, callback, key))
        else:
            handles.append(sim.schedule_at(at, callback, key))

    for _ in range(400):
        # Few distinct times: multi-entry epochs with long same-handler runs.
        add(0.0, at=rng.choice([1.0, 1.0, 2.5, 7.0, rng.random() * 30.0]))
    # Far-future churn: enough lazy cancels to trigger compaction.
    for _ in range(150):
        add(0.0, at=50.0 + rng.random() * 10.0)
        handles[-1].cancel()

    for stop in (2.5, 6.0, 13.75):
        sim.run(until=stop)
        assert sim.now == stop
        add(0.0)  # at the stop instant, scheduled from outside the loop
        add(0.0, at=sim.now + 0.5)
    sim.run()
    return executed, handles, sim


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dispatch", ["batched", "scalar"])
def test_execution_order_is_sorted_live_entries(dispatch, seed):
    executed, handles, sim = _run_oracle_workload(dispatch, seed)
    expected = sorted((h.time, h.seq) for h in handles if not h.cancelled)
    assert executed == expected
    assert all(h.executed != h.cancelled for h in handles)
    assert sim.pending_count == 0
    assert sim._queue_len() == 0
    stats = sim.kernel_stats()
    assert stats["executed"] == len(executed)
    # The mechanisms really ran.
    assert stats["cancels"] >= 64
    assert stats["compactions"] >= 1
    assert stats["max_batch"] > 64
    if dispatch == "batched":
        assert stats["grouped_events"] > 0
    else:
        assert stats["grouped_events"] == 0


def test_step_matches_run():
    """Single-stepping walks the same (time, seq) order as run()."""

    def trace(drive):
        sim = Simulation()
        out = []

        def cb(tag, depth):
            out.append((sim.now, tag))
            if depth:
                sim.schedule(0.0, cb, f"{tag}.0", depth - 1)
                sim.schedule(0.5, cb, f"{tag}.1", depth - 1)

        for i in range(6):
            sim.schedule_at(float(i % 3), cb, f"r{i}", 2)
        drive(sim)
        return out, sim.now, sim.events_executed

    def step_all(sim):
        while sim.step():
            pass

    assert trace(step_all) == trace(lambda sim: sim.run())


def test_invariants_after_compaction():
    sim = Simulation()
    live = [sim.schedule(float(t), lambda: None) for t in range(1, 21)]
    doomed = [sim.schedule(100.0, lambda: None) for _ in range(300)]
    for h in doomed:
        h.cancel()
    assert sim.pending_count == 20
    assert sim.kernel_stats()["compactions"] >= 1
    sim.run()
    assert sim.events_executed == 20
    assert sim.pending_count == 0
    assert sim._queue_len() == 0
    assert all(h.executed for h in live)


def test_stress64_keeps_events_through_compaction(monkeypatch):
    """64 churned streams cross the 64-cancel compaction threshold.

    Every live entry must survive compaction (an earlier loop drained a
    stale alias of the rebuilt heap and silently lost every event
    scheduled afterwards).  Both dispatch modes execute all 1338 events.
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
    for dispatch in ("batched", "scalar"):
        _, events[dispatch], _ = _run_stress_blkio(True, dispatch=dispatch, n_streams=64)
        assert sims[-1].kernel_stats()["compactions"] >= 1
    assert events == {"batched": 1338, "scalar": 1338}
