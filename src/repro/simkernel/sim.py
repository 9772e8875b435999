"""The event loop: epoch-batched execution over a calendar queue.

Two interchangeable kernels drive the simulation:

* ``kernel="calendar"`` (the default) — a bucketed future-event list
  (Brown's calendar queue: O(1) amortized insert/extract with automatic
  bucket-width resizing and a binary-heap fallback for pathological time
  distributions) drained **one epoch at a time**: every live entry
  sharing the minimum timestamp is pulled into a flat batch and
  dispatched in one pass.  Same-timestamp traffic — coalesced blkio
  reschedule flushes, process resumes, sampler ticks, retry timers —
  never touches the queue at all: a callback scheduling at the current
  instant appends straight to the draining batch.
* ``kernel="heap"`` — the classic binary-heap loop, kept verbatim as the
  parity oracle.  Both kernels execute live entries in exactly
  ``(time, seq)`` order, so same-seed runs are bit-identical across
  kernels (pinned by the recorded fingerprints in ``tests/test_engine.py``
  and the randomized cross-kernel property tests).

Both kernels cancel lazily (O(1) ``ScheduledCallback.cancel``) and
**compact** when cancelled entries pile up, so schedule-and-cancel churn
(retry-heavy fault campaigns) cannot grow the queue unboundedly.

Failures that nothing observes are detected at drain time: an
:meth:`~repro.simkernel.events.Event.fail` whose exception is never
retrieved warns (or raises, per ``on_unhandled_failure``) when the loop
drains — mirroring asyncio's "exception was never retrieved".
"""

from __future__ import annotations

import heapq
import warnings
from typing import Any, Callable, Generator

from repro.obs import OBS
from repro.simkernel.events import Event, ScheduledCallback

__all__ = [
    "Simulation",
    "SimError",
    "UnhandledFailureError",
    "UnhandledFailureWarning",
    "tick_time",
]


class SimError(RuntimeError):
    """Raised for simulation-kernel usage errors."""


class UnhandledFailureError(SimError):
    """Raised at drain time when event failures were never retrieved."""


class UnhandledFailureWarning(RuntimeWarning):
    """Warned at drain time when event failures were never retrieved."""


def tick_time(start: float, n: int, period: float) -> float:
    """Absolute time of the ``n``-th tick of a periodic series.

    ``start + n * period`` evaluated fresh per tick (two roundings total)
    instead of ``n`` accumulated additions, so tick ``n`` of a
    non-representable period (0.1, 1/3, ...) lands exactly on
    ``start + n * period`` rather than at ``t ± n·ulp`` — float drift
    that would silently defeat same-timestamp coalescing of ticks meant
    to coincide.  Monotone in ``n`` for ``period >= 0``.
    """
    return start + n * period


_KERNELS = ("calendar", "heap")
_DISPATCH_MODES = ("batched", "scalar")
_FAILURE_MODES = ("warn", "raise", "ignore")

#: Compaction trigger: lazily-cancelled entries must number at least this
#: many *and* be at least half the queue before a rebuild pays off.
_COMPACT_MIN_CANCELLED = 64


class _CalendarQueue:
    """A calendar queue: bucketed future-event list with O(1) ops.

    Entries hash into ``nbuckets`` buckets by ``int(time / width)``; the
    extract cursor walks bucket-by-bucket through the current "year"
    (one pass over all buckets covers ``nbuckets * width`` of simulated
    time).  Buckets are FIFO lists, and equal-time entries always land in
    the same bucket in seq order, so draining one timestamp preserves the
    deterministic ``(time, seq)`` execution order without sorting.

    The queue is **regime-adaptive** in three modes:

    * ``heap`` (small queues): below ``GROW_AT`` entries, bucket-scan
      overhead exceeds the C-implemented binary heap's O(log n), so the
      queue runs on ``heapq``.  Most workloads in this repo keep only a
      handful of pending timers and live their whole life here.
    * ``buckets`` (large queues): at ``GROW_AT`` entries the queue
      migrates into the calendar proper — O(1) amortized insert/extract
      — and resizes itself: doubling when overfull, shrinking when
      sparse, re-deriving the bucket width from the live time span.  It
      drops back to ``heap`` mode when the population falls to
      ``SHRINK_AT`` (hysteresis prevents thrash at the boundary).
    * ``fallback`` (pathological): when the time distribution defeats
      bucketing (repeated whole-year scans that find nothing, e.g.
      exponentially growing gaps), the queue switches to the heap
      permanently.

    All three modes extract in identical ``(time, seq)`` order.
    ``discards`` counts cancelled entries physically dropped during
    scans/rebuilds/migrations, so the owning simulation can track
    outstanding lazy cancellations exactly.
    """

    __slots__ = (
        "buckets",
        "nbuckets",
        "mask",
        "width",
        "inv_width",
        "qsize",
        "cur_bn",
        "discards",
        "resizes",
        "direct_searches",
        "migrations",
        "fallback",
        "use_heap",
        "heap",
        "_consec_direct",
    )

    MIN_BUCKETS = 16
    MAX_BUCKETS = 1 << 16
    #: Consecutive direct (whole-queue) searches before giving up on
    #: bucketing and switching to the heap permanently.
    FALLBACK_AFTER = 8
    #: Entry count at which a heap-mode queue migrates into buckets.
    GROW_AT = 64
    #: Entry count at which a bucket-mode queue drops back to the heap.
    SHRINK_AT = 16

    def __init__(self) -> None:
        self.nbuckets = self.MIN_BUCKETS
        self.mask = self.nbuckets - 1
        self.width = 1.0
        self.inv_width = 1.0
        self.buckets: list[list[ScheduledCallback]] = [[] for _ in range(self.nbuckets)]
        self.qsize = 0
        self.cur_bn = 0  # absolute bucket number of the extract cursor
        self.discards = 0
        self.resizes = 0
        self.direct_searches = 0
        self.migrations = 0
        self.fallback = False
        self.use_heap = True
        self.heap: list[ScheduledCallback] = []
        self._consec_direct = 0

    # -- mode migration --------------------------------------------------

    def _to_buckets(self) -> None:
        """Migrate heap → buckets (queue grew past GROW_AT)."""
        entries = [e for e in self.heap if not e.cancelled]
        self.discards += len(self.heap) - len(entries)
        self.heap = []
        self.use_heap = False
        self.migrations += 1
        if not entries:
            self.qsize = 0
            return
        # Bucket order within a timestamp must be seq order; the raw heap
        # list is only heap-ordered, so sort before distributing.
        entries.sort()
        self._rebuild(entries, entries[0].time)

    def _to_heap(self) -> None:
        """Migrate buckets → heap (queue shrank to SHRINK_AT)."""
        entries = [e for b in self.buckets for e in b if not e.cancelled]
        self.discards += self.qsize - len(entries)
        self.buckets = [[] for _ in range(self.nbuckets)]
        heapq.heapify(entries)
        self.heap = entries
        self.qsize = len(entries)
        self.use_heap = True
        self.migrations += 1

    # -- insert ----------------------------------------------------------

    def insert(self, entry: ScheduledCallback) -> None:
        if self.use_heap:
            heapq.heappush(self.heap, entry)
            self.qsize += 1
            if not self.fallback and self.qsize >= self.GROW_AT:
                self._to_buckets()
            return
        bn = int(entry.time * self.inv_width)
        if self.qsize == 0 or bn < self.cur_bn:
            # Snap the cursor back to the new entry: on an empty queue a
            # long idle gap then costs nothing to cross, and an entry
            # earlier than the cursor would otherwise be skipped until a
            # direct search stumbled on it.
            self.cur_bn = bn
        self.buckets[bn & self.mask].append(entry)
        self.qsize += 1
        if self.qsize > 2 * self.nbuckets and self.nbuckets < self.MAX_BUCKETS:
            self._resize()

    # -- extract ---------------------------------------------------------

    def peek_time(self) -> float | None:
        """Earliest live entry time, or None when empty.  Prunes lazily."""
        return self._locate_min()

    def extract_batch(self, limit: float | None) -> tuple[float, list[ScheduledCallback]] | None:
        """Remove and return ``(t, entries)`` for the earliest timestamp.

        Returns None when empty or when the earliest live entry lies past
        ``limit`` (entries are left queued).  The returned batch holds
        every live entry at ``t`` in seq order.  Locating the minimum and
        splitting its bucket are fused into one walk from the cursor.
        """
        if self.use_heap:
            heap = self.heap
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
                self.qsize -= 1
                self.discards += 1
            if not heap:
                return None
            t = heap[0].time
            if limit is not None and t > limit:
                return None
            batch: list[ScheduledCallback] = []
            while heap and heap[0].time == t:
                e = heapq.heappop(heap)
                self.qsize -= 1
                if e.cancelled:
                    self.discards += 1
                else:
                    batch.append(e)
            return t, batch
        if self.qsize == 0:
            return None
        buckets = self.buckets
        mask = self.mask
        inv_width = self.inv_width
        bn = self.cur_bn
        scanned = 0
        while True:
            bucket = buckets[bn & mask]
            if bucket:
                if len(bucket) == 1:
                    # Singleton bucket — the common case on sparse
                    # calendars: no split pass, no membership ambiguity.
                    e = bucket[0]
                    if e.cancelled:
                        buckets[bn & mask] = []
                        self.qsize -= 1
                        self.discards += 1
                        if self.qsize == 0:
                            self.cur_bn = bn
                            return None
                    elif int(e.time * inv_width) == bn:
                        t = e.time
                        self.cur_bn = bn
                        self._consec_direct = 0
                        if limit is not None and t > limit:
                            return None
                        buckets[bn & mask] = []
                        self.qsize -= 1
                        if self.qsize <= self.SHRINK_AT:
                            self._to_heap()
                        elif (
                            self.qsize < (self.nbuckets >> 2)
                            and self.nbuckets > self.MIN_BUCKETS
                        ):
                            self._resize()
                        return t, bucket
                    bn += 1
                    scanned += 1
                    if scanned > self.nbuckets:
                        t = self._direct_search()
                        if t is None or (limit is not None and t > limit):
                            return None
                        return self.extract_batch(limit)
                    continue
                best: float | None = None
                dirty = False
                for e in bucket:
                    if e.cancelled:
                        dirty = True
                    elif int(e.time * inv_width) == bn and (best is None or e.time < best):
                        best = e.time
                if best is not None:
                    self.cur_bn = bn
                    self._consec_direct = 0
                    if limit is not None and best > limit:
                        if dirty:
                            self._prune_bucket(bn & mask)
                        return None
                    # Split the winning bucket: batch = live entries at
                    # ``best`` (bucket order == seq order), keep the rest.
                    batch = []
                    kept: list[ScheduledCallback] = []
                    for e in bucket:
                        if e.cancelled:
                            self.discards += 1
                        elif e.time == best:
                            batch.append(e)
                        else:
                            kept.append(e)
                    buckets[bn & mask] = kept
                    self.qsize -= len(bucket) - len(kept)
                    if self.qsize <= self.SHRINK_AT:
                        self._to_heap()
                    elif (
                        self.qsize < (self.nbuckets >> 2)
                        and self.nbuckets > self.MIN_BUCKETS
                    ):
                        self._resize()
                    return best, batch
                if dirty and self._prune_bucket(bn & mask) == 0:
                    self.cur_bn = bn
                    return None
            bn += 1
            scanned += 1
            if scanned > self.nbuckets:
                t = self._direct_search()
                if t is None or (limit is not None and t > limit):
                    return None
                return self.extract_batch(limit)

    def _prune_bucket(self, idx: int) -> int:
        """Drop a bucket's cancelled entries; returns the remaining qsize."""
        bucket = self.buckets[idx]
        kept = [e for e in bucket if not e.cancelled]
        removed = len(bucket) - len(kept)
        self.buckets[idx] = kept
        self.qsize -= removed
        self.discards += removed
        return self.qsize

    def _locate_min(self) -> float | None:
        """Earliest live time; positions the cursor at its bucket."""
        if self.use_heap:
            heap = self.heap
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
                self.qsize -= 1
                self.discards += 1
            return heap[0].time if heap else None
        if self.qsize == 0:
            return None
        buckets = self.buckets
        mask = self.mask
        inv_width = self.inv_width
        bn = self.cur_bn
        scanned = 0
        while True:
            bucket = buckets[bn & mask]
            if bucket:
                best: float | None = None
                dirty = False
                for e in bucket:
                    if e.cancelled:
                        dirty = True
                    elif int(e.time * inv_width) == bn and (best is None or e.time < best):
                        best = e.time
                if dirty:
                    kept = [e for e in bucket if not e.cancelled]
                    removed = len(bucket) - len(kept)
                    buckets[bn & mask] = kept
                    self.qsize -= removed
                    self.discards += removed
                    if self.qsize == 0:
                        self.cur_bn = bn
                        return None
                if best is not None:
                    self.cur_bn = bn
                    self._consec_direct = 0
                    return best
            bn += 1
            scanned += 1
            if scanned > self.nbuckets:
                # A whole year of buckets held nothing current: the next
                # event is far away or the width is wrong.  Search
                # directly and re-derive the calendar around what's live.
                return self._direct_search()

    def _direct_search(self) -> float | None:
        self.direct_searches += 1
        self._consec_direct += 1
        entries = [e for b in self.buckets for e in b if not e.cancelled]
        self.discards += self.qsize - len(entries)
        if not entries:
            self.qsize = 0
            return None
        if self._consec_direct >= self.FALLBACK_AFTER:
            # Bucketing keeps losing: this distribution is pathological
            # for a calendar (e.g. exponentially growing gaps).  Run the
            # rest of the simulation on a plain binary heap.
            self.fallback = True
            self.use_heap = True
            self.buckets = [[] for _ in range(self.nbuckets)]
            heapq.heapify(entries)
            self.heap = entries
            self.qsize = len(entries)
            return self.heap[0].time
        t_min = min(e.time for e in entries)
        self._rebuild(entries, t_min)
        return t_min

    # -- maintenance -----------------------------------------------------

    def compact(self) -> None:
        """Physically drop cancelled entries (cancel-churn pressure valve)."""
        if self.use_heap:
            live = [e for e in self.heap if not e.cancelled]
            self.discards += len(self.heap) - len(live)
            heapq.heapify(live)
            self.heap = live
            self.qsize = len(live)
            return
        entries = [e for b in self.buckets for e in b if not e.cancelled]
        self.discards += self.qsize - len(entries)
        if not entries:
            self.buckets = [[] for _ in range(self.nbuckets)]
            self.qsize = 0
            return
        self._rebuild(entries, min(e.time for e in entries))

    def _resize(self) -> None:
        entries = [e for b in self.buckets for e in b if not e.cancelled]
        self.discards += self.qsize - len(entries)
        if not entries:
            self.qsize = 0
            return
        self._rebuild(entries, min(e.time for e in entries))

    def _rebuild(self, entries: list[ScheduledCallback], t_min: float) -> None:
        """Re-derive bucket count/width from the live set and redistribute.

        ``entries`` is in bucket-iteration order, which keeps equal-time
        entries (always co-bucketed) in their original FIFO/seq order.
        """
        n = len(entries)
        target = self.MIN_BUCKETS
        while target < n and target < self.MAX_BUCKETS:
            target <<= 1
        t_max = max(e.time for e in entries)
        span = t_max - t_min
        if span > 0.0 and n > 1:
            # ~4 events per bucket-width: adjacent events land in the
            # same or adjacent buckets, a year spans the live horizon.
            width = 4.0 * span / n
        else:
            width = self.width  # single instant: any width works
        if not width > 0.0:  # guards subnormal underflow to 0.0
            width = 1.0
        self.nbuckets = target
        self.mask = target - 1
        self.width = width
        self.inv_width = 1.0 / width
        buckets: list[list[ScheduledCallback]] = [[] for _ in range(target)]
        inv_width = self.inv_width
        for e in entries:
            buckets[int(e.time * inv_width) & self.mask].append(e)
        self.buckets = buckets
        self.qsize = n
        self.cur_bn = int(t_min * inv_width)
        self.resizes += 1

    def stats(self) -> dict:
        return {
            "qsize": self.qsize,
            "nbuckets": self.nbuckets,
            "width": self.width,
            "resizes": self.resizes,
            "direct_searches": self.direct_searches,
            "migrations": self.migrations,
            "mode": "fallback" if self.fallback else ("heap" if self.use_heap else "buckets"),
            "fallback": self.fallback,
        }


class Simulation:
    """A discrete-event simulation: a clock plus a queue of callbacks.

    Time is a float in seconds.  ``schedule`` returns a cancellable
    handle.  Generator-based processes are started with :meth:`process`;
    see :class:`repro.simkernel.process.Process`.

    ``kernel`` selects the event-queue implementation: ``"calendar"``
    (epoch-batched calendar queue, the default) or ``"heap"`` (the
    classic binary-heap loop, kept as the parity oracle).  Both execute
    callbacks in identical ``(time, seq)`` order.

    ``dispatch`` selects how a drained epoch reaches its handlers:
    ``"batched"`` (the default) groups consecutive ready entries bound
    to the same batchable handler (see
    :func:`repro.simkernel.events.batch_dispatch`) and hands the whole
    run to the handler's batch form in one call; ``"scalar"`` executes
    every entry through its own callback — the parity oracle.  Batch
    handlers are required to be observationally identical to their
    scalar form (grouping only spans *consecutive* entries, so any
    interleaved callback observes exactly the state scalar dispatch
    would have produced), which keeps traces, ``events_executed`` and
    recorded fingerprints bit-identical across dispatch modes.

    ``on_unhandled_failure`` controls what happens when the loop drains
    with event failures nothing ever retrieved: ``"warn"`` (default),
    ``"raise"``, or ``"ignore"``.
    """

    def __init__(
        self,
        kernel: str = "calendar",
        *,
        dispatch: str = "batched",
        on_unhandled_failure: str = "warn",
    ) -> None:
        if kernel not in _KERNELS:
            raise SimError(f"unknown kernel {kernel!r}; expected one of {_KERNELS}")
        if dispatch not in _DISPATCH_MODES:
            raise SimError(
                f"unknown dispatch {dispatch!r}; expected one of {_DISPATCH_MODES}"
            )
        if on_unhandled_failure not in _FAILURE_MODES:
            raise SimError(
                f"on_unhandled_failure must be one of {_FAILURE_MODES}, "
                f"got {on_unhandled_failure!r}"
            )
        self.kernel = kernel
        self.dispatch = dispatch
        #: Current simulated time (seconds).  A plain attribute, not a
        #: property: it is read on every schedule/dispatch and the
        #: descriptor overhead is measurable.  Treat as read-only.
        self.now = 0.0
        self._seq = 0
        #: Live (scheduled, neither cancelled nor executed) entry count,
        #: maintained incrementally so ``pending_count`` is O(1).
        self._live = 0
        #: Total callbacks executed (cancelled entries excluded) — the
        #: denominator-free throughput figure the scenario benchmarks
        #: report as events/sec.
        self._executed = 0
        #: Lazy-cancellation accounting: ``_cancels`` counts cancel()
        #: notifications, ``_discards`` counts cancelled entries
        #: physically dropped by this class (the calendar queue keeps its
        #: own ``discards``); the difference is what still occupies the
        #: queue and drives compaction.
        self._cancels = 0
        self._discards = 0
        self._compactions = 0
        # Epoch-batching state (calendar kernel only): ``_ready`` holds
        # the current epoch's batch, ``_ready_idx`` the next entry to
        # dispatch, ``_dispatching`` is True while a callback runs so
        # schedule-at-now can append straight to the batch.
        self._heap: list[ScheduledCallback] = []
        self._cal = _CalendarQueue() if kernel == "calendar" else None
        self._ready: list[ScheduledCallback] = []
        self._ready_idx = 0
        self._dispatching = False
        self._epochs = 0
        self._batched = 0
        self._max_batch = 0
        # Grouped-dispatch accounting (dispatch="batched"): calls to
        # batch handlers and entries delivered through them.
        self._group_calls = 0
        self._grouped_events = 0
        # peek() skip cache: entries in ``_ready[_ready_idx:_peek_skip]``
        # were all observed cancelled by an earlier peek (cancellation is
        # one-way, so the observation stays valid); ``_peek_scans``
        # counts entries examined — pinned by the peek cost tests.
        self._peek_skip = 0
        self._peek_scans = 0
        # Unhandled-failure detection (see events.Event.fail).
        self._failure_mode = on_unhandled_failure
        self._unhandled: list[Event] = []

    # -- scheduling -----------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledCallback:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        # schedule_at's body, inlined: this is the hottest kernel entry
        # point (every process resume and device flush lands here).
        time = self.now + delay
        entry = ScheduledCallback(time, self._seq, callback, args, self)
        self._seq += 1
        self._live += 1
        cal = self._cal
        if cal is None:
            heapq.heappush(self._heap, entry)
        elif self._dispatching and time == self.now:
            self._ready.append(entry)
        else:
            cal.insert(entry)
        return entry

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledCallback:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimError(f"cannot schedule at {time} < now ({self.now})")
        entry = ScheduledCallback(time, self._seq, callback, args, self)
        self._seq += 1
        self._live += 1
        cal = self._cal
        if cal is None:
            heapq.heappush(self._heap, entry)
        elif self._dispatching and time == self.now:
            # Epoch fast path: a same-timestamp schedule joins the batch
            # being drained (its seq exceeds everything already there, so
            # append order IS execution order) — no queue traffic at all.
            self._ready.append(entry)
        else:
            cal.insert(entry)
        return entry

    def event(self) -> Event:
        """Create a fresh one-shot event bound to this simulation."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """A cancellable event that succeeds ``delay`` seconds from now.

        ``Event.cancel()`` drops the pending trigger in O(1), so retry
        deadlines and watchdogs that turn out unneeded do not linger as
        live entries in the queue.
        """
        ev = self.event()
        ev._handle = self.schedule(delay, ev.succeed, value)
        return ev

    def process(self, generator: Generator) -> "Process":  # noqa: F821
        """Start a generator-based process; returns its Process handle."""
        from repro.simkernel.process import Process

        return Process(self, generator)

    # -- lazy-cancellation bookkeeping ------------------------------------

    def _note_cancel(self, entry: ScheduledCallback) -> None:
        """Called once per ScheduledCallback.cancel(); may compact."""
        self._live -= 1
        self._cancels += 1
        lazy = self._cancels - self._discards
        cal = self._cal
        if cal is not None:
            lazy -= cal.discards
        if lazy < _COMPACT_MIN_CANCELLED:
            return
        if cal is None:
            # The heap kernel's batched drain also stages entries in
            # ``_ready`` (empty under scalar dispatch).
            qsize = len(self._heap) + len(self._ready) - self._ready_idx
        else:
            qsize = cal.qsize + len(self._ready) - self._ready_idx
        if 2 * lazy >= qsize:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without its cancelled entries."""
        self._compactions += 1
        cal = self._cal
        if cal is None:
            # In place: the run loops drain a local alias of this list.
            heap = self._heap
            live = [e for e in heap if not e.cancelled]
            self._discards += len(heap) - len(live)
            heap[:] = live
            heapq.heapify(heap)
        else:
            # The in-flight epoch batch is left alone (bounded by one
            # epoch's size; its cancelled entries fall out on dispatch).
            cal.compact()

    # -- unhandled-failure detection --------------------------------------

    def _note_unhandled_failure(self, ev: Event) -> None:
        """An Event.fail() ran with no callbacks registered."""
        if self._failure_mode != "ignore":
            self._unhandled.append(ev)

    def check_unhandled_failures(self) -> None:
        """Warn or raise for failed events whose exception nobody took.

        Runs automatically when :meth:`run` drains the queue; callers
        that stop early (``until=``) can invoke it explicitly.
        """
        if not self._unhandled:
            return
        pending = [ev for ev in self._unhandled if not ev._retrieved]
        self._unhandled.clear()
        if not pending or self._failure_mode == "ignore":
            return
        first = pending[0]._exception
        msg = (
            f"{len(pending)} event failure(s) were never retrieved "
            f"(first: {first!r}); yield the event, register a callback, "
            f"or read .exception"
        )
        if self._failure_mode == "raise":
            raise UnhandledFailureError(msg) from first
        warnings.warn(msg, UnhandledFailureWarning, stacklevel=2)

    # -- introspection ----------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) scheduled callbacks.  O(1)."""
        return self._live

    @property
    def events_executed(self) -> int:
        """Total callbacks executed so far (cancelled entries excluded)."""
        return self._executed

    @property
    def epochs_executed(self) -> int:
        """Timestamp batches dispatched so far (calendar kernel only)."""
        return self._epochs

    def kernel_stats(self) -> dict:
        """Counters for observability and the kernel property tests."""
        cal = self._cal
        lazy = self._cancels - self._discards - (cal.discards if cal is not None else 0)
        stats = {
            "kernel": self.kernel,
            "dispatch": self.dispatch,
            "executed": self._executed,
            "live": self._live,
            "epochs": self._epochs,
            "batched_events": self._batched,
            "max_batch": self._max_batch,
            "group_calls": self._group_calls,
            "grouped_events": self._grouped_events,
            "cancels": self._cancels,
            "lazy_cancelled": lazy,
            "compactions": self._compactions,
        }
        if cal is not None:
            stats["calendar"] = cal.stats()
        else:
            stats["heap_len"] = len(self._heap)
        return stats

    def _queue_len(self) -> int:
        """Entries physically stored (live + lazily cancelled) — tests."""
        if self._cal is None:
            return len(self._heap) + len(self._ready) - self._ready_idx
        return self._cal.qsize + len(self._ready) - self._ready_idx

    def peek(self) -> float:
        """Time of the next live callback, or ``inf`` when idle.

        The in-flight epoch batch is scanned from ``_peek_skip`` rather
        than ``_ready_idx``: every entry below the skip mark was already
        observed cancelled by an earlier peek, and cancellation is
        one-way, so repeated peeks during a cancel-heavy epoch examine
        each dead entry once instead of once per call.
        """
        ready = self._ready
        i = self._peek_skip
        idx = self._ready_idx
        if i < idx:
            i = idx
        n = len(ready)
        scans = 0
        while i < n:
            scans += 1
            e = ready[i]
            if not e.cancelled:
                self._peek_skip = i
                self._peek_scans += scans
                return e.time
            i += 1
        self._peek_skip = i
        self._peek_scans += scans
        cal = self._cal
        if cal is None:
            heap = self._heap
            while heap and heap[0].cancelled:
                heapq.heappop(heap)
                self._discards += 1
            return heap[0].time if heap else float("inf")
        t = cal.peek_time()
        return t if t is not None else float("inf")

    # -- running -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next callback.  Returns False when nothing is left."""
        if self._cal is None:
            while self._heap:
                entry = heapq.heappop(self._heap)
                if entry.cancelled:
                    self._discards += 1
                    continue
                self.now = entry.time
                entry.executed = True
                self._live -= 1
                self._executed += 1
                entry.callback(*entry.args)
                return True
            return False
        ready = self._ready
        while True:
            idx = self._ready_idx
            if idx < len(ready):
                entry = ready[idx]
                self._ready_idx = idx + 1
                if entry.cancelled:
                    self._discards += 1
                    continue
                entry.executed = True
                self._live -= 1
                self._executed += 1
                self._dispatching = True
                try:
                    entry.callback(*entry.args)
                finally:
                    self._dispatching = False
                return True
            if ready:
                del ready[:]
                self._ready_idx = 0
                self._peek_skip = 0
            batch = self._cal.extract_batch(None)
            if batch is None:
                return False
            self._begin_epoch(*batch)

    def _begin_epoch(self, t: float, entries: list[ScheduledCallback]) -> None:
        self.now = t
        self._ready.extend(entries)
        self._epochs += 1
        n = len(entries)
        self._batched += n
        if n > self._max_batch:
            self._max_batch = n

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return (even if the last event fired earlier), mirroring the
        usual DES convention.

        On a full drain, unretrieved event failures are reported per the
        ``on_unhandled_failure`` mode (see :meth:`check_unhandled_failures`).
        """
        if until is not None and until < self.now:
            raise SimError(f"until={until} is in the past (now={self.now})")
        if self._cal is None:
            self._run_heap(until)
        else:
            self._run_calendar(until)
        if until is not None and until > self.now:
            self.now = until
        if self._live == 0:
            self.check_unhandled_failures()
        if OBS.enabled:
            self._publish_obs()
        return self.now

    def _run_heap(self, until: float | None) -> None:
        """The classic fused heap walk — the parity oracle.

        The loop pops each live entry exactly once: cancelled entries are
        discarded as they surface and the head entry is inspected in place
        before popping, rather than the peek-then-step double heap walk.
        Under batched dispatch the heap kernel extracts whole epochs so
        grouped handlers work identically on both kernels.
        """
        if self.dispatch == "batched":
            self._run_heap_batched(until)
            return
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry.cancelled:
                heapq.heappop(heap)
                self._discards += 1
                continue
            if until is not None and entry.time > until:
                break
            heapq.heappop(heap)
            self.now = entry.time
            entry.executed = True
            self._live -= 1
            self._executed += 1
            entry.callback(*entry.args)

    def _run_heap_batched(self, until: float | None) -> None:
        """Heap kernel with epoch extraction + grouped dispatch.

        Same-timestamp entries are popped into ``_ready`` and dispatched
        through the shared grouped inner loop.  Callbacks scheduling at
        the current instant still push to the heap (the calendar's
        append-to-batch fast path does not apply), so such entries are
        re-extracted as follow-up epochs at the same timestamp — group
        boundaries may differ from the calendar kernel's, but grouping
        is semantics-preserving regardless of where runs split.
        """
        heap = self._heap
        ready = self._ready
        self._dispatching = True
        try:
            while True:
                idx = self._ready_idx
                if idx >= len(ready):
                    if ready:
                        del ready[:]
                        self._ready_idx = idx = 0
                        self._peek_skip = 0
                    while heap and heap[0].cancelled:
                        heapq.heappop(heap)
                        self._discards += 1
                    if not heap:
                        return
                    t = heap[0].time
                    if until is not None and t > until:
                        return
                    ready.append(heapq.heappop(heap))
                    while heap and heap[0].time == t:
                        e = heapq.heappop(heap)
                        if e.cancelled:
                            self._discards += 1
                        else:
                            ready.append(e)
                    self.now = t
                    self._epochs += 1
                    n = len(ready)
                    self._batched += n
                    if n > self._max_batch:
                        self._max_batch = n
                while idx < len(ready):
                    entry = ready[idx]
                    idx += 1
                    self._ready_idx = idx
                    if entry.cancelled:
                        self._discards += 1
                        continue
                    cb = entry.callback
                    f = getattr(cb, "__func__", None)
                    if f is not None:
                        batch_fn = getattr(f, "_batch_dispatch", None)
                        if batch_fn is not None:
                            idx = self._dispatch_group(
                                batch_fn, f, cb.__self__, entry, ready, idx
                            )
                            continue
                    entry.executed = True
                    self._live -= 1
                    self._executed += 1
                    cb(*entry.args)
        finally:
            self._dispatching = False

    def _dispatch_group(
        self,
        batch_fn: Callable,
        func: Callable,
        owner: Any,
        first: ScheduledCallback,
        ready: list[ScheduledCallback],
        idx: int,
    ) -> int:
        """Collect the consecutive run of entries bound to ``func`` on
        ``owner`` and deliver it through ``batch_fn`` in one call.

        Only *consecutive* entries group: the first entry with a
        different handler ends the run, so any interleaved callback
        observes exactly the intermediate state scalar dispatch would
        have produced.  Cancelled entries inside the run are consumed as
        discards (they are no-ops in scalar order too).  Every grouped
        entry counts toward ``events_executed`` — parity with scalar
        dispatch is exact.  Returns the new ready index.
        """
        run = [first]
        n = len(ready)
        discards = 0
        while idx < n:
            e = ready[idx]
            if e.cancelled:
                idx += 1
                discards += 1
                continue
            cb = e.callback
            if getattr(cb, "__func__", None) is func and cb.__self__ is owner:
                run.append(e)
                idx += 1
                continue
            break
        self._ready_idx = idx
        if discards:
            self._discards += discards
        k = len(run)
        for e in run:
            e.executed = True
        self._live -= k
        self._executed += k
        self._group_calls += 1
        self._grouped_events += k
        batch_fn(owner, run)
        return idx

    def _run_calendar(self, until: float | None) -> None:
        """Epoch-batched drain: one queue extraction per timestamp.

        All live entries at the minimum time are pulled into ``_ready``
        and dispatched in seq order; callbacks scheduling at the current
        instant append to the batch directly (see :meth:`schedule_at`),
        so same-timestamp cascades cost list appends, not queue churn.
        """
        cal = self._cal
        ready = self._ready
        grouped = self.dispatch == "batched"
        self._dispatching = True
        try:
            while True:
                idx = self._ready_idx
                n = len(ready)
                if idx >= n:
                    if n:
                        del ready[:]
                        self._ready_idx = idx = 0
                        self._peek_skip = 0
                    if cal.use_heap:
                        # Heap-regime epoch extraction, inlined: the small
                        # queues that dominate repo workloads never leave
                        # this mode, and the per-epoch method call, batch
                        # list, and tuple of extract_batch() are the whole
                        # gap to the fused heap oracle.
                        heap = cal.heap
                        while heap and heap[0].cancelled:
                            heapq.heappop(heap)
                            cal.qsize -= 1
                            cal.discards += 1
                        if not heap:
                            return
                        t = heap[0].time
                        if until is not None and t > until:
                            return
                        ready.append(heapq.heappop(heap))
                        cal.qsize -= 1
                        while heap and heap[0].time == t:
                            e = heapq.heappop(heap)
                            cal.qsize -= 1
                            if e.cancelled:
                                cal.discards += 1
                            else:
                                ready.append(e)
                        n = len(ready)
                    else:
                        batch = cal.extract_batch(until)
                        if batch is None:
                            return
                        t, entries = batch
                        ready.extend(entries)
                        n = len(entries)
                    # _begin_epoch, inlined (one epoch per iteration).
                    self.now = t
                    self._epochs += 1
                    self._batched += n
                    if n > self._max_batch:
                        self._max_batch = n
                while idx < len(ready):
                    entry = ready[idx]
                    idx += 1
                    self._ready_idx = idx
                    if entry.cancelled:
                        self._discards += 1
                        continue
                    if grouped:
                        cb = entry.callback
                        f = getattr(cb, "__func__", None)
                        if f is not None:
                            batch_fn = getattr(f, "_batch_dispatch", None)
                            if batch_fn is not None:
                                idx = self._dispatch_group(
                                    batch_fn, f, cb.__self__, entry, ready, idx
                                )
                                continue
                    entry.executed = True
                    self._live -= 1
                    self._executed += 1
                    entry.callback(*entry.args)
        finally:
            self._dispatching = False

    def _publish_obs(self) -> None:
        """Snapshot kernel counters into the metrics registry (run exit)."""
        reg = OBS.registry
        kernel = self.kernel
        reg.gauge("kernel.events_executed").set(self._executed, kernel=kernel)
        reg.gauge("kernel.epochs").set(self._epochs, kernel=kernel)
        reg.gauge("kernel.max_batch").set(self._max_batch, kernel=kernel)
        reg.gauge("kernel.compactions").set(self._compactions, kernel=kernel)
        cal = self._cal
        if cal is not None:
            reg.gauge("kernel.buckets").set(cal.nbuckets, kernel=kernel)
            reg.gauge("kernel.bucket_width").set(cal.width, kernel=kernel)
            reg.gauge("kernel.resizes").set(cal.resizes, kernel=kernel)
            reg.gauge("kernel.direct_searches").set(cal.direct_searches, kernel=kernel)
            reg.gauge("kernel.heap_fallback").set(1.0 if cal.fallback else 0.0, kernel=kernel)
