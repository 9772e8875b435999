"""``SweepExecutor``: process-pool fan-out over scenario config grids.

Every sweep in the repository except Fig. 16 used to run serially; this
generalizes Fig. 16's ad-hoc ``mp.Pool`` into one executor the figure
grids, replication statistics, and any future sweep share:

* ``map(fn, items)`` — order-preserving parallel map with a serial
  fallback (``workers <= 1`` or a single item), so parallel output is
  element-for-element identical to serial output;
* ``run_scenarios(configs)`` — one :func:`run_scenario` per config in a
  worker process, reduced to a picklable :class:`ScenarioSummary` (a
  full ``ScenarioResult`` holds the simulation object graph and cannot
  cross a process boundary).

Workers are separate OS processes (``spawn`` context, mirroring the
paper's per-node isolation), so runs share no state and determinism is
free: the same config and seed produce the same summary wherever they
execute.

Metrics survive the process boundary: while observability is enabled in
the caller, each job runs with collection on in its worker, against a
cleared registry whose copy travels back with the result and is folded
into the caller's registry in job order (:meth:`Registry.merge`: counters sum,
gauges last-write, histograms bucket-wise) — so ``--metrics-out`` sees
the same instruments at any worker count.

The pool is **warm**: the first parallel ``map`` spawns it and later
calls reuse it, so a loop of maps (the cluster round loop, a figure
running several grids back to back) pays worker startup once.  Use the
executor as a context manager — or call :meth:`close` — to reclaim the
workers; an unclosed executor tears its pool down on garbage collection.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import OBS, Registry

__all__ = [
    "ScenarioSummary",
    "SweepExecutor",
    "summarize_result",
    "resolve_workers",
    "WORKERS_ENV",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


#: Environment override capping every resolved worker count.  CI sets
#: this to bound parallelism globally instead of threading a
#: ``--workers`` flag through every CLI entry point.
WORKERS_ENV = "REPRO_WORKERS"


def _workers_cap() -> int | None:
    """The ``REPRO_WORKERS`` cap, or None when unset/empty."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or raw.strip() == "":
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {raw!r}")
    return cap


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a worker count: ``None``/1 → serial, ``"auto"`` → CPUs.

    The ``REPRO_WORKERS`` environment variable, when set, caps the
    result (explicit counts included), so an operator can bound
    parallelism for a whole run without touching call sites.
    """
    if workers is None:
        n = 1
    elif workers == "auto":
        try:
            n = max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            n = max(1, os.cpu_count() or 1)
    else:
        n = int(workers)
        if n < 1:
            raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    cap = _workers_cap()
    return n if cap is None else min(n, cap)


@dataclass(frozen=True)
class ScenarioSummary:
    """The picklable part of a :class:`ScenarioResult` that sweeps report.

    Field values match the result's properties exactly (same reductions
    over the same records), so aggregating summaries reproduces what the
    serial figure code computed from full results bit for bit.
    ``mean_outcome_error`` is ``None`` unless the sweep asked for it —
    outcome errors reconstruct the field per rung, which most sweeps
    don't need.
    """

    config: object
    num_records: int
    mean_io_time: float
    std_io_time: float
    mean_target_rung: float
    final_time: float
    mean_outcome_error: float | None = None


def summarize_result(result, *, outcome_error: bool = False) -> ScenarioSummary:
    """Reduce a ``ScenarioResult`` to its sweep-reportable summary."""
    return ScenarioSummary(
        config=result.config,
        num_records=len(result.records),
        mean_io_time=result.mean_io_time,
        std_io_time=result.std_io_time,
        mean_target_rung=result.mean_target_rung,
        final_time=result.final_time,
        mean_outcome_error=result.mean_outcome_error if outcome_error else None,
    )


def _run_scenario_job(job) -> ScenarioSummary:
    """Worker entry point; module-level so it pickles for the pool."""
    config, placement, outcome_error = job
    from repro.experiments.runner import run_scenario

    result = run_scenario(config, placement=placement)
    return summarize_result(result, outcome_error=outcome_error)


def _run_collecting_metrics(call):
    """Worker entry point under observability: ``(result, registry)``.

    The job records into the worker's registry, emptied just before it
    starts, and returns a copy of it.  The pool runs a whole chunk of jobs
    before it pickles any result, and the next job's reset clears the
    live registry in place, so returning ``OBS.registry`` itself would
    hand back the chunk's last job once per job.
    """
    fn, job = call
    OBS.reset()
    OBS.enable()
    try:
        return fn(job), Registry().merge(OBS.registry)
    finally:
        OBS.disable()


class SweepExecutor:
    """Order-preserving map over sweep jobs, optionally in a process pool.

    ``workers`` is the pool size: 1 (the default) runs serially
    in-process, ``"auto"`` uses every available CPU.  Results always come
    back in input order regardless of completion order, and the serial
    path runs the exact same job function — a parallel sweep is
    element-for-element identical to its serial fallback.

    The process pool is created lazily on the first parallel ``map`` and
    stays warm for subsequent calls (``pool_creations`` counts spawns, so
    tests can pin the reuse).  :meth:`close` — or exiting the executor's
    ``with`` block — reclaims the workers.
    """

    def __init__(
        self,
        workers: int | str | None = 1,
        *,
        mp_context: str = "spawn",
        chunksize: int | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.mp_context = mp_context
        self.chunksize = chunksize
        self._pool = None
        #: Number of times a process pool has been spawned; a loop of
        #: ``map`` calls over one executor keeps this at 1.
        self.pool_creations = 0

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = mp.get_context(self.mp_context).Pool(processes=self.workers)
            self.pool_creations += 1
        return self._pool

    def close(self) -> None:
        """Tear down the warm pool (idempotent; a later map respawns it)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply ``fn`` to every item, preserving input order."""
        jobs = list(items)
        if self.workers <= 1 or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        procs = min(self.workers, len(jobs))
        chunksize = self.chunksize or max(1, len(jobs) // (procs * 2))
        pool = self._ensure_pool()
        if not OBS.enabled:
            return pool.map(fn, jobs, chunksize=chunksize)
        pairs = pool.map(
            _run_collecting_metrics, [(fn, job) for job in jobs], chunksize=chunksize
        )
        for _, registry in pairs:
            OBS.registry.merge(registry)
        return [result for result, _ in pairs]

    def run_scenarios(
        self,
        configs: Sequence,
        *,
        placement: str = "level",
        outcome_error: bool = False,
    ) -> list[ScenarioSummary]:
        """Run one scenario per config; summaries come back in config order."""
        return self.map(
            _run_scenario_job, [(cfg, placement, outcome_error) for cfg in configs]
        )
