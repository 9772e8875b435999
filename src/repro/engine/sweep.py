"""Sweep helpers: scenario summaries and the one process pool.

* ``run_summaries(configs)`` runs one :func:`run_scenario` per config,
  in order, in this process, and reduces each result to a
  :class:`ScenarioSummary` as soon as it finishes, so a figure grid
  never holds the simulation object graphs of its cells at once.
* ``SweepExecutor(workers).map(fn, items)`` is an order-preserving map.
  ``workers <= 1`` or a single item runs serially in-process; otherwise
  a fork pool of ``min(workers, len(items))`` processes takes one item
  at a time (``chunksize=1``).  ``repro figure all`` is its only
  parallel caller, with whole paper artifacts as the items: a ~20 ms
  scenario is too small a job to pay for a pool on two cores, while a
  whole artifact is not.

Metrics survive the map at any worker count.  While observability is
enabled, every job records into its own empty :class:`Registry`, in the
serial path as in a worker, and the caller folds the job registries into
its own in job order (:meth:`Registry.merge`: counters sum, gauges
last-write, histograms bucket-wise).  The snapshot is therefore the same
at any worker count.  Trace events keep going to the caller's tracer in
the serial path; a worker's events stay in the worker.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import OBS, private_registry

__all__ = [
    "ScenarioSummary",
    "SweepExecutor",
    "run_summaries",
    "summarize_result",
    "resolve_workers",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a worker count: ``None``/1 → serial, ``"auto"`` → CPUs."""
    if workers is None:
        return 1
    if workers == "auto":
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    n = int(workers)
    if n < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    return n


@dataclass(frozen=True)
class ScenarioSummary:
    """The part of a :class:`ScenarioResult` that sweeps report.

    Field values match the result's properties exactly (same reductions
    over the same records), so aggregating summaries reproduces what the
    figure code computed from full results bit for bit.
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


def run_summaries(
    configs: Sequence, *, outcome_error: bool = False
) -> list[ScenarioSummary]:
    """Run one scenario per config, serially; summaries in config order."""
    from repro.experiments.runner import run_scenario

    return [
        summarize_result(run_scenario(cfg), outcome_error=outcome_error)
        for cfg in configs
    ]


def _collect(fn, job):
    """Run one job into an empty registry: ``(result, registry)``."""
    with private_registry() as registry:
        return fn(job), registry


class SweepExecutor:
    """Order-preserving map over whole jobs, optionally in a fork pool.

    ``workers`` is the pool size: 1 (the default) runs serially
    in-process, ``"auto"`` uses every available CPU.  Results come back
    in input order, and the serial path runs the same job function, so a
    parallel map is element-for-element identical to the serial one.
    Each parallel ``map`` starts a pool and joins it before returning.
    """

    def __init__(self, workers: int | str | None = 1) -> None:
        self.workers = resolve_workers(workers)
        #: Number of process pools this executor has started.
        self.pool_creations = 0

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply ``fn`` to every item, preserving input order.

        In parallel, ``fn`` must be a module-level function, because the
        pool pickles it by name along with each item and result.
        """
        jobs = list(items)
        collecting = OBS.enabled
        call = functools.partial(_collect, fn) if collecting else fn
        if self.workers <= 1 or len(jobs) <= 1:
            out = [call(job) for job in jobs]
        else:
            # fork, not spawn: a spawned worker would import numpy, scipy
            # and the package again before its first job.
            pool = mp.get_context("fork").Pool(processes=min(self.workers, len(jobs)))
            self.pool_creations += 1
            try:
                out = pool.map(call, jobs, chunksize=1)
            finally:
                pool.close()
                pool.join()
        if not collecting:
            return out
        for _, registry in out:
            OBS.registry.merge(registry)
        return [result for result, _ in out]
