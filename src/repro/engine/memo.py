"""Process-local memo cache for decomposition/ladder construction.

Every figure module used to regenerate and re-decompose the same field
for every (policy, replication) cell of its grid; the field and its
ladder depend only on ``(app class, grid shape, decimation ratio,
metric, error_bounds, seed)``, so a sweep of P policies over R replications
pays the decomposition cost P·R times for P·R/R distinct ladders.  This
cache keys on exactly that tuple and shares the resulting
``(field, AccuracyLadder)`` pair.

Sharing is safe because both halves are effectively immutable: the
ladder's construction is deterministic and nothing in the run path
writes to it, and the cached field array is marked read-only so any
accidental in-place mutation (which would silently corrupt later cache
hits) raises instead.  The cache is per-process: each worker of a
``repro figure all --workers N`` pool starts from the memo it forked
with and warms its own.

An entry is a :class:`LadderEntry`: besides the pair it scores analysis
outcomes against the field.  An outcome error is a pure function of
(field, ladder, rung, app analysis), so the entry keeps a
``{(app analysis, rung): error}`` table and, per app analysis, the
reference-side scorer (e.g. the reference's blob census, or the pinned
CFD threshold and census).  Every policy and controller that shares a
ladder then scores each rung once.  Both tables live and die with the
entry: eviction and :func:`clear_cache` drop them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.apps.base import AnalyticsApp
from repro.core.error_control import AccuracyLadder, ErrorMetric, build_ladder
from repro.core.refactor import decompose, levels_for_decimation

__all__ = ["LadderEntry", "ladder_entry", "ladder_for_app", "cache_info", "clear_cache"]

#: Bounded LRU by count, not bytes: a 512x512 entry (field, ladder and
#: its probe scratch) holds about 30 MB, so 32 such entries can reach
#: about 1 GB.  256x256 entries are about a quarter of that.
_MAX_ENTRIES = 32


class LadderEntry:
    """One memoized field + ladder, and the analysis outcomes scored on it.

    Outcome errors are filled on first use and shared by every caller
    holding the entry.  Two threads racing on one rung compute the same
    value, so the tables need no lock.
    """

    __slots__ = ("field", "ladder", "_scorers", "_errors")

    def __init__(self, field: np.ndarray, ladder: AccuracyLadder) -> None:
        self.field = field
        self.ladder = ladder
        self._scorers: dict[tuple, Callable[[np.ndarray], float]] = {}
        self._errors: dict[tuple, float] = {}

    def outcome_error(self, app: AnalyticsApp, rung: int) -> float:
        """``app.outcome_error(field, ladder.reconstruct(rung))``, scored once."""
        key = (app.analysis_key(), rung)
        err = self._errors.get(key)
        if err is None:
            approx = self.ladder.reconstruct(rung)
            err = app.outcome_error(self.field, approx, scorers=self._scorers)
            self._errors[key] = err
        return err


_lock = threading.Lock()
_cache: OrderedDict[tuple, LadderEntry] = OrderedDict()
_hits = 0
_misses = 0


def _key(
    app: AnalyticsApp,
    grid_shape: tuple[int, int],
    decimation_ratio: int,
    metric: ErrorMetric,
    error_bounds: tuple[float, ...],
    seed: int,
) -> tuple:
    # The generated field depends on the app *class* (generate ignores
    # constructor tuning, which only affects analyze()), so the class is
    # the right identity here.
    cls = type(app)
    return (
        f"{cls.__module__}.{cls.__qualname__}",
        tuple(grid_shape),
        int(decimation_ratio),
        metric,
        tuple(error_bounds),
        int(seed),
    )


def ladder_entry(
    app: AnalyticsApp,
    *,
    grid_shape: tuple[int, int],
    decimation_ratio: int,
    metric: ErrorMetric,
    error_bounds: tuple[float, ...],
    seed: int,
) -> LadderEntry:
    """Generate the app's field, decompose it, and build its ladder — memoized.

    The ladder is built with the default ``"hybrid"`` search (see
    :func:`repro.core.error_control.build_ladder`).  The generated field
    is handed to ``build_ladder`` as the reference ``original`` so
    construction skips its own recompose pass.
    """
    global _hits, _misses
    key = _key(app, grid_shape, decimation_ratio, metric, error_bounds, seed)
    with _lock:
        hit = _cache.get(key)
        if hit is not None:
            _cache.move_to_end(key)
            _hits += 1
            return hit
        _misses += 1
    data = app.generate(grid_shape, seed=seed)
    data.setflags(write=False)
    levels = levels_for_decimation(data.shape, decimation_ratio)
    dec = decompose(data, levels)
    ladder = build_ladder(dec, list(error_bounds), metric, original=data)
    entry = LadderEntry(data, ladder)
    with _lock:
        _cache[key] = entry
        _cache.move_to_end(key)
        while len(_cache) > _MAX_ENTRIES:
            _cache.popitem(last=False)
    return entry


def ladder_for_app(app: AnalyticsApp, **key) -> tuple[np.ndarray, AccuracyLadder]:
    """The ``(field, ladder)`` pair of :func:`ladder_entry` (same arguments)."""
    entry = ladder_entry(app, **key)
    return entry.field, entry.ladder


def cache_info() -> dict[str, int]:
    """Hit/miss/size counters (diagnostics and tests)."""
    with _lock:
        return {"hits": _hits, "misses": _misses, "size": len(_cache)}


def clear_cache() -> None:
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
