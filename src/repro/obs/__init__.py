"""Observability: sim-time tracing + metrics for every Tango layer.

The paper's whole evaluation is time series — per-step bandwidth,
weight assignments, estimator refits — so the reproduction carries a
first-class telemetry substrate instead of scattering ad-hoc result
lists.  Three pieces:

* :mod:`repro.obs.metrics` — Counter / Gauge / Histogram primitives in a
  process-wide :class:`~repro.obs.metrics.Registry`;
* :mod:`repro.obs.tracing` — nestable spans and point events stamped in
  *simulated* time, buffered in a bounded ring;
* :mod:`repro.obs.export` — JSONL event streams and JSON/CSV metric
  snapshots.

Observability is **off by default** and the disabled path is a single
attribute check: instrumented hot paths are written as::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.registry.counter("blkio.compute_rates.calls").inc()

so a disabled run allocates no events, touches no dictionaries, and
produces bit-identical figure output.  Enable around a run with
:func:`enable`/:func:`disable` or the ``enabled_scope`` context manager,
or from the CLI with ``--trace-out`` / ``--metrics-out``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.obs.tracing import Span, TraceEvent, Tracer

__all__ = [
    "OBS",
    "Observability",
    "enable",
    "disable",
    "is_enabled",
    "enabled_scope",
    "private_registry",
    "Registry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "TraceEvent",
]


class Observability:
    """The process-wide observability switchboard.

    ``enabled`` is a plain attribute — the one word hot paths read.
    ``tracer`` and ``registry`` always exist (tests may poke them while
    disabled), but instrumented code only reaches them when enabled.
    """

    __slots__ = ("enabled", "tracer", "registry")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.registry = Registry()

    def enable(self, *, clock: Any = None, capacity: int | None = None) -> "Observability":
        """Turn collection on, optionally binding a sim clock up front."""
        if capacity is not None and capacity != self.tracer.capacity:
            self.tracer = Tracer(capacity)
        if clock is not None:
            self.tracer.bind_clock(clock)
        self.enabled = True
        return self

    def disable(self) -> "Observability":
        """Turn collection off.  Buffered data stays until :meth:`reset`."""
        self.enabled = False
        return self

    def reset(self) -> "Observability":
        """Drop all buffered events and metric series (state stays on/off)."""
        self.tracer.clear()
        self.tracer.bind_clock(None)
        self.registry.clear()
        return self


#: The singleton every instrumented module checks.
OBS = Observability()


def enable(*, clock: Any = None, capacity: int | None = None) -> Observability:
    return OBS.enable(clock=clock, capacity=capacity)


def disable() -> Observability:
    return OBS.disable()


def is_enabled() -> bool:
    return OBS.enabled


@contextmanager
def enabled_scope(*, clock: Any = None, capacity: int | None = None) -> Iterator[Observability]:
    """Enable observability for a block, restoring the prior state after.

    The collected data is *not* cleared on exit — export it, then call
    ``OBS.reset()``.
    """
    prior = OBS.enabled
    OBS.enable(clock=clock, capacity=capacity)
    try:
        yield OBS
    finally:
        OBS.enabled = prior


@contextmanager
def private_registry() -> Iterator[Registry]:
    """Record metrics into a fresh, empty registry for a block.

    The prior registry is restored on exit and left untouched; the
    caller decides whether to :meth:`~Registry.merge` the block's
    registry into it.  A value read from the block's registry therefore
    does not depend on what ran earlier in the process.
    """
    prior, OBS.registry = OBS.registry, Registry()
    try:
        yield OBS.registry
    finally:
        OBS.registry = prior
