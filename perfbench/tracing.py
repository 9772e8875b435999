"""Outside-in instrumentation for the benchmark: counters and layer spans.

Nothing here edits the program.  The benchmark replaces a handful of
public functions and methods with thin wrappers that call the original
and record what the call cost, the way a profiler attaches to a running
process.

* :meth:`Instruments.install_probe` is always on.  It wraps
  ``Simulation.run`` (kernel events executed and host seconds spent
  inside it) and ``ScenarioSession.run`` (simulated horizon, device bytes
  and analytics step records of every single-node session).  That is two
  clock reads per call, too few to show in the end-to-end numbers.
* :meth:`Instruments.install_tracing` is the traced run only.  It wraps
  the entry point of every layer under ``src/repro`` and records a span
  (name, start, end, parent, run id) per call.  A layer's self time is
  its span minus the parts its child spans cover; it is computed as the
  calls return, so the stored spans are for export only and their number
  is capped to bound memory.  Only calls made inside a measured run are
  recorded: the benchmark's own checks between runs stay out of the
  layer totals.

Wrappers never replace a callback the event kernel schedules, so
wrapping cannot change the kernel's dispatch path (batched dispatch
groups consecutive entries by handler identity).  Spawned pool workers
import the program afresh and so run unwrapped: their time lands in the
parent's ``engine.sweep_map`` span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

#: Spans kept in memory for export; beyond this only the aggregates grow.
MAX_SPANS = 200_000


class Instruments:
    """The always-on probe's counters plus, once tracing, the layer spans."""

    def __init__(self) -> None:
        # always-on probe
        self.sim_events = 0
        self.sim_host_s = 0.0
        self.collect = False
        self.sessions: list[dict] = []
        # tracing
        self.tracing = False
        self.run_id = None
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.kernel: dict[str, int] = defaultdict(int)
        self.max_streams = 0
        self.max_lazy_cancelled = 0
        self.cluster_messages = 0
        self.cluster_events = 0
        self._pool_creations: dict[int, int] = {}

    # -- always-on probe ---------------------------------------------------

    def install_probe(self) -> None:
        from repro.engine.session import ScenarioSession
        from repro.simkernel import Simulation

        inst = self
        sim_run = Simulation.run

        @functools.wraps(sim_run)
        def run(sim, *args, **kwargs):
            before = sim.events_executed
            t0 = time.perf_counter()
            try:
                return sim_run(sim, *args, **kwargs)
            finally:
                inst.sim_host_s += time.perf_counter() - t0
                inst.sim_events += sim.events_executed - before

        Simulation.run = run

        session_run = ScenarioSession.run

        @functools.wraps(session_run)
        def srun(session, *args, **kwargs):
            final = session_run(session, *args, **kwargs)
            if inst.collect:
                moved = [t.device.bytes_moved for t in session.storage.tiers]
                read = sum(m["read"] for m in moved)
                written = sum(m["write"] for m in moved)
                inst.sessions.append(
                    {
                        "horizon": session.sim.now,
                        "bytes": read + written,
                        "bytes_read": read,
                        "bytes_written": written,
                        "io_times": [
                            r.io_time for d in session.drivers.values() for r in d.records
                        ],
                    }
                )
            return final

        ScenarioSession.run = srun

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own call (once tracing)."""
        if not self.tracing:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append((span_id, name, start, end, parent, self.run_id))
        else:
            self.spans_dropped += 1

    def wrap(self, name: str, fn, after=None):
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not inst._stack:  # only calls made inside a measured run
                return fn(*args, **kwargs)
            frame = inst._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                inst._exit(frame)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def _patch_function(self, fn, name: str, after=None) -> None:
        """Rebind every ``repro`` module global that holds ``fn``."""
        wrapper = self.wrap(name, fn, after)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def install_tracing(self) -> None:
        """Wrap the public entry point of every layer (traced run only)."""
        import repro.cluster
        from repro.apps.base import AnalyticsApp
        from repro.control import BaseController
        from repro.core.error_control import AccuracyLadder, build_ladder
        from repro.core.recompose import plan_recomposition
        from repro.core.refactor import decompose
        from repro.dataplane.pipeline import DataPlane
        from repro.engine.registry import APPS
        from repro.engine.session import ScenarioSession
        from repro.engine.sweep import SweepExecutor
        from repro.simkernel import Simulation
        from repro.storage.blkio import solve_rates_arrays
        from repro.storage.device import BlockDevice

        self.tracing = True
        self._patch_method(ScenarioSession, "run", "engine.session_run")
        self._patch_method(SweepExecutor, "map", "engine.sweep_map", self._after_map)
        apps = {APPS.get(n) for n in APPS.names()}
        for cls in {AnalyticsApp, *(a for a in apps if isinstance(a, type))}:
            for attr in ("generate", "outcome_error"):
                if attr in cls.__dict__:
                    self._patch_method(cls, attr, f"apps.{attr}")
        self._patch_function(decompose, "core.decompose")
        self._patch_function(build_ladder, "core.build_ladder")
        self._patch_method(AccuracyLadder, "reconstruct", "core.reconstruct")
        self._patch_function(plan_recomposition, "core.plan")
        self._patch_simulation_run(Simulation)
        self._patch_method(BlockDevice, "submit", "storage.submit")
        self._patch_function(solve_rates_arrays, "storage.solve", self._after_solve)
        self._patch_method(DataPlane, "submit", "dataplane.submit")
        self._patch_method(BaseController, "decide", "control.decide")
        self._patch_method(BaseController, "observe", "control.observe")
        self._patch_function(repro.cluster.run_cluster, "cluster.run", self._after_cluster)

    def _patch_simulation_run(self, Simulation) -> None:
        inst = self
        run = Simulation.__dict__["run"]
        keys = ("epochs", "group_calls", "compactions")

        @functools.wraps(run)
        def traced(sim, *args, **kwargs):
            before = sim.kernel_stats()
            try:
                return run(sim, *args, **kwargs)
            finally:
                after = sim.kernel_stats()
                for key in keys:
                    inst.kernel[key] += after[key] - before[key]
                inst.kernel["events"] += after["executed"] - before["executed"]
                inst.max_lazy_cancelled = max(inst.max_lazy_cancelled, after["lazy_cancelled"])

        Simulation.run = self.wrap("simkernel.run", traced)

    def _after_solve(self, args, out) -> None:
        self.max_streams = max(self.max_streams, len(args[0]))

    def _after_map(self, args, out) -> None:
        executor = args[0]
        self._pool_creations[id(executor)] = executor.pool_creations

    def _after_cluster(self, args, out) -> None:
        self.cluster_messages += out.messages_total
        self.cluster_events += out.events_executed

    @property
    def pool_creations(self) -> int:
        return sum(self._pool_creations.values())

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, run_id in self.spans:
                row = {"id": span_id, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run_id}
                fh.write(json.dumps(row) + "\n")
