"""The cluster kernel: bounded-lag rounds over in-process shards.

:func:`run_cluster` is the one entry point: it builds one
:class:`~repro.cluster.shard.ShardRuntime` per shard, advances every
shard in lockstep rounds (shard order 0..S−1), ferries bus traffic
between boundaries, and folds the shard outcomes into one
:class:`ClusterResult`.

Determinism contract: the result — merged metrics, SLO board, node
reports, the :meth:`ClusterResult.fingerprint` over all of it — is a
pure function of ``(config, seed)`` and does not change with ``shards``.
Shards are a data partition: the cross-shard schedule (round boundaries
+ canonical message order) and the merge order (shard 0..S−1) are
fixed, and the cluster-wide ``node="all"`` latency series is built once,
after the merge, from the per-node series.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import dataclass, field

from repro.cluster.bus import Message
from repro.cluster.config import ClusterConfig
from repro.cluster.node import NodeReport
from repro.cluster.shard import ShardRuntime
from repro.obs.metrics import Registry

__all__ = ["ClusterResult", "run_cluster", "jain_index"]

#: Message kinds whose payload ``amount`` is rate in flight between a
#: sender's debit (at emit) and the receiver's credit (at delivery).
_RATE_CARRIERS = ("grant", "return")


def jain_index(values) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``; 1.0 is perfectly fair."""
    xs = [float(v) for v in values]
    if not xs:
        return float("nan")
    sq = sum(x * x for x in xs)
    if sq == 0.0:
        return 1.0
    total = sum(xs)
    return (total * total) / (len(xs) * sq)


@dataclass
class ClusterResult:
    """Everything a cluster run produced, merged in canonical order."""

    config: ClusterConfig
    #: Per-node outcomes, ascending node id.
    reports: tuple[NodeReport, ...]
    #: Shard registries folded together (shard 0..S−1 order).
    registry: Registry
    #: Kernel events executed, summed over shards.
    events_executed: int
    #: Simulated seconds covered (== config.horizon).
    sim_time: float
    #: Wall seconds for the round loop + finalize (shard setup excluded).
    wall_s: float
    #: Bus traffic by message kind over the whole run.
    messages_by_kind: dict = field(default_factory=dict)
    #: Per-round ``(node_id, rate)`` rows (None when round stats are off).
    round_rates: tuple | None = None
    #: Worst |Σ rates + in-flight − budget| / budget over all boundaries
    #: (the rate-conservation audit; None when round stats are off).
    conservation_error: float | None = None

    # -- derived ----------------------------------------------------------

    @property
    def messages_total(self) -> int:
        return sum(self.messages_by_kind.values())

    @property
    def events_per_sec(self) -> float:
        """Aggregate kernel throughput across all shards."""
        return self.events_executed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def jain_fairness(self) -> float:
        """Jain index over per-node service ratios (served / demanded).

        Demand-normalised so heterogeneous offered load does not read as
        unfairness: a perfectly fair arbiter serves every node the same
        *fraction* of what it asked for.
        """
        ratios = [
            r.served_bytes / r.demand_bytes
            for r in self.reports
            if r.demand_bytes > 0
        ]
        return jain_index(ratios)

    @property
    def p99_latency_s(self) -> float:
        """Cluster-wide p99 request latency from the merged histogram."""
        hist = self.registry.get("cluster.latency_s")
        return hist.quantile(0.99, node="all")

    @property
    def slo_violation_rate(self) -> float:
        total = sum(r.completions for r in self.reports)
        if total == 0:
            return 0.0
        return sum(r.violations for r in self.reports) / total

    def slo_board(self) -> list[dict]:
        """Per-node SLO scoreboard (ascending node id; plain data)."""
        return [
            {
                "node": r.node_id,
                "completions": r.completions,
                "violations": r.violations,
                "violation_rate": (
                    r.violations / r.completions if r.completions else 0.0
                ),
                "served_bytes": r.served_bytes,
                "demand_bytes": r.demand_bytes,
                "rate": r.rate,
            }
            for r in self.reports
        ]

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON of everything merged.

        Two runs of the same ``(config, seed)`` — at any shard count —
        must produce the same digest; the guard tests pin this.
        """
        doc = {
            "metrics": self.registry.snapshot(),
            "slo_board": self.slo_board(),
            "messages_by_kind": dict(sorted(self.messages_by_kind.items())),
            "events_executed": self.events_executed,
            "sim_time": self.sim_time,
            "round_rates": self.round_rates,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_cluster(config: ClusterConfig) -> ClusterResult:
    """Run one cluster scenario to completion; see the module docstring."""
    shards = [ShardRuntime(config, sid) for sid in range(config.shards)]
    t0 = _time.perf_counter()
    pending: list[Message] = []
    by_kind: dict[str, int] = {}
    round_rows: list[tuple] = []
    worst_err = 0.0
    for r in range(config.rounds):
        per_shard: list[list[Message]] = [[] for _ in shards]
        for msg in pending:
            per_shard[config.shard_of(msg.dst)].append(msg)
        pending = []
        rates: list[tuple[int, float]] = []
        for shard, inbound in zip(shards, per_shard):
            emitted, rows = shard.advance_round(r, inbound)
            pending.extend(emitted)
            if rows is not None:
                rates.extend(rows)
        for msg in pending:
            by_kind[msg.kind] = by_kind.get(msg.kind, 0) + 1
        if config.collect_round_stats:
            rates.sort()
            round_rows.append(tuple(rates))
            in_flight = sum(
                m.get("amount") for m in pending if m.kind in _RATE_CARRIERS
            )
            total = sum(rate for _, rate in rates) + in_flight
            worst_err = max(
                worst_err, abs(total - config.total_rate) / config.total_rate
            )
    shard_results = [shard.finalize() for shard in shards]
    wall = _time.perf_counter() - t0

    registry = Registry()
    reports: list[NodeReport] = []
    events = 0
    sim_time = 0.0
    for res in shard_results:
        registry.merge(res.registry)
        reports.extend(res.reports)
        events += res.events_executed
        sim_time = max(sim_time, res.sim_time)
    reports.sort(key=lambda rep: rep.node_id)
    # The cluster-wide series, built from the merged per-node series so
    # it cannot depend on how the nodes were partitioned.
    registry.get("cluster.latency_s").aggregate(node="all")

    return ClusterResult(
        config=config,
        reports=tuple(reports),
        registry=registry,
        events_executed=events,
        sim_time=sim_time,
        wall_s=wall,
        messages_by_kind=by_kind,
        round_rates=tuple(round_rows) if config.collect_round_stats else None,
        conservation_error=worst_err if config.collect_round_stats else None,
    )
