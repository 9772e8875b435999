"""Node-sharded cluster kernel with pluggable bandwidth arbitration.

One :class:`ClusterConfig` describes ``n_nodes`` token-governed nodes
partitioned over ``shards`` independent simulations, advanced in
bounded-lag rounds by :func:`run_cluster` — in-process, in shard order,
with bit-identical results at every shard count.  Cross-node
bandwidth arbitration is a registry axis (:data:`ARBITRATION`):
``centralized`` mirrors the paper's global weight controller,
``adaptbf`` trades tokens between ring neighbours with no coordinator.
"""

from repro.cluster.arbitration import (
    ARBITRATION,
    AdaptiveTokenBorrowing,
    ArbitrationPolicy,
    CentralizedWeights,
    register_arbitration,
)
from repro.cluster.bus import Message, Outbox, route
from repro.cluster.config import ClusterConfig
from repro.cluster.kernel import ClusterResult, jain_index, run_cluster
from repro.cluster.node import LATENCY_BUCKETS, NodeReport, NodeState
from repro.cluster.shard import ShardResult, ShardRuntime

__all__ = [
    "ARBITRATION",
    "register_arbitration",
    "ArbitrationPolicy",
    "CentralizedWeights",
    "AdaptiveTokenBorrowing",
    "Message",
    "Outbox",
    "route",
    "ClusterConfig",
    "ClusterResult",
    "run_cluster",
    "jain_index",
    "NodeState",
    "NodeReport",
    "LATENCY_BUCKETS",
    "ShardRuntime",
    "ShardResult",
]
