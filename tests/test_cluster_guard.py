"""Determinism guards for the cluster kernel.

Two properties the whole ``repro.cluster`` design exists to uphold:

* **Shard-count invariance** — a seeded cluster run produces
  byte-identical merged metrics and SLO boards whether its nodes are
  split over 1, 2, 4 or 8 shards.  The fingerprint covers the merged
  metrics snapshot, the SLO board, bus traffic by kind, event counts,
  and the per-round rate timeline, so any partition leak — delivery
  order, merge order, RNG placement, float summation order — trips it.

* **Pinned 1-shard parity** — a 1-shard cluster is just a plain
  :class:`~repro.simkernel.Simulation` hosting every node, so its
  fingerprint is pinned to a recorded constant (the same style as
  ``test_dataplane_guard.py``).  A changed hash means node-level
  behaviour changed for *everyone*, not just a sharding bug.

Re-recording policy: the pinned hashes move together with any
intentional change to node demand generation, token-bucket semantics,
arbitration policies, or the fingerprint document itself.  Re-record by
running the printed config through ``ClusterResult.fingerprint()`` and
explain the behaviour change in the commit that moves them.
"""


import pytest

from repro.cluster import ClusterConfig, run_cluster

#: The pinned 1-shard scenario: every node on one plain Simulation.
PARITY_CONFIG = ClusterConfig(
    n_nodes=8, shards=1, tenants_per_node=2, rounds=10, seed=7
)
PARITY_FINGERPRINT = (
    "863c9de99ec4875095bd8bd8d7e63b8927773bb5b5322922c528aca6926b34f5"
)
#: Same scenario under decentralized token borrowing.
PARITY_FINGERPRINT_ADAPTBF = (
    "630c0f90770fd1e9742849e56bbcffedb47a1aa7ea9e39da21330f240d7b7b67"
)


class TestPinnedParity:
    def test_one_shard_centralized(self):
        assert run_cluster(PARITY_CONFIG).fingerprint() == PARITY_FINGERPRINT

    def test_one_shard_adaptbf(self):
        cfg = PARITY_CONFIG.with_(arbitration="adaptbf")
        assert run_cluster(cfg).fingerprint() == PARITY_FINGERPRINT_ADAPTBF


class TestShardCountInvariance:
    """Shards 2, 4 and 8 must be byte-identical to the 1-shard run.

    Shards are a data partition of one seeded cluster: node RNG streams,
    message delivery order and the merged metrics (including the
    cluster-wide ``node="all"`` latency series) must not depend on how
    many shards the nodes are split over.  8 nodes at 8 shards puts one
    node on every shard, the most cross-shard traffic this size allows.
    """

    POLICIES = ("centralized", "adaptbf")

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_matches_one_shard(self, shards):
        base = ClusterConfig(
            n_nodes=8, shards=1, tenants_per_node=2, rounds=6, seed=11
        )
        for policy in self.POLICIES:
            cfg = base.with_(arbitration=policy)
            reference = run_cluster(cfg)
            sharded = run_cluster(cfg.with_(shards=shards))
            assert sharded.fingerprint() == reference.fingerprint(), (
                f"{policy} fingerprint differs between shards=1 and "
                f"shards={shards}"
            )
            # The board and reports are covered by the fingerprint;
            # compare them directly too so a failure names the field.
            assert sharded.slo_board() == reference.slo_board()
            assert sharded.reports == reference.reports
            assert sharded.messages_by_kind == reference.messages_by_kind
