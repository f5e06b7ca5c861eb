"""Tests for the cache cluster contract: membership, routing, aggregates.

Each contract class runs over in-process ``MemcachedNode``s; its
``TestLive*`` twin runs the same tests over a ``LiveCluster`` of
``RemoteNode``s on localhost sockets.  Tests that read values back
store wire-shaped ``(flags, payload)`` tuples, which both node kinds
return unchanged.
"""

import pytest

from repro.controlplane import ControlPlane
from repro.core.autoscaler import AutoScaler, AutoScalerConfig, ScalingEngine
from repro.core.master import Master
from repro.errors import ConfigurationError, MembershipError
from repro.memcached.protocol import STATS_COUNTERS
from repro.memcached.slab import PAGE_SIZE
from repro.net import LiveCluster, LiveClusterHarness

NAMES = [f"node-{i:03d}" for i in range(4)]


@pytest.fixture
def live_harness():
    """Servers for the ``small_cluster`` layout plus a spare, ``extra``."""
    with LiveClusterHarness(NAMES + ["extra"], 4 * PAGE_SIZE) as harness:
        yield harness


@pytest.fixture
def live_cluster(live_harness):
    """``small_cluster`` over sockets.

    ``extra`` stays a registered endpoint outside the pool (turned off
    after attach), so ``provision("extra")`` can attach it again.
    """
    with LiveCluster(live_harness.endpoints, active=NAMES) as cluster:
        cluster.destroy("extra")
        yield cluster


class LiveNodes:
    """Mixin: run the inherited contract tests over the live cluster."""

    @pytest.fixture
    def small_cluster(self, live_cluster):
        return live_cluster


class TestMembership:
    def test_initial_membership(self, small_cluster):
        assert len(small_cluster.active_members) == 4
        assert len(small_cluster.nodes) == 4

    def test_provision_duplicate_rejected(self, small_cluster):
        with pytest.raises(MembershipError):
            small_cluster.provision("node-000")

    def test_activate_unprovisioned_rejected(self, small_cluster):
        with pytest.raises(MembershipError):
            small_cluster.activate("ghost")

    def test_provision_then_activate(self, small_cluster):
        small_cluster.provision("extra")
        assert "extra" not in small_cluster.active_members
        small_cluster.activate("extra")
        assert "extra" in small_cluster.active_members

    def test_deactivate_keeps_data(self, small_cluster):
        small_cluster.set("key", "v", 100, 1.0)
        owner = small_cluster.route("key")
        small_cluster.deactivate(owner)
        assert owner not in small_cluster.active_members
        assert small_cluster.nodes[owner].contains("key")

    def test_destroy_flushes_and_removes(self, small_cluster):
        small_cluster.destroy("node-001")
        assert "node-001" not in small_cluster.nodes
        assert "node-001" not in small_cluster.active_members

    def test_destroy_drops_remaps_to_the_node(self, small_cluster):
        key = next(
            key
            for key in (f"key{i}" for i in range(100))
            if small_cluster.route(key) != "node-001"
        )
        small_cluster.set_remap(key, "node-001")
        assert small_cluster.route(key) == "node-001"
        small_cluster.destroy("node-001")
        assert small_cluster.remap_count == 0
        assert small_cluster.get(key, 0.0) is None

    def test_destroy_unknown_rejected(self, small_cluster):
        with pytest.raises(MembershipError):
            small_cluster.destroy("ghost")

    def test_set_membership_requires_provisioned(self, small_cluster):
        with pytest.raises(MembershipError):
            small_cluster.set_membership(["node-000", "ghost"])

    def test_set_membership(self, small_cluster):
        small_cluster.set_membership(["node-000", "node-002"])
        assert small_cluster.active_members == {"node-000", "node-002"}

    def test_ring_for_hypothetical_membership(self, small_cluster):
        ring = small_cluster.ring_for(["node-000", "node-001"])
        assert ring.members == {"node-000", "node-001"}
        # Building a hypothetical ring must not disturb the live one.
        assert len(small_cluster.active_members) == 4


class TestLiveMembership(LiveNodes, TestMembership):
    pass


class TestRouting:
    def test_route_is_stable(self, small_cluster):
        assert small_cluster.route("key1") == small_cluster.route("key1")

    def test_set_and_get_roundtrip(self, small_cluster):
        assert small_cluster.set("key1", (0, b"v1"), 100, 1.0)
        assert small_cluster.get("key1", 2.0) == (0, b"v1")

    def test_data_lands_on_routed_node(self, small_cluster):
        small_cluster.set("key1", "v1", 100, 1.0)
        owner = small_cluster.route("key1")
        for name, node in small_cluster.nodes.items():
            assert node.contains("key1") == (name == owner)

    def test_delete_routes(self, small_cluster):
        small_cluster.set("key1", "v1", 100, 1.0)
        assert small_cluster.delete("key1")
        assert small_cluster.get("key1", 2.0) is None

    def test_multiget_partitions_hits_and_misses(self, small_cluster):
        small_cluster.set("a", (0, b"1"), 100, 1.0)
        small_cluster.set("b", (0, b"2"), 100, 1.0)
        hits, misses = small_cluster.multiget(["a", "b", "c"], 2.0)
        assert hits == {"a": (0, b"1"), "b": (0, b"2")}
        assert misses == ["c"]

    def test_keys_spread_across_nodes(self, small_cluster):
        for i in range(400):
            small_cluster.set(f"key{i}", i, 100, 1.0)
        populated = [
            node for node in small_cluster.active_nodes if node.curr_items
        ]
        assert len(populated) == 4


class TestLiveRouting(LiveNodes, TestRouting):
    pass


class TestAggregates:
    def test_total_items_and_bytes(self, small_cluster):
        for i in range(20):
            small_cluster.set(f"key{i}", i, 100, 1.0)
        assert small_cluster.total_items() == 20
        assert small_cluster.total_used_bytes() > 0
        assert (
            small_cluster.total_capacity_bytes()
            == 4 * 4 * PAGE_SIZE
        )

    def test_aggregate_stats(self, small_cluster):
        small_cluster.set("a", 1, 100, 1.0)
        small_cluster.get("a", 2.0)
        small_cluster.get("missing", 3.0)
        stats = small_cluster.aggregate_stats()
        assert stats.sets == 1
        assert stats.get_hits == 1
        assert stats.get_misses == 1

    def test_poll_counters_sum_active_requests(self, small_cluster):
        small_cluster.set("a", 1, 100, 1.0)
        small_cluster.get("a", 2.0)
        small_cluster.get("missing", 3.0)
        engine = ScalingEngine(
            AutoScaler(
                AutoScalerConfig(
                    db_capacity_rps=1000.0,
                    node_memory_bytes=4 * PAGE_SIZE,
                    bytes_per_item=128.0,
                )
            )
        )
        plane = ControlPlane(small_cluster, engine)
        assert plane._poll_counters() == 3
        # Counters of nodes off the ring do not count as load.
        small_cluster.deactivate(small_cluster.route("a"))
        assert plane._poll_counters() < 3


class TestLiveAggregates(LiveNodes, TestAggregates):
    def test_remote_node_reports_what_the_server_counts(
        self, live_harness, live_cluster
    ):
        live_cluster.set_many(
            [(f"key{i}", (0, b"v"), 1) for i in range(40)], 0.0
        )
        live_cluster.get_many([f"key{i}" for i in range(60)], 0.0)
        live_cluster.delete_many([f"key{i}" for i in range(10)])
        for name, remote in live_cluster.nodes.items():
            served = live_harness.nodes[name].stats
            mapped = remote.stats
            for _, field in STATS_COUNTERS:
                assert getattr(mapped, field) == getattr(served, field)
            assert remote.used_bytes == live_harness.nodes[name].used_bytes
        total = live_cluster.aggregate_stats()
        assert (total.sets, total.get_hits, total.get_misses) == (40, 40, 20)
        assert total.deletes == 10

    def test_strict_mode_refuses_live_cluster(self, live_cluster):
        with pytest.raises(ConfigurationError):
            Master(live_cluster, strict_mode=True)
