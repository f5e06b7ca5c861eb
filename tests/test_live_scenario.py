"""The shared live scenario runner and its one degradation window.

Unit tests pin :func:`degradation_window`'s definition; the live tests
run the scale-in-under-load and control-plane event lists on an
in-process :class:`~repro.net.server.LiveClusterHarness` (the CLI and
CI run them on node processes), and check that a failing event never
orphans the load thread.
"""

import socket
import threading

import pytest

import repro.controlplane.scenario as cp_scenario
import repro.loadgen.runner as runner
from repro.controlplane.scenario import _probe_admin, run_controlplane_scenario
from repro.loadgen import build_schedule
from repro.loadgen.runner import (
    WINDOW_FIELDS,
    Event,
    LiveScenario,
    degradation_window,
    run_load_migration,
)
from repro.memcached.slab import PAGE_SIZE
from repro.net.server import LiveClusterHarness


class TestDegradationWindow:
    def test_errors_before_the_event_are_ignored(self):
        window = degradation_window(2.0, 2.5, [(0.5, "n0"), (1.9, "n1")])
        assert window == {
            "killed_at_s": 2.0,
            "recovered_at_s": 2.5,
            "window_s": 0.5,
            "errors_in_window": 0,
        }

    def test_trailing_errors_extend_recovery(self):
        window = degradation_window(
            1.0, 1.2, [(0.4, "n0"), (1.1, "n1"), (3.25, "n2")]
        )
        assert window["recovered_at_s"] == 3.25
        assert window["window_s"] == 2.25
        assert window["errors_in_window"] == 2

    def test_a_probe_that_never_settles_leaves_the_window_unmeasured(self):
        window = degradation_window(1.0, None, [(1.5, "n0")])
        assert window["killed_at_s"] == 1.0
        assert window["recovered_at_s"] is None
        assert window["window_s"] is None
        assert window["errors_in_window"] == 1

    def test_no_event_means_nothing_measured(self):
        window = degradation_window(None, None, [(1.0, "n0")])
        assert tuple(window) == WINDOW_FIELDS
        assert window["killed_at_s"] is None
        assert window["errors_in_window"] == 0


def _driver_threads() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "loadgen-driver" and thread.is_alive()
    ]


def test_failing_event_leaves_no_load_thread():
    def boom(scenario: LiveScenario) -> None:
        raise RuntimeError("event failed mid-tape")

    scenario = LiveScenario(
        LiveClusterHarness(["f0", "f1"], 8 * PAGE_SIZE),
        [Event("boom", boom, at_s=0.1)],
        build_schedule(200.0, 5.0, seed=3, num_keys=100),
        seed_value_bytes=64,
    )
    with pytest.raises(RuntimeError, match="event failed"):
        scenario.run()
    assert _driver_threads() == []
    # The tape was cut short, not replayed to its 5 s end.
    assert scenario.generator is not None
    assert scenario.generator.ops_sent < scenario.generator.ops_total


def test_probe_admin_reports_an_unreachable_api():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    verdict = _probe_admin(("127.0.0.1", port))
    assert not verdict["status_ok"]
    assert not verdict["metrics_ok"]
    assert not verdict["rejects_malformed"]
    assert verdict["error"]


@pytest.fixture
def in_process_cluster(monkeypatch):
    """Run the node-process event lists on one in-process harness."""
    monkeypatch.setattr(runner, "ProcessClusterHarness", LiveClusterHarness)
    monkeypatch.setattr(
        cp_scenario, "ProcessClusterHarness", LiveClusterHarness
    )


@pytest.mark.slow
def test_scale_in_under_load_list(in_process_cluster):
    report = run_load_migration(
        300.0, 2.0, seed=7, nodes=3, num_keys=500, migrate_at_frac=0.3
    )
    migration = report.migration
    assert migration is not None
    assert migration["outcome"] == "warm"
    assert len(migration["retired"]) == 1
    assert report.wire_errors == 0
    assert report.ops_ok > 0
    assert migration["recovered_at_s"] >= migration["killed_at_s"]
    assert migration["window_s"] is not None
    assert _driver_threads() == []


@pytest.mark.slow
def test_controlplane_list(in_process_cluster):
    result = run_controlplane_scenario(
        nodes=3,
        retire=1,
        rate=400.0,
        duration_s=4.0,
        num_keys=500,
        min_window=300,
        evaluate_interval_s=0.5,
        poll_interval_s=0.25,
    )
    assert result.ok, result.failures
    assert result.migration is not None
    assert result.migration["source"] == "autoscaler"
    assert result.migration["outcome"] == "warm"
    assert result.load["wire_errors"] == 0
    window = result.degradation
    assert window["window_s"] is not None
    assert window["recovered_at_s"] >= window["killed_at_s"]
    assert _driver_threads() == []
