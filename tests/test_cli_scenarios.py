"""The live scenario subcommands end to end through ``repro.cli.main``.

Each run must exit 0 and write a JSON artifact whose degradation window
block carries the four shared keys.  ``loadgen --migrate`` and
``controlplane-scenario`` boot node processes, so they sit in the
``proc`` tier.
"""

import json

import pytest

from repro.cli import main
from repro.loadgen.runner import WINDOW_FIELDS


def _artifact(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_proxy_chaos(tmp_path):
    report_path = tmp_path / "chaos.json"
    window_path = tmp_path / "window.json"
    code = main(
        [
            "proxy-chaos",
            "--nodes", "3",
            "--keys", "32",
            "--ops", "100",
            "--seed", "5",
            "--json", str(report_path),
            "--window-json", str(window_path),
        ]
    )
    assert code == 0
    report = _artifact(report_path)
    assert report["ok"] is True
    assert set(WINDOW_FIELDS) <= set(report["degradation"])
    assert report["degradation"]["window_s"] is not None
    window = _artifact(window_path)
    assert window["degradation"] == report["degradation"]
    assert window["obs_scrape"]["ok"]


def test_live_migrate(tmp_path, capsys):
    report_path = tmp_path / "live.json"
    code = main(
        [
            "live-migrate",
            "--nodes", "3",
            "--items", "300",
            "--seed", "7",
            "--json", str(report_path),
        ]
    )
    assert code == 0
    report = _artifact(report_path)
    assert report["outcome"] == "warm"
    assert report["verified"] is True
    window = report["degradation"]
    assert set(WINDOW_FIELDS) <= set(window)
    assert window["recovered_at_s"] >= window["killed_at_s"]
    assert window["errors_in_window"] == 0
    out = capsys.readouterr().out
    assert "degradation window" in out
    assert "verdict                      OK" in out


@pytest.mark.proc
def test_loadgen_migrate(tmp_path):
    report_path = tmp_path / "load.json"
    code = main(
        [
            "loadgen",
            "--migrate",
            "--nodes", "3",
            "--rate", "300",
            "--duration", "3",
            "--keys", "500",
            "--json", str(report_path),
        ]
    )
    assert code == 0
    report = _artifact(report_path)
    migration = report["migration"]
    assert migration["outcome"] == "warm"
    assert set(WINDOW_FIELDS) <= set(migration)
    assert migration["recovered_at_s"] >= migration["killed_at_s"]
    assert report["wire_errors"] == 0


@pytest.mark.proc
def test_controlplane_scenario(tmp_path):
    report_path = tmp_path / "cp.json"
    window_path = tmp_path / "cp_window.json"
    code = main(
        [
            "controlplane-scenario",
            "--nodes", "3",
            "--rate", "400",
            "--duration", "6",
            "--keys", "500",
            "--min-window", "300",
            "--interval", "0.5",
            "--poll-interval", "0.25",
            "--json", str(report_path),
            "--window-json", str(window_path),
        ]
    )
    assert code == 0
    report = _artifact(report_path)
    assert report["ok"], report["failures"]
    assert report["migration"]["source"] == "autoscaler"
    assert set(WINDOW_FIELDS) <= set(report["degradation"])
    window = _artifact(window_path)
    assert set(window) == {"decision", "degradation", "admin"}
    assert window["degradation"] == report["degradation"]
