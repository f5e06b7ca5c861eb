"""The benchmark's definition, spans and simulator checks hold together."""

from __future__ import annotations

import json
import os
import re

from metrics import END_TO_END, PER_LAYER
from spans import SpanRecorder, layer_stats
from stats import quantile, tail_quantile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = load_benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_benchmark_workloads_are_the_runner_choices():
    from run import WORKLOADS

    bench = load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def test_kept_spans_link_children_and_subtract_their_cover():
    # parent [0, 10] with overlapping children [1, 4] and [3, 6]:
    # they cover [1, 6], so the parent's self time is 5.
    spans = [
        ("proxy.get", 1, 0, 0.0, 10.0),
        ("net.client_get", 2, 1, 1.0, 4.0),
        ("net.client_get", 3, 1, 3.0, 6.0),
    ]
    stats = layer_stats(spans)
    assert stats["proxy.get"]["self_s"] == 5.0
    assert stats["proxy.get"]["busy_s"] == 10.0
    assert stats["net.client_get"]["calls"] == 2


def test_recorder_parents_nested_calls_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    recorder = SpanRecorder(keep=True)
    recorder.patch(Layer, "outer", "outer")
    recorder.patch(Layer, "inner", "inner")
    assert Layer().outer() == 2
    recorder.restore()
    assert "outer" in vars(Layer) and Layer.outer.__name__ == "outer"
    assert not hasattr(Layer.outer, "__wrapped__")
    (inner, inner_id, inner_parent, *_), (outer, outer_id, outer_parent, *_) = (
        recorder.spans
    )
    assert (inner, outer) == ("inner", "outer")
    assert inner_parent == outer_id and outer_parent == 0


def test_folded_recorder_self_time_excludes_children():
    recorder = SpanRecorder(keep=False)
    inner = recorder.wrap("inner", lambda: sum(range(20000)))
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    stats = recorder.folded_stats()
    assert stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] <= stats["outer"]["busy_s"] - (
        stats["inner"]["busy_s"] * 0.999
    )


def test_tail_quantile_needs_ten_samples_beyond():
    assert tail_quantile(list(range(999)), 0.99) is None
    assert tail_quantile(list(range(1000)), 0.99) == quantile(
        list(range(1000)), 0.99
    )


def test_same_seed_simulations_give_the_same_series_digest():
    from sim import series_digest

    from repro.sim.experiment import run_experiment
    from repro.sim.scenarios import paper_config

    digests = {
        series_digest(
            run_experiment(paper_config("etc", "elmem", duration_s=120, seed=5)).metrics
        )
        for _ in range(2)
    }
    assert len(digests) == 1


def test_sets_insert_new_keys_shaped_like_the_seeded_ones():
    from schedule import LIVE_SPECS, KeySpace, build_ops, key_name

    for spec in LIVE_SPECS.values():
        keyspace = KeySpace(spec, 3)
        seeded = {key_name(index) for index in range(spec.num_keys)}
        written = set()
        for phase in range(2 + len(spec.ladder)):
            for op in build_ops(keyspace, spec.rate, 2.0, 3, phase):
                assert len(op.key) == len(key_name(0))
                if op.kind == "get":
                    assert op.key in seeded
                else:
                    assert op.key not in seeded and op.key not in written
                    assert op.size == spec.value_bytes
                    written.add(op.key)
        assert written
