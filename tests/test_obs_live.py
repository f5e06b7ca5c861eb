"""Unit tests for the live-observability layer.

Covers the satellite checklist of the observability PR:

- bucket-interpolated :meth:`Histogram.quantile` (empty / single-bucket /
  overflow edge cases),
- Prometheus label-value escaping regression (backslash, quote, newline
  roundtrip through export -> parse),
- :mod:`repro.obs.trace` wire spans (frame validation, seeded
  determinism, sampling, JSONL roundtrip, stitching),
- :mod:`repro.obs.scrape` parse-back and quantile estimation,
- the ``repro top`` renderer as a pure function of canned samples.
"""

import math

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.memcached.slab import PAGE_SIZE
from repro.net.client import NodeClient
from repro.net.livemigrate import run_live_migration
from repro.net.runtime import EventLoopThread
from repro.net.server import LiveClusterHarness
from repro.obs import NULL_TELEMETRY, create_telemetry
from repro.obs.export import read_jsonl, to_prometheus, write_jsonl
from repro.obs.metrics import (
    LATENCY_SECONDS_BUCKETS,
    MetricsRegistry,
    bucket_quantile,
)
from repro.obs.scrape import (
    MetricsScraper,
    Sample,
    histogram_quantile,
    parse_prometheus,
)
from repro.obs.timeline import render_timeline
from repro.obs.top import FleetSample, TopDashboard
from repro.obs.trace import (
    CURRENT_CONTEXT,
    TraceContext,
    Tracer,
    parse_trace_args,
)


class TestHistogramQuantile:
    def make(self, bounds=(1.0, 2.0, 4.0)):
        registry = MetricsRegistry()
        return registry.histogram("q_seconds", buckets=bounds)

    def test_empty_histogram_returns_none(self):
        assert self.make().quantile(0.5) is None

    def test_q_out_of_range_rejected(self):
        hist = self.make()
        hist.observe(1.0)
        with pytest.raises(ConfigurationError):
            hist.quantile(-0.1)
        with pytest.raises(ConfigurationError):
            hist.quantile(1.1)

    def test_single_bucket_interpolates_from_zero(self):
        hist = self.make()
        hist.observe(0.5)  # lands in the first (0, 1.0] bucket
        # Linear interpolation within [0, 1.0]; any q stays in-bucket.
        assert 0.0 <= hist.quantile(0.5) <= 1.0
        assert hist.quantile(1.0) == pytest.approx(1.0)

    def test_interpolation_across_buckets(self):
        hist = self.make()
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        # rank 2 of 4 at q=0.5 -> inside the (1.0, 2.0] bucket.
        q50 = hist.quantile(0.5)
        assert 1.0 <= q50 <= 2.0
        assert hist.quantile(0.0) == pytest.approx(0.0)

    def test_overflow_bucket_clamps_to_last_bound(self):
        hist = self.make()
        hist.observe(100.0)  # beyond every bound -> +Inf bucket
        assert hist.quantile(0.99) == pytest.approx(4.0)

    def test_module_level_bucket_quantile_edges(self):
        bounds = (1.0, 2.0)
        assert bucket_quantile(bounds, [0, 0, 0], 0, 0.5) is None
        # All mass in the overflow bucket clamps to bounds[-1].
        assert bucket_quantile(bounds, [0, 0, 5], 5, 0.5) == 2.0

    def test_disabled_registry_quantile_is_none(self):
        from repro.obs.metrics import NULL_METRICS

        hist = NULL_METRICS.histogram("off_seconds", buckets=(1.0,))
        hist.observe(0.5)
        assert hist.quantile(0.5) is None


class TestExportEscapingRegression:
    def test_label_values_roundtrip_through_parse(self):
        """Backslash, quote, and newline in label values must survive an
        export -> scrape-parse roundtrip byte for byte."""
        registry = MetricsRegistry()
        hostile = 'a"b\\c\nnl'
        registry.counter("esc_total", node=hostile).inc(3)
        text = to_prometheus(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        samples = parse_prometheus(text)
        row = next(s for s in samples if s.name == "esc_total")
        assert row.labels_dict["node"] == hostile
        assert row.value == 3.0

    def test_help_newline_escaped(self):
        registry = MetricsRegistry()
        registry.counter("h_total", "line one\nline two").inc()
        text = to_prometheus(registry)
        assert "# HELP h_total line one\\nline two" in text
        # A raw newline inside HELP would produce a non-comment line
        # that is not a sample; the parse must see exactly one sample.
        assert len(parse_prometheus(text)) == 1


class TestTraceFrameValidation:
    def test_valid_frames(self):
        ctx = parse_trace_args(["abcdef0123456789", "cafe"])
        assert ctx == TraceContext("abcdef0123456789", "cafe")
        assert ctx.wire_prefix() == b"trace abcdef0123456789 cafe\r\n"

    @pytest.mark.parametrize(
        "args",
        [
            [],
            ["abc"],
            ["abc", "def", "extra"],
            ["xyz", "ab"],  # non-hex
            ["ABC", "ab"],  # uppercase rejected
            ["a" * 33, "ab"],  # trace id over cap
            ["ab", "b" * 17],  # span id over cap
            ["", "ab"],
            ["ab", ""],
        ],
    )
    def test_malformed_frames_rejected(self, args):
        assert parse_trace_args(args) is None


class TestLiveTracer:
    def test_fixed_seed_is_deterministic(self):
        def first_id(seed):
            return Tracer(sample_rate=1.0, seed=seed).start_trace("t").trace_id

        assert first_id(42) == first_id(42)
        assert first_id(42) != first_id(43)

    def test_sampling_extremes(self):
        never = Tracer(sample_rate=0.0, seed=1)
        assert not never.sampling
        assert all(never.start_trace("t") is None for _ in range(20))
        always = Tracer(sample_rate=1.0, seed=1)
        assert all(
            always.start_trace("t") is not None for _ in range(20)
        )

    def test_fractional_sampling_is_seeded(self):
        def decisions(seed):
            tracer = Tracer(sample_rate=0.3, seed=seed)
            return [
                tracer.start_trace("t") is not None for _ in range(50)
            ]

        first = decisions(9)
        assert first == decisions(9)
        assert any(first) and not all(first)

    def test_span_recorded_only_on_end(self):
        tracer = Tracer("p", sample_rate=1.0)
        root = tracer.start_trace("root")
        assert tracer.roots == []
        root.end()
        root.end()  # idempotent
        assert [s.name for s in tracer.roots] == ["root"]

    def test_null_tracer_preserves_foreign_chain(self):
        """A client whose own tracer is off forwards a foreign context
        unchanged, so the backend's span joins the foreign trace."""
        backend = create_telemetry("backend", trace_sample=1.0)
        loop = EventLoopThread(name="foreign-chain")
        loop.start()
        try:
            with LiveClusterHarness(
                ["n0"], 4 * PAGE_SIZE, telemetry=backend
            ) as harness:
                client = NodeClient(
                    "n0", *harness.endpoints["n0"], telemetry=NULL_TELEMETRY
                )
                token = CURRENT_CONTEXT.set(TraceContext("aaaa", "bbbb"))
                try:
                    assert loop.call(client.get("k"), timeout=10.0) is None
                finally:
                    CURRENT_CONTEXT.reset(token)
                loop.call(client.close(), timeout=5.0)
        finally:
            loop.stop()
        [span] = backend.tracer.roots
        assert span.name == "server.get"
        assert (span.trace_id, span.parent_id) == ("aaaa", "bbbb")


def _wire_spans(tmp_path):
    """A proxy and a backend tracer, one request between them, each
    exported to its own file; returns the paths and the three spans."""
    proxy = Tracer("proxy", sample_rate=1.0, seed=3)
    backend = Tracer("backend", sample_rate=1.0, seed=4)
    root = proxy.start_trace("proxy.get", key="k")
    rpc = proxy.start_span("client.rpc", root.context, node="n0")
    remote = backend.start_span("server.get", rpc.context)
    remote.end()
    rpc.end()
    root.end()
    registry = MetricsRegistry()
    registry.counter("x_total").inc()
    proxy_path = write_jsonl(tmp_path / "proxy.jsonl", proxy, registry)
    backend_path = write_jsonl(tmp_path / "backend.jsonl", backend)
    return [proxy_path, backend_path], (root, rpc, remote)


def _shape(span):
    """A span tree as comparable nested tuples, wall clock included."""
    return (
        span.trace_id,
        span.span_id,
        span.parent_id,
        span.name,
        span.process,
        span.start_wall_s,
        span.end_wall_s,
        span.start_sim_s,
        span.end_sim_s,
        span.attributes,
        [event.to_dict() for event in span.events],
        [_shape(child) for child in span.children],
    )


class TestJsonlRoundtripAndStitch:
    def test_two_files_stitch_into_one_trace(self, tmp_path):
        paths, (root, _, _) = _wire_spans(tmp_path)
        dump = read_jsonl(*paths)
        assert len(dump.metrics) == 1
        assert [tree.trace_id for tree in dump.spans] == [root.trace_id]
        spans = list(dump.spans[0].walk())
        assert {s.name for s in spans} == {
            "proxy.get",
            "client.rpc",
            "server.get",
        }
        processes = list(dict.fromkeys(s.process for s in spans))
        assert processes == ["proxy", "backend"]

    def test_span_tree_renders_nested(self, tmp_path):
        paths, _ = _wire_spans(tmp_path)
        tree = read_jsonl(*paths).spans[0]
        assert (tree.process, tree.name) == ("proxy", "proxy.get")
        rpc = tree.children[0]
        assert (rpc.process, rpc.name) == ("proxy", "client.rpc")
        remote = rpc.children[0]
        assert (remote.process, remote.name) == ("backend", "server.get")
        text = render_timeline(tree, clock="wall")
        assert "proxy:client.rpc" in text and "backend:server.get" in text

    def test_orphan_spans_get_synthetic_root(self, tmp_path):
        a = Tracer("a", sample_rate=1.0, seed=1)
        ctx = TraceContext("feed", "01")
        first = a.start_span("one", ctx)
        second = a.start_span("two", ctx)
        first.end()
        second.end()
        [tree] = read_jsonl(write_jsonl(tmp_path / "a.jsonl", a)).spans
        assert tree.name == "trace feed"
        assert [child.name for child in tree.children] == ["one", "two"]

    def test_sim_tree_and_wire_spans_round_trip(self, tmp_path):
        """A sim migration tree (sim windows, retry events) and wire
        spans from two tracers come back from ``read_jsonl`` as the
        same trees."""
        sim = Tracer("master", seed=5)
        migration = sim.root("migration", sim_s=10.0, kind="scale_in")
        plan = migration.child("plan")
        plan.sim_window(10.0, 12.5)
        plan.end()
        pair = migration.child("pair", sim_s=12.5, src="a", dst="b")
        pair.event("retry", sim_s=13.0, backoff_s=2.0)
        pair.end(sim_s=15.0)
        migration.end(sim_s=15.0)
        sim.event("fault.injected", sim_s=11.0, kind="node_crash")
        sim_path = write_jsonl(tmp_path / "sim.jsonl", sim)
        paths, (root, rpc, remote) = _wire_spans(tmp_path)
        # Wire spans keep no child links in-process; the reader adds them.
        root.children.append(rpc)
        rpc.children.append(remote)

        dump = read_jsonl(sim_path, *paths)
        assert [_shape(tree) for tree in dump.spans] == [
            _shape(migration),
            _shape(root),
        ]
        assert dump.spans[0].find("plan").sim_s == pytest.approx(2.5)
        assert [event.name for event in dump.events] == ["fault.injected"]
        assert [meta["version"] for meta in dump.meta] == [2, 2, 2]


class TestOneTimeline:
    def test_live_migration_is_one_trace(self, tmp_path):
        """The Master's migration tree joins the scenario's trace, so
        its phases and the wire spans they caused rebuild into one
        tree on one wall clock."""
        path = tmp_path / "live.jsonl"
        run_live_migration(
            nodes=3,
            retire=1,
            items=300,
            seed=7,
            verify=False,
            telemetry=create_telemetry("live", trace_sample=1.0, trace_seed=7),
            trace_jsonl=str(path),
        )
        [tree] = read_jsonl(path).spans
        names = {span.name for span in tree.walk()}
        assert {"migration", "plan", "dump", "import", "switch"} <= names
        assert "server.batch_import" in names
        migration = tree.find("migration")
        assert migration.trace_id == tree.trace_id
        assert migration.parent_id is not None

    def test_quiet_telemetry_sends_no_trace_frames(self, monkeypatch):
        """A tracer that records but does not sample keeps the Master's
        tree and puts no trace frame on the wire."""
        import repro.memcached.protocol as protocol

        frames = []

        def counting(args):
            frames.append(tuple(args))
            return parse_trace_args(args)

        monkeypatch.setattr(protocol, "parse_trace_args", counting)
        telemetry = create_telemetry("quiet")
        run_live_migration(
            nodes=3, retire=1, items=300, seed=7, telemetry=telemetry
        )
        assert frames == []
        assert telemetry.tracer.find_roots("migration")

    def test_obs_renders_every_sim_tree_by_default(self, tmp_path, capsys):
        sim = Tracer("sim")
        for at in range(7):
            sim.root("migration", sim_s=float(at)).end(sim_s=at + 0.5)
        path = write_jsonl(tmp_path / "sim.jsonl", sim)
        assert cli_main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("migration timeline (sim clock") == 7
        assert "more trace(s)" not in out

    def test_obs_renders_every_file_given(self, tmp_path, capsys):
        sim = Tracer("sim")
        root = sim.root("migration", sim_s=0.0)
        root.child("switch", sim_s=1.0).end(sim_s=2.0)
        root.end(sim_s=2.0)
        sim.event("fault.injected", sim_s=1.5, kind="node_crash")
        sim_path = write_jsonl(tmp_path / "sim.jsonl", sim, meta={"run": 1})
        paths, _ = _wire_spans(tmp_path)
        assert cli_main(["obs", str(sim_path), *map(str, paths)]) == 0
        out = capsys.readouterr().out
        assert "run: run=1" in out
        assert "migration timeline (sim clock" in out
        assert "proxy.get timeline (wall clock" in out
        assert "backend:server.get" in out
        assert "fault.injected" in out

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"type": "span", "trace_id": "ab',  # torn mid-write
            '{"type": "live_span"}',  # the retired live-only format
        ],
    )
    def test_obs_reports_bad_input_by_path_and_line(
        self, tmp_path, capsys, bad_line
    ):
        paths, _ = _wire_spans(tmp_path)
        with open(paths[1], "a", encoding="utf-8") as handle:
            handle.write(bad_line + "\n")
        lines = paths[1].read_text().count("\n")
        with pytest.raises(ConfigurationError, match=f":{lines}: "):
            read_jsonl(*paths)
        assert cli_main(["obs", *map(str, paths)]) == 1
        err = capsys.readouterr().err
        assert f"{paths[1]}:{lines}: " in err
        assert "Traceback" not in err

    def test_obs_rejects_a_file_of_another_version(self, tmp_path, capsys):
        path = tmp_path / "old.jsonl"
        path.write_text('{"type": "meta", "version": 1}\n')
        assert cli_main(["obs", str(path)]) == 1
        assert f"{path}:1: " in capsys.readouterr().err


class TestScrapeParsing:
    def test_histogram_quantile_from_exposition(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "rt_seconds", buckets=LATENCY_SECONDS_BUCKETS, node="n0"
        )
        for value in (0.0002, 0.0004, 0.002, 0.02):
            hist.observe(value)
        samples = parse_prometheus(to_prometheus(registry))
        p50 = histogram_quantile(samples, "rt_seconds", 0.5, node="n0")
        direct = hist.quantile(0.5)
        assert p50 == pytest.approx(direct)
        # Label mismatch -> no buckets -> None.
        assert (
            histogram_quantile(samples, "rt_seconds", 0.5, node="zz")
            is None
        )

    def test_inf_bucket_parsed(self):
        samples = parse_prometheus(
            'x_bucket{le="1"} 2\nx_bucket{le="+Inf"} 5\n'
        )
        les = {s.labels_dict["le"]: s.value for s in samples}
        assert les == {"1": 2.0, "+Inf": 5.0}

    def test_aggregate_sums_matching_series(self):
        scraper = MetricsScraper(endpoints={})
        scraped = {
            "a": [Sample("ops_total", (("node", "n0"),), 3.0)],
            "b": [
                Sample("ops_total", (("node", "n0"),), 4.0),
                Sample("ops_total", (("node", "n1"),), 1.0),
            ],
        }
        merged = {
            (s.name, s.labels): s.value
            for s in scraper.aggregate(scraped)
        }
        assert merged[("ops_total", (("node", "n0"),))] == 7.0
        assert merged[("ops_total", (("node", "n1"),))] == 1.0


def _prom_samples() -> list[Sample]:
    registry = MetricsRegistry()
    registry.counter("proxy_requests_total").inc(100)
    route = registry.histogram(
        "proxy_route_seconds", buckets=LATENCY_SECONDS_BUCKETS
    )
    rt = registry.histogram(
        "net_client_roundtrip_seconds",
        buckets=LATENCY_SECONDS_BUCKETS,
        node="live-00",
    )
    for value in (0.001, 0.002, 0.004):
        route.observe(value)
        rt.observe(value)
    registry.counter("net_client_requests_total", node="live-00").inc(42)
    registry.gauge("proxy_breaker_state", backend="live-00").set(1.0)
    return parse_prometheus(to_prometheus(registry))


class TestTopDashboard:
    def test_render_is_pure_over_canned_samples(self):
        dashboard = TopDashboard(("127.0.0.1", 11311))
        first = FleetSample(at_s=10.0, prom=_prom_samples())
        second = FleetSample(
            at_s=12.0,
            prom=[
                Sample(s.name, s.labels, s.value * 2)
                if s.name == "proxy_requests_total"
                else s
                for s in _prom_samples()
            ],
            proxy_stats={
                "proxy_gets": 60,
                "degraded_gets": 2,
                "active_backends": 1,
                "breaker_state_live-00": 1,
            },
            node_stats={
                "live-00": {
                    "get_hits": 30,
                    "get_misses": 10,
                    "curr_items": 7,
                }
            },
        )
        dashboard.ingest(first)
        dashboard.ingest(second)
        # 100 more requests over 2s -> 50 ops/s.
        assert dashboard.ops_history[-1] == pytest.approx(50.0)
        frame = dashboard.render(second)
        assert "50.0 ops/s" in frame
        assert "live-00" in frame
        assert "open" in frame  # breaker state code 1 renders by name
        assert " 75.0" in frame  # 30 hits / 40 lookups
        assert "degraded 2" in frame

    def test_render_reports_scrape_errors(self):
        dashboard = TopDashboard(("127.0.0.1", 1))
        sample = FleetSample(
            at_s=1.0, errors={"proxy obs": "connection refused"}
        )
        dashboard.ingest(sample)
        frame = dashboard.render(sample)
        assert "! proxy obs: connection refused" in frame

    def test_backend_names_merge_prom_labels_and_flags(self):
        dashboard = TopDashboard(
            ("127.0.0.1", 11311), nodes={"extra": ("127.0.0.1", 1)}
        )
        sample = FleetSample(at_s=1.0, prom=_prom_samples())
        assert dashboard._backend_names(sample) == ["extra", "live-00"]


def test_latency_buckets_are_sorted_and_subsecond_heavy():
    assert list(LATENCY_SECONDS_BUCKETS) == sorted(LATENCY_SECONDS_BUCKETS)
    assert LATENCY_SECONDS_BUCKETS[0] <= 0.0005
    assert sum(1 for b in LATENCY_SECONDS_BUCKETS if b < 0.1) >= 8
    assert not math.isinf(LATENCY_SECONDS_BUCKETS[-1])
