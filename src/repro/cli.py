"""Command-line interface for the ElMem reproduction.

Usage (after ``pip install -e .``):

    python -m repro run --trace sys --policy elmem --duration 900
    python -m repro scenario --name sys --policies baseline elmem
    python -m repro traces
    python -m repro fusecache --items 65536 --lists 8
    python -m repro mrc --requests 100000 --profiler mimir
    python -m repro cost
    python -m repro check src/repro
    python -m repro serve --nodes 4 --port 11300
    python -m repro proxy --nodes 4 --port 11311
    python -m repro proxy-chaos --nodes 4 --json chaos.json
    python -m repro live-migrate --nodes 4 --retire 1

Every subcommand prints a human-readable report to stdout; ``run`` can
additionally export the per-second metrics as CSV/JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sim.experiment import ExperimentConfig, run_experiment
    from repro.sim.export import write_csv, write_json
    from repro.workloads.traces import make_trace

    schedule = []
    for spec in args.scale or []:
        when, target = spec.split(":", 1)
        schedule.append((float(when), int(target)))
    telemetry = None
    if args.trace_jsonl or args.prom:
        from repro.obs import create_telemetry

        telemetry = create_telemetry()
    config = ExperimentConfig(
        trace=make_trace(args.trace, duration_s=args.duration),
        policy=args.policy,
        schedule=schedule,
        autoscale=args.autoscale,
        seed=args.seed,
        telemetry=telemetry,
    )
    print(
        f"Running {args.trace} x {args.policy} for {args.duration}s "
        f"(seed {args.seed})..."
    )
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    summary = result.summary()
    print(f"done in {elapsed:.1f}s wall clock")
    for name, value in summary.items():
        print(f"  {name:20s} {value:.3f}")
    for event in result.policy.events:
        print(f"  [t={event.time:7.1f}s] {event.kind}: {event.detail}")
    if args.plot:
        from repro.analysis.asciiplot import chart

        print()
        print(
            chart(
                list(result.metrics.p95_series_ms()),
                "p95 RT (log scale)",
                markers=result.scaling_times
                and [t / len(result.metrics) for t in result.scaling_times],
                log_scale=True,
            )
        )
        print()
        print(
            chart(
                list(result.metrics.hit_rates()),
                "hit rate",
            )
        )
    if args.csv:
        print(f"metrics -> {write_csv(result.metrics, args.csv)}")
    if args.json:
        print(f"metrics -> {write_json(result.metrics, args.json)}")
    if telemetry is not None and args.trace_jsonl:
        from repro.obs.export import write_jsonl

        path = write_jsonl(
            args.trace_jsonl,
            tracer=telemetry.tracer,
            metrics=telemetry.metrics,
            meta={
                "trace": args.trace,
                "policy": args.policy,
                "duration_s": args.duration,
                "seed": args.seed,
            },
        )
        print(f"telemetry -> {path}")
    if telemetry is not None and args.prom:
        from pathlib import Path

        from repro.obs.export import to_prometheus

        Path(args.prom).write_text(to_prometheus(telemetry.metrics))
        print(f"prometheus -> {args.prom}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.obs.export import read_jsonl
    from repro.obs.timeline import render_timeline, summary_table

    try:
        dump = read_jsonl(*args.jsonl)
    except (ConfigurationError, OSError) as exc:
        print(f"repro obs: {exc}", file=sys.stderr)
        return 1
    for meta in dump.meta:
        shown = {k: v for k, v in meta.items() if k != "version"}
        if shown:
            print("run: " + ", ".join(f"{k}={v}" for k, v in shown.items()))
    if not dump.spans:
        print("(no span trees recorded)")

    def clock_for(roots: list) -> str:
        sim = any(root.start_sim_s is not None for root in roots)
        return args.clock or ("sim" if sim else "wall")

    if args.limit is None:
        # Every simulator migration, but only the first five wire traces.
        wire = [root for root in dump.spans if root.start_sim_s is None]
        hidden = {id(root) for root in wire[5:]}
        shown_trees = [root for root in dump.spans if id(root) not in hidden]
    else:
        shown_trees = dump.spans if args.limit <= 0 else dump.spans[: args.limit]
    for root in shown_trees:
        spans = list(root.walk())
        processes = dict.fromkeys(s.process for s in spans if s.process)
        wall_s = max(s.end_wall_s or s.start_wall_s for s in spans) - min(
            s.start_wall_s for s in spans
        )
        print()
        print(
            f"trace {root.trace_id}  processes: {', '.join(processes)}  "
            f"spans: {len(spans)}  wall: {wall_s * 1000:.2f}ms"
        )
        print(render_timeline(root, width=args.width, clock=clock_for([root])))
    if len(shown_trees) < len(dump.spans):
        print()
        print(
            f"... {len(dump.spans) - len(shown_trees)} more trace(s); "
            "raise --limit to render them"
        )
    if dump.spans:
        print()
        print(summary_table(dump.spans, clock=clock_for(dump.spans)))
    if dump.events:
        print()
        print(f"run-level events ({len(dump.events)}):")
        for event in dump.events:
            when = (
                f"t={event.sim_s:8.1f}s"
                if event.sim_s is not None
                else "t=       ?"
            )
            attrs = ", ".join(
                f"{k}={v}"
                for k, v in event.attributes.items()
                if k != "reason"
            )
            print(f"  [{when}] {event.name}  {attrs}")
    if dump.metrics:
        counters = [
            m for m in dump.metrics if m.get("kind") == "counter"
        ]
        if counters:
            print()
            print(f"counters ({len(counters)}):")
            for sample in sorted(
                counters, key=lambda m: -m.get("value", 0)
            ):
                labels = sample.get("labels") or {}
                label_text = (
                    "{"
                    + ",".join(f"{k}={v}" for k, v in labels.items())
                    + "}"
                    if labels
                    else ""
                )
                print(
                    f"  {sample['name']}{label_text} "
                    f"{sample.get('value', 0):g}"
                )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.analysis.degradation import summarize_post_scaling
    from repro.sim.experiment import run_experiment
    from repro.sim.scenarios import paper_config, scale_action_times

    times = scale_action_times(args.name, args.duration)
    print(
        f"Scenario {args.name!r}: scaling actions at "
        f"{[f'{t:.0f}s' for t in times]}"
    )
    for policy in args.policies:
        config = paper_config(
            args.name, policy, duration_s=args.duration, seed=args.seed
        )
        result = run_experiment(config)
        summary = summarize_post_scaling(
            result.metrics,
            times[0],
            horizon_s=min(450.0, args.duration - times[0] - 10),
            restoration_factor=2.0,
        )
        restoration = (
            f"{summary.restoration_time_s:.0f}s"
            if summary.restoration_time_s is not None
            else "not in window"
        )
        print(
            f"  {policy:10s} stable {summary.stable_rt_ms:7.1f}ms  "
            f"peak {summary.peak_rt_ms:9.1f}ms  "
            f"post-avg {summary.average_post_rt_ms:8.1f}ms  "
            f"restoration {restoration}"
        )
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from repro.workloads.traces import TRACE_FACTORIES, make_trace

    print("trace      duration  min   mean  max   shape")
    descriptions = {
        "sys": "plateau then sharp sustained drop",
        "etc": "diurnal dip then recovery",
        "sap": "staircase decline",
        "nlanr": "mid-trace peak",
        "microsoft": "bursty gradual decline",
    }
    for name in sorted(TRACE_FACTORIES):
        trace = make_trace(name, duration_s=args.duration).normalised()
        values = trace.values
        print(
            f"{name:10s} {trace.duration_s:7d}s  {values.min():.2f}  "
            f"{values.mean():.2f}  {values.max():.2f}  "
            f"{descriptions[name]}"
        )
    return 0


def _cmd_fusecache(args: argparse.Namespace) -> int:
    from repro.core.fusecache import (
        fuse_cache_detailed,
        kway_merge_top_n,
        lower_bound_comparisons,
        sort_merge_top_n,
    )

    n, k = args.items, args.lists
    lists = [
        [float(n * k - (j * k + i)) for j in range(n)] for i in range(k)
    ]
    pick = n * k // 2
    print(f"selecting the {pick:,} hottest of {n * k:,} items "
          f"({k} lists x {n:,})")
    for name, algorithm in (
        ("FuseCache", lambda: fuse_cache_detailed(lists, pick)),
        ("k-way merge", lambda: kway_merge_top_n(lists, pick)),
        ("full sort", lambda: sort_merge_top_n(lists, pick)),
    ):
        start = time.perf_counter()
        result = algorithm()
        elapsed = time.perf_counter() - start
        print(f"  {name:12s} {elapsed * 1000:10.2f} ms")
        if name == "FuseCache":
            print(
                f"  {'':12s} {result.comparisons:,} comparisons in "
                f"{result.rounds} rounds (lower bound "
                f"{lower_bound_comparisons(pick, k):,.0f})"
            )
    return 0


def _cmd_mrc(args: argparse.Namespace) -> int:
    from repro.cache_analysis.mimir import MimirProfiler
    from repro.cache_analysis.mrc import HitRateCurve
    from repro.cache_analysis.shards import ShardsProfiler
    from repro.cache_analysis.stack_distance import StackDistanceProfiler
    from repro.sim.experiment import ExperimentConfig, build_stack

    config = ExperimentConfig(policy="baseline", seed=args.seed)
    dataset, generator, *_ = build_stack(config)
    keys = generator.key_stream(args.requests)
    if args.profiler == "exact":
        profiler = StackDistanceProfiler(args.requests)
    elif args.profiler == "shards":
        profiler = ShardsProfiler(0.1, args.requests)
    else:
        profiler = MimirProfiler()
    start = time.perf_counter()
    for key in keys:
        profiler.record(key)
    histogram, cold = profiler.histogram()
    curve = HitRateCurve(histogram, cold)
    elapsed = time.perf_counter() - start
    print(
        f"{args.profiler} profile of {args.requests:,} requests in "
        f"{elapsed:.2f}s (max hit rate {curve.max_hit_rate:.3f})"
    )
    print("cache items   hit rate")
    for capacity in np.geomspace(
        100, max(101, curve.max_capacity), num=12
    ).astype(int):
        print(f"{capacity:11,d}   {curve.hit_rate(int(capacity)):.3f}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_digest

    print(render_digest(args.out_dir))
    return 0


def _check_rule_rows(args: argparse.Namespace) -> "list[tuple[str, str, str]]":
    """The rule catalogue covering every pack this invocation runs."""
    from repro.check import async_rule_catalogue, rule_catalogue
    from repro.check.protocol_conformance import conformance_catalogue

    rows = list(rule_catalogue())
    if getattr(args, "async_rules", False) or getattr(args, "list_rules", False):
        rows.extend(async_rule_catalogue())
    if getattr(args, "protocol", False) or getattr(args, "list_rules", False):
        rows.extend(conformance_catalogue())
    return rows


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import DEFAULT_RULES, lint_paths
    from repro.check.output import (
        github_annotations,
        violations_json,
        write_sarif,
    )
    from repro.check.strict import (
        strict_fault_sweep_report,
        strict_smoke_report,
    )

    paths = args.paths or ["src/repro"]
    if args.list_rules:
        for code, name, description in _check_rule_rows(args):
            print(f"  {code}  {name:24s} {description}")
        return 0

    machine = args.json_out
    rules = list(DEFAULT_RULES)
    if args.async_rules:
        from repro.check import ASYNC_RULES

        rules.extend(ASYNC_RULES)

    if not machine:
        print(f"lint: checking {', '.join(paths)}")
    violations = lint_paths(paths, rules=rules)
    conformance = []
    if args.protocol:
        from repro.check.protocol_conformance import default_conformance

        conformance = default_conformance()
    findings = violations + conformance
    failed = bool(findings)

    if not machine:
        for violation in findings:
            print("  " + violation.render())
        if violations:
            print(f"lint: {len(violations)} violation(s)")
        else:
            print("lint: clean")
        if args.protocol:
            if conformance:
                print(f"protocol: {len(conformance)} drift finding(s)")
            else:
                print("protocol: client/server/proxy models agree")

    sim_reports = []
    if not args.no_sim:
        sim_reports.append(strict_smoke_report())
        if args.strict_sim:
            sim_reports.append(strict_fault_sweep_report())
        if not machine:
            for report in sim_reports:
                print(
                    f"invariants: {report['label']}: "
                    f"{report['checks_run']} checks over "
                    f"{report['migrations']} migration(s), "
                    f"{report['violations']} violation(s) "
                    f"(hit rate {report['hit_rate']:.3f})"
                )

    if args.sarif:
        write_sarif(args.sarif, findings, _check_rule_rows(args))
        if not machine:
            print(f"sarif: wrote {args.sarif}")
    if args.annotate:
        for line in github_annotations(findings):
            print(line)
    if machine:
        import json

        print(
            json.dumps(
                {
                    "paths": paths,
                    "lint": violations_json(violations),
                    "conformance": violations_json(conformance),
                    "invariants": sim_reports,
                    "failed": failed,
                },
                indent=2,
            )
        )
    return 1 if failed else 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from repro.analysis.cost import (
        MEMCACHED_NODE,
        WEB_NODE,
        EC2_COMPUTE_HOURLY,
        EC2_MEMORY_HOURLY,
        cost_premium,
        power_premium,
        power_watts,
    )

    print("Section II-B cost/energy model:")
    print(
        f"  web node   (2 sockets, 12 GB): {power_watts(WEB_NODE):6.1f} W"
    )
    print(
        "  cache node (1 socket, 72 GB):  "
        f"{power_watts(MEMCACHED_NODE):6.1f} W  "
        f"(+{power_premium():.0%} power)"
    )
    print(
        f"  EC2: ${EC2_COMPUTE_HOURLY:.3f}/hr compute vs "
        f"${EC2_MEMORY_HOURLY:.3f}/hr memory (+{cost_premium():.0%} cost)"
    )
    return 0


@contextlib.contextmanager
def _shutdown_signals() -> "Iterator[Callable[[float | None], str]]":
    """Install SIGINT/SIGTERM handlers; yield a blocking wait function.

    The handlers must be live *before* the serving banner is printed —
    a supervisor that reacts to the banner may fire its TERM within
    microseconds, and the default disposition would kill the process
    mid-connection.  The yielded callable blocks until a signal arrives
    or the given duration elapses, returning the signal name or ``""``.
    The previous handlers are restored on exit.
    """
    import signal
    import threading

    stop = threading.Event()
    received = {"name": ""}

    def handler(signum: int, frame: object) -> None:
        received["name"] = signal.Signals(signum).name
        stop.set()

    def wait(duration: float | None) -> str:
        stop.wait(timeout=duration)
        return received["name"]

    previous = {
        sig: signal.signal(sig, handler)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield wait
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _live_telemetry(args: argparse.Namespace, process: str):
    """Telemetry for a live serving command, or None when obs is off."""
    if not (args.obs or args.obs_jsonl):
        return None
    from repro.obs import create_telemetry

    return create_telemetry(
        process, trace_sample=args.trace_sample, trace_seed=args.trace_seed
    )


def _export_obs_jsonl(telemetry, path: str | None) -> None:
    if telemetry is None or path is None:
        return
    from repro.obs.export import write_jsonl

    tracer = telemetry.tracer
    write_jsonl(path, tracer=tracer, metrics=telemetry.metrics)
    count = sum(1 for root in tracer.roots for _ in root.walk())
    print(f"live spans -> {path} ({count} spans)", flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.memcached.slab import PAGE_SIZE
    from repro.net import LiveClusterHarness

    names = [f"live-{index:02d}" for index in range(args.nodes)]
    telemetry = _live_telemetry(args, "serve")
    harness = LiveClusterHarness(
        names,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        host=args.host,
        port_base=args.port,
        telemetry=telemetry,
        metrics=telemetry.metrics if telemetry is not None else None,
        sanitize=args.sanitize,
    )
    harness.start()
    try:
        with _shutdown_signals() as wait_for_signal:
            print(f"live cluster up ({args.nodes} nodes):", flush=True)
            for name, (host, port) in sorted(harness.endpoints.items()):
                print(f"  {name}  {host}:{port}", flush=True)
            if args.duration is not None:
                print(f"serving for {args.duration:.0f}s...", flush=True)
            else:
                print("serving; SIGINT/SIGTERM to stop", flush=True)
            signal_name = wait_for_signal(args.duration)
        if signal_name:
            print(f"received {signal_name}; draining...", flush=True)
    finally:
        harness.stop()
    _export_obs_jsonl(telemetry, args.obs_jsonl)
    code = _report_sanitizer(harness.sanitizer)
    print("stopped.", flush=True)
    return code


def _report_sanitizer(*sanitizers: "object") -> int:
    """Print each loop sanitizer's verdict; exit code 1 on findings."""
    code = 0
    for sanitizer in sanitizers:
        if sanitizer is None:
            continue
        report = sanitizer.report()  # type: ignore[attr-defined]
        if report["clean"]:
            print("sanitizer: loop clean", flush=True)
            continue
        code = 1
        for line in report["findings"]:
            print(f"sanitizer: {line}", flush=True)
    return code


def _cmd_proxy(args: argparse.Namespace) -> int:
    from repro.memcached.slab import PAGE_SIZE
    from repro.proxy import ProxyConfig, ProxyHarness

    names = [f"live-{index:02d}" for index in range(args.nodes)]
    config = ProxyConfig(
        replication_factor=args.replicas,
        failure_threshold=args.failure_threshold,
        open_duration_s=args.open_duration,
    )
    telemetry = _live_telemetry(args, "proxy")
    harness = ProxyHarness(
        names,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        config=config,
        host=args.host,
        proxy_port=args.port,
        telemetry=telemetry,
        sanitize=args.sanitize,
    )
    harness.start()
    try:
        with _shutdown_signals() as wait_for_signal:
            host, port = harness.proxy_endpoint
            print(
                f"proxy up at {host}:{port} over {args.nodes} backends:",
                flush=True,
            )
            for name, (bhost, bport) in sorted(
                harness.backends.endpoints.items()
            ):
                print(f"  {name}  {bhost}:{bport}", flush=True)
            if args.duration is not None:
                print(f"serving for {args.duration:.0f}s...", flush=True)
            else:
                print("serving; SIGINT/SIGTERM to stop", flush=True)
            signal_name = wait_for_signal(args.duration)
        if signal_name:
            print(f"received {signal_name}; draining...", flush=True)
    finally:
        harness.stop()
    _export_obs_jsonl(telemetry, args.obs_jsonl)
    code = _report_sanitizer(harness.sanitizer, harness.backends.sanitizer)
    print("stopped.", flush=True)
    return code


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import TopDashboard

    proxy = _parse_endpoint(args.proxy)
    nodes = {}
    for spec in args.node or []:
        name, _, endpoint = spec.partition("=")
        if not endpoint:
            name, endpoint = spec, spec
        nodes[name] = _parse_endpoint(endpoint)
    dashboard = TopDashboard(proxy, nodes, timeout_s=args.timeout)
    frames = 0
    with _shutdown_signals() as wait_for_signal:
        while True:
            snapshot = dashboard.sample()
            print(dashboard.render(snapshot, width=args.width), flush=True)
            frames += 1
            if args.iterations is not None and frames >= args.iterations:
                break
            print(flush=True)
            if wait_for_signal(args.interval):
                break
    return 0


def _parse_endpoint(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {spec!r}")
    return host, int(port)


def _parse_targets(specs: list[str]) -> dict[str, tuple[str, int]]:
    endpoints: dict[str, tuple[str, int]] = {}
    for index, spec in enumerate(specs):
        name, eq, rest = spec.partition("=")
        if not eq:
            name, rest = f"target-{index:02d}", spec
        endpoints[name] = _parse_endpoint(rest)
    return endpoints


def _finish_scenario(
    args: argparse.Namespace,
    payload: dict,
    ok: bool,
    window_key: str,
    window_keys: tuple[str, ...] = (),
) -> int:
    """Print a live scenario's artifact, write its files; exit code.

    Every top-level field prints as one line of compact JSON (cut short
    past 72 characters -- the ``--json`` file has it whole); the
    ``window_key`` block is split into its own fields plus one line for
    the degradation window.  ``--window-json`` (where the subcommand
    has it) writes the ``window_keys`` subset of the artifact.
    """
    import json

    from repro.loadgen.runner import WINDOW_FIELDS

    window = payload.get(window_key) or {}
    for key, value in payload.items():
        if key == "failures":
            continue
        rows = (
            [(key, value)]
            if key != window_key
            else [
                (f"{key}.{field}", item)
                for field, item in window.items()
                if field not in WINDOW_FIELDS
            ]
        )
        for label, item in rows:
            text = json.dumps(item)
            if len(text) > 72:
                text = text[:69] + "..."
            print(f"  {label:<28} {text}")
    if window:
        measured = window.get("window_s")
        print(
            f"  {'degradation window':<28} "
            f"{'unmeasured' if measured is None else f'{measured:.3f}s'} "
            f"(killed at {window.get('killed_at_s')}s, recovered at "
            f"{window.get('recovered_at_s')}s, "
            f"{window.get('errors_in_window')} errors inside)"
        )
    for failure in payload.get("failures", []):
        print(f"    FAIL: {failure}")
    print(f"  {'verdict':<28} {'OK' if ok else 'FAILED'}")
    outputs = [
        (args.json, payload),
        (
            getattr(args, "window_json", None),
            {key: payload[key] for key in window_keys},
        ),
    ]
    for path, data in outputs:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2)
            print(f"  wrote {path}")
    if getattr(args, "trace_jsonl", None):
        print(f"  wrote {args.trace_jsonl}")
    return 0 if ok else 1


def _cmd_proxy_chaos(args: argparse.Namespace) -> int:
    from repro.proxy import run_proxy_chaos

    print(
        f"proxy chaos: {args.nodes} backends, kill+restart one "
        f"mid-traffic (seed {args.seed})..."
    )
    result = run_proxy_chaos(
        nodes=args.nodes,
        keys=args.keys,
        healthy_ops=args.ops,
        dead_ops=args.ops,
        seed=args.seed,
        trace_sample=args.trace_sample,
        trace_jsonl=args.trace_jsonl,
    )
    return _finish_scenario(
        args,
        result.to_dict(),
        result.ok,
        "degradation",
        window_keys=("degradation", "obs_scrape"),
    )


def _cmd_controlplane(args: argparse.Namespace) -> int:
    from repro.controlplane import ControlPlane, ControlPlaneConfig
    from repro.core.autoscaler import (
        AutoScaler,
        AutoScalerConfig,
        ScalingEngine,
        ScalingEngineConfig,
    )
    from repro.memcached.slab import PAGE_SIZE
    from repro.net.cluster import LiveCluster
    from repro.obs import create_telemetry

    endpoints = _parse_targets(args.target)
    telemetry = create_telemetry("controlplane")
    engine = ScalingEngine(
        AutoScaler(
            AutoScalerConfig(
                db_capacity_rps=args.db_capacity,
                node_memory_bytes=args.memory_mb * PAGE_SIZE,
                bytes_per_item=args.bytes_per_item,
                min_nodes=args.min_nodes,
                max_nodes=args.max_nodes or len(endpoints),
            ),
            telemetry=telemetry,
        ),
        ScalingEngineConfig(
            evaluate_interval_s=args.interval,
            min_window=args.min_window,
            confirm_rounds=args.confirm_rounds,
            cooldown_s=args.cooldown,
        ),
    )
    live = LiveCluster(endpoints, timeout_s=args.timeout)
    control = ControlPlane(
        live,
        engine,
        config=ControlPlaneConfig(
            poll_interval_s=args.poll_interval,
            admin_host=args.admin_host,
            admin_port=args.admin_port,
        ),
        telemetry=telemetry,
    )
    control.start()
    try:
        with _shutdown_signals() as wait_for_signal:
            host, port = control.admin_endpoint
            print(
                f"control plane up over {len(endpoints)} nodes; "
                f"admin http://{host}:{port}",
                flush=True,
            )
            print(
                "  GET /status   GET /metrics   "
                'POST /scale {"target": N}   POST /drain/<node>',
                flush=True,
            )
            print(
                "  note: automatic decisions need a key feed "
                "(engine window); admin commands always work",
                flush=True,
            )
            if args.duration is not None:
                print(f"supervising for {args.duration:.0f}s...", flush=True)
            else:
                print("supervising; SIGINT/SIGTERM to stop", flush=True)
            signal_name = wait_for_signal(args.duration)
        if signal_name:
            print(f"received {signal_name}; stopping...", flush=True)
    finally:
        control.stop()
        live.close()
    print(
        f"  polls {control.status()['polls']}  "
        f"migrations {len(control.migrations)}  "
        f"events {len(control.events)}"
    )
    for migration in control.migrations:
        print(
            f"    {migration['action']} {migration['changed']} "
            f"({migration['source']}, {migration['outcome']})"
        )
    print("stopped.", flush=True)
    return 0


def _cmd_controlplane_scenario(args: argparse.Namespace) -> int:
    from repro.controlplane import run_controlplane_scenario
    from repro.memcached.slab import PAGE_SIZE

    print(
        f"control-plane scenario: {args.nodes} node processes, "
        f"{args.rate:.0f} ops/s for {args.duration:.0f}s; the engine "
        f"must decide a scale-in to {args.nodes - args.retire} "
        f"(seed {args.seed})..."
    )
    result = run_controlplane_scenario(
        nodes=args.nodes,
        retire=args.retire,
        rate=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        num_keys=args.keys,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        poll_interval_s=args.poll_interval,
        evaluate_interval_s=args.interval,
        confirm_rounds=args.confirm_rounds,
        min_window=args.min_window,
        timeout_s=args.timeout,
        trace_jsonl=args.trace_jsonl,
    )
    return _finish_scenario(
        args,
        result.to_dict(),
        result.ok,
        "degradation",
        window_keys=("decision", "degradation", "admin"),
    )


def _cmd_live_migrate(args: argparse.Namespace) -> int:
    from repro.memcached.slab import PAGE_SIZE
    from repro.net import run_live_migration

    print(
        f"live scale-in: {args.nodes} nodes -> retire {args.retire}, "
        f"{args.items} items over localhost TCP..."
    )
    telemetry = None
    if args.trace_jsonl:
        from repro.obs import create_telemetry

        telemetry = create_telemetry(
            "live-migrate", trace_sample=1.0, trace_seed=args.seed
        )
    result = run_live_migration(
        nodes=args.nodes,
        retire=args.retire,
        items=args.items,
        value_bytes=args.value_bytes,
        seed=args.seed,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        verify=not args.no_verify,
        timeout_s=args.timeout,
        telemetry=telemetry,
        trace_jsonl=args.trace_jsonl,
        sanitize=args.sanitize,
        process_cluster=args.procs,
    )
    return _finish_scenario(
        args,
        result.to_dict(),
        result.warm and result.verified is not False,
        "degradation",
    )


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    from repro.memcached.slab import PAGE_SIZE
    from repro.net import ProcessClusterHarness

    names = [f"proc-{index:02d}" for index in range(args.nodes)]
    harness = ProcessClusterHarness(
        names,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        host=args.host,
        port_base=args.port,
        restart_crashed=args.restart_crashed,
    )
    harness.start()
    try:
        with _shutdown_signals() as wait_for_signal:
            pids = harness.pids
            print(
                f"process cluster up ({args.nodes} nodes, one OS "
                "process each):",
                flush=True,
            )
            for name, (host, port) in sorted(harness.endpoints.items()):
                print(
                    f"  {name}  {host}:{port}  pid {pids[name]}",
                    flush=True,
                )
            if args.duration is not None:
                print(f"serving for {args.duration:.0f}s...", flush=True)
            else:
                print("serving; SIGINT/SIGTERM to stop", flush=True)
            signal_name = wait_for_signal(args.duration)
        if signal_name:
            print(f"received {signal_name}; draining...", flush=True)
    finally:
        harness.stop()
    for event in harness.crash_events:
        print(
            f"crash: {event.node} (pid {event.pid}) exited "
            f"{event.exitcode}"
            + (", restarted" if event.restarted else ""),
            flush=True,
        )
    print("stopped.", flush=True)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.loadgen import run_load, run_load_migration
    from repro.memcached.slab import PAGE_SIZE

    if args.migrate and args.target:
        raise SystemExit(
            "--migrate needs process control over its own cluster; "
            "drop --target"
        )
    common = dict(
        rate=args.rate,
        duration_s=args.duration,
        seed=args.seed,
        nodes=args.nodes,
        memory_per_node=args.memory_mb * PAGE_SIZE,
        num_keys=args.keys,
        set_fraction=args.set_fraction,
        value_bytes=args.value_bytes,
        trace=args.trace,
        timeout_s=args.timeout,
    )
    if args.migrate:
        print(
            f"open-loop load + scale-in: {args.nodes} node processes, "
            f"retire {args.retire} at "
            f"{args.migrate_at:.0%} of {args.duration:.0f}s..."
        )
        report = run_load_migration(
            retire=args.retire, migrate_at_frac=args.migrate_at, **common
        )
    else:
        endpoints = _parse_targets(args.target) if args.target else None
        where = (
            f"{len(endpoints)} target endpoints"
            if endpoints is not None
            else f"{args.nodes} self-hosted node processes"
        )
        print(
            f"open-loop load: {args.rate:.0f} ops/s for "
            f"{args.duration:.0f}s against {where}..."
        )
        report = run_load(endpoints=endpoints, **common)
    ok = report.ops_ok > 0 and report.wire_errors == 0
    if report.migration is not None:
        ok = ok and report.migration.get("outcome") == "warm"
    return _finish_scenario(args, report.to_dict(), ok, "migration")


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.perfgate import run_gate

    ok, report = run_gate(
        quick=args.quick,
        gate=args.gate,
        out_path=args.out,
        baseline_path=args.baseline,
        update_baseline=args.update_baseline,
    )
    print(report)
    return 0 if ok else 1


def _add_obs_flags(command: argparse.ArgumentParser) -> None:
    """Shared live-observability flags for serving commands."""
    command.add_argument(
        "--obs",
        action="store_true",
        help="enable live metrics + tracing (stats obs scrape surface)",
    )
    command.add_argument(
        "--obs-jsonl",
        default=None,
        help="export live spans + metrics on shutdown (implies --obs)",
    )
    command.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="fraction of requests that start a live trace",
    )
    command.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="seed for the trace sampling/id generator",
    )


_SCENARIO_FLAGS: dict[str, dict] = {
    "--memory-mb": {"type": int, "default": 8, "help": "cache MB per node"},
    "--timeout": {
        "type": float,
        "default": 5.0,
        "help": "per-socket-operation timeout in seconds",
    },
    "--json": {"help": "write the run's JSON artifact to a file"},
    "--window-json": {
        "help": "write the degradation window and its verdicts to a file"
    },
    "--trace-jsonl": {"help": "export the run's spans as JSON lines"},
}
"""Flags the live scenario subcommands share (one meaning each)."""


def _add_scenario_flags(
    parser: argparse.ArgumentParser, *flags: str
) -> None:
    for flag in flags:
        options = {"default": None, **_SCENARIO_FLAGS[flag]}
        parser.add_argument(flag, **options)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ElMem (ICDCS 2018) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--trace", default="etc")
    run.add_argument("--policy", default="elmem")
    run.add_argument("--duration", type=int, default=900)
    run.add_argument("--seed", type=int, default=3)
    run.add_argument(
        "--scale",
        action="append",
        metavar="T:NODES",
        help="schedule a scaling action, e.g. --scale 400:7",
    )
    run.add_argument("--autoscale", action="store_true")
    run.add_argument(
        "--plot",
        action="store_true",
        help="render terminal charts of p95 RT and hit rate",
    )
    run.add_argument("--csv", help="export per-second metrics as CSV")
    run.add_argument("--json", help="export per-second metrics as JSON")
    run.add_argument(
        "--trace-jsonl",
        help="record telemetry and export it as JSON lines",
    )
    run.add_argument(
        "--prom",
        help="record metrics and export Prometheus text exposition",
    )
    run.set_defaults(func=_cmd_run)

    obs = sub.add_parser(
        "obs",
        help="render telemetry JSONL as ASCII timelines; spans from "
        "several files are stitched into one tree per trace id",
    )
    obs.add_argument(
        "jsonl",
        nargs="+",
        help="file(s) written by --trace-jsonl / --obs-jsonl",
    )
    obs.add_argument("--width", type=int, default=60)
    obs.add_argument(
        "--clock",
        choices=["sim", "wall"],
        default=None,
        help="timeline axis (default: sim when a tree's root has sim "
        "times, wall otherwise)",
    )
    obs.add_argument(
        "--limit",
        type=int,
        default=None,
        help="traces to render (0 renders all; default: every "
        "simulator tree and the first 5 wire traces)",
    )
    obs.set_defaults(func=_cmd_obs)

    scenario = sub.add_parser(
        "scenario", help="replay a paper scenario under several policies"
    )
    scenario.add_argument("--name", default="sys")
    scenario.add_argument(
        "--policies",
        nargs="+",
        default=["baseline", "elmem"],
    )
    scenario.add_argument("--duration", type=int, default=900)
    scenario.add_argument("--seed", type=int, default=3)
    scenario.set_defaults(func=_cmd_scenario)

    traces = sub.add_parser("traces", help="describe the demand traces")
    traces.add_argument("--duration", type=int, default=1500)
    traces.set_defaults(func=_cmd_traces)

    fusecache = sub.add_parser(
        "fusecache", help="FuseCache vs merge baselines"
    )
    fusecache.add_argument("--items", type=int, default=65_536)
    fusecache.add_argument("--lists", type=int, default=8)
    fusecache.set_defaults(func=_cmd_fusecache)

    mrc = sub.add_parser("mrc", help="profile a hit-rate curve")
    mrc.add_argument("--requests", type=int, default=100_000)
    mrc.add_argument(
        "--profiler",
        choices=["exact", "mimir", "shards"],
        default="mimir",
    )
    mrc.add_argument("--seed", type=int, default=3)
    mrc.set_defaults(func=_cmd_mrc)

    cost = sub.add_parser("cost", help="Section II-B cost/energy model")
    cost.set_defaults(func=_cmd_cost)

    check = sub.add_parser(
        "check",
        help="repo-specific lint rules + invariant smoke run",
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    check.add_argument(
        "--no-sim",
        action="store_true",
        help="lint only; skip the strict-mode invariant smoke run",
    )
    check.add_argument(
        "--strict-sim",
        action="store_true",
        help="also run the fault-sweep scenario under strict mode",
    )
    check.add_argument(
        "--async",
        dest="async_rules",
        action="store_true",
        help="also run the REP1xx concurrency-safety rules (live tier)",
    )
    check.add_argument(
        "--protocol",
        action="store_true",
        help="cross-check server/client/proxy wire-protocol models",
    )
    check.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="print a machine-readable JSON report instead of prose",
    )
    check.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write findings as a SARIF 2.1.0 document",
    )
    check.add_argument(
        "--annotate",
        action="store_true",
        help="emit GitHub ::error workflow commands for findings",
    )
    check.set_defaults(func=_cmd_check)

    serve = sub.add_parser(
        "serve",
        help="boot a live asyncio Memcached cluster on localhost",
    )
    serve.add_argument(
        "--nodes", type=int, default=4, help="node servers to boot"
    )
    serve.add_argument(
        "--memory-mb", type=int, default=8, help="cache MB per node"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="base port (node i listens on port+i); 0 picks free ports",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then exit (default: until Ctrl-C)",
    )
    serve.add_argument(
        "--sanitize",
        action="store_true",
        help="run the loop under asyncio debug + blocking-call trap",
    )
    _add_obs_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    proxy = sub.add_parser(
        "proxy",
        help="boot a live cluster behind an mcrouter-style proxy",
    )
    proxy.add_argument(
        "--nodes", type=int, default=4, help="backend servers to boot"
    )
    proxy.add_argument(
        "--memory-mb", type=int, default=8, help="cache MB per backend"
    )
    proxy.add_argument("--host", default="127.0.0.1", help="bind address")
    proxy.add_argument(
        "--port",
        type=int,
        default=0,
        help="proxy listen port; 0 picks a free port",
    )
    proxy.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="extra copies per promoted hot key (0 disables)",
    )
    proxy.add_argument(
        "--failure-threshold",
        type=int,
        default=3,
        help="consecutive failures that trip a backend's breaker",
    )
    proxy.add_argument(
        "--open-duration",
        type=float,
        default=1.0,
        help="seconds a tripped breaker stays open before probing",
    )
    proxy.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then exit (default: until a signal)",
    )
    proxy.add_argument(
        "--sanitize",
        action="store_true",
        help="run both loops under asyncio debug + blocking-call trap",
    )
    _add_obs_flags(proxy)
    proxy.set_defaults(func=_cmd_proxy)

    top = sub.add_parser(
        "top",
        help="terminal dashboard over a live proxy's stats obs page",
    )
    top.add_argument(
        "--proxy",
        required=True,
        metavar="HOST:PORT",
        help="proxy endpoint to scrape",
    )
    top.add_argument(
        "--node",
        action="append",
        metavar="NAME=HOST:PORT",
        help="backend to scrape plain stats from (repeatable)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="frames to render then exit (default: until a signal)",
    )
    top.add_argument(
        "--once",
        action="store_const",
        dest="iterations",
        const=1,
        help="render a single frame and exit",
    )
    top.add_argument("--timeout", type=float, default=5.0)
    top.add_argument("--width", type=int, default=78)
    top.set_defaults(func=_cmd_top)

    chaos = sub.add_parser(
        "proxy-chaos",
        help="kill+recover a backend behind the proxy; assert clean clients",
    )
    chaos.add_argument(
        "--nodes", type=int, default=4, help="backend servers to boot"
    )
    chaos.add_argument(
        "--keys", type=int, default=64, help="keyspace size"
    )
    chaos.add_argument(
        "--ops",
        type=int,
        default=200,
        help="client operations per phase (healthy / dead)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="traffic seed")
    chaos.add_argument(
        "--trace-sample",
        type=float,
        default=0.05,
        help="fraction of proxy requests that start a live trace",
    )
    _add_scenario_flags(chaos, "--json", "--window-json", "--trace-jsonl")
    chaos.set_defaults(func=_cmd_proxy_chaos)

    cplane = sub.add_parser(
        "controlplane",
        help="autoscaling daemon over a live tier, with a JSON admin API",
    )
    cplane.add_argument(
        "--target",
        action="append",
        required=True,
        metavar="NAME=HOST:PORT",
        help="node endpoint to supervise (repeatable)",
    )
    cplane.add_argument(
        "--admin-host", default="127.0.0.1", help="admin API bind host"
    )
    cplane.add_argument(
        "--admin-port",
        type=int,
        default=0,
        help="admin API port (0 = ephemeral)",
    )
    cplane.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between stat polls",
    )
    cplane.add_argument(
        "--db-capacity",
        type=float,
        default=10_000.0,
        help="r_DB: requests/s the backing database absorbs",
    )
    cplane.add_argument(
        "--memory-mb",
        type=int,
        default=64,
        help="per-node memory in MiB-sized pages (node_memory_bytes)",
    )
    cplane.add_argument(
        "--bytes-per-item",
        type=float,
        default=128.0,
        help="average cached-item footprint",
    )
    cplane.add_argument(
        "--min-nodes", type=int, default=1, help="scale-in floor"
    )
    cplane.add_argument(
        "--max-nodes",
        type=int,
        default=0,
        help="scale-out ceiling (0 = number of targets)",
    )
    cplane.add_argument(
        "--interval",
        type=float,
        default=60.0,
        help="seconds between AutoScaler evaluations",
    )
    cplane.add_argument(
        "--min-window",
        type=int,
        default=50_000,
        help="key samples required before the engine evaluates",
    )
    cplane.add_argument(
        "--confirm-rounds",
        type=int,
        default=2,
        help="consecutive same-direction decisions before acting",
    )
    cplane.add_argument(
        "--cooldown",
        type=float,
        default=300.0,
        help="seconds after an action before the next may fire",
    )
    cplane.add_argument(
        "--duration",
        type=float,
        default=None,
        help="supervise for N seconds then exit (default: until signal)",
    )
    cplane.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-socket-operation timeout in seconds",
    )
    cplane.set_defaults(func=_cmd_controlplane)

    cpscenario = sub.add_parser(
        "controlplane-scenario",
        help="autoscaler-decided live scale-in under open-loop load",
    )
    cpscenario.add_argument(
        "--nodes", type=int, default=4, help="node processes to boot"
    )
    cpscenario.add_argument(
        "--retire",
        type=int,
        default=1,
        help="nodes the engine should decide to retire",
    )
    cpscenario.add_argument(
        "--rate", type=float, default=600.0, help="offered ops/s"
    )
    cpscenario.add_argument(
        "--duration", type=float, default=15.0, help="run length in seconds"
    )
    cpscenario.add_argument("--seed", type=int, default=7, help="tape seed")
    cpscenario.add_argument(
        "--keys", type=int, default=3000, help="distinct keys in the tape"
    )
    cpscenario.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="daemon stat-poll interval in seconds",
    )
    cpscenario.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between AutoScaler evaluations",
    )
    cpscenario.add_argument(
        "--confirm-rounds",
        type=int,
        default=2,
        help="consecutive same-direction decisions before acting",
    )
    cpscenario.add_argument(
        "--min-window",
        type=int,
        default=1500,
        help="key samples required before the engine evaluates",
    )
    _add_scenario_flags(
        cpscenario,
        "--memory-mb",
        "--timeout",
        "--json",
        "--window-json",
        "--trace-jsonl",
    )
    cpscenario.set_defaults(func=_cmd_controlplane_scenario)

    live = sub.add_parser(
        "live-migrate",
        help="scripted scale-in over localhost TCP (three-phase, warm)",
    )
    live.add_argument(
        "--nodes", type=int, default=4, help="node servers to boot"
    )
    live.add_argument(
        "--retire", type=int, default=1, help="nodes to scale in"
    )
    live.add_argument(
        "--items", type=int, default=2000, help="items to seed"
    )
    live.add_argument(
        "--value-bytes", type=int, default=64, help="payload size per item"
    )
    live.add_argument("--seed", type=int, default=7, help="workload seed")
    live.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the in-process equivalence replay",
    )
    live.add_argument(
        "--sanitize",
        action="store_true",
        help="run both loops under asyncio debug + blocking-call trap "
        "and fail on any recorded hazard",
    )
    live.add_argument(
        "--procs",
        action="store_true",
        help="boot each node in its own OS process (shared-nothing)",
    )
    _add_scenario_flags(
        live, "--memory-mb", "--timeout", "--json", "--trace-jsonl"
    )
    live.set_defaults(func=_cmd_live_migrate)

    serve_cluster = sub.add_parser(
        "serve-cluster",
        help="boot a shared-nothing cluster: one OS process per node",
    )
    serve_cluster.add_argument(
        "--nodes", type=int, default=4, help="node processes to spawn"
    )
    serve_cluster.add_argument(
        "--memory-mb", type=int, default=8, help="cache MB per node"
    )
    serve_cluster.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve_cluster.add_argument(
        "--port",
        type=int,
        default=0,
        help="base port (node i listens on port+i); 0 picks free ports",
    )
    serve_cluster.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for N seconds then exit (default: until Ctrl-C)",
    )
    serve_cluster.add_argument(
        "--restart-crashed",
        action="store_true",
        help="respawn a crashed node process (cold) on the same port",
    )
    serve_cluster.set_defaults(func=_cmd_serve_cluster)

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop socket load generator (fixed-rate, CO-free)",
    )
    loadgen.add_argument(
        "--target",
        action="append",
        metavar="[NAME=]HOST:PORT",
        help="node endpoint to drive (repeatable); omit to self-host",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=1000.0,
        help="offered request rate (peak ops/s with --trace)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=10.0, help="run seconds"
    )
    loadgen.add_argument(
        "--seed", type=int, default=0, help="schedule seed"
    )
    loadgen.add_argument(
        "--nodes",
        type=int,
        default=3,
        help="node processes to self-host when no --target is given",
    )
    loadgen.add_argument(
        "--keys", type=int, default=5000, help="distinct keys in the tape"
    )
    loadgen.add_argument(
        "--set-fraction",
        type=float,
        default=0.1,
        help="fraction of operations that are sets",
    )
    loadgen.add_argument(
        "--value-bytes", type=int, default=64, help="payload size per set"
    )
    loadgen.add_argument(
        "--trace",
        default=None,
        help="shape the rate by a demand trace (sys/etc/sap/...)",
    )
    loadgen.add_argument(
        "--migrate",
        action="store_true",
        help="run a Master scale-in mid-load and report the window",
    )
    loadgen.add_argument(
        "--retire",
        type=int,
        default=1,
        help="nodes to scale in with --migrate",
    )
    loadgen.add_argument(
        "--migrate-at",
        type=float,
        default=0.35,
        help="when to start the scale-in, as a fraction of --duration",
    )
    _add_scenario_flags(loadgen, "--memory-mb", "--timeout", "--json")
    loadgen.set_defaults(func=_cmd_loadgen)

    bench = sub.add_parser(
        "bench",
        help="hot-path micro-benchmarks + performance regression gate",
    )
    bench.add_argument(
        "--gate",
        action="store_true",
        help="enforce the regression gate (exit 1 on failure)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smaller problem sizes / fewer repeats (CI mode)",
    )
    bench.add_argument(
        "--out",
        default="BENCH_latest.json",
        help="where to write the run's results JSON",
    )
    bench.add_argument(
        "--baseline",
        default="benchmarks/bench_baseline.json",
        help="committed baseline metrics to compare against",
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file with this run's metrics",
    )
    bench.set_defaults(func=_cmd_bench)

    report = sub.add_parser(
        "report", help="paper-vs-measured digest from benchmark outputs"
    )
    report.add_argument(
        "--out-dir",
        default="benchmarks/out",
        help="directory of benchmark report files",
    )
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush inside the try so a closed pipe surfaces here.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro obs ... | head``).  Point stdout
        # at devnull so the interpreter's exit flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
