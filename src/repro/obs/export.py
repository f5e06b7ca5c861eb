"""Telemetry exporters: JSONL structured events and Prometheus text.

One JSONL file captures one process's telemetry.  Every line is a JSON
object with a ``type``:

- ``meta`` (first line): ``version`` (currently 2) plus run metadata;
- ``span``: one flat line per span -- ``trace_id``, ``span_id``,
  ``parent_id``, ``name``, ``process``, both clocks' start and end,
  ``attributes`` and the span's ``events``;
- ``event``: one run-level event (autoscaler decision, injected fault);
- ``metric``: one registered metric sample.

:func:`read_jsonl` reads any number of such files -- one per process --
and rebuilds one span tree per trace by ``parent_id``; that rebuild is
what stitches a request's proxy, client and backend spans, and a
migration's phases, into one tree.  The ``repro obs`` CLI subcommand
renders the result.

:func:`to_prometheus` renders a :class:`~repro.obs.metrics.MetricsRegistry`
in the text exposition format (``# HELP`` / ``# TYPE`` / samples), with
the spec's escaping rules for help text and label values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, SpanEvent, Tracer

FORMAT_VERSION = 2


@dataclass
class ObsDump:
    """Parsed contents of one or more telemetry JSONL files."""

    meta: list[dict[str, Any]] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    events: list[SpanEvent] = field(default_factory=list)
    metrics: list[dict[str, Any]] = field(default_factory=list)


def write_jsonl(
    path: str | Path,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Write one process's telemetry as JSON lines; returns the path."""
    path = Path(path)
    records: list[dict[str, Any]] = [
        {"type": "meta", "version": FORMAT_VERSION, **(meta or {})}
    ]
    if tracer is not None:
        for event in tracer.events:
            records.append({"type": "event", **event.to_dict()})
        for root in list(tracer.roots):
            for span in root.walk():
                records.append({"type": "span", **span.to_dict()})
    if metrics is not None:
        for sample in metrics.snapshot():
            records.append({"type": "metric", **sample})
    path.write_text(
        "".join(json.dumps(r, default=repr) + "\n" for r in records)
    )
    return path


def read_jsonl(*paths: str | Path) -> ObsDump:
    """Parse files written by :func:`write_jsonl` into one dump.

    Spans from every file are joined by ``parent_id`` into one tree per
    trace id, children in start order; a trace whose spans do not meet
    under one root (say, a parent in a file not given) gets a synthetic
    ``trace <id>`` root.  A line that is not JSON, a record that is
    missing a field, and a meta line of another version raise
    :class:`~repro.errors.ConfigurationError` naming ``path:line``.
    """
    dump = ObsDump()
    spans: list[Span] = []
    for path in paths:
        metas = len(dump.meta)
        with Path(path).open(encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    _read_record(record, metas == len(dump.meta), dump, spans)
                except (ValueError, TypeError, KeyError) as exc:
                    raise ConfigurationError(
                        f"{path}:{number}: not a telemetry record "
                        f"({type(exc).__name__}: {exc})"
                    ) from None
    dump.spans = _trees(spans)
    return dump


def _read_record(
    record: Any, first: bool, dump: ObsDump, spans: list[Span]
) -> None:
    kind = record["type"]
    body = {k: v for k, v in record.items() if k != "type"}
    if first or kind == "meta":
        if kind != "meta" or body.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"expected a version-{FORMAT_VERSION} meta line first, "
                f"got {kind} version {body.get('version')}"
            )
        dump.meta.append(body)
    elif kind == "span":
        spans.append(Span.from_dict(body))
    elif kind == "event":
        dump.events.append(SpanEvent.from_dict(body))
    elif kind == "metric":
        dump.metrics.append(body)
    else:
        raise ValueError(f"unknown record type {kind!r}")


def _trees(spans: list[Span]) -> list[Span]:
    """One tree per trace id, traces in start order."""
    spans.sort(key=lambda span: span.start_wall_s)
    by_id = {(span.trace_id, span.span_id): span for span in spans}
    roots: dict[str, list[Span]] = {}
    for span in spans:
        parent = by_id.get((span.trace_id, span.parent_id or ""))
        if parent is not None and parent is not span:
            parent.children.append(span)
        else:
            roots.setdefault(span.trace_id, []).append(span)
    trees: list[Span] = []
    for trace_id, tops in roots.items():
        if len(tops) == 1:
            trees.append(tops[0])
            continue
        synthetic = Span(
            f"trace {trace_id}",
            start_wall_s=tops[0].start_wall_s,
            attributes={"spans": sum(1 for t in tops for _ in t.walk())},
        )
        synthetic.trace_id = trace_id
        synthetic.end_wall_s = max(
            top.end_wall_s or top.start_wall_s for top in tops
        )
        synthetic.children = tops
        trees.append(synthetic)
    return trees


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    ]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus(metrics: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    seen: set[str] = set()
    for metric in metrics.collect():
        if metric.name not in seen:
            seen.add(metric.name)
            help_text = metrics.help_for(metric.name)
            if help_text:
                lines.append(
                    f"# HELP {metric.name} {_escape_help(help_text)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        if metric.kind == "histogram":
            for le, count in metric.cumulative():
                labels = _format_labels(
                    metric.labels, f'le="{_format_value(le)}"'
                )
                lines.append(f"{metric.name}_bucket{labels} {count}")
            plain = _format_labels(metric.labels)
            lines.append(
                f"{metric.name}_sum{plain} {_format_value(metric.sum)}"
            )
            lines.append(f"{metric.name}_count{plain} {metric.count}")
        else:
            labels = _format_labels(metric.labels)
            lines.append(
                f"{metric.name}{labels} {_format_value(metric.value)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
