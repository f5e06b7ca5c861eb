"""Memcached ASCII (text) protocol server facade.

Wraps a :class:`~repro.memcached.node.MemcachedNode` behind the classic
text protocol, so the node can be driven exactly the way ``telnet 11211``
or a client library would drive real Memcached:

    set user:1 0 0 5\r\nhello\r\n        ->  STORED\r\n
    get user:1\r\n                       ->  VALUE user:1 0 5\r\nhello\r\nEND\r\n

Supported commands: ``get``/``gets`` (multi-key), ``set``/``add``/
``replace``/``append``/``prepend``/``cas``, ``delete``, ``incr``/``decr``,
``touch``, ``flush_all``, ``stats`` (+ ``stats slabs``), ``version``, plus
the paper's two custom migration commands (Section V-A1):

- ``ts_dump <class_id>`` -- the *timestamp dump*: streams
  ``TS <key> <last_access> <size>`` for every item of one slab class in
  MRU order, terminated by ``END`` (the trailing value size lets a
  remote planner price data flows without fetching values);
- ``batch_import <mode> <count>`` -- the *batch import*: expects
  ``count`` item blocks, each a ``<key> <last_access> <size> [flags]``
  header line followed by ``size`` payload bytes, and installs them via
  :meth:`~repro.memcached.node.MemcachedNode.batch_import`, answering
  ``IMPORTED <n>``.  A malformed header or data chunk aborts the whole
  batch with ``CLIENT_ERROR`` (nothing is imported);
- ``mig_export <count>`` -- the *data export* that feeds a remote batch
  import: expects ``count`` key lines, then streams one
  ``ITEM <key> <flags> <last_access> <size>`` header plus ``size``
  payload bytes per key still cached (evicted keys are silently
  skipped, mirroring
  :meth:`~repro.memcached.node.MemcachedNode.export_items`), terminated
  by ``END``.  Unlike ``get``, the export does not touch MRU positions
  or timestamps, so hotness metadata survives the move.

The parser is incremental: :meth:`TextProtocolServer.feed` accepts
arbitrary byte chunks and returns whatever complete responses they
produce, holding partial commands (or partial data blocks) until more
bytes arrive.  ``exptime`` is interpreted as relative seconds
(simulation time); Memcached's 30-day absolute-timestamp rule is not
modeled.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.memcached.node import MemcachedNode, MigratedItem
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.trace import TraceContext, parse_trace_args
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS

CRLF = b"\r\n"
MAX_KEY_LENGTH = 250

IMPORT_MODES = frozenset({"merge", "prepend", "fresh"})


STATS_COUNTERS = (
    ("cmd_set", "sets"),
    ("get_hits", "get_hits"),
    ("get_misses", "get_misses"),
    ("delete_hits", "deletes"),
    ("evictions", "evictions"),
    ("expired_unfetched", "expired"),
)
"""``(stats name, NodeStats field)`` for each counter ``stats`` reports;
a client maps the reply back onto :class:`NodeStats` with the same rows."""


def wire_value(value: object) -> tuple[int, bytes]:
    """Serialize a cached value as ``(flags, payload)`` for the wire.

    Values stored through the protocol are always ``(flags, payload)``
    tuples; values planted directly on the node by simulation code are
    coerced via ``str`` so an export never crashes the connection.
    """
    if (
        isinstance(value, tuple)
        and len(value) == 2
        and isinstance(value[1], (bytes, bytearray))
    ):
        flags = value[0] if isinstance(value[0], int) else 0
        return flags, bytes(value[1])
    if isinstance(value, (bytes, bytearray)):
        return 0, bytes(value)
    return 0, str(value).encode("utf-8")


class _ImportState:
    """Parser state for one in-flight ``batch_import`` command."""

    __slots__ = ("mode", "remaining", "records", "header")

    def __init__(self, mode: str, count: int) -> None:
        self.mode = mode
        self.remaining = count
        self.records: list[MigratedItem] = []
        # (key, last_access, size, flags) of the item whose payload is
        # awaited.
        self.header: tuple[str, float, int, int] | None = None


class _ExportState:
    """Parser state for one in-flight ``mig_export`` command."""

    __slots__ = ("remaining", "keys")

    def __init__(self, count: int) -> None:
        self.remaining = count
        self.keys: list[str] = []


STORAGE_COMMANDS = frozenset(
    {"set", "add", "replace", "append", "prepend", "cas"}
)


class TextProtocolServer:
    """Incremental text-protocol handler for one Memcached node.

    Parameters
    ----------
    node:
        The node executing the commands.
    clock:
        Zero-argument callable returning the current simulation time;
        every operation is stamped with it.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When its metrics layer
        is enabled each dispatched command is timed into
        ``net_server_execute_seconds``; when its tracer samples wire
        traces an incoming ``trace <trace_id> <span_id>`` framing line
        makes the next command record a ``server.<command>`` span joined
        to the caller's trace.
    """

    def __init__(
        self,
        node: MemcachedNode,
        clock: Callable[[], float],
        telemetry: Telemetry | None = None,
    ) -> None:
        self.node = node
        self.clock = clock
        self.telemetry = telemetry or NULL_TELEMETRY
        self._buffer = bytearray()
        # When a storage command header has been read, this holds
        # (command line parts, payload bytes expected, trace context).
        self._pending: tuple[list[str], int, TraceContext | None] | None = None
        # In-flight batch_import command, if any.
        self._import: _ImportState | None = None
        # In-flight mig_export command, if any.
        self._export: _ExportState | None = None
        # Trace context announced by a `trace` frame, consumed by the
        # next dispatched command.
        self._trace: TraceContext | None = None
        metrics = self.telemetry.metrics
        self._obs: bool = bool(getattr(metrics, "enabled", False))
        self._tracer: Any = self.telemetry.tracer
        if self._obs:
            self._m_execute: Any = metrics.histogram(
                "net_server_execute_seconds",
                "Command execution time inside the protocol handler.",
                buckets=LATENCY_SECONDS_BUCKETS,
                node=node.name,
            )
        else:
            self._m_execute = None
        # Total seconds spent executing commands, so the owning server
        # can derive parse time as (feed wall time - execute delta).
        self.execute_seconds = 0.0

    # ------------------------------------------------------------------
    # Stream interface
    # ------------------------------------------------------------------

    def feed(self, data: bytes | memoryview) -> bytes:
        """Consume ``data`` and return the responses it completes."""
        buf = self._buffer
        buf += data
        pos = 0  # read offset; the consumed prefix is dropped once, below
        responses: list[bytes] = []
        try:
            while True:
                if self._pending is not None:
                    parts, size, ctx = self._pending
                    # Payload plus its trailing CRLF must be available.
                    if len(buf) - pos < size + 2:
                        break
                    payload = bytes(buf[pos : pos + size])
                    trailer = buf[pos + size : pos + size + 2]
                    pos += size + 2
                    self._pending = None
                    if trailer != CRLF:
                        responses.append(b"CLIENT_ERROR bad data chunk" + CRLF)
                    else:
                        responses.append(self._run_store(parts, payload, ctx))
                    continue
                if self._import is not None and self._import.header is not None:
                    key, last_access, size, flags = self._import.header
                    if len(buf) - pos < size + 2:
                        break
                    payload = bytes(buf[pos : pos + size])
                    trailer = buf[pos + size : pos + size + 2]
                    pos += size + 2
                    state = self._import
                    if trailer != CRLF:
                        self._import = None
                        responses.append(b"CLIENT_ERROR bad data chunk" + CRLF)
                        continue
                    state.header = None
                    state.records.append(
                        MigratedItem(
                            key=key,
                            value=(flags, payload),
                            value_size=size,
                            last_access=last_access,
                        )
                    )
                    if state.remaining == 0:
                        responses.append(self._finish_import(state))
                    continue
                line_end = buf.find(CRLF, pos)
                if line_end < 0:
                    break
                line = buf[pos:line_end].decode("utf-8", "replace")
                pos = line_end + 2
                if self._import is not None:
                    response = self._import_header_line(line)
                elif self._export is not None:
                    response = self._export_key_line(line)
                else:
                    response = self._dispatch(line)
                if response is not None:
                    responses.append(response)
        finally:
            del buf[:pos]
        return b"".join(responses)

    def execute(self, command: str, payload: bytes | None = None) -> bytes:
        """One-shot helper: run a single command line (plus payload)."""
        data = command.encode("utf-8") + CRLF
        if payload is not None:
            data += payload + CRLF
        return self.feed(data)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, line: str) -> bytes | None:
        parts = line.split()
        if not parts:
            self._trace = None
            return b"ERROR" + CRLF
        command = parts[0].lower()
        if command == "trace":
            return self._trace_frame(parts[1:])
        # The context announced by a preceding `trace` frame applies to
        # exactly one command.
        ctx, self._trace = self._trace, None
        if command in STORAGE_COMMANDS:
            return self._begin_storage(parts, ctx)
        handler = getattr(self, f"_cmd_{command}", None)
        if handler is None:
            return b"ERROR" + CRLF
        if self._obs or ctx is not None:
            return self._run_timed(command, handler, parts[1:], ctx)
        return handler(parts[1:])

    def _trace_frame(self, args: list[str]) -> bytes | None:
        """Handle a ``trace <trace_id> <span_id>`` framing line."""
        ctx = parse_trace_args(args)
        if ctx is None:
            self._trace = None
            return b"CLIENT_ERROR bad trace frame" + CRLF
        self._trace = ctx
        return None

    def _run_timed(
        self,
        command: str,
        handler: Callable[[list[str]], bytes | None],
        args: list[str],
        ctx: TraceContext | None,
    ) -> bytes | None:
        # live-path timing, not sim time
        start = time.perf_counter()  # repro: allow[REP001]
        try:
            return handler(args)
        finally:
            elapsed = time.perf_counter() - start  # repro: allow[REP001]
            self.execute_seconds += elapsed
            if self._m_execute is not None:
                self._m_execute.observe(elapsed)
            if ctx is not None and self._tracer.sampling:
                wall_end = time.time()  # repro: allow[REP001]
                span = self._tracer.start_span(
                    f"server.{command}",
                    ctx,
                    start_s=wall_end - elapsed,
                    node=self.node.name,
                )
                span.end(wall_s=wall_end)

    def _run_store(
        self, parts: list[str], payload: bytes, ctx: TraceContext | None
    ) -> bytes:
        if not (self._obs or ctx is not None):
            return self._store(parts, payload)
        # live-path timing, not sim time
        start = time.perf_counter()  # repro: allow[REP001]
        try:
            return self._store(parts, payload)
        finally:
            elapsed = time.perf_counter() - start  # repro: allow[REP001]
            self.execute_seconds += elapsed
            if self._m_execute is not None:
                self._m_execute.observe(elapsed)
            if ctx is not None and self._tracer.sampling:
                wall_end = time.time()  # repro: allow[REP001]
                span = self._tracer.start_span(
                    f"server.{parts[0].lower()}",
                    ctx,
                    start_s=wall_end - elapsed,
                    node=self.node.name,
                )
                span.end(wall_s=wall_end)

    def _begin_storage(
        self, parts: list[str], ctx: TraceContext | None = None
    ) -> bytes | None:
        command = parts[0].lower()
        expected = 6 if command == "cas" else 5
        if len(parts) not in (expected, expected + 1):
            return b"CLIENT_ERROR bad command line format" + CRLF
        try:
            size = int(parts[4])
        except ValueError:
            return b"CLIENT_ERROR bad command line format" + CRLF
        if size < 0:
            return b"CLIENT_ERROR bad data chunk" + CRLF
        if len(parts[1]) > MAX_KEY_LENGTH:
            return b"CLIENT_ERROR key too long" + CRLF
        self._pending = (parts, size, ctx)
        return None

    def _store(self, parts: list[str], payload: bytes) -> bytes:
        command = parts[0].lower()
        key = parts[1]
        try:
            flags = int(parts[2])
            exptime = float(parts[3])
        except ValueError:
            return b"CLIENT_ERROR bad command line format" + CRLF
        now = self.clock()
        value = (flags, payload)
        size = len(payload)
        if command == "set":
            stored = self.node.set(key, value, size, now, exptime=exptime)
            if not stored:
                return b"SERVER_ERROR object too large for cache" + CRLF
            return b"STORED" + CRLF
        if command == "add":
            stored = self.node.add(key, value, size, now, exptime=exptime)
            return (b"STORED" if stored else b"NOT_STORED") + CRLF
        if command == "replace":
            stored = self.node.replace(
                key, value, size, now, exptime=exptime
            )
            return (b"STORED" if stored else b"NOT_STORED") + CRLF
        if command in ("append", "prepend"):
            existing = self.node.peek(key)
            if existing is None or existing.is_expired(now):
                return b"NOT_STORED" + CRLF
            old_flags, old_payload = existing.value
            merged = (
                old_payload + payload
                if command == "append"
                else payload + old_payload
            )
            self.node.set(
                key, (old_flags, merged), len(merged), now
            )
            return b"STORED" + CRLF
        # cas
        try:
            token = int(parts[5])
        except ValueError:
            return b"CLIENT_ERROR bad command line format" + CRLF
        outcome = self.node.cas(
            key, value, size, token, now, exptime=exptime
        )
        return {
            "stored": b"STORED",
            "exists": b"EXISTS",
            "not_found": b"NOT_FOUND",
        }[outcome] + CRLF

    # ------------------------------------------------------------------
    # Retrieval / mutation commands
    # ------------------------------------------------------------------

    def _cmd_get(self, keys: list[str], with_cas: bool = False) -> bytes:
        if not keys:
            return b"ERROR" + CRLF
        now = self.clock()
        chunks: list[bytes] = []
        for key in keys:
            value = self.node.get(key, now)
            if value is None:
                continue
            flags, payload = value
            header = f"VALUE {key} {flags} {len(payload)}"
            if with_cas:
                header += f" {self.node.peek(key).cas_id}"
            chunks.append(header.encode("utf-8") + CRLF + payload + CRLF)
        chunks.append(b"END" + CRLF)
        return b"".join(chunks)

    def _cmd_gets(self, keys: list[str]) -> bytes:
        return self._cmd_get(keys, with_cas=True)

    def _cmd_delete(self, args: list[str]) -> bytes:
        if len(args) != 1:
            return b"CLIENT_ERROR bad command line format" + CRLF
        deleted = self.node.delete(args[0])
        return (b"DELETED" if deleted else b"NOT_FOUND") + CRLF

    def _cmd_incr(self, args: list[str]) -> bytes:
        return self._arith(args, sign=1)

    def _cmd_decr(self, args: list[str]) -> bytes:
        return self._arith(args, sign=-1)

    def _arith(self, args: list[str], sign: int) -> bytes:
        if len(args) != 2:
            return b"CLIENT_ERROR bad command line format" + CRLF
        key = args[0]
        try:
            delta = int(args[1])
        except ValueError:
            return (
                b"CLIENT_ERROR invalid numeric delta argument" + CRLF
            )
        now = self.clock()
        item = self.node.peek(key)
        if item is None or item.is_expired(now):
            return b"NOT_FOUND" + CRLF
        flags, payload = item.value
        try:
            current = int(payload)
        except ValueError:
            return (
                b"CLIENT_ERROR cannot increment or decrement "
                b"non-numeric value" + CRLF
            )
        updated = max(0, current + sign * delta)
        new_payload = str(updated).encode("utf-8")
        self.node.set(key, (flags, new_payload), len(new_payload), now)
        return str(updated).encode("utf-8") + CRLF

    def _cmd_touch(self, args: list[str]) -> bytes:
        if len(args) != 2:
            return b"CLIENT_ERROR bad command line format" + CRLF
        try:
            exptime = float(args[1])
        except ValueError:
            return b"CLIENT_ERROR bad command line format" + CRLF
        touched = self.node.touch_item(args[0], exptime, self.clock())
        return (b"TOUCHED" if touched else b"NOT_FOUND") + CRLF

    def _cmd_flush_all(self, args: list[str]) -> bytes:
        self.node.flush_all()
        return b"OK" + CRLF

    def _cmd_version(self, args: list[str]) -> bytes:
        return b"VERSION repro-1.4.25-elmem" + CRLF

    def _cmd_stats(self, args: list[str]) -> bytes:
        if args and args[0] == "slabs":
            return self._stats_slabs()
        if args and args[0] == "obs":
            return self._stats_obs()
        stats = self.node.stats
        pairs = [
            ("curr_items", self.node.curr_items),
            ("bytes", self.node.used_bytes),
            ("limit_maxbytes", self.node.memory_bytes),
            ("cmd_get", stats.gets),
            *((name, getattr(stats, field)) for name, field in STATS_COUNTERS),
        ]
        body = b"".join(
            f"STAT {name} {value}".encode("utf-8") + CRLF
            for name, value in pairs
        )
        return body + b"END" + CRLF

    def _stats_obs(self) -> bytes:
        """``stats obs``: this process's metrics in Prometheus text.

        The payload rides in standard ``VALUE`` framing so any client
        that can read a ``get`` response (including
        :meth:`repro.net.client.NodeClient.execute`) can scrape it.
        With metrics disabled the payload is empty.
        """
        from repro.obs.export import to_prometheus

        metrics = self.telemetry.metrics
        if getattr(metrics, "enabled", False):
            payload = to_prometheus(metrics).encode("utf-8")
        else:
            payload = b""
        header = f"VALUE obs 0 {len(payload)}".encode("utf-8")
        return header + CRLF + payload + CRLF + b"END" + CRLF

    def _stats_slabs(self) -> bytes:
        chunks: list[bytes] = []
        for slab_class in self.node.slabs.classes:
            if slab_class.pages == 0:
                continue
            cid = slab_class.class_id
            rows = [
                (f"{cid}:chunk_size", slab_class.chunk_size),
                (f"{cid}:chunks_per_page", slab_class.chunks_per_page),
                (f"{cid}:total_pages", slab_class.pages),
                (f"{cid}:used_chunks", slab_class.used_chunks),
                (f"{cid}:free_chunks", slab_class.free_chunks),
            ]
            chunks.extend(
                f"STAT {name} {value}".encode("utf-8") + CRLF
                for name, value in rows
            )
        chunks.append(
            "STAT active_slabs "
            f"{sum(1 for c in self.node.slabs.classes if c.pages)}".encode()
            + CRLF
        )
        chunks.append(b"END" + CRLF)
        return b"".join(chunks)

    # ------------------------------------------------------------------
    # Paper-custom migration commands (Section V-A1)
    # ------------------------------------------------------------------

    def _cmd_ts_dump(self, args: list[str]) -> bytes:
        if len(args) != 1:
            return b"CLIENT_ERROR bad command line format" + CRLF
        try:
            class_id = int(args[0])
        except ValueError:
            return b"CLIENT_ERROR bad command line format" + CRLF
        if not 0 <= class_id < len(self.node.slabs.classes):
            return b"CLIENT_ERROR unknown slab class" + CRLF
        chunks = [
            f"TS {item.key} {item.last_access} {item.value_size}".encode(
                "utf-8"
            )
            + CRLF
            for item in self.node.items_in_mru_order(class_id)
        ]
        chunks.append(b"END" + CRLF)
        return b"".join(chunks)

    def _cmd_batch_import(self, args: list[str]) -> bytes | None:
        if len(args) != 2:
            return b"CLIENT_ERROR bad command line format" + CRLF
        mode = args[0]
        if mode not in IMPORT_MODES:
            return b"CLIENT_ERROR unknown import mode" + CRLF
        try:
            count = int(args[1])
        except ValueError:
            return b"CLIENT_ERROR bad command line format" + CRLF
        if count < 0:
            return b"CLIENT_ERROR bad command line format" + CRLF
        if count == 0:
            return b"IMPORTED 0" + CRLF
        self._import = _ImportState(mode, count)
        return None

    def _import_header_line(self, line: str) -> bytes | None:
        """Parse one ``<key> <last_access> <size> [flags]`` item header."""
        state = self._import
        assert state is not None
        parts = line.split()
        if len(parts) not in (3, 4) or len(parts[0]) > MAX_KEY_LENGTH:
            self._import = None
            return b"CLIENT_ERROR bad item header" + CRLF
        try:
            last_access = float(parts[1])
            size = int(parts[2])
            flags = int(parts[3]) if len(parts) == 4 else 0
        except ValueError:
            self._import = None
            return b"CLIENT_ERROR bad item header" + CRLF
        if size < 0:
            self._import = None
            return b"CLIENT_ERROR bad item header" + CRLF
        state.remaining -= 1
        state.header = (parts[0], last_access, size, flags)
        return None

    def _cmd_mig_export(self, args: list[str]) -> bytes | None:
        if len(args) != 1:
            return b"CLIENT_ERROR bad command line format" + CRLF
        try:
            count = int(args[0])
        except ValueError:
            return b"CLIENT_ERROR bad command line format" + CRLF
        if count < 0:
            return b"CLIENT_ERROR bad command line format" + CRLF
        if count == 0:
            return b"END" + CRLF
        self._export = _ExportState(count)
        return None

    def _export_key_line(self, line: str) -> bytes | None:
        """Consume one requested key of an in-flight ``mig_export``."""
        state = self._export
        assert state is not None
        key = line.strip()
        if not key or " " in key or len(key) > MAX_KEY_LENGTH:
            self._export = None
            return b"CLIENT_ERROR bad export key" + CRLF
        state.keys.append(key)
        state.remaining -= 1
        if state.remaining > 0:
            return None
        self._export = None
        return self._finish_export(state)

    def _finish_export(self, state: _ExportState) -> bytes:
        chunks: list[bytes] = []
        for record in self.node.export_items(state.keys):
            flags, payload = wire_value(record.value)
            header = (
                f"ITEM {record.key} {flags} {record.last_access} "
                f"{len(payload)}"
            )
            chunks.append(header.encode("utf-8") + CRLF + payload + CRLF)
        chunks.append(b"END" + CRLF)
        return b"".join(chunks)

    def _finish_import(self, state: _ImportState) -> bytes:
        self._import = None
        records = state.records
        seen: set[str] = set()
        for record in records:
            if record.key in seen:
                return (
                    f"CLIENT_ERROR duplicate key in batch: {record.key}"
                ).encode("utf-8") + CRLF
            seen.add(record.key)
        imported = self.node.batch_import(
            records, mode=state.mode, now=self.clock()
        )
        return f"IMPORTED {imported}".encode("utf-8") + CRLF
