"""Asyncio Memcached client: pooled connections, pipelined requests.

One :class:`NodeClient` talks to one live node over a small pool of
buffered-protocol connections (:class:`_Conn`).  A batch of
:class:`_Request` objects (wire bytes plus a resumable reply reader) is
written in one ``write`` and queued on a connection's FIFO: concurrent
callers pipeline on the same connection, whose replies are framed in
order from one ``bytearray`` and scanned once however they are split.
One deadline timer per connection bounds its oldest batch
(``timeout_s``).  Failures -- connection refused/reset, a stalled
server tripping the deadline, a connection closed mid-response -- are
retried with the bounded exponential backoff of
:class:`~repro.core.retry.RetryPolicy` on a fresh connection, and
surface as :class:`~repro.errors.TransportError` once the budget is
exhausted.  A protocol error line (``ERROR``/``CLIENT_ERROR``/
``SERVER_ERROR``) is a complete, deterministic reply: it raises
:class:`~repro.errors.WireProtocolError` for its request only and the
connection stays up; only an unparseable reply drops it.

All ElMem migration commands are supported: ``ts_dump`` (timestamp
metadata + sizes), ``mig_export`` (full KV pairs without touching MRU
state), and ``batch_import`` (install with hotness metadata).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, TypeVar

from repro.core.retry import RetryPolicy
from repro.errors import TransportError, WireProtocolError
from repro.memcached.node import MigratedItem
from repro.memcached.protocol import wire_value
from repro.net.runtime import RECV_CHUNK
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.trace import current_context
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS

CRLF = b"\r\n"

GET_BATCH_KEYS = 64
"""Keys per multi-key ``get`` command inside a pipelined ``get_many``."""

EXPORT_BATCH_KEYS = 512
"""Keys per ``mig_export`` command inside a pipelined export."""

IMPORT_BATCH_RECORDS = 1024
"""Records per ``batch_import`` command inside a pipelined import."""

_ERROR_PREFIXES = (b"ERROR", b"CLIENT_ERROR", b"SERVER_ERROR")

DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_attempts=3, base_backoff_s=0.05, max_backoff_s=1.0
)
"""Default transport retry: 3 attempts, 50 ms then 100 ms backoff."""

_T = TypeVar("_T")
_Gen = Generator[None, None, _T]
"""A resumable reader: yields while it needs more bytes."""
_Reader = Callable[["_Conn"], _Gen[Any]]


def _raise_on_error(line: bytes) -> bytes:
    """Pass ``line`` through unless it is a protocol error line."""
    for prefix in _ERROR_PREFIXES:
        if line.startswith(prefix):
            raise WireProtocolError(line.decode("utf-8", "replace"))
    return line


@dataclass(slots=True)
class _Call:
    """One caller's pipelined batch: its readers and the replies so far."""

    readers: list[_Reader]
    future: asyncio.Future[list[Any]]
    deadline: float
    results: list[Any] = field(default_factory=list)
    error: WireProtocolError | None = None  # the first error line

    def finish(self) -> None:
        if self.future.done():
            return  # the caller was cancelled; its replies are dropped
        if self.error is not None:
            self.future.set_exception(self.error)
        else:
            self.future.set_result(self.results)


class _Conn(asyncio.BufferedProtocol):
    """One pooled connection: FIFO of calls, replies framed in order."""

    def __init__(self, client: NodeClient) -> None:
        self.client = client
        self.transport: asyncio.Transport  # set once connected
        self.chunk = memoryview(bytearray(RECV_CHUNK))
        self.buf = bytearray()
        self.pos = self.scan = 0  # unread reply start; CRLF search start
        self.calls: deque[_Call] = deque()
        self.reply: _Gen[Any] | None = None  # the head reply's reader
        self.timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport

    def connection_lost(self, exc: Exception | None) -> None:
        self.drop(exc or ConnectionResetError("connection closed"))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.chunk

    def buffer_updated(self, nbytes: int) -> None:
        self.buf += self.chunk[:nbytes]
        calls = self.calls
        while calls:
            call = calls[0]
            if self.reply is None:
                self.reply = call.readers[len(call.results)](self)
            try:
                next(self.reply)
            except StopIteration as done:
                call.results.append(done.value)
            except WireProtocolError as exc:
                # An error line is a whole reply: only this call fails.
                call.error = call.error or exc
                call.results.append(None)
            except (ValueError, IndexError) as exc:  # unparseable reply
                call.error = WireProtocolError(f"unparseable reply: {exc}")
                call.finish()
                self.drop(ConnectionResetError("dropped after bad reply"))
                return
            else:
                break  # the head reply needs more bytes
            self.reply = None
            if len(call.results) == len(call.readers):
                calls.popleft()
                call.finish()
        del self.buf[: self.pos]  # compact once per read
        self.scan -= self.pos
        self.pos = 0
        if not calls and self.client._closed:
            self.transport.close()

    def line(self) -> _Gen[bytes]:
        """One CRLF-terminated reply line, terminator stripped."""
        while (end := self.buf.find(CRLF, self.scan)) < 0:
            self.scan = max(self.pos, len(self.buf) - 1)
            yield
        line = bytes(self.buf[self.pos : end])
        self.pos = self.scan = end + 2
        return line

    def payload(self, size: int) -> _Gen[bytes]:
        """A sized payload plus its trailing CRLF."""
        while len(self.buf) - self.pos < size + 2:
            yield
        end = self.pos + size
        if self.buf[end : end + 2] != CRLF:
            raise ValueError("missing CRLF after payload")
        data = bytes(self.buf[self.pos : end])
        self.pos = self.scan = end + 2
        return data

    def send(
        self, wire: bytes, readers: list[_Reader], timeout_s: float
    ) -> asyncio.Future[list[Any]]:
        """Write one batch; the future resolves with its replies."""
        loop = asyncio.get_running_loop()
        call = _Call(readers, loop.create_future(), loop.time() + timeout_s)
        self.calls.append(call)
        self.transport.write(wire)
        if self.timer is None:
            self._arm()
        return call.future

    def _arm(self) -> None:
        """Time the oldest call.  Re-armed lazily: a timer that outlives
        its call moves on to the oldest call still waiting, if any."""
        self.timer = None
        if self.calls:
            deadline = self.calls[0].deadline
            if deadline <= asyncio.get_running_loop().time():
                self.drop(TimeoutError("no reply before the deadline"))
            else:
                self.timer = asyncio.get_running_loop().call_at(deadline, self._arm)

    def drop(self, exc: Exception) -> None:
        """Abort the connection and fail every call still queued on it."""
        self.transport.abort()
        if self in self.client._conns:
            self.client._conns.remove(self)
        if self.timer is not None:
            self.timer.cancel()
        self.timer = self.reply = None
        calls, self.calls = self.calls, deque()
        for call in calls:
            if not call.future.done():
                call.future.set_exception(exc)


# ---------------------------------------------------------------------------
# Response readers (one per response shape)
# ---------------------------------------------------------------------------


def _read_simple(conn: _Conn) -> _Gen[bytes]:
    """A single response line; protocol errors raise."""
    return _raise_on_error((yield from conn.line()))


def _read_values(conn: _Conn) -> _Gen[dict[str, tuple[int, bytes]]]:
    """``VALUE`` blocks until ``END`` -> ``{key: (flags, payload)}``."""
    values: dict[str, tuple[int, bytes]] = {}
    while True:
        line = _raise_on_error((yield from conn.line()))
        if line == b"END":
            return values
        parts = line.split()
        if len(parts) < 4 or parts[0] != b"VALUE":
            raise ValueError(f"unexpected line in value block: {line!r}")
        key = parts[1].decode("utf-8")
        flags, size = int(parts[2]), int(parts[3])
        values[key] = (flags, (yield from conn.payload(size)))


def _read_ts(conn: _Conn) -> _Gen[list[tuple[str, float, int]]]:
    """``TS`` lines until ``END`` -> ``[(key, last_access, size)]``."""
    rows: list[tuple[str, float, int]] = []
    while True:
        line = _raise_on_error((yield from conn.line()))
        if line == b"END":
            return rows
        parts = line.split()
        if len(parts) != 4 or parts[0] != b"TS":
            raise ValueError(f"unexpected ts_dump line: {line!r}")
        rows.append(
            (parts[1].decode("utf-8"), float(parts[2]), int(parts[3]))
        )


def _read_items(conn: _Conn) -> _Gen[list[MigratedItem]]:
    """``ITEM`` blocks until ``END`` -> migrated KV records."""
    records: list[MigratedItem] = []
    while True:
        line = _raise_on_error((yield from conn.line()))
        if line == b"END":
            return records
        parts = line.split()
        if len(parts) != 5 or parts[0] != b"ITEM":
            raise ValueError(f"unexpected export line: {line!r}")
        flags, last_access, size = int(parts[2]), float(parts[3]), int(parts[4])
        value = (flags, (yield from conn.payload(size)))
        records.append(
            MigratedItem(parts[1].decode("utf-8"), value, size, last_access)
        )


def _read_stats(conn: _Conn) -> _Gen[dict[str, str]]:
    """``STAT`` lines until ``END`` -> ``{name: value}``."""
    stats: dict[str, str] = {}
    while True:
        line = _raise_on_error((yield from conn.line()))
        if line == b"END":
            return stats
        parts = line.split(None, 2)
        if len(parts) != 3 or parts[0] != b"STAT":
            raise ValueError(f"unexpected stats line: {line!r}")
        stats[parts[1].decode("utf-8")] = parts[2].decode("utf-8")


def _read_sniffed(conn: _Conn) -> _Gen[bytes]:
    """Raw response for :meth:`NodeClient.execute`: single line or an
    END-terminated block, returned verbatim (errors included)."""
    first = yield from conn.line()
    chunks = [first + CRLF]
    starter = first.split(b" ", 1)[0]
    if starter not in (b"VALUE", b"ITEM", b"TS", b"STAT"):
        return chunks[0]
    line = first
    while line != b"END":
        if line.split(b" ", 1)[0] in (b"VALUE", b"ITEM"):
            size = int(line.split()[-1])
            chunks.append((yield from conn.payload(size)) + CRLF)
        line = yield from conn.line()
        chunks.append(line + CRLF)
    return b"".join(chunks)


@dataclass(frozen=True)
class _Request:
    """Wire bytes plus the reader that consumes their response."""

    wire: bytes
    reader: _Reader


def _command(text: str, payload: bytes | None = None) -> bytes:
    wire = text.encode("utf-8") + CRLF
    if payload is not None:
        wire += payload + CRLF
    return wire


class NodeClient:
    """Pooled, pipelining asyncio client for one live Memcached node.

    Parameters
    ----------
    name:
        Node name, used for telemetry labels and error messages.
    host / port:
        The node server's TCP endpoint.
    pool_size:
        Maximum concurrently open connections; once every open one is
        busy, callers pipeline onto the least busy.
    timeout_s:
        Wall-clock budget for the dial and for each pipelined batch's
        replies, enforced by one deadline timer per connection.
    retry:
        Transport retry schedule; backoffs are real ``asyncio.sleep``
        waits scaled by ``backoff_scale`` (tests shrink it).
    retry_seed:
        Seed for jittered retry policies
        (``RetryPolicy(jitter="decorrelated")``): give every client its
        own seed and simultaneous failures back off on decorrelated
        schedules instead of stampeding the backend in lockstep.
        Ignored by non-jittered policies.
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        pool_size: int = 2,
        timeout_s: float = 5.0,
        retry: RetryPolicy | None = None,
        backoff_scale: float = 1.0,
        retry_seed: int | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.pool_size = max(1, pool_size)
        self.timeout_s = timeout_s
        self.retry = retry or DEFAULT_CLIENT_RETRY
        self.backoff_scale = backoff_scale
        self.retry_seed = retry_seed
        self._conns: list[_Conn] = []
        self._dial_lock = asyncio.Lock()
        self._closed = False
        telemetry = telemetry or NULL_TELEMETRY
        metrics = telemetry.metrics
        self._m_requests = metrics.counter(
            "net_client_requests_total",
            "Pipelined round trips issued by live clients",
            node=name,
        )
        self._m_retries = metrics.counter(
            "net_client_retries_total",
            "Transport retries after timeouts or connection errors",
            node=name,
        )
        self._m_errors = metrics.counter(
            "net_client_transport_errors_total",
            "Requests abandoned after exhausting transport retries",
            node=name,
        )
        self._m_depth = metrics.histogram(
            "net_client_pipeline_depth",
            "Commands per pipelined round trip",
            node=name,
        )
        self._m_queue_wait = metrics.histogram(
            "net_client_queue_wait_seconds",
            "Time to obtain a pooled connection, dial included",
            buckets=LATENCY_SECONDS_BUCKETS,
            node=name,
        )
        self._m_round_trip = metrics.histogram(
            "net_client_roundtrip_seconds",
            "Wire round-trip time of successful pipelined batches",
            buckets=LATENCY_SECONDS_BUCKETS,
            node=name,
        )
        self._tracer = telemetry.tracer

    # ------------------------------------------------------------------
    # Connection pool and pipelined requests with timeout + retry
    # ------------------------------------------------------------------

    async def _acquire(self) -> _Conn:
        """The least busy pooled connection, or a new one while every
        open one is busy and the pool has room (one dial at a time)."""
        async with self._dial_lock:
            conns = self._conns
            best = min(conns, key=lambda conn: len(conn.calls), default=None)
            if best is None or (best.calls and len(conns) < self.pool_size):
                _, best = await asyncio.wait_for(
                    asyncio.get_running_loop().create_connection(
                        lambda: _Conn(self), self.host, self.port
                    ),
                    self.timeout_s,
                )
                conns.append(best)
            return best

    async def close(self) -> None:
        """Close every pooled connection; in-flight requests finish."""
        self._closed = True
        for conn in list(self._conns):
            if not conn.calls:
                conn.transport.close()

    async def _request(self, requests: list[_Request]) -> list[Any]:
        """Ship a pipelined batch; retry transport failures on a fresh
        connection per the retry policy."""
        if not requests:
            return []
        self._m_requests.inc()
        self._m_depth.observe(len(requests))
        # run_coroutine_threadsafe runs each bridged call in a copy of
        # the submitting thread's context, so the ambient context
        # reaches here from both sides of the bridge.
        ctx = current_context()
        span = None
        wire = b"".join(request.wire for request in requests)
        if ctx is not None:
            if self._tracer.sampling:
                span = self._tracer.start_span(
                    "client.rpc",
                    ctx,
                    node=self.name,
                    commands=len(requests),
                )
                ctx = span.context
            # The trace frame applies to the batch's first command; the
            # server consumes one context per dispatched command.
            wire = ctx.wire_prefix() + wire
        readers = [request.reader for request in requests]
        failures = 0
        try:
            while True:
                try:
                    wait_start = time.perf_counter()
                    conn = await self._acquire()
                    sent_at = time.perf_counter()
                    self._m_queue_wait.observe(sent_at - wait_start)
                    results = await conn.send(wire, readers, self.timeout_s)
                    self._m_round_trip.observe(time.perf_counter() - sent_at)
                    return results
                except OSError as exc:  # refused, reset, or TimeoutError
                    failures += 1
                    if failures >= self.retry.max_attempts:
                        self._m_errors.inc()
                        if span is not None:
                            span.set(error=repr(exc))
                        raise TransportError(
                            f"node {self.name!r} at "
                            f"{self.host}:{self.port}: request failed after "
                            f"{failures} attempt(s): {exc!r}"
                        ) from exc
                    self._m_retries.inc()
                    await asyncio.sleep(
                        self.retry.backoff_s(failures, seed=self.retry_seed)
                        * self.backoff_scale
                    )
        finally:
            if span is not None:
                span.set(retries=failures)
                span.end()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    async def get(self, key: str) -> tuple[int, bytes] | None:
        """Routed ``get``; ``(flags, payload)`` or ``None`` on a miss."""
        values = (
            await self._request([_Request(_command(f"get {key}"), _read_values)])
        )[0]
        return values.get(key)

    async def get_many(
        self, keys: Iterable[str]
    ) -> list[tuple[int, bytes] | None]:
        """Pipelined multi-key ``get``: one value (or ``None``) per key."""
        keys = list(keys)
        requests = [
            _Request(
                _command("get " + " ".join(keys[i : i + GET_BATCH_KEYS])),
                _read_values,
            )
            for i in range(0, len(keys), GET_BATCH_KEYS)
        ]
        merged: dict[str, tuple[int, bytes]] = {}
        for values in await self._request(requests):
            merged.update(values)
        return [merged.get(key) for key in keys]

    async def set(
        self,
        key: str,
        payload: bytes,
        flags: int = 0,
        exptime: float = 0.0,
    ) -> bool:
        """``set``; True when stored."""
        request = _Request(
            _command(f"set {key} {flags} {exptime} {len(payload)}", payload),
            _read_simple,
        )
        return (await self._request([request]))[0] == b"STORED"

    async def set_many(
        self, entries: Iterable[tuple[str, int, bytes]]
    ) -> int:
        """Pipelined ``set`` of ``(key, flags, payload)``; count stored."""
        requests = [
            _Request(
                _command(
                    f"set {key} {flags} 0 {len(payload)}", payload
                ),
                _read_simple,
            )
            for key, flags, payload in entries
        ]
        responses = await self._request(requests)
        return sum(1 for response in responses if response == b"STORED")

    async def delete(self, key: str) -> bool:
        """``delete``; True when the key existed."""
        request = _Request(_command(f"delete {key}"), _read_simple)
        return (await self._request([request]))[0] == b"DELETED"

    async def delete_many(self, keys: Iterable[str]) -> int:
        """Pipelined ``delete``; returns how many keys existed."""
        requests = [
            _Request(_command(f"delete {key}"), _read_simple)
            for key in keys
        ]
        responses = await self._request(requests)
        return sum(1 for response in responses if response == b"DELETED")

    async def incr(self, key: str, delta: int = 1) -> int | None:
        """``incr``; the new value, or ``None`` when the key is absent."""
        request = _Request(_command(f"incr {key} {delta}"), _read_simple)
        response = (await self._request([request]))[0]
        return None if response == b"NOT_FOUND" else int(response)

    async def flush_all(self) -> None:
        """Drop every item on the node."""
        await self._request([_Request(_command("flush_all"), _read_simple)])

    async def version(self) -> str:
        """The server's ``version`` banner."""
        response = (
            await self._request([_Request(_command("version"), _read_simple)])
        )[0]
        return response.decode("utf-8")

    async def stats(self) -> dict[str, int]:
        """``stats`` counters, parsed to integers."""
        raw = (
            await self._request([_Request(_command("stats"), _read_stats)])
        )[0]
        return {name: int(value) for name, value in raw.items()}

    async def stats_slabs(self) -> dict[str, int]:
        """``stats slabs`` rows, parsed to integers."""
        raw = (
            await self._request(
                [_Request(_command("stats slabs"), _read_stats)]
            )
        )[0]
        return {name: int(value) for name, value in raw.items()}

    async def stats_obs(self) -> str:
        """``stats obs``: the server process's Prometheus text page.

        Empty string when the server runs with metrics disabled.
        """
        values = (
            await self._request(
                [_Request(_command("stats obs"), _read_values)]
            )
        )[0]
        entry = values.get("obs")
        return entry[1].decode("utf-8") if entry else ""

    async def execute(
        self, command: str, payload: bytes | None = None
    ) -> bytes:
        """One raw command; returns the verbatim response bytes."""
        request = _Request(_command(command, payload), _read_sniffed)
        return (await self._request([request]))[0]

    # ------------------------------------------------------------------
    # ElMem migration commands
    # ------------------------------------------------------------------

    async def ts_dump(self, class_id: int) -> list[tuple[str, float, int]]:
        """The timestamp dump: ``(key, last_access, value_size)`` rows in
        MRU order for one slab class."""
        request = _Request(_command(f"ts_dump {class_id}"), _read_ts)
        return (await self._request([request]))[0]

    async def mig_export(
        self, keys: Iterable[str]
    ) -> list[MigratedItem]:
        """Fetch full KV pairs for ``keys`` without touching MRU state.

        Evicted keys are silently skipped, mirroring
        :meth:`~repro.memcached.node.MemcachedNode.export_items`.
        """
        keys = list(keys)
        requests = []
        for start in range(0, len(keys), EXPORT_BATCH_KEYS):
            chunk = keys[start : start + EXPORT_BATCH_KEYS]
            wire = _command(f"mig_export {len(chunk)}") + b"".join(
                key.encode("utf-8") + CRLF for key in chunk
            )
            requests.append(_Request(wire, _read_items))
        exported: list[MigratedItem] = []
        for records in await self._request(requests):
            exported.extend(records)
        return exported

    async def batch_import(
        self, records: Iterable[MigratedItem], mode: str = "merge"
    ) -> int:
        """Install migrated pairs via ``batch_import``; count imported."""
        records = list(records)
        requests = []
        for start in range(0, len(records), IMPORT_BATCH_RECORDS):
            chunk = records[start : start + IMPORT_BATCH_RECORDS]
            frames = [_command(f"batch_import {mode} {len(chunk)}")]
            for record in chunk:
                flags, payload = wire_value(record.value)
                frames.append(
                    _command(
                        f"{record.key} {record.last_access} "
                        f"{len(payload)} {flags}",
                        payload,
                    )
                )
            requests.append(_Request(b"".join(frames), _read_simple))
        imported = 0
        for response in await self._request(requests):
            if not response.startswith(b"IMPORTED "):
                raise WireProtocolError(
                    f"unexpected batch_import reply: {response!r}"
                )
            imported += int(response.split()[1])
        return imported

