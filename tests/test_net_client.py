"""NodeClient's connection protocol: reply framing, multiplexing, deadlines.

The framing tests drive :class:`repro.net.client._Conn` directly with a
stub transport, feeding reply bytes in arbitrary splits the way the
event loop would (``get_buffer`` / ``buffer_updated``); the rest run
against a real node server over localhost.
"""

import asyncio
import time

import pytest

from repro.core.retry import RetryPolicy
from repro.errors import TransportError, WireProtocolError
from repro.faults.sockets import SocketFaultPolicy
from repro.faults.spec import FaultSchedule, FaultSpec
from repro.memcached.node import MigratedItem
from repro.memcached.slab import PAGE_SIZE
from repro.net import LiveClusterHarness, NodeClient
from repro.net.client import (
    _Conn,
    _read_items,
    _read_simple,
    _read_sniffed,
    _read_stats,
    _read_ts,
    _read_values,
)
from repro.net.runtime import RECV_CHUNK, EventLoopThread
from repro.obs import create_telemetry

MEMORY = 8 * PAGE_SIZE

NEXT_REPLY = b"STORED\r\n"
"""The pipelined reply glued after every shape under test."""

REPLY_SHAPES = {
    "values": (
        _read_values,
        b"VALUE a 3 5\r\nhello\r\nVALUE b 0 4\r\nx\r\ny\r\nEND\r\n",
    ),
    "simple": (_read_simple, b"DELETED\r\n"),
    "ts": (_read_ts, b"TS a 1.5 10\r\nTS b 2.25 20\r\nEND\r\n"),
    "items": (
        _read_items,
        b"ITEM a 1 1.5 3\r\nabc\r\nITEM b 0 2.5 2\r\n\r\n\r\nEND\r\n",
    ),
    "stats": (_read_stats, b"STAT pid 42\r\nSTAT version 1.2 x\r\nEND\r\n"),
    "sniffed": (_read_sniffed, b"VALUE a 0 2\r\nhi\r\nEND\r\n"),
    "error": (_read_values, b"SERVER_ERROR object too large for cache\r\n"),
}


class StubTransport:
    def __init__(self) -> None:
        self.written: list[bytes] = []
        self.aborted = False

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def abort(self) -> None:
        self.aborted = True

    def close(self) -> None:
        pass


class CountingBuffer(bytearray):
    """A receive buffer that counts the bytes the parser searches or
    slices out of it."""

    scanned = 0

    def find(self, sub, start=0, end=None):  # type: ignore[override]
        stop = len(self) if end is None else end
        found = super().find(sub, start, stop)
        self.scanned += (found + len(sub) if found >= 0 else stop) - start
        return found

    def __getitem__(self, index):  # type: ignore[override]
        item = super().__getitem__(index)
        if isinstance(index, slice):
            self.scanned += len(item)
        return item


def open_conn() -> _Conn:
    conn = _Conn(NodeClient("stub", "127.0.0.1", 0))
    conn.transport = StubTransport()  # type: ignore[assignment]
    return conn


def feed(conn: _Conn, data: bytes) -> None:
    """Deliver ``data`` the way the transport does, one read at a time."""
    while data:
        buffer = conn.get_buffer(-1)
        count = min(len(buffer), len(data))
        buffer[:count] = data[:count]
        conn.buffer_updated(count)
        data = data[count:]


def outcome(future: asyncio.Future) -> object:
    assert future.done()
    if future.exception() is not None:
        return type(future.exception())
    return future.result()


async def replies(reader, wire: bytes, split: int | None) -> tuple:
    """Send the shape plus a pipelined simple reply; feed ``wire``
    whole or split at ``split``."""
    conn = open_conn()
    first = conn.send(b"", [reader], timeout_s=5.0)
    second = conn.send(b"", [_read_simple], timeout_s=5.0)
    if split is None:
        feed(conn, wire)
    else:
        feed(conn, wire[:split])
        feed(conn, wire[split:])
    assert not conn.calls and not conn.buf
    assert not conn.transport.aborted  # type: ignore[union-attr]
    return outcome(first), outcome(second)


class TestReplyFraming:
    @pytest.mark.parametrize("shape", sorted(REPLY_SHAPES))
    def test_every_split_parses_like_one_chunk(self, shape):
        reader, reply = REPLY_SHAPES[shape]
        wire = reply + NEXT_REPLY

        async def check() -> None:
            whole = await replies(reader, wire, None)
            assert whole[1] == [b"STORED"]
            for split in range(1, len(wire)):
                assert await replies(reader, wire, split) == whole, split

        asyncio.run(check())

    def test_shapes_decode(self):
        async def decode(shape: str) -> object:
            reader, reply = REPLY_SHAPES[shape]
            return (await replies(reader, reply + NEXT_REPLY, None))[0]

        assert asyncio.run(decode("values")) == [
            {"a": (3, b"hello"), "b": (0, b"x\r\ny")}
        ]
        assert asyncio.run(decode("ts")) == [
            [("a", 1.5, 10), ("b", 2.25, 20)]
        ]
        assert asyncio.run(decode("stats")) == [
            {"pid": "42", "version": "1.2 x"}
        ]
        assert asyncio.run(decode("sniffed")) == [REPLY_SHAPES["sniffed"][1]]
        # An error line is a whole reply: it fails its own call only.
        assert asyncio.run(decode("error")) is WireProtocolError

    def test_unparseable_reply_drops_the_connection(self):
        async def check() -> tuple:
            conn = open_conn()
            first = conn.send(b"", [_read_values], timeout_s=5.0)
            second = conn.send(b"", [_read_simple], timeout_s=5.0)
            feed(conn, b"STORED\r\nSTORED\r\n")
            return conn, outcome(first), outcome(second)

        conn, first, second = asyncio.run(check())
        assert first is WireProtocolError
        assert second is ConnectionResetError  # retried by the caller
        assert conn.transport.aborted  # type: ignore[union-attr]

    def test_large_export_is_scanned_about_once(self):
        records = [
            MigratedItem(f"key:{i:04d}", (i % 4, bytes([i % 251]) * 1000),
                         1000, float(i))
            for i in range(512)
        ]
        reply = b"".join(
            f"ITEM {r.key} {r.value[0]} {r.last_access} {r.value_size}\r\n"
            .encode() + r.value[1] + b"\r\n"
            for r in records
        ) + b"END\r\n"

        async def parse() -> tuple:
            conn = open_conn()
            conn.buf = CountingBuffer()
            future = conn.send(b"", [_read_items], timeout_s=5.0)
            for start in range(0, len(reply), RECV_CHUNK):
                feed(conn, reply[start : start + RECV_CHUNK])
            return outcome(future), conn.buf.scanned

        (items,), scanned = asyncio.run(parse())
        assert items == records
        assert len(reply) > 8 * RECV_CHUNK
        assert scanned <= 2 * len(reply)


class DelayFirstChunk:
    """Policy stub: hold the first request chunk, pass the rest."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self.chunks = 0

    def disposition(self, node: str) -> tuple[str, float]:
        self.chunks += 1
        return ("delay", self.delay_s) if self.chunks == 1 else ("pass", 0.0)


@pytest.fixture
def loop():
    with EventLoopThread(name="test-net-client") as thread:
        yield thread


class TestMultiplexing:
    def test_concurrent_callers_share_one_connection(self, loop):
        with LiveClusterHarness(["n0"], MEMORY) as harness:
            client = NodeClient("n0", *harness.endpoints["n0"], pool_size=1)
            keys = [f"mux:{i}" for i in range(32)]
            for key in keys:
                assert loop.call(client.set(key, key.encode()))

            async def storm() -> list:
                return await asyncio.gather(*(client.get(k) for k in keys))

            assert loop.call(storm()) == [(0, k.encode()) for k in keys]
            assert len(client._conns) == 1
            loop.call(client.close())

    def test_cancelled_caller_leaves_the_connection_in_sync(self, loop):
        policy = DelayFirstChunk(0.2)
        with LiveClusterHarness(
            ["n0"], MEMORY, fault_policy=policy
        ) as harness:
            client = NodeClient("n0", *harness.endpoints["n0"], pool_size=1)
            assert loop.call(client.set("a", b"first"))
            assert loop.call(client.set("b", b"second"))

            async def scenario() -> tuple:
                slow = asyncio.ensure_future(client.get("a"))
                await asyncio.sleep(0.05)  # written; its reply is pending
                conn = client._conns[0]
                slow.cancel()
                value = await client.get("b")
                return conn, slow.cancelled(), value

            policy.chunks = 0  # hold the next chunk: the get of "a"
            conn, cancelled, value = loop.call(scenario())
            assert cancelled
            assert value == (0, b"second")
            assert client._conns == [conn]  # same connection, still open
            assert loop.call(client.get("a")) == (0, b"first")
            loop.call(client.close())


class TestDeadline:
    def test_stalled_server_fails_after_exactly_max_attempts(self, loop):
        policy = SocketFaultPolicy(
            FaultSchedule(
                [FaultSpec(0.0, "node_stall", node="n0", factor=0.0)]
            )
        )
        retry = RetryPolicy(
            max_attempts=3, base_backoff_s=0.01, max_backoff_s=0.02
        )
        telemetry = create_telemetry()
        with LiveClusterHarness(
            ["n0"], MEMORY, fault_policy=policy, drain_grace_s=0.1,
            telemetry=telemetry,
        ) as harness:
            client = NodeClient(
                "n0", *harness.endpoints["n0"], timeout_s=0.15, retry=retry
            )
            started = time.monotonic()
            with pytest.raises(TransportError, match="after 3 attempt"):
                loop.call(client.get("k"))
            elapsed = time.monotonic() - started
            metrics = telemetry.metrics
            # One fresh connection per attempt, each ended by its deadline.
            assert (
                metrics.counter("net_server_connections_total", node="n0")
                .value == 3
            )
            assert elapsed >= 3 * 0.15
            loop.call(client.close())
