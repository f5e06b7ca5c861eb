"""Open-loop load driver: one asyncio loop, at most two connections.

The driver sends each op of a tape at its due time and never before:
it sleeps until the due time, re-reads the clock, and sends only the
ops whose due time has passed.  Each op is timed from when it was due,
so a stall that delays later sends shows up in their response time,
and the lateness of every send (sent minus due) is recorded as well.

Ops are written to whichever open connection has fewer in flight; the
server answers each connection in order.  An op answered with an error
line or ``NOT_STORED`` fails.  A connection that breaks, or leaves its
oldest op unanswered past ``timeout_s``, fails every op in flight on
it; the driver then reconnects and counts the reconnect.  Failed ops
never count as responses.

Every get hit is checked against the :class:`Ledger` of writes:

- a payload that is malformed, names another key, or has the wrong
  length for its write is *corrupt* and fails the run;
- a payload that a later write has replaced is a *stale read*: it
  counts as a failed op, but does not stop the run.  "Later" is real
  time: a write sent after the returned write was acknowledged, and
  itself acknowledged before the get was sent.  Two writes in flight
  together may land in either order, so neither replaces the other.
"""

from __future__ import annotations

import asyncio
import bisect
import ctypes
import os
import time
from collections import deque
from dataclasses import dataclass, field

from schedule import Op, parse_payload, payload

CONNECTIONS = 2
"""Connections to the server; the load must fit in at most two."""
HIT, MISS, STORED, FAILED, STALE = "hit", "miss", "stored", "failed", "stale"
OK_STATUSES = (HIT, MISS, STORED)
CLOCK_MONOTONIC = 1
TFD_TIMER_ABSTIME = 1
TFD_NONBLOCK = 0o4000
TFD_CLOEXEC = 0o2000000


class _Timespec(ctypes.Structure):
    _fields_ = [("tv_sec", ctypes.c_long), ("tv_nsec", ctypes.c_long)]


class _Itimerspec(ctypes.Structure):
    _fields_ = [("it_interval", _Timespec), ("it_value", _Timespec)]


class MonotonicTimer:
    """Wakes the event loop at an absolute ``time.monotonic()`` instant.

    asyncio's own timers wake up to a millisecond late (epoll waits in
    whole milliseconds).  A Linux timerfd on CLOCK_MONOTONIC wakes the
    loop when the instant passes, without spinning and never before it.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        libc = ctypes.CDLL(None, use_errno=True)
        create = libc.timerfd_create
        create.argtypes = [ctypes.c_int, ctypes.c_int]
        create.restype = ctypes.c_int
        self._settime = libc.timerfd_settime
        self._settime.argtypes = [
            ctypes.c_int,
            ctypes.c_int,
            ctypes.POINTER(_Itimerspec),
            ctypes.c_void_p,
        ]
        self._settime.restype = ctypes.c_int
        self.fd = create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)
        if self.fd < 0:
            raise OSError(ctypes.get_errno(), "timerfd_create failed")
        self._loop = loop
        self._waiter: asyncio.Future | None = None
        self._spec = _Itimerspec()
        loop.add_reader(self.fd, self._fired)

    def _fired(self) -> None:
        try:
            os.read(self.fd, 8)
        except BlockingIOError:
            return
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def sleep_until(self, when: float) -> None:
        seconds = int(when)
        value = self._spec.it_value
        value.tv_sec = seconds
        value.tv_nsec = max(1, int((when - seconds) * 1e9))
        self._waiter = self._loop.create_future()
        if self._settime(self.fd, TFD_TIMER_ABSTIME, self._spec, None) < 0:
            raise OSError(ctypes.get_errno(), "timerfd_settime failed")
        await self._waiter

    def close(self) -> None:
        self._loop.remove_reader(self.fd)
        os.close(self.fd)


@dataclass
class Record:
    """What happened to one op (times on the ``time.monotonic`` clock)."""

    op: Op
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: str = ""
    seq: int = 0


class Ledger:
    """Every write issued and acknowledged, per key, for read checks."""

    def __init__(self) -> None:
        self.next_seq: dict[str, int] = {}
        self.sizes: dict[tuple[str, int], int] = {}
        self.sent: dict[tuple[str, int], float] = {}
        self.acks: dict[tuple[str, int], float] = {}
        # key -> ack times (non-decreasing) and the running max of the
        # send times of the writes acknowledged by then.
        self.ack_times: dict[str, list[float]] = {}
        self.latest_sent: dict[str, list[float]] = {}
        self.corrupt: list[str] = []

    def seeded(self, key: str, size: int) -> None:
        """Record seq 0, stored before the run and acknowledged."""
        self.next_seq[key] = 1
        self.sizes[(key, 0)] = len(payload(key, 0, size))
        self.sent[(key, 0)] = float("-inf")
        self.acked(key, 0, float("-inf"))

    def issue(self, key: str, size: int, when: float) -> tuple[int, bytes]:
        """Allocate the next write of ``key``, sent at ``when``."""
        seq = self.next_seq.get(key, 1)
        self.next_seq[key] = seq + 1
        data = payload(key, seq, size)
        self.sizes[(key, seq)] = len(data)
        self.sent[(key, seq)] = when
        return seq, data

    def acked(self, key: str, seq: int, when: float) -> None:
        self.acks[(key, seq)] = when
        times = self.ack_times.setdefault(key, [])
        latest = self.latest_sent.setdefault(key, [])
        sent = self.sent[(key, seq)]
        times.append(when)
        latest.append(max(sent, latest[-1]) if latest else sent)

    def check_hit(self, key: str, data: bytes, sent: float) -> str:
        """HIT, STALE, or FAILED (corrupt; also recorded in ``corrupt``)."""
        parsed = parse_payload(data)
        if parsed is None or parsed[0] != key:
            self.corrupt.append(f"{key}: unexpected payload {data[:40]!r}")
            return FAILED
        seq = parsed[1]
        if self.sizes.get((key, seq)) != len(data):
            self.corrupt.append(
                f"{key}: seq {seq} was never written with {len(data)} bytes"
            )
            return FAILED
        # A write still unacknowledged (or failed) is replaced by nothing.
        returned_ack = self.acks.get((key, seq), float("inf"))
        times = self.ack_times.get(key, [])
        index = bisect.bisect_left(times, sent) - 1
        if index >= 0 and self.latest_sent[key][index] > returned_ack:
            return STALE
        return HIT


@dataclass
class _Conn:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    pending: deque = field(default_factory=deque)
    alive: bool = True
    task: asyncio.Task | None = None


class OpenLoopDriver:
    """Sends op tapes to one memcached-protocol endpoint on schedule."""

    def __init__(
        self,
        host: str,
        port: int,
        ledger: Ledger,
        timeout_s: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.ledger = ledger
        self.timeout_s = timeout_s
        self.clock = time.monotonic
        self.reconnects = 0
        self._conns: list[_Conn] = []
        self._parked: deque[Record] = deque()
        self._tasks: set[asyncio.Task] = set()
        self._watchdog: asyncio.Task | None = None
        self._closing = False

    async def start(self) -> None:
        self._timer = MonotonicTimer(asyncio.get_running_loop())
        for _ in range(CONNECTIONS):
            self._conns.append(await self._open())
        self._watchdog = asyncio.get_running_loop().create_task(
            self._watch()
        )

    async def close(self) -> None:
        self._closing = True
        self._timer.close()
        tasks = [t for t in (self._watchdog, *self._tasks) if t is not None]
        for conn in self._conns:
            if conn.task is not None:
                tasks.append(conn.task)
            conn.writer.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for conn in self._conns:
            try:
                await conn.writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _open(self) -> _Conn:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        conn = _Conn(reader, writer)
        conn.task = asyncio.get_running_loop().create_task(self._read(conn))
        return conn

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    async def run(self, ops: list[Op], start: float) -> list[Record]:
        """Send ``ops`` (due relative to ``start``); wait for every answer."""
        records = [Record(op, start + op.due) for op in ops]
        clock = self.clock
        index = 0
        while index < len(records):
            now = clock()
            due = records[index].due
            if now < due:
                await self._timer.sleep_until(due)
                continue
            while index < len(records) and records[index].due <= now:
                self._send(records[index])
                index += 1
            await asyncio.sleep(0)
        deadline = clock() + self.timeout_s + 1.0
        while clock() < deadline and any(not r.status for r in records):
            await asyncio.sleep(0.005)
        for record in records:
            if not record.status:
                record.status = FAILED
                record.done = clock()
        return records

    def _send(self, record: Record) -> None:
        open_conns = [
            c for c in self._conns if c.alive and not c.writer.is_closing()
        ]
        if not open_conns:
            self._parked.append(record)
            return
        conn = min(open_conns, key=lambda c: len(c.pending))
        op = record.op
        record.sent = self.clock()
        if op.kind == "get":
            command = b"get " + op.key.encode() + b"\r\n"
        else:
            record.seq, data = self.ledger.issue(op.key, op.size, record.sent)
            command = (
                f"set {op.key} 0 0 {len(data)}\r\n".encode() + data + b"\r\n"
            )
        conn.pending.append(record)
        conn.writer.write(command)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    async def _read(self, conn: _Conn) -> None:
        reader = conn.reader
        try:
            while True:
                line = await reader.readline()
                if not line:
                    raise ConnectionResetError("server closed the connection")
                if not conn.pending:
                    raise ConnectionResetError(f"unsolicited reply {line!r}")
                record = conn.pending[0]
                status = FAILED
                if record.op.kind == "get":
                    if line.startswith(b"VALUE "):
                        size = int(line.split()[3])
                        data = (await reader.readexactly(size + 2))[:-2]
                        if await reader.readline() != b"END\r\n":
                            raise ConnectionResetError("unterminated value")
                        status = self.ledger.check_hit(
                            record.op.key, data, record.sent
                        )
                    elif line == b"END\r\n":
                        status = MISS
                elif line == b"STORED\r\n":
                    status = STORED
                conn.pending.popleft()
                self._complete(record, status)
        except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
            pass
        self._fail_conn(conn)

    def _complete(self, record: Record, status: str) -> None:
        record.done = self.clock()
        record.status = status
        if status == STORED:
            self.ledger.acked(record.op.key, record.seq, record.done)

    def _fail_conn(self, conn: _Conn) -> None:
        """Fail every op in flight on ``conn`` and start a reconnect."""
        if not conn.alive:
            return
        conn.alive = False
        conn.writer.close()
        while conn.pending:
            self._complete(conn.pending.popleft(), FAILED)
        if not self._closing:
            task = asyncio.get_running_loop().create_task(
                self._reconnect(conn)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _reconnect(self, dead: _Conn) -> None:
        while not self._closing:
            try:
                conn = await self._open()
            except OSError:
                await asyncio.sleep(0.05)
                continue
            self._conns[self._conns.index(dead)] = conn
            self.reconnects += 1
            parked, self._parked = self._parked, deque()
            for record in parked:
                self._send(record)
            return

    async def _watch(self) -> None:
        """Abort a connection whose oldest op waited past the timeout."""
        while True:
            await asyncio.sleep(0.05)
            now = self.clock()
            for conn in list(self._conns):
                if (
                    conn.alive
                    and conn.pending
                    and now - conn.pending[0].sent > self.timeout_s
                ):
                    if conn.task is not None:
                        conn.task.cancel()
                    self._fail_conn(conn)
