"""The open-loop driver is honest: on time, timed from due, failures fail.

Each test runs the driver against a small in-process memcached-protocol
server whose behaviour the test chooses.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from driver import FAILED, HIT, MISS, STALE, STORED, Ledger, OpenLoopDriver
from live import failed_count, latency_summary
from schedule import Op, parse_payload, payload


class FakeServer:
    """Answers get/set; ``policy(command, key)`` may override a reply.

    A policy returns None (normal reply), bytes (sent instead), or
    ``"close"`` (drop the connection without answering).
    """

    def __init__(
        self,
        policy: Callable[[str, str], object] | None = None,
        delay_s: float = 0.0,
    ) -> None:
        self.policy = policy or (lambda command, key: None)
        self.delay_s = delay_s
        self.store: dict[str, bytes] = {}
        self.received: list[tuple[str, float]] = []
        self.server: asyncio.AbstractServer | None = None

    async def start(self) -> int:
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        assert self.server is not None
        self.server.close()
        await self.server.wait_closed()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while line := await reader.readline():
                parts = line.decode().split()
                command, key = parts[0], parts[1]
                self.received.append((key, time.monotonic()))
                if command == "set":
                    data = (await reader.readexactly(int(parts[4]) + 2))[:-2]
                if self.delay_s:
                    await asyncio.sleep(self.delay_s)
                reply = self.policy(command, key)
                if reply == "close":
                    break
                if reply is None and command == "set":
                    self.store[key] = data
                    reply = b"STORED\r\n"
                elif reply is None:
                    value = self.store.get(key)
                    reply = b"END\r\n"
                    if value is not None:
                        header = f"VALUE {key} 0 {len(value)}\r\n".encode()
                        reply = header + value + b"\r\nEND\r\n"
                writer.write(reply)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


def drive(server: FakeServer, ops: list[Op], ledger: Ledger | None = None):
    """Run ``ops`` through a two-connection driver; return the records."""
    ledger = ledger or Ledger()

    async def main():
        port = await server.start()
        driver = OpenLoopDriver("127.0.0.1", port, ledger, timeout_s=0.5)
        await driver.start()
        try:
            records = await driver.run(ops, time.monotonic() + 0.02)
        finally:
            await driver.close()
            await server.stop()
        return records, driver

    return asyncio.run(main())


def tape(count: int, rate: float, kind: str = "get") -> list[Op]:
    return [
        Op(kind, f"key:{i:06d}", i / rate, 40 if kind == "set" else 0)
        for i in range(count)
    ]


def test_no_op_is_sent_before_it_is_due():
    server = FakeServer()
    ops = tape(300, rate=3000.0)
    records, _ = drive(server, ops)
    due = {r.op.key: r.due for r in records}
    assert len(server.received) == len(ops)
    for key, received in server.received:
        assert received >= due[key]
    for record in records:
        assert record.sent >= record.due
        assert record.status == MISS


def test_response_time_is_at_least_service_time():
    # A slow server: every reply waits 3 ms, so ops queue on the two
    # connections and later ops are answered well after they were due.
    server = FakeServer(delay_s=0.003)
    records, _ = drive(server, tape(200, rate=2000.0))
    for record in records:
        response = record.done - record.due
        service = record.done - record.sent
        assert response >= service >= 0.003
    # The queue shows: the last ops waited far longer than one service.
    assert max(r.done - r.due for r in records) > 0.03


def test_refused_and_failed_ops_count_as_failed_not_fast():
    refused = {"key:000003": b"NOT_STORED\r\n", "key:000005": b"SERVER_ERROR no\r\n"}

    def policy(command, key):
        if key == "key:000008":
            return "close"
        return refused.get(key)

    server = FakeServer(policy)
    ops = tape(12, rate=50.0, kind="set")
    records, driver = drive(server, ops)
    by_key = {r.op.key: r for r in records}
    for key in ("key:000003", "key:000005", "key:000008"):
        assert by_key[key].status == FAILED
    assert by_key["key:000000"].status == STORED
    assert failed_count(records) == 3
    assert latency_summary(records, "set")["samples"] == len(ops) - 3
    assert driver.reconnects == 1
    # A refused write is never acknowledged, so it is not in the ledger.
    assert "key:000003" not in driver.ledger.ack_times


def test_unanswered_op_times_out_as_failed():
    server = FakeServer(delay_s=2.0)
    records, _ = drive(server, tape(3, rate=100.0))
    assert all(record.status == FAILED for record in records)


def test_stale_read_counts_as_failed_and_run_goes_on():
    ledger = Ledger()
    ledger.seeded("key:000001", 40)
    old = payload("key:000001", 0, 40)

    def policy(command, key):
        if command == "get":
            # Always the seeded version, whatever was written since.
            return f"VALUE {key} 0 {len(old)}\r\n".encode() + old + b"\r\nEND\r\n"
        return None

    ops = [
        Op("set", "key:000001", 0.0, 40),
        Op("get", "key:000001", 0.05),
        Op("get", "key:000001", 0.06),
    ]
    records, _ = drive(FakeServer(policy), ops, ledger)
    assert [r.status for r in records] == [STORED, STALE, STALE]
    assert failed_count(records) == 2
    assert not ledger.corrupt


def test_only_a_write_that_started_after_the_returned_one_makes_it_stale():
    ledger = Ledger()
    key = "key:000001"
    ledger.seeded(key, 40)
    seq1, first = ledger.issue(key, 40, 1.0)
    seq2, second = ledger.issue(key, 40, 1.1)
    # Both in flight together, acknowledged in the other order: either
    # may be the one the server applied last.
    ledger.acked(key, seq2, 1.2)
    ledger.acked(key, seq1, 1.3)
    assert ledger.check_hit(key, first, 1.4) == HIT
    assert ledger.check_hit(key, second, 1.4) == HIT
    assert ledger.check_hit(key, payload(key, 0, 40), 1.4) == STALE
    seq3, _ = ledger.issue(key, 40, 1.5)
    ledger.acked(key, seq3, 1.6)
    assert ledger.check_hit(key, first, 1.55) == HIT
    assert ledger.check_hit(key, first, 1.7) == STALE


def test_payload_of_another_key_is_corrupt():
    ledger = Ledger()
    ledger.seeded("key:000001", 40)
    ledger.seeded("key:000002", 40)
    other = payload("key:000002", 0, 40)

    def policy(command, key):
        return f"VALUE {key} 0 {len(other)}\r\n".encode() + other + b"\r\nEND\r\n"

    records, _ = drive(FakeServer(policy), [Op("get", "key:000001", 0.0)], ledger)
    assert records[0].status == FAILED
    assert ledger.corrupt


def test_hit_of_latest_write_is_a_hit():
    ledger = Ledger()
    ops = [Op("set", "key:000001", 0.0, 64), Op("get", "key:000001", 0.05)]
    records, _ = drive(FakeServer(), ops, ledger)
    assert [r.status for r in records] == [STORED, HIT]


def test_payload_round_trip():
    data = payload("key:000042", 7, 100)
    assert len(data) == 100
    assert parse_payload(data) == ("key:000042", 7)
    assert len(payload("key:000042", 7, 1)) == len(b"key:000042:7:")
    assert parse_payload(b"key:000042:7:..x") is None
    assert parse_payload(b"garbage") is None
