"""Client-facing listener for the proxy tier, plus a full harness.

:class:`ProxyServer` accepts the same memcached text dialect
:class:`~repro.net.server.NodeServer` speaks, so any existing client
(including :class:`~repro.net.client.NodeClient`) can point at the proxy
instead of a node without changing a line.  Each parsed command is
executed through a :class:`~repro.proxy.router.ProxyRouter`, which is
where coalescing, hot-key replication, and circuit breaking happen; the
listener itself stays a thin protocol adapter.

Each connection (:class:`_ProxyConn`) frames command lines and ``set``
payloads itself and runs them strictly in order in one worker task (the
protocol is request/response ordered), but concurrently *across*
connections, which is what lets the coalescer collapse a thundering
herd of clients.

Unlike a node server, the proxy never surfaces backend trouble to a
client: a dead backend degrades ``get`` to a miss and ``set`` to
``NOT_STORED``, so the client-visible stream stays error-free while the
fleet churns underneath -- the property the chaos suite asserts.

:class:`ProxyHarness` composes a backend
:class:`~repro.net.server.LiveClusterHarness` with a router and a proxy
listener on its own event loop, and is synchronous on the outside like
every other harness in the repo.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Iterable

from repro.check.loopcheck import create_sanitizer
from repro.errors import ConfigurationError, WireProtocolError
from repro.faults.sockets import SocketFaultPolicy
from repro.net.runtime import RECV_CHUNK, EventLoopThread
from repro.net.server import LiveClusterHarness
from repro.obs import Telemetry, create_telemetry
from repro.obs.trace import CURRENT_CONTEXT, TraceContext, parse_trace_args
from repro.proxy.router import ProxyConfig, ProxyRouter

ROUTED_COMMANDS = frozenset({"get", "gets", "set", "delete", "incr", "decr"})
"""Commands that fan into backends and therefore get traced/spanned."""

CRLF = b"\r\n"
MAX_LINE = 8192
"""Longest accepted command line (multi-key gets stay well under it)."""

MAX_PIPELINE = 256
"""Framed commands queued per connection before reading pauses."""

PROXY_VERSION = b"VERSION repro-proxy-1.0-elmem" + CRLF


def _set_header(args: list[str]) -> tuple[int, float, int] | bytes:
    """``set <key> <flags> <exptime> <bytes> [noreply]`` arguments ->
    ``(flags, exptime, size)``, or the error reply for a bad header."""
    if len(args) not in (4, 5):
        return b"CLIENT_ERROR bad command line format" + CRLF
    try:
        flags, exptime, size = int(args[1]), float(args[2]), int(args[3])
    except ValueError:
        return b"CLIENT_ERROR bad command line format" + CRLF
    if size < 0:
        return b"CLIENT_ERROR bad data chunk" + CRLF
    return flags, exptime, size


class _ProxyConn(asyncio.BufferedProtocol):
    """One client connection: framed here, executed in order by a worker."""

    def __init__(self, server: ProxyServer) -> None:
        self.server = server
        self.transport: asyncio.Transport  # set once connected
        self.chunk = memoryview(bytearray(RECV_CHUNK))
        self.buf = bytearray()
        # (command words, set payload + CRLF); None words: line too long.
        self.commands: deque[tuple[list[str] | None, bytes]] = deque()
        self.set_words: list[str] | None = None  # a set awaiting its payload
        self.set_size = 0
        self.eof = False
        self.backlog = False  # the client is not draining our replies
        self.ready = asyncio.Event()  # commands were queued, or EOF
        self.worker: asyncio.Task[None]  # started once connected

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        self.worker = asyncio.get_running_loop().create_task(self._work())
        self.server._conns.add(self)
        self.server._m_conns.inc()

    def connection_lost(self, exc: Exception | None) -> None:
        self.eof_received()

    def eof_received(self) -> bool:
        self.eof = True
        self.ready.set()
        return True  # keep the write side open for queued replies

    def pause_writing(self) -> None:
        self.backlog = True
        self._flow()

    def resume_writing(self) -> None:
        self.backlog = False
        self._flow()

    def _flow(self) -> None:
        """Read while the queue has room and replies drain."""
        if self.backlog or len(self.commands) >= MAX_PIPELINE:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.chunk

    def buffer_updated(self, nbytes: int) -> None:
        buf = self.buf
        buf += self.chunk[:nbytes]
        pos = 0
        while True:
            if self.set_words is not None:
                end = pos + self.set_size + 2
                if len(buf) < end:
                    break
                self.commands.append((self.set_words, bytes(buf[pos:end])))
                self.set_words, pos = None, end
                continue
            end = buf.find(CRLF, pos)
            if (end if end >= 0 else len(buf)) - pos > MAX_LINE:
                self.commands.append((None, b""))  # the worker stops here
                pos = len(buf)
                break
            if end < 0:
                break
            words = buf[pos:end].decode("utf-8", "replace").split()
            pos = end + 2
            if words and words[0].lower() == "set":
                header = _set_header(words[1:])
                if isinstance(header, tuple):
                    self.set_words, self.set_size = words, header[2]
                    continue
            self.commands.append((words, b""))
        del buf[:pos]
        self._flow()
        self.ready.set()

    async def _work(self) -> None:
        """Run the queued commands in order; close when done."""
        server = self.server
        # Trace context announced by a `trace` framing line, consumed by
        # the next command on this connection.
        pending_trace: TraceContext | None = None
        try:
            while self.commands or not self.eof:
                if not self.commands:
                    self._flow()
                    self.ready.clear()
                    await self.ready.wait()
                    continue
                words, block = self.commands.popleft()
                if words is None:
                    self._write(b"CLIENT_ERROR line too long" + CRLF)
                    return
                server._m_commands.inc()
                if words and words[0].lower() == "trace":
                    pending_trace = parse_trace_args(words[1:])
                    if pending_trace is None:
                        server._m_protocol_errors.inc()
                        self._write(b"CLIENT_ERROR bad trace frame" + CRLF)
                    continue
                trace_ctx, pending_trace = pending_trace, None
                response = await server._execute(words, block, trace_ctx)
                if response is None:
                    return  # quit
                self._write(response)
        finally:
            self.transport.close()
            server._conns.discard(self)

    def _write(self, data: bytes) -> None:
        if not self.transport.is_closing():
            self.transport.write(data)


class ProxyServer:
    """One asyncio TCP listener executing commands through a router.

    Parameters
    ----------
    router:
        The routing core; must live on the same event loop.
    host / port:
        Bind address; port 0 picks a free port, read back from
        :attr:`port` after :meth:`start`.
    drain_grace_s:
        How long :meth:`stop` waits for open connections to finish.
    """

    def __init__(
        self,
        router: ProxyRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_grace_s: float = 2.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.drain_grace_s = drain_grace_s
        self._server: asyncio.Server | None = None
        self._conns: set[_ProxyConn] = set()
        telemetry = telemetry or router.telemetry
        metrics = telemetry.metrics
        self._m_conns = metrics.counter(
            "proxy_connections_total",
            "Client connections accepted by the proxy",
        )
        self._m_commands = metrics.counter(
            "proxy_commands_total", "Wire commands parsed by the proxy"
        )
        self._m_protocol_errors = metrics.counter(
            "proxy_protocol_errors_total",
            "Malformed client commands answered with an error line",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ProxyServer":
        """Bind and start accepting connections; idempotent."""
        if self._server is not None:
            return self
        loop = asyncio.get_running_loop()
        self.router.bind_loop(loop)
        self._server = await loop.create_server(
            lambda: _ProxyConn(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def endpoint(self) -> tuple[str, int]:
        """``(host, port)`` the proxy is reachable at."""
        if self._server is None:
            raise ConfigurationError("proxy server is not started")
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, drain open connections, then force-close."""
        server = self._server
        if server is None:
            return
        server.close()
        await server.wait_closed()
        conns = list(self._conns)
        for conn in conns:
            conn.transport.close()
        if conns:
            _, pending = await asyncio.wait(
                [conn.worker for conn in conns], timeout=self.drain_grace_s
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        await self.router.close()
        self._server = None

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    async def _execute(
        self,
        parts: list[str],
        block: bytes,
        trace_ctx: TraceContext | None = None,
    ) -> bytes | None:
        """Run one command (plus a set's payload); None closes."""
        if not parts:
            return b"ERROR" + CRLF
        command = parts[0].lower()
        args = parts[1:]
        if command in ROUTED_COMMANDS:
            return await self._execute_routed(command, args, block, trace_ctx)
        if command == "stats":
            if args and args[0] == "obs":
                return self._cmd_stats_obs()
            return self._cmd_stats()
        if command == "version":
            return PROXY_VERSION
        if command == "flush_all":
            await self.router.flush_all()
            return b"OK" + CRLF
        if command == "quit":
            return None
        self._m_protocol_errors.inc()
        return b"ERROR" + CRLF

    async def _execute_routed(
        self,
        command: str,
        args: list[str],
        block: bytes,
        trace_ctx: TraceContext | None,
    ) -> bytes:
        """Run one backend-fanning command under a trace span.

        An incoming context (client-supplied ``trace`` frame) always
        joins its trace; without one the proxy is the trace root and the
        sampler decides.  The resulting context rides the ambient
        :data:`CURRENT_CONTEXT` so :class:`~repro.net.client.NodeClient`
        picks it up when it hits the backends.  A backend that answers
        with an error line fails this one command with ``SERVER_ERROR``.
        """
        tracer = self.router.telemetry.tracer
        span = None
        if tracer.sampling:
            span = (
                tracer.start_trace(f"proxy.{command}")
                if trace_ctx is None
                else tracer.start_span(f"proxy.{command}", trace_ctx)
            )
        token = None
        if span is not None:
            token = CURRENT_CONTEXT.set(span.context)
        elif trace_ctx is not None:
            token = CURRENT_CONTEXT.set(trace_ctx)
        try:
            if command in ("get", "gets"):
                return await self._cmd_get(args, with_cas=command == "gets")
            if command == "set":
                return await self._cmd_set(args, block)
            if command == "delete":
                return await self._cmd_delete(args)
            return await self._cmd_arith(args, command)
        except WireProtocolError as exc:  # the backend refused this one
            reason = str(exc).split(" ", 1)[-1]
            return f"SERVER_ERROR {reason}".encode("utf-8") + CRLF
        finally:
            if token is not None:
                CURRENT_CONTEXT.reset(token)
            if span is not None:
                span.end()

    async def _cmd_get(self, keys: list[str], with_cas: bool) -> bytes:
        if not keys:
            self._m_protocol_errors.inc()
            return b"ERROR" + CRLF
        chunks: list[bytes] = []
        for key in keys:
            value = await self.router.get(key)
            if value is None:
                continue
            flags, payload = value
            header = f"VALUE {key} {flags} {len(payload)}"
            if with_cas:
                # The proxy does not route cas tokens (replicated keys
                # have several); a zero token keeps gets parseable while
                # making any cas attempt through the proxy a clean miss.
                header += " 0"
            chunks.append(header.encode("utf-8") + CRLF + payload + CRLF)
        chunks.append(b"END" + CRLF)
        return b"".join(chunks)

    async def _cmd_set(self, args: list[str], block: bytes) -> bytes:
        # set <key> <flags> <exptime> <bytes> [noreply-token ignored];
        # the listener framed the payload only for a well-formed header.
        header = _set_header(args)
        if isinstance(header, bytes):
            self._m_protocol_errors.inc()
            return header
        if block[-2:] != CRLF:
            self._m_protocol_errors.inc()
            return b"CLIENT_ERROR bad data chunk" + CRLF
        flags, exptime, _ = header
        stored = await self.router.set(
            args[0], block[:-2], flags=flags, exptime=exptime
        )
        return (b"STORED" if stored else b"NOT_STORED") + CRLF

    async def _cmd_delete(self, args: list[str]) -> bytes:
        if len(args) != 1:
            self._m_protocol_errors.inc()
            return b"CLIENT_ERROR bad command line format" + CRLF
        existed = await self.router.delete(args[0])
        return (b"DELETED" if existed else b"NOT_FOUND") + CRLF

    async def _cmd_arith(self, args: list[str], command: str) -> bytes:
        if len(args) != 2:
            self._m_protocol_errors.inc()
            return b"CLIENT_ERROR bad command line format" + CRLF
        try:
            delta = int(args[1])
        except ValueError:
            self._m_protocol_errors.inc()
            return b"CLIENT_ERROR invalid numeric delta argument" + CRLF
        if command == "decr":
            delta = -delta
        value = await self.router.incr(args[0], delta)
        if value is None:
            return b"NOT_FOUND" + CRLF
        return str(value).encode("utf-8") + CRLF

    def _cmd_stats(self) -> bytes:
        body = b"".join(
            f"STAT {name} {value}".encode("utf-8") + CRLF
            for name, value in sorted(
                self.router.stats_snapshot().items()
            )
        )
        return body + b"END" + CRLF

    def _cmd_stats_obs(self) -> bytes:
        """``stats obs``: this proxy process's Prometheus text page.

        Because the harness shares one registry between the proxy and
        its in-process backends, a single scrape covers the whole tier.
        """
        from repro.obs.export import to_prometheus

        metrics = self.router.telemetry.metrics
        if getattr(metrics, "enabled", False):
            payload = to_prometheus(metrics).encode("utf-8")
        else:
            payload = b""
        header = f"VALUE obs 0 {len(payload)}".encode("utf-8")
        return header + CRLF + payload + CRLF + b"END" + CRLF


class ProxyHarness:
    """Backends + router + proxy listener, synchronous on the outside.

    Boots a :class:`~repro.net.server.LiveClusterHarness` for the
    backend fleet, then a :class:`ProxyServer` on its own event loop
    fronting them.  Clients connect to :attr:`proxy_endpoint`; scale
    events go through :meth:`router`'s membership listener; backend
    failures are injected with :meth:`kill_backend` /
    :meth:`restart_backend`.

    Parameters
    ----------
    node_names:
        Backends to boot (all start on the proxy ring unless ``active``
        narrows it).
    memory_per_node:
        Bytes of cache per backend.
    active:
        Initial ring membership; defaults to every backend.
    config:
        Router tunables (:class:`~repro.proxy.router.ProxyConfig`).
    fault_policy:
        Optional socket fault schedule applied to the *backend* servers
        (the proxy's own listener is never faulted -- the point is that
        clients behind the proxy stay clean while backends misbehave).
    sanitize:
        Run both the proxy loop and the backend loop under
        :class:`~repro.check.loopcheck.LoopSanitizer` instances (asyncio
        debug mode + blocking-call trap); read verdicts from
        :attr:`sanitizer` and ``backends.sanitizer`` after :meth:`stop`.
    """

    def __init__(
        self,
        node_names: Iterable[str],
        memory_per_node: int,
        active: Iterable[str] | None = None,
        config: ProxyConfig | None = None,
        host: str = "127.0.0.1",
        proxy_port: int = 0,
        fault_policy: SocketFaultPolicy | None = None,
        drain_grace_s: float = 2.0,
        telemetry: Telemetry | None = None,
        min_chunk: int = 96,
        growth_factor: float = 1.25,
        sanitize: bool = False,
    ) -> None:
        self.telemetry = telemetry or create_telemetry()
        # Backends share the proxy's telemetry, so one `stats obs`
        # scrape of the proxy covers node servers and nodes too.
        self.backends = LiveClusterHarness(
            node_names,
            memory_per_node,
            host=host,
            min_chunk=min_chunk,
            growth_factor=growth_factor,
            fault_policy=fault_policy,
            drain_grace_s=drain_grace_s,
            telemetry=self.telemetry,
            metrics=self.telemetry.metrics,
            sanitize=sanitize,
        )
        self._active = list(active) if active is not None else None
        self._config = config
        self._host = host
        self._proxy_port = proxy_port
        self._drain_grace_s = drain_grace_s
        self.sanitizer = create_sanitizer(sanitize)
        self.loop = EventLoopThread(
            name="proxy-harness", sanitizer=self.sanitizer
        )
        self.router: ProxyRouter | None = None
        self.server: ProxyServer | None = None
        self._started = False

    @property
    def proxy_endpoint(self) -> tuple[str, int]:
        """``(host, port)`` clients should connect to."""
        if self.server is None:
            raise ConfigurationError("proxy harness is not started")
        return self.server.endpoint

    def start(self) -> "ProxyHarness":
        """Boot backends, router, and the proxy listener; idempotent."""
        if self._started:
            return self
        self.backends.start()
        self.router = ProxyRouter(
            self.backends.endpoints,
            active=self._active,
            config=self._config,
            telemetry=self.telemetry,
        )
        self.server = ProxyServer(
            self.router,
            host=self._host,
            port=self._proxy_port,
            drain_grace_s=self._drain_grace_s,
            telemetry=self.telemetry,
        )
        self.loop.start()
        self.loop.call(self.server.start(), timeout=10.0)
        self._started = True
        return self

    def stop(self) -> None:
        """Stop the proxy, then the backends; idempotent.

        Teardown order matters: the listener stops taking new
        connections, then the router settles its background tasks and
        closes every pooled backend client *while the loop is still
        running* -- stopping the loop first would strand those pooled
        sockets open until garbage collection, which leaks fds across
        repeated setup/teardown cycles in one process (the regression
        ``tests/test_harness_teardown.py`` guards).
        """
        if not self._started:
            return
        if self.server is not None:
            self.loop.call(self.server.stop(), timeout=30.0)
        self.loop.stop()
        self.backends.stop()
        self._started = False

    def kill_backend(self, name: str) -> None:
        """Stop one backend's listener (data survives for restart)."""
        self.backends.stop_node(name)

    def restart_backend(self, name: str) -> tuple[str, int]:
        """Bring a killed backend's listener back on the same port."""
        return self.backends.start_node(name)

    def set_membership(self, members: Iterable[str]) -> None:
        """Switch the proxy ring synchronously (testing convenience)."""
        if self.router is None:
            raise ConfigurationError("proxy harness is not started")
        self.loop.call(
            self.router.update_membership(list(members)), timeout=10.0
        )

    def breaker_state(self, backend: str) -> str:
        """Current breaker state for ``backend`` (reads the gauge side)."""
        if self.router is None:
            raise ConfigurationError("proxy harness is not started")
        return self.router.breakers[backend].state

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "ProxyHarness":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
