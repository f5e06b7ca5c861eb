"""A background asyncio event loop that synchronous code can drive.

The simulator, the Master, and the test suite are synchronous; the live
TCP tier is asyncio.  :class:`EventLoopThread` bridges the two: it runs
one event loop in a daemon thread and lets synchronous callers submit
coroutines and block on their results.  Both the server harness and
:class:`~repro.net.cluster.LiveCluster` own one, so servers and clients
run on separate loops and talk over real sockets even inside a single
test process.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import TYPE_CHECKING, Any, Coroutine

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.check.loopcheck import LoopSanitizer

RECV_CHUNK = 65536
"""Bytes per socket read on every live connection.  Each connection
reads into one preallocated buffer of this size (``BufferedProtocol``),
so a read allocates nothing."""


class EventLoopThread:
    """One asyncio event loop running in a daemon thread.

    Usage::

        loop = EventLoopThread(name="live-cluster")
        loop.start()
        result = loop.call(some_coroutine())   # blocks the caller
        loop.stop()

    An optional :class:`~repro.check.loopcheck.LoopSanitizer` is
    installed on the loop at startup (asyncio debug mode, slow-callback
    reporting, blocking-call trap) and detached when the loop stops.
    """

    def __init__(
        self,
        name: str = "repro-net",
        sanitizer: "LoopSanitizer | None" = None,
    ) -> None:
        self.name = name
        self.sanitizer = sanitizer
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the loop thread is alive and serving."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "EventLoopThread":
        """Start the loop thread; idempotent."""
        if self.running:
            return self
        self._thread = threading.Thread(
            target=self._run, name=self.name, daemon=True
        )
        self._started.clear()
        self._thread.start()
        self._started.wait(timeout=5.0)
        if self._loop is None:
            raise ConfigurationError(
                f"event loop thread {self.name!r} failed to start"
            )
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        if self.sanitizer is not None:
            self.sanitizer.install(loop)
        self._loop = loop
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # Give cancelled tasks one chance to unwind, then close.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            if self.sanitizer is not None:
                self.sanitizer.uninstall(loop)
            loop.close()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the loop and join the thread; idempotent."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=timeout)
        self._loop = None
        self._thread = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, coro: Coroutine[Any, Any, Any]
    ) -> concurrent.futures.Future:
        """Schedule ``coro`` on the loop; returns a concurrent Future."""
        if self._loop is None:
            coro.close()
            raise ConfigurationError(
                f"event loop thread {self.name!r} is not running"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def call(
        self, coro: Coroutine[Any, Any, Any], timeout: float | None = None
    ) -> Any:
        """Run ``coro`` on the loop and block until its result."""
        return self.submit(coro).result(timeout=timeout)

    # -- context manager -------------------------------------------------

    def __enter__(self) -> "EventLoopThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
