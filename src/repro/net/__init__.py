"""Live asyncio TCP tier for the ElMem reproduction.

Everything else in this repository models the Memcached tier in-process;
this package runs it over real sockets:

- :mod:`repro.net.server` -- an asyncio TCP server fronting one
  :class:`~repro.memcached.node.MemcachedNode` with the incremental
  text-protocol parser (chunk-safe reads, pipelined requests,
  per-connection write batching, graceful drain on shutdown), plus a
  harness that boots a whole localhost cluster;
- :mod:`repro.net.client` -- an asyncio client with connection pooling,
  request pipelining, and timeout/retry behaviour built on
  :class:`~repro.core.retry.RetryPolicy`;
- :mod:`repro.net.cluster` -- :class:`~repro.net.cluster.LiveCluster`,
  the :class:`~repro.memcached.cluster.MemcachedCluster` whose nodes are
  :class:`~repro.net.cluster.RemoteNode` objects over sockets, so the
  existing :class:`~repro.core.master.Master` executes a real
  three-phase migration over TCP;
- :mod:`repro.net.livemigrate` -- a scripted live scale-in used by the
  CLI (``repro live-migrate``) and CI, which optionally verifies the
  socket path against the in-process path byte for byte;
- :mod:`repro.net.procs` -- :class:`~repro.net.procs.ProcessClusterHarness`,
  a process supervisor that runs one :class:`~repro.net.server.NodeServer`
  per OS process (spawn-safe entrypoint, pipe readiness handshake,
  SIGTERM drain, crash detection + restart hooks), so the cluster is
  shared-nothing and actually scales across cores.

Unlike ``repro.sim``, nothing here is simulated: durations are wall
clock, transfers move real bytes, and failures are real socket errors
(surfaced as :class:`~repro.errors.TransportError` once retries are
exhausted).
"""

from __future__ import annotations

from repro.net.client import NodeClient
from repro.net.cluster import LiveCluster, RemoteNode
from repro.net.livemigrate import LiveMigrationResult, run_live_migration
from repro.net.procs import CrashEvent, ProcessClusterHarness
from repro.net.runtime import EventLoopThread
from repro.net.server import LiveClusterHarness, NodeServer

__all__ = [
    "CrashEvent",
    "EventLoopThread",
    "LiveCluster",
    "LiveClusterHarness",
    "LiveMigrationResult",
    "NodeClient",
    "NodeServer",
    "ProcessClusterHarness",
    "RemoteNode",
    "run_live_migration",
]
