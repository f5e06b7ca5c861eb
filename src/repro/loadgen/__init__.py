"""Open-loop socket load generation for the live tier.

Closed-loop load generators (issue, wait, issue again) suffer from
*coordinated omission*: when the server stalls, the generator stalls
with it, so the very requests that would have seen the stall are never
issued and the measured tail is fiction.  This package drives the live
cluster **open loop**: every request has a send deadline fixed up front
by :func:`~repro.loadgen.schedule.build_schedule`, latency is measured
from that *scheduled* time, and a send that leaves late because the
backend or the generator fell behind is *recorded as late* -- never
silently rescheduled.

- :mod:`repro.loadgen.schedule` -- deterministic request tape: fixed-rate
  (optionally :class:`~repro.workloads.traces.RateTrace`-shaped)
  deadlines over a Zipf-popular key space, plus the tape digest the
  determinism tests compare;
- :mod:`repro.loadgen.driver` -- :class:`~repro.loadgen.driver.LoadGenerator`,
  the asyncio dispatcher: tick-batched pipelined sends through
  :class:`~repro.net.client.NodeClient`, ketama routing with live
  membership swaps, lateness/response/service histograms from
  :mod:`repro.obs.metrics`;
- :mod:`repro.loadgen.report` -- the JSON report schema
  (:class:`~repro.loadgen.report.LoadReport`) with a round-trippable
  ``to_dict``/``from_dict`` pair;
- :mod:`repro.loadgen.runner` -- :class:`~repro.loadgen.runner.LiveScenario`,
  the one live scenario runner (harness + optional tape + timed events)
  with the one :func:`~repro.loadgen.runner.degradation_window`, and
  the steady-state and scale-in-under-load runs over it.
"""

from __future__ import annotations

from repro.loadgen.driver import LoadGenerator
from repro.loadgen.report import LoadReport
from repro.loadgen.runner import run_load, run_load_migration
from repro.loadgen.schedule import (
    ScheduledOp,
    build_schedule,
    payload_for,
    tape_rows,
    tape_sha256,
)

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "ScheduledOp",
    "build_schedule",
    "payload_for",
    "run_load",
    "run_load_migration",
    "tape_rows",
    "tape_sha256",
]
