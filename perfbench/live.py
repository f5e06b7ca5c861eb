"""The live workloads: a tier process under the open-loop driver.

The tier (``tier.py``) runs alone in one process and the driver runs in
this one, on one asyncio loop over at most two connections to the
proxy.  With two CPUs or more, each side is pinned to a CPU of its own.
The tier is booted and seeded several times; only the last boot takes
traffic.  ``live-read-zipf`` then runs its nominal rate and a ladder of
fixed rates; ``live-write-scalein`` runs its nominal rate and has the
tier scale in by one node a third of the way through.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from driver import FAILED, HIT, OK_STATUSES, STALE, Ledger, OpenLoopDriver, Record
from schedule import KeySpace, LiveSpec, build_ops, key_name
from stats import median, tail_quantile

HERE = os.path.dirname(os.path.abspath(__file__))
WARMUP_S = 3.0
"""Unmeasured traffic before the nominal phase."""
NOMINAL_SHARE = 0.55
"""Share of ``--seconds`` the nominal rate gets when a ladder follows."""
STEP_GETS = 1100
"""Gets per ladder rate: enough for a p99 with ten samples beyond it."""
LATENCY_LIMIT_MS = 50.0
"""Get p99 a ladder rate must stay within to count as sustained."""
FAILED_LIMIT = 0.01
"""Failed share a ladder rate must stay within."""
POST_SWITCH_S = 10.0
"""Window after the scale-in's membership switch."""


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def thread_count(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def split_cpus() -> tuple[int | None, int | None]:
    """A CPU for the driver and another for the tier, when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


@dataclass
class Tier:
    """A running tier process and its JSON-lines channel."""

    process: asyncio.subprocess.Process
    host: str
    port: int
    pid: int
    setup_s: float
    """CPU seconds the tier process spent until it was seeded and ready."""
    setup_wall_s: float
    log_path: str

    async def command(self, cmd: str) -> dict[str, Any]:
        stdin = self.process.stdin
        assert stdin is not None
        stdin.write(json.dumps({"cmd": cmd}).encode() + b"\n")
        await stdin.drain()
        return await _read_event(self.process)

    async def stop(self) -> dict[str, Any]:
        try:
            return await asyncio.wait_for(self.command("stop"), 60.0)
        except (ConnectionError, RuntimeError):
            await _reap(self.process)
            raise RuntimeError(
                f"tier process {self.pid} exited early with code "
                f"{self.process.returncode}; see {self.log_path}"
            )
        finally:
            await _reap(self.process)


async def _read_event(process: asyncio.subprocess.Process) -> dict[str, Any]:
    assert process.stdout is not None
    line = await process.stdout.readline()
    if not line:
        raise RuntimeError("tier process exited without answering")
    return json.loads(line)


async def _reap(process: asyncio.subprocess.Process) -> None:
    if process.returncode is None:
        try:
            await asyncio.wait_for(process.wait(), 30.0)
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()


async def boot_tier(
    root: str,
    spec: LiveSpec,
    seed: int,
    log_path: str,
    spans_path: str | None,
    cpu: int | None,
) -> Tier:
    """Start a tier process; return once it is seeded and serving."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    argv = [
        sys.executable,
        os.path.join(HERE, "tier.py"),
        "--workload",
        spec.name,
        "--seed",
        str(seed),
    ]
    if spans_path:
        argv += ["--spans", spans_path]
    if cpu is not None:
        argv += ["--cpu", str(cpu)]
    start = time.perf_counter()
    # The tier's log (tracebacks of dropped connections included) goes
    # to a file next to the results, not into the report.
    with open(log_path, "ab") as log:
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=log,
            env=env,
            cwd=root,
        )
    try:
        ready = await asyncio.wait_for(_read_event(process), 120.0)
    except BaseException:
        if process.returncode is None:
            process.kill()
        await process.wait()
        raise
    return Tier(
        process,
        ready["host"],
        ready["port"],
        ready["pid"],
        ready["cpu_s"],
        time.perf_counter() - start,
        log_path,
    )


# ----------------------------------------------------------------------
# Summaries of driver records
# ----------------------------------------------------------------------


def latency_summary(records: list[Record], kind: str) -> dict[str, Any]:
    """p50/p95/p99 (ms, from due time) of completed ``kind`` ops.

    Failed ops have no latency: they count in the failed share instead.
    A tail quantile is None unless ten samples lie beyond it.
    """
    values = [
        (r.done - r.due) * 1e3
        for r in records
        if r.op.kind == kind and r.status in OK_STATUSES
    ]
    summary: dict[str, Any] = {"samples": len(values)}
    if values:
        summary["p50_ms"] = median(values)
        summary["p95_ms"] = tail_quantile(values, 0.95)
        summary["p99_ms"] = tail_quantile(values, 0.99)
    return summary


def hit_ratio(records: list[Record]) -> float | None:
    """Hits over answered gets (a stale read counts as answered)."""
    gets = [r for r in records if r.op.kind == "get" and r.status != FAILED]
    if not gets:
        return None
    return sum(r.status in (HIT, STALE) for r in gets) / len(gets)


def failed_count(records: list[Record]) -> int:
    return sum(r.status in (FAILED, STALE) for r in records)


def lateness_ms(records: list[Record]) -> list[float]:
    return sorted((r.sent - r.due) * 1e3 for r in records if r.sent)


def rate_sustained(records: list[Record]) -> dict[str, Any]:
    """Whether one ladder rate met the latency, backlog and failure limits.

    A growing backlog shows as response times that climb through the
    step: the last quarter's median more than doubles the first's.
    """
    p99 = latency_summary(records, "get").get("p99_ms")
    failed = failed_count(records) / len(records)
    quarter = max(1, len(records) // 4)
    first = median([(r.done - r.due) * 1e3 for r in records[:quarter]])
    last = median([(r.done - r.due) * 1e3 for r in records[-quarter:]])
    growing = last > 2.0 * first + 5.0
    ok = (
        p99 is not None
        and p99 <= LATENCY_LIMIT_MS
        and not growing
        and failed <= FAILED_LIMIT
    )
    return {
        "get_p99_ms": p99,
        "failed_share": failed,
        "backlog_growing": growing,
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class LiveRun:
    """What one live run measured at the nominal rate, and around it."""

    setup_s: list[float]
    setup_wall_s: list[float]
    records: list[Record]
    tier_cpu_s: float
    driver_cpu_s: float
    reconnects: int
    corrupt: list[str]
    tier_pid: int
    tier_threads: int
    counters: dict[str, Any]
    ladder: dict[str, Any] | None = None
    scalein: dict[str, Any] | None = None
    completed: int = field(init=False)
    stale_reads: int = field(init=False)

    def __post_init__(self) -> None:
        self.completed = sum(r.status in OK_STATUSES for r in self.records)
        self.stale_reads = sum(r.status == STALE for r in self.records)


async def run_live(
    root: str,
    spec: LiveSpec,
    seed: int,
    seconds: float,
    setups: int,
    spans: str | None = None,
) -> LiveRun:
    """Boot the tier ``setups`` times and drive the last boot."""
    keyspace = KeySpace(spec, seed)
    ledger = Ledger()
    for index in range(spec.num_keys):
        ledger.seeded(key_name(index), spec.value_bytes)
    driver_cpu, tier_cpu = split_cpus()
    affinity = os.sched_getaffinity(0)
    if driver_cpu is not None:
        os.sched_setaffinity(0, {driver_cpu})
    log_path = os.path.join(
        root, ".perfbench_out", f"tier-{spec.name}-{seed}.log"
    )
    with open(log_path, "wb"):
        pass  # one log per workload and seed
    try:
        setup_times: list[tuple[float, float]] = []
        for attempt in range(setups):
            last = attempt == setups - 1
            tier = await boot_tier(
                root, spec, seed, log_path, spans if last else None, tier_cpu
            )
            setup_times.append((tier.setup_s, tier.setup_wall_s))
            if not last:
                await tier.stop()
        return await _drive(
            tier, spec, seed, seconds, keyspace, ledger, setup_times
        )
    finally:
        os.sched_setaffinity(0, affinity)


async def _drive(
    tier: Tier,
    spec: LiveSpec,
    seed: int,
    seconds: float,
    keyspace: KeySpace,
    ledger: Ledger,
    setup_times: list[tuple[float, float]],
) -> LiveRun:
    driver = OpenLoopDriver(tier.host, tier.port, ledger)
    ladder = scalein = None
    # The driver's own garbage collection would stall sends; it runs
    # before and after the traffic instead of during it.
    gc.collect()
    gc.disable()
    try:
        await driver.start()
        clock = time.monotonic
        warm = build_ops(keyspace, spec.rate, WARMUP_S, seed, phase=0)
        await driver.run(warm, clock() + 0.01)

        nominal_s = seconds * (NOMINAL_SHARE if spec.ladder else 1.0)
        ops = build_ops(keyspace, spec.rate, nominal_s, seed, phase=1)
        threads = thread_count(tier.pid)
        cpu0, driver_cpu0 = process_cpu_s(tier.pid), time.process_time()
        start = clock() + 0.01
        if spec.scalein:
            run = asyncio.ensure_future(driver.run(ops, start))
            await asyncio.sleep(max(0.0, start + nominal_s / 3 - clock()))
            scale = await tier.command("scalein")
            records = await run
            scalein = scale if "error" in scale else _scalein_summary(scale, records)
        else:
            records = await driver.run(ops, start)
        cpu1, driver_cpu1 = process_cpu_s(tier.pid), time.process_time()
        if spec.ladder:
            ladder = await _ladder(
                driver, keyspace, spec, seed, seconds - nominal_s
            )
    finally:
        gc.enable()
        await driver.close()
        counters = await tier.stop()
    return LiveRun(
        setup_s=[cpu for cpu, _ in setup_times],
        setup_wall_s=[wall for _, wall in setup_times],
        records=records,
        tier_cpu_s=cpu1 - cpu0,
        driver_cpu_s=driver_cpu1 - driver_cpu0,
        reconnects=driver.reconnects,
        corrupt=ledger.corrupt,
        tier_pid=tier.pid,
        tier_threads=threads,
        counters=counters,
        ladder=ladder,
        scalein=scalein,
    )


async def _ladder(
    driver: OpenLoopDriver,
    keyspace: KeySpace,
    spec: LiveSpec,
    seed: int,
    budget_s: float,
) -> dict[str, Any]:
    """Run fixed rates upward until one fails or the budget is spent."""
    steps = []
    best = None
    used = 0.0
    for phase, rate in enumerate(spec.ladder, start=2):
        step_s = max(1.0, STEP_GETS / (rate * spec.get_share))
        if used + step_s > budget_s:
            break
        used += step_s
        ops = build_ops(keyspace, rate, step_s, seed, phase=phase)
        records = await driver.run(ops, time.monotonic() + 0.05)
        step = rate_sustained(records)
        step["rate"] = rate
        steps.append(step)
        if not step["ok"]:
            break
        best = rate
        await asyncio.sleep(0.2)
    return {"steps": steps, "max_rate_ok": best}


def _scalein_summary(
    scale: dict[str, Any], records: list[Record]
) -> dict[str, Any]:
    """Scale-in timing and the gets around it.

    The tier stamps ``plan_start`` and ``switch_at`` with
    ``time.monotonic()``, the system-wide clock the driver times ops on.
    """
    plan_start, switch_at = scale["plan_start"], scale["switch_at"]
    end = switch_at + POST_SWITCH_S
    window = [r for r in records if plan_start <= r.due <= end]
    post = [r for r in records if switch_at <= r.due <= end]
    return {
        **scale,
        "scalein_s": switch_at - plan_start,
        "window_get": latency_summary(window, "get"),
        "post_switch_hit_ratio": hit_ratio(post),
        "post_switch_covered_s": min(
            POST_SWITCH_S, records[-1].due - switch_at
        ),
    }
