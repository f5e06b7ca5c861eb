"""The ElMem Master (Sections III-A, III-C, III-D).

The Master is the lightweight central controller: it receives autoscaling
hints, picks which node(s) to retire via median-hotness scoring, and
orchestrates the three-phase migration:

1. **Metadata transfer** -- retiring Agents hash their keys against the
   *retained* membership and ship ``(key, timestamp)`` lists (not values)
   to their targets.
2. **Hotness comparison** -- each retained Agent runs FuseCache over the
   incoming per-slab lists plus its own, yielding exactly how many items
   to pull from each retiring node.
3. **Data migration** -- retiring Agents pipe the chosen KV pairs to the
   retained nodes, whose Agents batch-import them, evicting colder local
   items.

Planning (:meth:`Master.plan_scale_in` / :meth:`Master.plan_scale_out`)
is separated from execution (:meth:`Master.execute`) so the simulator can
compute the migration at decision time, let the cluster keep serving for
the migration's duration, and only then apply the membership switch --
matching the paper's timeline where ElMem scales ~2 minutes after the
baseline would have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.agent import Agent
from repro.core.fusecache import fuse_cache_detailed
from repro.core.retry import RetryPolicy
from repro.core.scoring import choose_nodes_to_retire
from repro.errors import (
    ConfigurationError,
    MigrationAbortedError,
    MigrationError,
    TransportError,
)
from repro.memcached.cluster import MemcachedCluster
from repro.memcached.node import MemcachedNode
from repro.netsim.transfer import Flow, NetworkModel
from repro.obs import NULL_SPAN, NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.hashing.ketama import ConsistentHashRing


@dataclass
class PhaseTimings:
    """Modeled wall-clock seconds per migration phase (paper V-B2).

    ``retry_s`` is filled in at *execution* time: backoff waits and the
    duration of failed flow attempts, which the paper's fault-free
    testbed never pays.
    """

    scoring_s: float = 0.0
    dump_s: float = 0.0
    metadata_transfer_s: float = 0.0
    fusecache_s: float = 0.0
    data_transfer_s: float = 0.0
    import_s: float = 0.0
    retry_s: float = 0.0

    @property
    def total_s(self) -> float:
        """End-to-end migration overhead."""
        return (
            self.scoring_s
            + self.dump_s
            + self.metadata_transfer_s
            + self.fusecache_s
            + self.data_transfer_s
            + self.import_s
            + self.retry_s
        )

    def breakdown(self) -> dict[str, float]:
        """Named phase durations, for the overhead-breakdown benchmark."""
        return {
            "scoring": self.scoring_s,
            "hash_and_dump": self.dump_s,
            "metadata_transfer": self.metadata_transfer_s,
            "fusecache": self.fusecache_s,
            "data_migration": self.data_transfer_s,
            "import": self.import_s,
            "retries": self.retry_s,
            "total": self.total_s,
        }


@dataclass
class MigrationPlan:
    """A fully-computed migration, ready to execute.

    ``transfers[(src, dst)]`` lists the keys to move, hottest first.
    """

    kind: str  # "scale_in" | "scale_out"
    retiring: list[str]
    retained: list[str]
    new_nodes: list[str]
    transfers: dict[tuple[str, str], list[str]]
    timings: PhaseTimings
    import_mode: str | None = None  # overrides the Master's default
    # Keys each node deletes before imports arrive (Naive's room-making:
    # "the coldest x/n fraction of items of all nodes can be discarded").
    pre_deletes: dict[str, list[str]] = field(default_factory=dict)
    items_to_migrate: int = 0
    bytes_to_migrate: int = 0
    metadata_bytes: int = 0
    fusecache_rounds: int = 0
    fusecache_comparisons: int = 0
    # Telemetry span tree for this migration; NULL_SPAN when tracing is
    # off.  Opened at plan time, closed when execution finishes.
    span: object = field(default=NULL_SPAN, repr=False, compare=False)

    @property
    def duration_s(self) -> float:
        """Seconds from the scaling decision until membership can switch."""
        return self.timings.total_s


OUTCOME_WARM = "warm"
OUTCOME_PARTIAL = "partial"
OUTCOME_COLD = "cold"


@dataclass
class MigrationReport:
    """What actually happened when a plan was executed.

    Under fault injection the report is the primary experimental output:
    it records every retry, every flow that failed for good, every pair
    skipped because a node died, and whether the scaling action completed
    ``"warm"`` (every planned pair moved), ``"partial"`` (some data
    arrived), or ``"cold"`` (the warm-up was lost but membership still
    switched -- the paper's baseline behaviour, correctness preserved).
    """

    plan: MigrationPlan
    items_exported: int = 0
    items_imported: int = 0
    membership_after: list[str] = field(default_factory=list)
    # (src, dst) pairs whose transfer was skipped because a node died
    # between planning and execution.
    skipped_pairs: list[tuple[str, str]] = field(default_factory=list)
    # (src, dst) pairs whose flow kept failing until retries ran out.
    failed_flows: list[tuple[str, str]] = field(default_factory=list)
    # (src, dst) pairs never attempted because the deadline fired first.
    unattempted_pairs: list[tuple[str, str]] = field(default_factory=list)
    completed_pairs: int = 0
    retries: int = 0
    retry_time_s: float = 0.0
    outcome: str = OUTCOME_WARM
    abort_reason: str | None = None
    executed_at: float = 0.0
    # Simulated seconds phase 3 actually took, retries and stalls included.
    actual_duration_s: float = 0.0

    @property
    def degraded(self) -> bool:
        """True unless every planned pair migrated cleanly."""
        return self.outcome != OUTCOME_WARM

    def classify(self) -> str:
        """Derive :attr:`outcome` from the recorded pair bookkeeping."""
        lost = (
            len(self.skipped_pairs)
            + len(self.failed_flows)
            + len(self.unattempted_pairs)
        )
        if lost == 0:
            return OUTCOME_WARM
        if self.completed_pairs == 0:
            return OUTCOME_COLD
        return OUTCOME_PARTIAL


class Master:
    """Central migration coordinator for one Memcached cluster.

    Parameters
    ----------
    cluster:
        The Memcached tier to manage.
    network:
        Transfer-time model; defaults to a 1 Gbit fabric.
    import_mode:
        ``"merge"`` keeps MRU lists timestamp-sorted (default);
        ``"prepend"`` reproduces the paper's head insertion exactly.
    dump_rate_items_s / import_rate_items_s:
        Modeled throughput of the timestamp-dump+hash and batch-import
        commands (local CPU/disk cost).
    scoring_time_per_node_s:
        Modeled cost of collecting median reports from one node.
    comparison_time_s:
        Modeled cost per FuseCache timestamp comparison.
    retry_policy:
        Backoff schedule for failed data flows (phase 3).
    deadline_s:
        Budget for phase 3, measured from the moment :meth:`execute`
        starts.  Once retries, stalls, and timeouts push the modeled
        clock past it, the remaining warm-up is abandoned and the
        migration degrades to cold scaling (``on_deadline="degrade"``,
        the default) or raises
        :class:`~repro.errors.MigrationAbortedError`
        (``on_deadline="raise"``).  ``None`` disables the deadline.
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; consulted
        for node stalls and advanced as execution's modeled clock moves,
        so faults scheduled mid-migration land mid-migration.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`.  When enabled, every
        planned migration records a span tree
        (``migration -> plan -> scoring/dump/fusecache`` at plan time,
        ``import``/per-pair/``switch`` at execution) plus counters and
        phase-duration histograms; disabled (the default) it is all
        no-ops.
    strict_mode:
        When true, a :class:`~repro.check.strict.StrictChecker` runs the
        cheap invariant validators after each migration phase: LRU-list
        integrity and slab accounting on every node a plan touches
        (plan and import phases), target-ring structure at plan time,
        and live-ring consistency after the membership switch.  A
        failing check raises
        :class:`~repro.errors.InvariantViolation` with a structured
        diff.  MRU timestamp-monotonicity is only enforced while every
        executed import has used ``merge`` mode -- ``prepend`` (the
        paper's head insertion) deliberately gives that ordering up.
    """

    def __init__(
        self,
        cluster: MemcachedCluster,
        network: NetworkModel | None = None,
        import_mode: str = "merge",
        dump_rate_items_s: float = 100_000.0,
        import_rate_items_s: float = 500_000.0,
        scoring_time_per_node_s: float = 0.2,
        comparison_time_s: float = 2e-6,
        retry_policy: RetryPolicy | None = None,
        deadline_s: float | None = None,
        on_deadline: str = "degrade",
        fault_injector: "FaultInjector | None" = None,
        telemetry: Telemetry | None = None,
        strict_mode: bool = False,
    ) -> None:
        if on_deadline not in ("degrade", "raise"):
            raise ConfigurationError(
                f"on_deadline must be 'degrade' or 'raise', got {on_deadline!r}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")
        self.cluster = cluster
        self.network = network or NetworkModel()
        self.import_mode = import_mode
        self.dump_rate_items_s = dump_rate_items_s
        self.import_rate_items_s = import_rate_items_s
        self.scoring_time_per_node_s = scoring_time_per_node_s
        self.comparison_time_s = comparison_time_s
        self.retry_policy = retry_policy or RetryPolicy()
        self.deadline_s = deadline_s
        self.on_deadline = on_deadline
        self.fault_injector = fault_injector
        self.telemetry = telemetry or NULL_TELEMETRY
        self.strict_mode = strict_mode
        self.strict_checker = None
        if strict_mode:
            if not all(
                isinstance(node, MemcachedNode)
                for node in cluster.nodes.values()
            ):
                raise ConfigurationError(
                    "strict_mode requires in-process MemcachedNodes; "
                    "the invariant validators read private cache state a "
                    "live cluster cannot expose"
                )
            from repro.check.strict import StrictChecker

            self.strict_checker = StrictChecker(
                cluster, telemetry=self.telemetry
            )
        # Whether every MRU list is still timestamp-sorted: true until a
        # non-merge import lands, after which the sortedness invariant is
        # no longer checkable (the paper's prepend import gives it up).
        self._mru_sorted = True
        # Membership-change consumers (proxy routers, dashboards):
        # called with the post-switch member list after every migration.
        self._membership_listeners: list[Callable[[list[str]], None]] = []

    def subscribe_membership(
        self, listener: Callable[[list[str]], None]
    ) -> None:
        """Register a callback for post-switch membership changes.

        ``listener`` receives the sorted active member list after every
        executed migration's switch phase -- the hook a proxy tier uses
        to swap its routing ring the moment the Master commits a scale
        event.  Listeners are invoked synchronously in subscription
        order; a listener that raises aborts the migration report with
        its own exception (the switch itself has already committed), so
        listeners are expected to be robust.
        """
        self._membership_listeners.append(listener)

    def unsubscribe_membership(
        self, listener: Callable[[list[str]], None]
    ) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        if listener in self._membership_listeners:
            self._membership_listeners.remove(listener)

    def _notify_membership(self, members: list[str]) -> None:
        for listener in list(self._membership_listeners):
            listener(list(members))

    def agent(self, name: str) -> Agent:
        """The Agent on node ``name``."""
        return Agent(self.cluster.nodes[name])

    # ------------------------------------------------------------------
    # Q2: which nodes to retire
    # ------------------------------------------------------------------

    def choose_retiring(self, count: int) -> list[str]:
        """Pick ``count`` nodes with the coldest median-hotness scores."""
        return choose_nodes_to_retire(self.cluster.active_nodes, count)

    # ------------------------------------------------------------------
    # Scale-in planning
    # ------------------------------------------------------------------

    def plan_scale_in(
        self, retiring: list[str], include_scoring: bool = True, now: float = 0.0
    ) -> MigrationPlan:
        """Compute the three-phase migration for retiring ``retiring``.

        Runs phases 1 and 2 for real (metadata grouping + FuseCache) and
        *models* their wall-clock cost; phase 3 (the bulk data move) is
        deferred to :meth:`execute`.  ``now`` anchors the migration's
        telemetry span tree on the sim clock.
        """
        active = set(self.cluster.active_members)
        unknown = [name for name in retiring if name not in active]
        if unknown:
            raise MigrationError(f"cannot retire inactive nodes: {unknown}")
        retained = sorted(active - set(retiring))
        if not retained:
            raise MigrationError("cannot retire every node")

        timings = PhaseTimings()
        if include_scoring:
            timings.scoring_s = self.scoring_time_per_node_s * len(active)

        target_ring = self.cluster.ring_for(retained)
        plan = MigrationPlan(
            kind="scale_in",
            retiring=sorted(retiring),
            retained=retained,
            new_nodes=[],
            transfers={},
            timings=timings,
        )
        span = self.telemetry.tracer.root(
            "migration",
            sim_s=now,
            kind="scale_in",
            retiring=plan.retiring,
            retained=retained,
        )
        plan_span = span.child("plan", sim_s=now)
        scoring_span = plan_span.child("scoring") if include_scoring else None
        if scoring_span is not None:
            scoring_span.end()

        # Phase 1: retiring agents dump, hash, and ship metadata.
        # incoming[dst][class_id] = [(src, [(key, ts), ...]), ...]
        dump_span = plan_span.child("dump")
        incoming: dict[str, dict[int, list[tuple[str, list[tuple[str, float]]]]]]
        incoming = {name: {} for name in retained}
        metadata_flows: list[Flow] = []
        max_dump_s = 0.0
        for src in plan.retiring:
            agent = self.agent(src)
            grouped = agent.dump_and_hash(target_ring)
            max_dump_s = max(
                max_dump_s, len(agent.node) / self.dump_rate_items_s
            )
            for dst, per_class in grouped.items():
                size = Agent.metadata_bytes(per_class)
                plan.metadata_bytes += size
                if size > 0:
                    metadata_flows.append(Flow(src, dst, size))
                for class_id, entries in per_class.items():
                    incoming[dst].setdefault(class_id, []).append(
                        (src, entries)
                    )
        timings.dump_s = max_dump_s
        timings.metadata_transfer_s = self.network.phase_time(metadata_flows)
        dump_span.end()

        # Phase 2: each retained agent runs FuseCache per slab class.
        fusecache_span = plan_span.child("fusecache")
        import_load: dict[str, int] = {name: 0 for name in retained}
        for dst in retained:
            dst_agent = self.agent(dst)
            for class_id, sources in incoming[dst].items():
                lists = [
                    [ts for _, ts in entries] for _, entries in sources
                ]
                lists.append(dst_agent.sorted_timestamps(class_id))
                capacity = dst_agent.slab_capacity_items(class_id)
                if capacity == 0:
                    capacity = sum(len(lst) for lst in lists)
                result = fuse_cache_detailed(lists, capacity)
                plan.fusecache_rounds += result.rounds
                plan.fusecache_comparisons += result.comparisons
                for index, (src, entries) in enumerate(sources):
                    take = result.topick[index]
                    if take == 0:
                        continue
                    keys = [key for key, _ in entries[:take]]
                    plan.transfers.setdefault((src, dst), []).extend(keys)
                    import_load[dst] += take
        timings.fusecache_s = (
            plan.fusecache_comparisons * self.comparison_time_s
        )
        fusecache_span.end()

        self._price_data_phase(plan, import_load)
        self._finish_plan_trace(
            plan, now, span, plan_span, scoring_span, dump_span, fusecache_span
        )
        self._strict_plan_check(plan, target_ring)
        return plan

    # ------------------------------------------------------------------
    # Scale-out planning
    # ------------------------------------------------------------------

    def plan_scale_out(
        self, new_names: list[str], now: float = 0.0
    ) -> MigrationPlan:
        """Compute the migration that warms ``new_names`` before activation.

        New nodes are provisioned (cold, off-ring) here.  Existing nodes
        hash their keys against the scaled-out membership; under
        consistent hashing only ~1/(k+1) of keys move, so normally *all*
        hashed pairs migrate (Section III-D4).  FuseCache trims the set
        only in the rare case it exceeds the new node's capacity.
        """
        if not new_names:
            raise MigrationError("no new nodes given")
        existing = sorted(self.cluster.active_members)
        for name in new_names:
            if name in self.cluster.nodes:
                raise MigrationError(f"node {name!r} already exists")
        for name in new_names:
            self.cluster.provision(name)

        members_after = existing + sorted(new_names)
        target_ring = self.cluster.ring_for(members_after)
        plan = MigrationPlan(
            kind="scale_out",
            retiring=[],
            retained=existing,
            new_nodes=sorted(new_names),
            transfers={},
            timings=PhaseTimings(),
        )
        span = self.telemetry.tracer.root(
            "migration",
            sim_s=now,
            kind="scale_out",
            new_nodes=plan.new_nodes,
            retained=existing,
        )
        plan_span = span.child("plan", sim_s=now)
        dump_span = plan_span.child("dump")

        new_set = set(new_names)
        incoming: dict[str, dict[int, list[tuple[str, list[tuple[str, float]]]]]]
        incoming = {name: {} for name in new_names}
        max_dump_s = 0.0
        for src in existing:
            agent = self.agent(src)
            grouped = agent.dump_and_hash(target_ring)
            max_dump_s = max(
                max_dump_s, len(agent.node) / self.dump_rate_items_s
            )
            for dst, per_class in grouped.items():
                if dst not in new_set:
                    # Ketama can slightly reshuffle among existing nodes;
                    # those keys are left in place (they re-warm on miss).
                    continue
                for class_id, entries in per_class.items():
                    incoming[dst].setdefault(class_id, []).append(
                        (src, entries)
                    )
        plan.timings.dump_s = max_dump_s
        dump_span.end()

        fusecache_span = plan_span.child("fusecache")
        import_load: dict[str, int] = {name: 0 for name in new_names}
        for dst in new_names:
            dst_agent = self.agent(dst)
            for class_id, sources in incoming[dst].items():
                total_incoming = sum(len(entries) for _, entries in sources)
                capacity = dst_agent.slab_capacity_items(class_id)
                if capacity and total_incoming > capacity:
                    lists = [
                        [ts for _, ts in entries] for _, entries in sources
                    ]
                    result = fuse_cache_detailed(lists, capacity)
                    plan.fusecache_rounds += result.rounds
                    plan.fusecache_comparisons += result.comparisons
                    picks = result.topick
                else:
                    picks = [len(entries) for _, entries in sources]
                for index, (src, entries) in enumerate(sources):
                    take = picks[index]
                    if take == 0:
                        continue
                    keys = [key for key, _ in entries[:take]]
                    plan.transfers.setdefault((src, dst), []).extend(keys)
                    import_load[dst] += take
        plan.timings.fusecache_s = (
            plan.fusecache_comparisons * self.comparison_time_s
        )
        fusecache_span.end()

        self._price_data_phase(plan, import_load)
        self._finish_plan_trace(
            plan, now, span, plan_span, None, dump_span, fusecache_span
        )
        self._strict_plan_check(plan, target_ring)
        return plan

    # ------------------------------------------------------------------
    # Naive fraction-based planning (Section V-B4 comparison)
    # ------------------------------------------------------------------

    def plan_fraction_scale_in(
        self, retiring: list[str], keep_fraction: float, now: float = 0.0
    ) -> MigrationPlan:
        """Plan the *Naive* migration: hottest ``keep_fraction`` of each
        retiring node's items, regardless of the targets' contents.

        No metadata exchange and no FuseCache -- Naive assumes the hotness
        distribution is identical across every node, so "the coldest
        ``1 - keep_fraction`` fraction of items of all nodes can be
        discarded" (Section V-B4): victims ship their hottest
        ``keep_fraction``, and every *retained* node pre-deletes its own
        coldest ``1 - keep_fraction`` to make room.  When node
        temperatures actually differ, a hot retained node throws away
        items that are hotter than the junk it receives -- the failure
        mode Fig. 8 demonstrates.
        """
        if not 0.0 <= keep_fraction <= 1.0:
            raise MigrationError(
                f"keep_fraction must be in [0, 1], got {keep_fraction}"
            )
        active = set(self.cluster.active_members)
        unknown = [name for name in retiring if name not in active]
        if unknown:
            raise MigrationError(f"cannot retire inactive nodes: {unknown}")
        retained = sorted(active - set(retiring))
        if not retained:
            raise MigrationError("cannot retire every node")

        target_ring = self.cluster.ring_for(retained)
        plan = MigrationPlan(
            kind="scale_in",
            retiring=sorted(retiring),
            retained=retained,
            new_nodes=[],
            transfers={},
            timings=PhaseTimings(),
        )
        span = self.telemetry.tracer.root(
            "migration",
            sim_s=now,
            kind="scale_in",
            strategy="fraction",
            retiring=plan.retiring,
            keep_fraction=keep_fraction,
        )
        plan_span = span.child("plan", sim_s=now)
        dump_span = plan_span.child("dump")
        import_load: dict[str, int] = {name: 0 for name in retained}
        max_dump_s = 0.0
        for src in plan.retiring:
            node = self.cluster.nodes[src]
            max_dump_s = max(
                max_dump_s, len(node) / self.dump_rate_items_s
            )
            for class_id in node.active_class_ids():
                items = node.items_in_mru_order(class_id)
                take = int(len(items) * keep_fraction)
                for item in items[:take]:
                    dst = target_ring.node_for_key(item.key)
                    plan.transfers.setdefault((src, dst), []).append(
                        item.key
                    )
                    import_load[dst] += 1
        # Room-making under the uniform-hotness assumption: every
        # retained node drops its own coldest (1 - keep_fraction).
        for name in retained:
            node = self.cluster.nodes[name]
            doomed: list[str] = []
            for class_id in node.active_class_ids():
                items = node.items_in_mru_order(class_id)
                keep = int(len(items) * keep_fraction)
                doomed.extend(item.key for item in items[keep:])
            if doomed:
                plan.pre_deletes[name] = doomed
        plan.timings.dump_s = max_dump_s
        dump_span.end()
        self._price_data_phase(plan, import_load)
        self._finish_plan_trace(plan, now, span, plan_span, None, dump_span, None)
        self._strict_plan_check(plan, target_ring)
        return plan

    def _strict_plan_check(
        self, plan: MigrationPlan, target_ring: "ConsistentHashRing"
    ) -> None:
        """Strict mode: validate planning left every structure intact."""
        checker = self.strict_checker
        if checker is None:
            return
        names = plan.retiring + plan.retained + plan.new_nodes
        checker.check_nodes(
            "plan", names, require_sorted=self._mru_sorted
        )
        checker.check_target_ring("plan", target_ring)

    def _finish_plan_trace(
        self,
        plan: MigrationPlan,
        now: float,
        span: Any,
        plan_span: Any,
        scoring_span: Any,
        dump_span: Any,
        fusecache_span: Any,
    ) -> None:
        """Pin the plan-phase spans to the modeled sim timeline.

        Wall clocks were measured live while planning ran; the sim
        windows come from the calibrated :class:`PhaseTimings`, laid out
        sequentially from the decision time ``now`` (the paper's
        scoring -> dump -> fusecache pipeline).
        """
        timings = plan.timings
        cursor = now
        if scoring_span is not None:
            scoring_span.sim_window(cursor, cursor + timings.scoring_s)
        cursor += timings.scoring_s
        dump_phase_s = timings.dump_s + timings.metadata_transfer_s
        dump_span.sim_window(cursor, cursor + dump_phase_s)
        dump_span.set(
            dump_s=timings.dump_s,
            metadata_transfer_s=timings.metadata_transfer_s,
            metadata_bytes=plan.metadata_bytes,
        )
        cursor += dump_phase_s
        if fusecache_span is not None:
            fusecache_span.sim_window(cursor, cursor + timings.fusecache_s)
            fusecache_span.set(
                rounds=plan.fusecache_rounds,
                comparisons=plan.fusecache_comparisons,
            )
        cursor += timings.fusecache_s
        plan_span.end(sim_s=cursor)
        span.set(
            items_to_migrate=plan.items_to_migrate,
            bytes_to_migrate=plan.bytes_to_migrate,
            pairs=len(plan.transfers),
        )
        plan.span = span
        metrics = self.telemetry.metrics
        metrics.counter(
            "migrations_planned_total",
            "Migration plans computed",
            kind=plan.kind,
        ).inc()
        metrics.counter(
            "fusecache_comparisons_total",
            "Timestamp comparisons spent in FuseCache",
        ).inc(plan.fusecache_comparisons)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, plan: MigrationPlan, now: float = 0.0) -> MigrationReport:
        """Run phase 3 resiliently and switch membership.

        Keys evicted since planning are skipped (the protocol tolerates
        drift between the metadata snapshot and the data move).  Each
        (src, dst) pair's data flow runs under the fault model: failed
        flows are retried per :attr:`retry_policy` with modeled backoff,
        node stalls stretch dump/import time, and everything is charged
        against :attr:`deadline_s`.  When the deadline fires, remaining
        pairs are abandoned and the scaling action completes cold --
        membership still switches, because a late warm-up must never
        block the resize itself.  For scale-in, retiring nodes are
        destroyed after the switch; for scale-out, the new nodes are
        activated after their import.
        """
        mode = plan.import_mode or self.import_mode
        report = MigrationReport(plan=plan, executed_at=now)
        injector = self.fault_injector
        span = plan.span
        clock = now
        deadline = None if self.deadline_s is None else now + self.deadline_s
        import_span = span.child("import", sim_s=clock, mode=mode)
        if injector is not None:
            self._trace_faults(import_span, injector.advance(clock), clock)
        for node_name, keys in plan.pre_deletes.items():
            node = self.cluster.nodes.get(node_name)
            if node is None:
                continue
            try:
                for key in keys:
                    node.delete(key)
            except TransportError as exc:
                # Room-making is an optimisation; an unreachable node
                # keeps its cold items and the migration proceeds.
                import_span.event(
                    "pre_delete_failed",
                    sim_s=clock,
                    node=node_name,
                    error=str(exc),
                )
        aborted = False
        for (src, dst), keys in plan.transfers.items():
            if aborted:
                report.unattempted_pairs.append((src, dst))
                continue
            if injector is not None:
                self._trace_faults(
                    import_span, injector.advance(clock), clock
                )
            # A node lost between planning and execution degrades the
            # migration to a partial warm-up rather than failing it: the
            # scaling action must still complete (Section III-D's
            # protocol tolerates snapshot drift).
            if src not in self.cluster.nodes or dst not in self.cluster.nodes:
                report.skipped_pairs.append((src, dst))
                import_span.event(
                    "pair_skipped", sim_s=clock, src=src, dst=dst,
                    reason="node lost before execution",
                )
                continue
            clock = self._migrate_pair(
                plan, report, src, dst, keys, mode, clock, import_span
            )
            if deadline is not None and clock >= deadline:
                aborted = True
                report.abort_reason = (
                    f"deadline of {self.deadline_s:.1f}s exceeded "
                    f"{clock - now:.1f}s into phase 3 (pair {src} -> {dst})"
                )
                import_span.event(
                    "deadline_exceeded", sim_s=clock,
                    deadline_s=self.deadline_s,
                )
        import_span.end(sim_s=clock)
        report.actual_duration_s = clock - now
        plan.timings.retry_s += report.retry_time_s
        report.outcome = report.classify()
        if mode != "merge" and report.items_imported > 0:
            self._mru_sorted = False
        if self.strict_checker is not None:
            targets = {dst for (_, dst) in plan.transfers}
            targets.update(plan.pre_deletes)
            self.strict_checker.check_nodes(
                "import", sorted(targets), require_sorted=self._mru_sorted
            )
        if aborted and self.on_deadline == "raise":
            self._finish_migration_trace(span, report, clock)
            raise MigrationAbortedError(report.abort_reason or "aborted")
        switch_span = span.child("switch", sim_s=clock)
        if plan.kind == "scale_in":
            retained = [
                name
                for name in plan.retained
                if name in self.cluster.nodes
            ]
            if not retained:
                switch_span.end(sim_s=clock)
                self._finish_migration_trace(span, report, clock)
                raise MigrationError(
                    "no retained node survived until execution"
                )
            self.cluster.set_membership(retained)
            for name in plan.retiring:
                if name in self.cluster.nodes:
                    self.cluster.destroy(name)
        else:
            for name in plan.new_nodes:
                if name in self.cluster.nodes:
                    self.cluster.activate(name)
        report.membership_after = sorted(self.cluster.active_members)
        self._notify_membership(report.membership_after)
        switch_span.set(membership=report.membership_after)
        switch_span.end(sim_s=clock)
        self._finish_migration_trace(span, report, clock)
        if self.strict_checker is not None:
            self.strict_checker.check_cluster_ring("switch")
        return report

    def _trace_faults(
        self, span: Any, fired: Any, clock: float
    ) -> None:
        """Record injector faults that landed mid-migration as span events."""
        for applied in fired:
            span.event(
                "fault",
                sim_s=clock,
                kind=applied.spec.kind,
                detail=applied.detail,
            )

    def _finish_migration_trace(
        self, span: Any, report: MigrationReport, clock: float
    ) -> None:
        """Close the migration's root span and flush its metrics."""
        span.set(
            outcome=report.outcome,
            items_exported=report.items_exported,
            items_imported=report.items_imported,
            completed_pairs=report.completed_pairs,
            retries=report.retries,
            failed_flows=len(report.failed_flows),
            skipped_pairs=len(report.skipped_pairs),
            unattempted_pairs=len(report.unattempted_pairs),
        )
        if report.abort_reason:
            span.set(abort_reason=report.abort_reason)
        span.end(sim_s=clock)
        metrics = self.telemetry.metrics
        metrics.counter(
            "migrations_executed_total",
            "Executed migrations by final outcome",
            kind=report.plan.kind,
            outcome=report.outcome,
        ).inc()
        metrics.counter(
            "migration_items_imported_total",
            "Items installed by batch imports during migrations",
        ).inc(report.items_imported)
        for phase, seconds in report.plan.timings.breakdown().items():
            metrics.histogram(
                "migration_phase_seconds",
                "Modeled seconds per migration phase",
                phase=phase,
            ).observe(seconds)

    def abort_scale_out(self, plan: MigrationPlan) -> None:
        """Tear down nodes provisioned by an unexecuted scale-out plan."""
        for name in plan.new_nodes:
            if name in self.cluster.nodes and name not in self.cluster.ring:
                self.cluster.destroy(name)
        plan.span.set(outcome="aborted")
        plan.span.end()

    # ------------------------------------------------------------------
    # Re-planning around dead nodes
    # ------------------------------------------------------------------

    def replan(self, plan: MigrationPlan) -> MigrationPlan | None:
        """Adapt ``plan`` to nodes that died since it was computed.

        Returns the plan unchanged when every referenced node is still
        alive.  When a *retained* (or, for scale-out, existing) node died,
        the migration is re-planned from scratch against the surviving
        membership so its data flows target live nodes; dead *retiring*
        nodes are simply dropped (their data is gone either way).
        Returns ``None`` when nothing is left to do -- e.g. every node
        being added by a scale-out died before activation.
        """
        live = set(self.cluster.nodes)
        if plan.kind == "scale_in":
            referenced = set(plan.retained) | set(plan.retiring)
            if referenced <= live:
                return plan
            retiring = [
                name
                for name in plan.retiring
                if name in self.cluster.active_members
            ]
            retained = set(self.cluster.active_members) - set(retiring)
            if not retained:
                return None
            if not retiring:
                return None
            fresh = self.plan_scale_in(retiring, include_scoring=False)
            fresh.import_mode = plan.import_mode
            plan.span.set(outcome="replanned")
            plan.span.end()
            return fresh
        surviving_new = [
            name for name in plan.new_nodes if name in live
        ]
        if set(plan.retained) | set(plan.new_nodes) <= live:
            return plan
        if not surviving_new:
            return None
        # Re-plan the metadata/fusecache phases against the survivors:
        # tear down nothing (surviving new nodes stay provisioned) and
        # rebuild the transfer map from live existing nodes.
        replanned = self._replan_scale_out(surviving_new)
        replanned.import_mode = plan.import_mode
        replanned.span = plan.span  # keep the original decision's trace
        return replanned

    def _replan_scale_out(self, new_names: list[str]) -> MigrationPlan:
        """Re-run scale-out planning for already-provisioned new nodes."""
        existing = sorted(self.cluster.active_members)
        members_after = existing + sorted(new_names)
        target_ring = self.cluster.ring_for(members_after)
        plan = MigrationPlan(
            kind="scale_out",
            retiring=[],
            retained=existing,
            new_nodes=sorted(new_names),
            transfers={},
            timings=PhaseTimings(),
        )
        new_set = set(new_names)
        import_load: dict[str, int] = {name: 0 for name in new_names}
        for src in existing:
            agent = self.agent(src)
            grouped = agent.dump_and_hash(target_ring)
            for dst, per_class in grouped.items():
                if dst not in new_set:
                    continue
                for class_id, entries in per_class.items():
                    keys = [key for key, _ in entries]
                    if keys:
                        plan.transfers.setdefault((src, dst), []).extend(
                            keys
                        )
                        import_load[dst] += len(keys)
        self._price_data_phase(plan, import_load)
        return plan

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _migrate_pair(
        self,
        plan: MigrationPlan,
        report: MigrationReport,
        src: str,
        dst: str,
        keys: list[str],
        mode: str,
        clock: float,
        parent_span: Any = NULL_SPAN,
    ) -> float:
        """Move one (src, dst) pair under the fault model; returns the
        modeled clock after the attempt(s)."""
        injector = self.fault_injector
        metrics = self.telemetry.metrics
        pair_span = parent_span.child(
            "pair", sim_s=clock, src=src, dst=dst, keys=len(keys)
        )
        size = self._pair_bytes(src, keys)
        flow = Flow(src, dst, size) if size > 0 else None
        failures = 0
        while True:
            if flow is not None:
                result = self.network.attempt_flow(flow, now=clock)
            else:
                result = None
            if result is None or result.ok:
                break
            failures += 1
            clock += result.duration_s
            report.retry_time_s += result.duration_s
            pair_span.event(
                "flow_failed",
                sim_s=clock,
                error=result.error,
                attempt=failures,
            )
            if failures >= self.retry_policy.max_attempts:
                report.failed_flows.append((src, dst))
                pair_span.set(outcome="failed", attempts=failures)
                pair_span.end(sim_s=clock)
                return clock
            backoff = self.retry_policy.backoff_s(failures)
            report.retries += 1
            report.retry_time_s += backoff
            clock += backoff
            pair_span.event("retry", sim_s=clock, backoff_s=backoff)
            metrics.counter(
                "migration_retries_total",
                "Data-flow retries during migrations",
            ).inc()
            if injector is not None:
                # Let faults scheduled during the backoff window land
                # before the retry (a crashed endpoint fails the pair).
                self._trace_faults(
                    pair_span, injector.advance(clock), clock
                )
                if (
                    src not in self.cluster.nodes
                    or dst not in self.cluster.nodes
                ):
                    report.skipped_pairs.append((src, dst))
                    pair_span.set(outcome="skipped", attempts=failures)
                    pair_span.end(sim_s=clock)
                    return clock
        # Dump, transfer, and import succeed; node stalls stretch the
        # modeled durations.
        dump_factor = import_factor = 1.0
        if injector is not None:
            dump_factor = injector.rate_factor(src, clock)
            import_factor = injector.rate_factor(dst, clock)
        src_agent = self.agent(src)
        dst_agent = self.agent(dst)
        clock += src_agent.dump_seconds(
            len(keys), self.dump_rate_items_s, dump_factor
        )
        if result is not None:
            clock += result.duration_s
        try:
            migrated = src_agent.export_items(keys)
            report.items_exported += len(migrated)
            imported = dst_agent.import_items(migrated, mode=mode, now=clock)
        except TransportError as exc:
            # A live (socket-backed) pair whose transport retries ran out
            # degrades exactly like an exhausted simulated flow: record
            # the failure and move on, because the scaling action itself
            # must still complete.
            report.failed_flows.append((src, dst))
            pair_span.event("transport_failed", sim_s=clock, error=str(exc))
            pair_span.set(outcome="failed", attempts=failures + 1)
            pair_span.end(sim_s=clock)
            metrics.counter(
                "migration_transport_failures_total",
                "Live data flows lost to exhausted transport retries",
            ).inc()
            return clock
        report.items_imported += imported
        clock += dst_agent.import_seconds(
            imported, self.import_rate_items_s, import_factor
        )
        report.completed_pairs += 1
        pair_span.set(outcome="completed", items=imported, bytes=size)
        pair_span.end(sim_s=clock)
        return clock

    def _pair_bytes(self, src: str, keys: list[str]) -> int:
        """Current wire size of one pair's keys (evicted keys excluded)."""
        node = self.cluster.nodes[src]
        size = 0
        for key in keys:
            item = node.peek(key)
            if item is not None:
                size += len(key) + item.value_size
        return size

    def _price_data_phase(
        self, plan: MigrationPlan, import_load: dict[str, int]
    ) -> None:
        """Fill in phase-3 byte counts and modeled durations."""
        data_flows: list[Flow] = []
        for (src, dst), keys in plan.transfers.items():
            node = self.cluster.nodes[src]
            size = 0
            for key in keys:
                item = node.peek(key)
                if item is not None:
                    size += len(key) + item.value_size
            plan.items_to_migrate += len(keys)
            plan.bytes_to_migrate += size
            if size > 0:
                data_flows.append(Flow(src, dst, size))
        plan.timings.data_transfer_s = self.network.phase_time(data_flows)
        busiest_import = max(import_load.values(), default=0)
        plan.timings.import_s = busiest_import / self.import_rate_items_s
