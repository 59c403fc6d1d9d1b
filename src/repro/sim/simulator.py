"""DReAMSim facade: the timed grid simulator.

Wires the event engine, an RMS (with its scheduler strategy and
virtualization layer), an optional JSS, and the metrics collector into
the simulator of refs [20][21]:

* independent task streams with arbitrary arrival processes;
* task-graph execution (Figure 7): a task becomes ready when all its
  producers complete;
* Eq. 3 application execution (Figure 8): clause steps run in order,
  ``Par`` steps concurrently, ``Stream`` clauses as chunked pipelines
  (the Section VI future-work scenario);
* configuration reuse and partial reconfiguration through the fabric
  model;
* dynamic node join/leave with re-queueing of in-flight tasks (the
  Section IV-A adaptivity claim under faults);
* optional task discard after a maximum pending age;
* fault injection (:mod:`repro.sim.faults`): node crash/rejoin,
  configuration-port failures, SEUs corrupting running tasks, link
  degradation and partitions -- answered with a bounded-retry /
  exponential-backoff / GPP-fallback recovery policy
  (:class:`~repro.sim.faults.RetryPolicy`);
* an adaptive resilience layer (:mod:`repro.sim.resilience` +
  :mod:`repro.grid.health`): per-node EWMA health scores with
  circuit-breaker quarantine, a soft/hard deadline watchdog and
  checkpoint/restart with migration for fabric tasks.
  ``resilience=None`` (the default) keeps every one of these paths
  byte-for-byte identical to the pre-resilience simulator.
* overload protection (:mod:`repro.sim.admission`): bounded-queue
  admission with reject-or-defer backpressure, token-bucket rate
  limiting, a utilization gate ahead of RMS matchmaking, and a
  hysteretic brownout controller that degrades in stages under
  sustained queue pressure (low-priority GPP forcing -> shedding)
  and recovers when pressure drops.
  ``admission=None`` (the default) is byte-identical to the
  unprotected simulator, same contract as ``resilience``.
* online SLO monitoring (:mod:`repro.sim.slo`): declarative
  objectives (latency percentile, throughput floor, availability,
  queue depth; latency, throughput and availability global or
  tenant/priority scoped) evaluated over
  sliding sim-time windows with multi-window burn-rate alerting.
  Purely observational -- ``slo=None`` (the default) and an armed
  monitor both leave simulated behavior byte-identical; the monitor
  only *adds* ``slo-*`` trace events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from collections.abc import Callable

from repro.core.application import Application, ClauseKind
from repro.core.execreq import ExecReq
from repro.core.matching import task_required_slices
from repro.core.node import Node
from repro.core.task import DataIn, DataOut, Task
from repro.grid.health import HealthTracker
from repro.grid.jss import JobSubmissionSystem
from repro.grid.network import NetworkError
from repro.grid.rms import Placement, ResourceManagementSystem, SchedulingError
from repro.hardware.taxonomy import PEClass
from repro.sim.admission import ADMIT, DEFER, AdmissionController, AdmissionSpec
from repro.sim.engine import EventHandle, make_engine
from repro.sim.failover import (
    SUSPECT,
    FailoverSpec,
    HeartbeatMonitor,
    ReplicatedRMS,
)
from repro.sim.faults import FaultInjector, RetryPolicy
from repro.sim.metrics import MetricsCollector, SimulationReport
from repro.sim.pending import PendingQueue
from repro.sim.resilience import ResilienceSpec
from repro.sim.slo import SLOMonitor, SLOSpec
from repro.sim.telemetry import (
    RPE_CONFIGURED_SLICES, TelemetryFold, TelemetryRegistry,
)
from repro.sim.tracing import Tracer


@dataclass(eq=False)
class _Entry:
    """One schedulable unit inside the simulator.

    ``eq=False`` keeps identity comparison semantics: entries are
    unique mutable objects, and the pending queue keys its dicts by
    entry, which must not fall into field-by-field dataclass equality
    (which would compare whole Task trees).
    """

    key: object
    task: Task
    job_id: int | None = None
    on_complete: Callable[["_Entry"], None] | None = None
    dispatched: bool = False
    discarded: bool = False
    placement: Placement | None = None
    events: list[EventHandle] = field(default_factory=list)
    #: Suppress JSS completion marking (stream chunks mark once).
    silent: bool = False
    #: Sim time of arrival and of the latest dispatch (never reset, so
    #: a requeued task keeps its last dispatch time until the next one).
    arrival: float = 0.0
    dispatched_at: float | None = None
    # --- fault-recovery state (untouched in fault-free runs) ---
    #: Placement attempts lost to faults since the last fresh budget.
    attempts: int = 0
    #: Nodes this task faulted on; excluded from re-placement.
    excluded_nodes: set[int] = field(default_factory=set)
    #: Last fault / SchedulingError message seen for this task.
    failure_reason: str | None = None
    #: Terminal failure (retry budget exhausted).
    failed: bool = False
    #: Already degraded to GPP execution once.
    fell_back: bool = False
    # --- resilience state (inert while resilience is None) ---
    #: Terminal success; the watchdog timers check this.
    completed: bool = False
    #: This placement is a probationary probe on a half-open breaker.
    is_probe: bool = False
    #: Watchdog timers; unlike ``events`` they survive placement loss.
    deadline_events: list[EventHandle] = field(default_factory=list)
    #: Progress fraction preserved by the newest checkpoint of the
    #: *current* placement (reset on every resume).
    checkpoint_frac: float = 0.0
    #: Node the task last checkpointed on; set while a resume is
    #: pending so the next dispatch emits a ``migrate`` event.
    resumed_from: int | None = None
    # --- overload-protection state (inert while admission is None) ---
    #: Terminally rejected by admission control / load shedding
    #: (``discarded`` is set too, so every timer guard already skips).
    shed: bool = False
    #: Backpressure deferrals this submission has absorbed so far.
    defers: int = 0
    # --- control-plane failover state (inert while failover is None) ---
    #: Sim time this placement's lease lapses; renewed on every
    #: heartbeat round while the control plane is up.  A promoted
    #: standby only adopts placements whose lease is still valid.
    lease_expiry: float = 0.0
    #: :meth:`match_key` cache and the task it was built from.
    _keyed_task: Task | None = field(default=None, init=False, repr=False)
    _key: tuple = field(default=(), init=False, repr=False)

    def match_key(self) -> tuple:
        """The RMS round-memo key of this entry's task without
        exclusions, rebuilt only after ``task`` is replaced (brownout
        or fault fallback)."""
        if self._keyed_task is not self.task:
            self._keyed_task = self.task
            self._key = ResourceManagementSystem._match_key(self.task, None)
        return self._key


def _movable(entry: _Entry) -> bool:
    """Whether :meth:`DReAMSim._to_gpp` would move *entry* to GPP."""
    task = entry.task
    return (
        not entry.fell_back
        and task.exec_req.node_type is not PEClass.GPP
        and task.effective_workload_mi > 0
    )


def _power_cycle(node: Node) -> None:
    """A crashed node's fabric comes back cold: resident configurations
    and hosted soft cores are gone."""
    for rpe in node.rpes:
        for region in rpe.fabric.regions:
            if region.configuration is not None:
                rpe.fabric.clear(region)
        rpe.hosted_softcores.clear()


def _cancel_all(handles: list[EventHandle]) -> None:
    """Cancel every pending engine event in *handles* and forget them."""
    for handle in handles:
        handle.cancel()
    handles.clear()


class DReAMSim:
    """The simulator.  One instance = one experiment run."""

    def __init__(
        self,
        rms: ResourceManagementSystem,
        *,
        jss: JobSubmissionSystem | None = None,
        discard_after_s: float | None = None,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        resilience: ResilienceSpec | None = None,
        admission: AdmissionSpec | None = None,
        failover: FailoverSpec | None = None,
        slo: SLOSpec | None = None,
        telemetry: TelemetryRegistry | None = None,
        engine: str = "calendar",
    ):
        if discard_after_s is not None and discard_after_s <= 0:
            raise ValueError("discard_after_s must be positive")
        self.engine = make_engine(engine)
        self.rms = rms
        self.jss = jss or JobSubmissionSystem(virtualization=rms.virtualization)
        self.metrics = MetricsCollector(node.node_id for node in rms.nodes)
        self.tracer = tracer
        self.discard_after_s = discard_after_s
        #: Low-priority entries wait for the brownout rewrite.
        self.pending = PendingQueue(lambda e: e.task.priority < 0 and _movable(e))
        self.active: dict[object, _Entry] = {}
        #: Columnar arrival stream (scale runs); cursor-driven lazy
        #: task materialization, see submit_workload_columns.
        self._stream = None
        self._stream_i = 0
        self.requeues = 0
        #: (job_id, task_id) -> node where the task's outputs landed;
        #: feeds the RMS's locality-aware input-staging prices.
        self._output_sites: dict[tuple[object, int], int] = {}
        #: Fault injection (None = the exact fault-free behavior).
        self.faults = faults
        self.retry = retry or RetryPolicy()
        #: Link pairs currently degraded (overlapping draws collapse).
        self._degraded_pairs: set[frozenset[int]] = set()
        #: Adaptive resilience layer (None = the exact pre-resilience
        #: behavior; an all-None spec normalizes to None too).
        self.resilience = (
            resilience if resilience is not None and resilience.enabled else None
        )
        self.health: HealthTracker | None = None
        if self.resilience is not None and self.resilience.breaker is not None:
            self.health = HealthTracker(self.resilience.breaker)
            for node in rms.nodes:
                self.health.register_node(node.node_id)
        rms.health = self.health
        #: Control-plane fault tolerance (None = the exact pre-failover
        #: behavior; an inert spec normalizes to None, same contract as
        #: resilience/admission).  ``control_plane`` is created lazily
        #: when an RMS fault actually fires, so fault-free runs without
        #: a FailoverSpec never allocate any of this machinery.
        self.failover = (
            failover if failover is not None and failover.enabled else None
        )
        self.control_plane: ReplicatedRMS | None = None
        self.monitor: HeartbeatMonitor | None = None
        #: Targets ("rms" or node ids) currently under suspicion.
        self._suspected_targets: set[object] = set()
        #: Nodes that silently died (detection pending).
        self._dead_nodes: set[int] = set()
        if self.failover is not None:
            self.control_plane = ReplicatedRMS(rms, self.failover)
            if self.failover.heartbeat is not None:
                self.monitor = HeartbeatMonitor(self.failover.heartbeat)
                self.monitor.watch("rms", 0.0)
                for node in rms.nodes:
                    self.monitor.watch(node.node_id, 0.0)
                self.engine.schedule(
                    self.failover.heartbeat.interval_s, self._heartbeat_tick
                )
        if faults is not None:
            faults.install(self)
        #: Overload protection (None = the exact unprotected behavior;
        #: an all-None spec normalizes to None, same as resilience).
        self.admission = (
            AdmissionController(admission)
            if admission is not None and admission.enabled
            else None
        )
        rms.admission = self.admission
        #: Online SLO monitoring (None = unmonitored; an empty spec
        #: normalizes to None, same contract as the other layers).  The
        #: monitor is purely observational -- it schedules no events,
        #: draws no randomness, and never touches simulator state -- so
        #: arming it never perturbs traces.
        self.slo = (
            SLOMonitor(slo, emit=self._publish)
            if slo is not None and slo.enabled
            else None
        )
        #: Sim-time telemetry (None = the exact un-instrumented paths).
        #: Telemetry is purely observational -- it schedules no events
        #: and draws no randomness -- so enabling it never perturbs
        #: traces either.  Transition-driven instruments live in the
        #: fold, which :meth:`_emit` feeds.
        self.telemetry = telemetry
        self._fold: TelemetryFold | None = None
        if telemetry is not None:
            telemetry.set_clock(lambda: self.engine.now)
            self.rms.telemetry = telemetry
            self.jss.telemetry = telemetry
            if self.health is not None:
                self.health.telemetry = telemetry
            self._fold = TelemetryFold(
                telemetry,
                brownout=self.admission is not None,
                control_plane=self.control_plane is not None,
            )
            self._telemetry_init()
        #: A tracer or a registry listens to :meth:`_emit`: only then do
        #: the fabric transitions, which the metrics and the SLO monitor
        #: ignore, build their payloads.
        self._listening = tracer is not None or telemetry is not None
        #: The event stream's subscribers, in order: each has
        #: ``observe(t, kind, key, payload)``.
        self._observers = [
            observer.observe
            for observer in (self.metrics, self.slo, tracer, self._fold)
            if observer is not None
        ]

    # ------------------------------------------------------------------
    # Sim-time telemetry (no-ops without a registry)
    # ------------------------------------------------------------------
    def _telemetry_init(self) -> None:
        """Seed every always-present series with a t=0 sample so the
        dashboard renders each chart even when nothing ever changes.
        The hot-path gauges are cached here: :meth:`_telemetry_sample`
        runs after every dispatch round, so it must not pay the
        registry's label-keyed lookup each time."""
        registry = self.telemetry
        assert registry is not None
        self._t_queue_gauge = registry.gauge(
            "sim_queue_depth", "tasks awaiting placement"
        )
        self._t_active_gauge = registry.gauge(
            "sim_active_tasks", "tasks holding a placement"
        )
        self._t_backoff_gauge = registry.gauge(
            "sim_tasks_in_backoff", "tasks waiting out a retry backoff"
        )
        self._t_util_gauges: dict[int, object] = {}
        self._t_queue_gauge.set(0)
        self._t_active_gauge.set(0)
        self._t_backoff_gauge.set(0)
        fabric = RPE_CONFIGURED_SLICES
        for node in self.rms.nodes:
            self._t_util_gauge(node.node_id).set(0)
            if self.health is not None:
                registry.gauge(
                    "node_breaker_state",
                    "circuit breaker state (0=closed, 1=half-open, 2=open)",
                    node=node.node_id,
                ).set(0)
            for rpe in node.rpes:
                registry.gauge(
                    fabric.name, fabric.help, node=node.node_id, rpe=rpe.resource_id
                ).set(0)

    def _t_util_gauge(self, node_id: int):
        gauge = self._t_util_gauges.get(node_id)
        if gauge is None:
            gauge = self.telemetry.gauge(
                "node_utilization",
                "busy fraction of the node's processing elements",
                node=node_id,
            )
            self._t_util_gauges[node_id] = gauge
        return gauge

    def _telemetry_sample(self) -> None:
        """Re-sample the grid-level gauges after a state transition.
        Gauges only record *changes*, so frequent calls stay cheap.
        Utilization reads the live resources directly (no snapshot
        dataclasses) -- this runs once per dispatch round."""
        if self.telemetry is None:
            return
        self._t_queue_gauge.set(len(self.pending))
        self._t_active_gauge.set(len(self.active))
        for node in self.rms.nodes:
            parts = 0.0
            count = 0
            for g in (*node.gpps, *node.gpus):
                parts += 0.0 if g.state.can_accept_work else 1.0
                count += 1
            for r in node.rpes:
                total = r.fabric.total_slices
                if total:
                    parts += 1.0 - r.fabric.available_slices / total
                count += 1
            self._t_util_gauge(node.node_id).set(
                parts / count if count else 0.0
            )

    # ------------------------------------------------------------------
    # The event stream
    # ------------------------------------------------------------------
    def _emit(self, kind: str, key: object = None, **payload) -> None:
        """The one observer call per transition: the metrics fold it
        into the report, the SLO monitor into its objectives, the tracer
        records it and the telemetry fold moves the instruments it
        drives."""
        now = self.engine.now
        for observe in self._observers:
            observe(now, kind, key, payload)

    def _publish(self, t: float, kind: str, key: object, payload: dict) -> None:
        """An event at an explicit time *t*: the SLO monitor's, stamped
        with the instant it evaluated."""
        for observe in self._observers:
            observe(t, kind, key, payload)

    def _emit_slice(self, kind: str, entry: _Entry) -> None:
        """``slice-alloc`` / ``slice-free`` for the fabric region of
        *entry*'s placement (nothing for GPP-class placements)."""
        placement = entry.placement
        if not self._listening or placement is None or placement.region is None:
            return
        candidate = placement.candidate
        self._emit(
            kind,
            entry.key,
            node=candidate.node_id,
            resource=candidate.resource_id,
            region=placement.region.region_id,
            slices=placement.region.slices,
            capacity=candidate.pe.fabric.total_slices,
        )

    # ------------------------------------------------------------------
    # Submission APIs
    # ------------------------------------------------------------------
    def submit_workload(self, stream: list[tuple[float, Task]]) -> None:
        """Schedule an explicit independent-task arrival stream; each
        task is tracked as its own JSS job."""
        for time, task in stream:
            job = self.jss.submit_task(task, submit_time=time)

            def make(t: Task = task, j: int = job.job_id) -> Callable[[], None]:
                return lambda: self._arrive(t, job_id=j, key=(j, t.task_id))

            self.engine.schedule_at(time, make())

    def submit_workload_columns(self, columns) -> None:
        """Schedule a columnar synthetic workload (``run_experiment``'s
        path at every size).

        ``columns`` is a :class:`repro.sim.workload.WorkloadColumns`
        (or anything with ``.times`` and ``.task(i)``).  Arrivals are
        bulk-scheduled through ``engine.schedule_batch`` with a single
        shared bound-method callback -- no per-task closure, handle, or
        JSS job is allocated -- and each :class:`Task` is materialized
        lazily at its arrival instant; its trace key is its task id.
        Both engines fire equal-time events in scheduling order, so the
        cursor walks the columns in submission order.
        """
        times = columns.times
        n = len(times)
        if n == 0:
            return
        self._stream = columns
        self._stream_i = 0
        self.engine.schedule_batch(times, [self._stream_arrive] * n, handles=False)

    def _stream_arrive(self) -> None:
        i = self._stream_i
        self._stream_i = i + 1
        task = self._stream.task(i)
        self._arrive(task, key=task.task_id)

    def submit_graph(self, tasks: list[Task], *, at: float = 0.0) -> int:
        """Submit a Figure 7 style data-dependent task set; returns the
        job id.  A task arrives the moment its producers all complete."""
        job = self.jss.submit_graph(tasks, submit_time=at)
        graph = job.graph
        assert graph is not None
        completed: set[int] = set()
        arrived: set[int] = set()

        def arrive_ready() -> None:
            for task_id in sorted(graph.ready_tasks(completed) - arrived):
                arrived.add(task_id)
                task = graph.task(task_id)
                self._arrive(
                    task,
                    job_id=job.job_id,
                    key=(job.job_id, task_id),
                    on_complete=on_complete,
                )

        def on_complete(entry: _Entry) -> None:
            completed.add(entry.task.task_id)
            arrive_ready()

        self.engine.schedule_at(at, arrive_ready)
        return job.job_id

    def submit_application(
        self,
        application: Application,
        tasks: dict[int, Task],
        *,
        at: float = 0.0,
        stream_chunks: int = 4,
    ) -> int:
        """Submit an Eq. 3 application; clause steps execute in order
        (Figure 8).  ``Stream`` clauses pipeline each task over
        *stream_chunks* data chunks."""
        if stream_chunks <= 0:
            raise ValueError("stream_chunks must be positive")
        job = self.jss.submit_application(application, tasks, submit_time=at)

        stages: list[tuple[ClauseKind, list[int]]] = []
        for clause in application.clauses:
            if clause.kind is ClauseKind.STREAM:
                stages.append((ClauseKind.STREAM, list(clause.task_ids)))
            else:
                for step in clause.steps():
                    stages.append((clause.kind, step))

        state = {"stage": 0}

        def launch_stage() -> None:
            if state["stage"] >= len(stages):
                return
            kind, task_ids = stages[state["stage"]]
            if kind is ClauseKind.STREAM:
                self._launch_stream(job.job_id, [tasks[t] for t in task_ids],
                                    stream_chunks, next_stage)
                return
            remaining = {"n": len(task_ids)}

            def on_complete(entry: _Entry) -> None:
                remaining["n"] -= 1
                if remaining["n"] == 0:
                    next_stage()

            for task_id in task_ids:
                self._arrive(
                    tasks[task_id],
                    job_id=job.job_id,
                    key=(job.job_id, task_id),
                    on_complete=on_complete,
                )

        def next_stage() -> None:
            state["stage"] += 1
            launch_stage()

        self.engine.schedule_at(at, launch_stage)
        return job.job_id

    def _launch_stream(
        self,
        job_id: int,
        stream_tasks: list[Task],
        chunks: int,
        when_done: Callable[[], None],
    ) -> None:
        """Pipelined execution: chunk *c* of stage *j* becomes ready when
        chunk *c* of stage *j-1* and chunk *c-1* of stage *j* are done."""
        done: set[tuple[int, int]] = set()  # (stage_index, chunk)
        arrived: set[tuple[int, int]] = set()
        total = len(stream_tasks) * chunks

        def chunk_task(stage: int, chunk: int) -> Task:
            base = stream_tasks[stage]
            scale = 1.0 / chunks
            return replace(
                base,
                data_in=tuple(
                    DataIn(d.source_task_id, d.data_id, max(1, d.size_bytes // chunks))
                    for d in base.data_in
                ),
                data_out=tuple(
                    DataOut(d.data_id, max(1, d.size_bytes // chunks))
                    for d in base.data_out
                ),
                t_estimated=base.t_estimated * scale,
                workload_mi=base.effective_workload_mi * scale,
            )

        def ready(stage: int, chunk: int) -> bool:
            if stage > 0 and (stage - 1, chunk) not in done:
                return False
            if chunk > 0 and (stage, chunk - 1) not in done:
                return False
            return True

        def arrive_ready() -> None:
            for stage in range(len(stream_tasks)):
                for chunk in range(chunks):
                    pos = (stage, chunk)
                    if pos in arrived or pos in done or not ready(*pos):
                        continue
                    arrived.add(pos)
                    base = stream_tasks[stage]
                    is_last = chunk == chunks - 1
                    self._arrive(
                        chunk_task(stage, chunk),
                        job_id=job_id,
                        key=(job_id, base.task_id, chunk),
                        on_complete=make_hook(pos, base.task_id, is_last),
                        silent=not is_last,
                    )

        def make_hook(pos: tuple[int, int], task_id: int, is_last: bool):
            def hook(entry: _Entry) -> None:
                done.add(pos)
                if len(done) == total:
                    when_done()
                else:
                    arrive_ready()

            return hook

        arrive_ready()

    # ------------------------------------------------------------------
    # Dynamic grid membership (Section IV-A adaptivity)
    # ------------------------------------------------------------------
    def schedule_node_join(self, time: float, node: Node, *, site: int | None = None) -> None:
        self.engine.schedule_at(time, lambda: self._node_up(node, site))

    def schedule_node_leave(self, time: float, node_id: int) -> None:
        def requeue(entry: _Entry) -> None:
            # A graceful departure is not evidence against the node: no
            # fault, no retry budget, no checkpoint credit.  Nor is the
            # placement aborted: the node leaves with its fabric as is.
            _cancel_all(entry.events)
            if self._fold is not None and entry.placement.region is not None:
                self._fold.keep_region(entry.key)
            self._emit_slice("slice-free", entry)
            self._emit("requeue", entry.key, node=node_id)
            self._release(entry, entry.placement)
            self._requeue(entry)

        def leave() -> None:
            self._node_down(node_id, requeue)
            self._dispatch_pending()

        self.engine.schedule_at(time, leave)

    def _node_up(self, node: Node, site: int | None, *, rejoin: bool = False) -> None:
        """Bring *node* into service and announce it (a ``rejoin`` ends
        its downtime).  The failure detector watches it (again) and the
        health tracker knows it (a rejoining node keeps its record).
        A node that left while silently dead comes back alive."""
        self._dead_nodes.discard(node.node_id)
        self.rms.register_node(node, site=site)
        self.pending.release()
        if self.health is not None:
            self.health.register_node(node.node_id)
        if self.monitor is not None:
            self.monitor.watch(node.node_id, self.engine.now)
        flags = {"rejoin": True} if rejoin else {}
        self._emit(
            "node-join",
            node=node.node_id,
            gpps=len(node.gpps),
            rpes=len(node.rpes),
            **flags,
        )
        self._dispatch_pending()

    def _evacuate(self, node_id: int, victim: Callable[[_Entry], None]) -> None:
        """Hand each active entry placed on *node_id* to *victim*."""
        for entry in [
            e
            for e in self.active.values()
            if e.placement is not None and e.placement.candidate.node_id == node_id
        ]:
            victim(entry)

    def _node_down(
        self, node_id: int, victim: Callable[[_Entry], None], **flags: bool
    ) -> Node:
        """Take *node_id* out of service and announce the loss:
        evacuate it, unregister it and stop watching it.  ``flags`` ride
        on ``node-leave``: a ``crash`` comes back with a cold fabric,
        and a ``detected`` one counts against the node's health.  The
        caller runs the dispatch pass."""
        crash = flags.get("crash", False)
        self._evacuate(node_id, victim)
        node = self.rms.unregister_node(node_id)
        if crash:
            _power_cycle(node)
        if flags.get("detected") and self.health is not None:
            if self.health.record_detected_failure(node_id, self.engine.now):
                self._quarantine_opened(node_id)
        self._emit("node-leave", node=node_id, **flags)
        if self.monitor is not None:
            self.monitor.forget(node_id)
            self._suspected_targets.discard(node_id)
        return node

    # ------------------------------------------------------------------
    # Fault injection (sim/faults.py schedules these; they can also be
    # called directly for scripted chaos scenarios)
    # ------------------------------------------------------------------
    def schedule_node_crash(
        self, time: float, node_id: int, *, rejoin_after_s: float | None = None
    ) -> None:
        """An *unplanned* node loss: unlike the graceful
        :meth:`schedule_node_leave`, in-flight tasks on the node are
        treated as fault victims (retry policy, node exclusion, wasted
        work) and the node's fabric state is wiped -- a rejoin brings
        back cold hardware with no resident configurations.

        With a heartbeat layer armed the loss is *silent*: the node
        stops heartbeating and its in-flight work stalls, but the RMS
        keeps it registered (and may even dispatch into the void) until
        the detector confirms the death -- that window is the detection
        latency the failover layer exists to bound."""

        def crash() -> None:
            if node_id not in {n.node_id for n in self.rms.nodes}:
                return  # already down or departed; the draw is a no-op
            if node_id in self._dead_nodes:
                return  # already dead, detection pending; draws collapse
            node, site = self.rms.node(node_id), self.rms.site_of(node_id)
            silent = self.monitor is not None and self.monitor.watched(node_id)
            if silent:
                self._crash_with_detection(node_id, rejoin_after_s)
            else:
                reason = f"node {node_id} crashed"
                self._node_down(node_id, lambda e: self._fault(e, reason), crash=True)
            if rejoin_after_s is not None:
                self.engine.schedule(rejoin_after_s, lambda: self._rejoin(node, site))
            if not silent:
                self._dispatch_pending()

        self.engine.schedule_at(time, crash)

    # ------------------------------------------------------------------
    # Control-plane fault tolerance (sim/failover.py): heartbeat
    # detection, replicated-RMS failover, lease-based orphan recovery
    # ------------------------------------------------------------------
    def _cp(self) -> ReplicatedRMS:
        """The control-plane wrapper, created lazily so runs without a
        FailoverSpec only pay for it once an RMS fault actually fires
        (cold-restart semantics: no standbys, no detector)."""
        if self.control_plane is None:
            self.control_plane = ReplicatedRMS(
                self.rms, self.failover or FailoverSpec()
            )
        return self.control_plane

    def schedule_rms_crash(self, time: float, *, downtime_s: float) -> None:
        """The primary RMS process dies.  The data plane keeps going --
        placements already executing run to completion on their nodes --
        but no *new* placement decision can be made until the control
        plane returns: via standby promotion (failover) once the loss is
        noticed, or via a cold restart after *downtime_s*.  A cold
        restart lost its in-flight placement table, so every active
        placement is orphaned back into the queue (conserved, never
        silently lost)."""
        if downtime_s <= 0:
            raise ValueError("downtime_s must be positive")

        def crash() -> None:
            cp = self._cp()
            if not cp.crash():
                return  # already dark; overlapping draws collapse
            self._emit("rms-crash", downtime=downtime_s, generation=cp.generation)
            generation = cp.generation

            def restore() -> None:
                if cp.generation != generation or cp.available:
                    return  # a standby (or a gray recovery) got there first
                # The restarted RMS has no in-flight placement table:
                # every active placement is orphaned back into the queue.
                self._rms_restore("cold-restart", list(self.active.values()))

            self.engine.schedule(downtime_s, restore)
            if self.monitor is None:
                # No detector armed: the loss is noticed immediately
                # (omniscient mode) and a warm standby takes over after
                # just the takeover delay.
                self._begin_failover(cp)

        self.engine.schedule_at(time, crash)

    def schedule_rms_gray(self, time: float, *, duration_s: float) -> None:
        """A gray failure: the primary stays up but stops doing useful
        work (and stops heartbeating), so nothing dispatches.  Without a
        detector it silently recovers after *duration_s*; with one, the
        heartbeat staleness accrues exactly like a crash and a standby
        can take over mid-gray."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")

        def gray() -> None:
            cp = self._cp()
            if not cp.gray_start():
                return  # already dark; overlapping draws collapse
            self._emit("rms-gray", duration=duration_s, generation=cp.generation)
            generation = cp.generation

            def recover() -> None:
                if cp.generation != generation or not cp.gray:
                    return  # a standby took over (or a crash escalated)
                self._rms_restore("gray-recovered")

            self.engine.schedule(duration_s, recover)

        self.engine.schedule_at(time, gray)

    def _rms_restore(self, reason: str, orphans: list[_Entry] | None = None) -> None:
        """The primary comes back by itself (a gray recovery, or a cold
        restart after its downtime) and the detector watches it again.
        A cold restart passes the *orphans* it lost track of; they are
        counted on ``rms-restore`` and returned to the queue."""
        cp = self.control_plane
        assert cp is not None
        cp.restore()
        if "rms" in self._suspected_targets:
            self._hb_rejoin("rms")
        extra = {} if orphans is None else {"orphaned": len(orphans)}
        self._emit("rms-restore", reason=reason, generation=cp.generation, **extra)
        for entry in orphans or ():
            self._orphan(entry, reason="control-plane cold restart")
        if self.monitor is not None:
            self.monitor.watch("rms", self.engine.now)
        self._dispatch_pending()

    def _begin_failover(self, cp: ReplicatedRMS) -> None:
        """Start a warm standby's takeover, if one is left; it completes
        after the takeover delay unless the primary is back first."""
        if not cp.can_failover():
            return
        generation = cp.generation
        self._emit(
            "failover-begin",
            target="rms",
            generation=generation,
            standbys=cp.standbys_left,
        )
        assert self.failover is not None
        self.engine.schedule(
            self.failover.takeover_delay_s, lambda: self._promote(generation)
        )

    def _rms_confirmed_down(self, now: float) -> None:
        """The detector confirmed the primary dark.  With a warm standby
        available the failover begins here; otherwise the cold-restart
        timer armed at crash time is the only way back."""
        cp = self.control_plane
        assert cp is not None and self.monitor is not None
        if cp.dispatchable:
            # False confirmation of a healthy primary: the takeover
            # handshake finds it alive and the detector resets.
            self.monitor.watch("rms", now)
            return
        self._begin_failover(cp)

    def _promote(self, expected_generation: int) -> None:
        """A warm standby finishes taking over as the new primary.  It
        adopts every placement whose lease is still valid and orphans
        the expired ones (without leases it adopts everything)."""
        cp = self.control_plane
        if cp is None or cp.generation != expected_generation or cp.dispatchable:
            return  # a restart or recovery got there first
        now = self.engine.now
        generation = cp.promote()
        orphans: list[_Entry] = []
        if self.failover is not None and self.failover.lease_s is not None:
            orphans = [e for e in self.active.values() if e.lease_expiry < now]
        self._emit(
            "failover-complete",
            target="rms",
            generation=generation,
            adopted=len(self.active) - len(orphans),
            orphaned=len(orphans),
        )
        for entry in orphans:
            self._emit(
                "lease-expire",
                entry.key,
                node=entry.placement.candidate.node_id,
                expired_at=round(entry.lease_expiry, 9),
            )
            self._orphan(entry, reason="lease expired during failover")
        if self.monitor is not None:
            self.monitor.watch("rms", now)
        self._dispatch_pending()

    def _orphan(self, entry: _Entry, *, reason: str) -> None:
        """Tear down a placement orphaned by control-plane loss and
        return the task to the queue.  Unlike :meth:`_fault` this does
        not consume retry budget or exclude the node -- the task did
        nothing wrong; the control plane lost track of it."""
        placement = entry.placement
        assert placement is not None
        waste = self._waste(entry, placement)
        self._tear_down(entry, placement, clear_configuration=False)
        self._emit(
            "orphan-recovered",
            entry.key,
            node=placement.candidate.node_id,
            reason=reason,
            **waste,
        )
        if entry.job_id is not None:
            self.jss.mark_orphaned(
                entry.job_id, entry.task.task_id, time=self.engine.now
            )
        self._requeue(entry)
        self._release(entry, placement, waste["saved"])

    def _crash_with_detection(
        self, node_id: int, rejoin_after_s: float | None
    ) -> None:
        """A silent node death under the heartbeat layer.  The node's
        work stops *now*, but membership (and the fault handling in
        :meth:`_node_confirmed_down`) waits for the detector -- that
        window is the detection latency the failover layer bounds."""
        now = self.engine.now
        self._dead_nodes.add(node_id)
        # Ground truth for the checker and the report's detection
        # latency; the RMS does not see it.  A reboot before the
        # detector confirms emits ``node-reboot``.
        reboot_at = None if rejoin_after_s is None else now + rejoin_after_s
        self._emit("node-dead", node=node_id, reboot_at=reboot_at)
        # The work stalls: nothing it scheduled will ever fire.
        self._evacuate(node_id, lambda entry: _cancel_all(entry.events))

    def _rejoin(self, node: Node, site: int) -> None:
        """A crashed node comes back up.  Evicted (its loss was seen),
        it rejoins cold.  Rebooted before the detector confirmed its
        silent death, it never left the RMS, but everything placed on
        it died with it: ``node-reboot`` ends the death."""
        node_id = node.node_id
        if node_id not in {n.node_id for n in self.rms.nodes}:
            self._node_up(node, site, rejoin=True)
            return
        if node_id not in self._dead_nodes:
            return  # still registered and never died: nothing reboots
        self._dead_nodes.remove(node_id)
        self._emit("node-reboot", node=node_id)
        reason = f"node {node_id} rebooted"
        self._evacuate(node_id, lambda e: self._fault(e, reason))
        _power_cycle(node)
        if self.monitor is not None:
            if node_id in self._suspected_targets:
                self._hb_rejoin(node_id)
            self.monitor.watch(node_id, self.engine.now)
        self._dispatch_pending()

    def _node_confirmed_down(self, node_id: int) -> None:
        """The detector confirmed a node death: only now does the RMS
        act -- fault the stalled work, evict the node, wipe its fabric."""
        assert self.monitor is not None
        if node_id not in {n.node_id for n in self.rms.nodes}:
            self.monitor.forget(node_id)  # pragma: no cover - left already
            return
        # Confirmed on dropped heartbeats alone, a healthy node is
        # wrongly evicted -- the detector's false-positive cost.
        self._dead_nodes.discard(node_id)
        reason = f"node {node_id} loss confirmed by heartbeat detector"
        self._node_down(
            node_id, lambda e: self._fault(e, reason), crash=True, detected=True
        )
        self._dispatch_pending()

    def _hb_rejoin(self, target: object) -> None:
        """A suspected target answered again: lift the suspicion."""
        self._suspected_targets.discard(target)
        self._emit("heartbeat-rejoin", target=target)

    def _hb_suspect(self, target: object, now: float) -> None:
        assert self.monitor is not None
        self._suspected_targets.add(target)
        self._emit(
            "heartbeat-suspect",
            target=target,
            suspicion=round(self.monitor.suspicion(target, now), 6),
        )

    def _hb_confirm(self, target: object, now: float) -> None:
        self._suspected_targets.discard(target)
        self._emit("heartbeat-confirm", target=target)
        if target == "rms":
            self._rms_confirmed_down(now)
        else:
            self._node_confirmed_down(target)

    def _heartbeat_tick(self) -> None:
        """One heartbeat round: arrivals first (the primary, then nodes
        in id order -- a fixed order keeps the loss draws
        deterministic), then a detector pass, then re-arm while
        anything can still happen."""
        monitor = self.monitor
        cp = self.control_plane
        assert monitor is not None and cp is not None and self.failover is not None
        hb = self.failover.heartbeat
        assert hb is not None
        now = self.engine.now
        faults = self.faults
        if cp.dispatchable:
            if not (faults is not None and faults.heartbeat_should_drop()):
                if monitor.heartbeat("rms", now) == SUSPECT:
                    self._hb_rejoin("rms")
            if self.failover.lease_s is not None and self.active:
                # Leases renew on the heartbeat round while the control
                # plane is up; a dark control plane cannot renew, which
                # is exactly what lets a new primary age out orphans.
                expiry = now + self.failover.lease_s
                for entry in self.active.values():
                    entry.lease_expiry = expiry
        for node in sorted(self.rms.nodes, key=lambda n: n.node_id):
            node_id = node.node_id
            if node_id in self._dead_nodes or not monitor.watched(node_id):
                continue
            if faults is not None and faults.heartbeat_should_drop():
                continue  # lost in transit
            if monitor.heartbeat(node_id, now) == SUSPECT:
                self._hb_rejoin(node_id)
        for target in ("rms", *sorted(t for t in monitor.state if t != "rms")):
            worsened = monitor.evaluate(target, now)
            if worsened is None:
                continue
            if worsened == SUSPECT:
                self._hb_suspect(target, now)
            else:
                # A jump straight to DOWN still surfaces the suspect
                # step first so the trace lifecycle holds.
                if target not in self._suspected_targets:
                    self._hb_suspect(target, now)
                self._hb_confirm(target, now)
        if (
            self.engine.peek_time() is not None
            or self._dead_nodes
            or self._suspected_targets
            or not cp.dispatchable
        ):
            self.engine.schedule(hb.interval_s, self._heartbeat_tick)

    def schedule_link_degrade(
        self, time: float, a: int, b: int, *, factor: float, duration_s: float
    ) -> None:
        """Degrade the a-b link's bandwidth by *factor* for
        *duration_s*, then restore it.  Already-planned placements keep
        their prices (transfers were priced at dispatch); only new
        placements see the degraded link."""
        network = self.rms.network
        if network is None:
            return

        pair = frozenset((a, b))

        def degrade() -> None:
            if pair in self._degraded_pairs:
                return  # already degraded; overlapping draws collapse
            try:
                healthy = network.degrade(a, b, factor=factor)
            except NetworkError:
                return  # link currently absent (severed / site removed)
            self._degraded_pairs.add(pair)
            if self.faults is not None:
                self.faults.injected_link_faults += 1
            self._emit("link-fault", a=a, b=b, factor=factor)

            def heal() -> None:
                self._degraded_pairs.discard(pair)
                if network.has_link(a, b):
                    network.restore(a, b, healthy)
                self._emit("link-restore", a=a, b=b)
                self._dispatch_pending()

            self.engine.schedule(duration_s, heal)

        self.engine.schedule_at(time, degrade)

    def schedule_partition(
        self,
        time: float,
        group_a: list[int],
        group_b: list[int],
        *,
        heal_at_s: float,
    ) -> None:
        """Sever every direct link between the two node groups for the
        window [time, heal_at_s).  Placements whose input staging has no
        finite route are deferred (not errored) until the heal."""
        network = self.rms.network
        if network is None:
            return
        if heal_at_s <= time:
            raise ValueError("partition must heal after it starts")
        saved: list[tuple[int, int, object]] = []

        def split() -> None:
            for a in group_a:
                for b in group_b:
                    if network.has_link(a, b):
                        saved.append((a, b, network.sever(a, b)))
            self._emit("link-fault", a=-1, b=-1, partition=True, cut=len(saved))

            def heal() -> None:
                for a, b, link in saved:
                    network.restore(a, b, link)
                self._emit("link-restore", a=-1, b=-1)
                self._dispatch_pending()

            self.engine.schedule_at(heal_at_s, heal)

        self.engine.schedule_at(time, split)

    # ------------------------------------------------------------------
    # Fault handling: retry / backoff / fallback / terminal failure
    # ------------------------------------------------------------------
    def _fault(self, entry: _Entry, reason: str) -> None:
        """A fault destroyed *entry*'s placement and whatever its region
        held: release the resources, account the wasted work, and route
        the task into the retry policy."""
        placement = entry.placement
        assert placement is not None
        waste = self._waste(entry, placement)
        self._tear_down(entry, placement, clear_configuration=True)
        self._emit(
            "fault",
            entry.key,
            node=placement.candidate.node_id,
            reason=reason,
            **waste,
        )
        self._health_verdict(entry, placement.candidate.node_id, ok=False)
        entry.attempts += 1
        entry.excluded_nodes.add(placement.candidate.node_id)
        entry.failure_reason = reason
        self._release(entry, placement, waste["saved"])
        self._after_fault(entry)

    def _after_fault(self, entry: _Entry) -> None:
        """Apply the retry policy to a freshly faulted task."""
        policy = self.retry
        if entry.attempts < policy.max_attempts:
            self._schedule_requeue(entry, kind="retry")
            return
        if policy.gpp_fallback and self._to_gpp(entry):
            # A fresh retry budget on the software path.
            entry.attempts = 0
            entry.excluded_nodes.clear()
            self._schedule_requeue(entry, kind="fallback")
            return
        self._fail_terminally(entry)

    def _to_gpp(self, entry: _Entry) -> bool:
        """Graceful degradation (Section III-A software path), at most
        once per task: the same workload under GPP-class requirements.
        False when the task is already software or has no workload to
        move."""
        task = entry.task
        eligible = _movable(entry)
        if eligible:
            entry.task = replace(
                task,
                exec_req=ExecReq(
                    node_type=PEClass.GPP,
                    constraints=(),
                    artifacts=task.exec_req.artifacts,
                ),
            )
            entry.fell_back = True
        return eligible

    def _requeue(self, entry: _Entry) -> None:
        """Put a task whose placement was lost back in the queue."""
        self.pending.add(entry)
        self.requeues += 1

    def _schedule_requeue(self, entry: _Entry, *, kind: str) -> None:
        """Return *entry* to the queue after its exponential backoff."""
        delay = self.retry.backoff_s(max(1, entry.attempts))
        if self.telemetry is not None:
            self._t_backoff_gauge.inc()

        def requeue() -> None:
            if self.telemetry is not None:
                self._t_backoff_gauge.dec()
            if entry.discarded or entry.failed:
                return  # abandoned while waiting out the backoff
            if kind == "retry":
                self._emit("retry", entry.key, attempt=entry.attempts + 1)
            else:
                self._emit("fallback", entry.key)
            self._requeue(entry)
            self._dispatch_pending()

        self.engine.schedule(delay, requeue)

    def _fail_terminally(self, entry: _Entry) -> None:
        """Retry budget exhausted and no fallback left: the task fails,
        terminally and exactly once."""
        entry.failed = True
        reason = entry.failure_reason or "fault retry budget exhausted"
        self._terminate(
            entry,
            "task-failed",
            reason,
            entry.attempts,
            reason=reason,
            attempts=entry.attempts,
        )

    def _terminate(
        self,
        entry: _Entry,
        kind: str,
        jss_reason: str,
        jss_attempts: int | None,
        **payload,
    ) -> None:
        """The one terminal-failure path -- ``discard``, ``shed`` or
        ``task-failed`` -- taken once per task after the caller flagged
        the entry: the task leaves the queue and its watchdog, is
        traced, and fails its JSS task.  Only a failure marks a silent
        stream chunk's task, and only a refusal re-samples the gauges."""
        self.pending.discard(entry)  # not queued while in backoff or parked
        _cancel_all(entry.deadline_events)
        self._emit(kind, entry.key, **payload)
        failed = kind == "task-failed"
        if entry.job_id is not None and (failed or not entry.silent):
            self.jss.mark_failed(
                entry.job_id,
                entry.task.task_id,
                time=self.engine.now,
                reason=jss_reason,
                attempts=jss_attempts,
            )
        if not failed:
            self._telemetry_sample()

    # ------------------------------------------------------------------
    # Adaptive resilience: health feedback and circuit breakers
    # ------------------------------------------------------------------
    def _health_verdict(self, entry: _Entry, node_id: int, *, ok: bool) -> None:
        """Feed a placement's outcome into the node's health score.  A
        success may close the node's breaker; a loss may trip it."""
        if self.health is None:
            return
        record = self.health.record_success if ok else self.health.record_failure
        transition = record(node_id, self.engine.now, probe=entry.is_probe)
        entry.is_probe = False
        if transition == "close":
            self._emit("quarantine", node=node_id, phase="close")
        elif transition == "open":
            self._quarantine_opened(node_id)

    def _quarantine_opened(self, node_id: int) -> None:
        """*node_id*'s breaker just tripped: emit ``quarantine`` and
        schedule a queue wake-up (nothing else re-runs tasks deferred
        by a quarantine)."""
        health = self.health.node(node_id)
        self._emit(
            "quarantine",
            node=node_id,
            phase="open",
            score=round(health.score, 9),
            episode=health.quarantine_episodes,
        )
        self.engine.schedule(
            self.health.policy.open_duration_s, self._dispatch_pending
        )

    # ------------------------------------------------------------------
    # Adaptive resilience: deadline watchdog
    # ------------------------------------------------------------------
    def _arm_watchdog(self, entry: _Entry) -> None:
        """Schedule the soft/hard deadline timers at arrival.  Explicit
        per-task budgets win; otherwise they derive from the estimate."""
        spec = self.resilience.deadlines if self.resilience is not None else None
        if spec is None:
            return
        task = entry.task
        soft = (
            task.soft_deadline_s
            if task.soft_deadline_s is not None
            else spec.soft_deadline_s(task.t_estimated)
        )
        hard = (
            task.hard_deadline_s
            if task.hard_deadline_s is not None
            else spec.hard_deadline_s(task.t_estimated)
        )
        hard = max(hard, soft)
        entry.deadline_events.append(
            self.engine.schedule(soft, lambda: self._deadline(entry, soft, hard=False))
        )
        entry.deadline_events.append(
            self.engine.schedule(hard, lambda: self._deadline(entry, hard, hard=True))
        )

    def _deadline(self, entry: _Entry, budget_s: float, *, hard: bool) -> None:
        """A deadline timer fired before the task terminated.  A soft
        miss requeues a live placement elsewhere when the spec
        reschedules, and otherwise only warns; a hard miss tears down
        any placement and fails the task terminally."""
        if entry.completed or entry.discarded or entry.failed:
            return
        live = self.active.get(entry.key) is entry and entry.placement is not None
        if hard:
            action = "fail"
            reason = f"deadline_exceeded: hard deadline of {budget_s:.3f}s missed"
        else:
            reschedule = live and self.resilience.deadlines.reschedule
            action = "requeue" if reschedule else "warn"
            reason = f"soft deadline of {budget_s:.3f}s exceeded"
        cancel = live and action != "warn"
        torn: dict[str, object] = {}
        if cancel:
            torn = {
                "node": entry.placement.candidate.node_id,
                **self._waste(entry, entry.placement),
            }
        self._emit(
            "timeout",
            entry.key,
            deadline="hard" if hard else "soft",
            action=action,
            **torn,
            budget=budget_s,
        )
        if cancel:
            self._cancel_placement(entry, torn["saved"], reason=reason)
        if action == "requeue":
            # Soft cancels do not consume a retry attempt: they are a
            # policy choice, not a fault.  The slow node is excluded,
            # so the requeue lands elsewhere when anywhere else exists.
            self._schedule_requeue(entry, kind="retry")
        elif hard:
            entry.failure_reason = reason
            self._fail_terminally(entry)

    def _cancel_placement(self, entry: _Entry, saved_s: float, *, reason: str) -> None:
        """Watchdog teardown of a live placement: like :meth:`_fault`
        but accounted as a deadline miss, not a fault event.  The
        caller emits the ``timeout`` event first, carrying the waste
        (it performs the checker's state transition), and decides what
        happens next (requeue or terminal failure)."""
        placement = entry.placement
        assert placement is not None
        self._tear_down(entry, placement, clear_configuration=False)
        self._health_verdict(entry, placement.candidate.node_id, ok=False)
        entry.excluded_nodes.add(placement.candidate.node_id)
        entry.failure_reason = reason
        self._release(entry, placement, saved_s)

    def _waste(self, entry: _Entry, placement: Placement) -> dict[str, float]:
        """What losing the live *placement* of *entry* now costs, as
        fields of the event that reports the loss: the ``wasted``
        seconds since dispatch, that waste weighted by the occupied
        fabric slices (``wasted_slice_s``), and the seconds of progress
        the newest checkpoint ``saved``."""
        saved = self._checkpoint_credit(entry, placement)
        wasted = max(0.0, self.engine.now - entry.dispatched_at - saved)
        slice_seconds = 0.0
        if placement.region is not None:
            slice_seconds = wasted * placement.region.slices
        return {"wasted": wasted, "wasted_slice_s": slice_seconds, "saved": saved}

    def _tear_down(
        self, entry: _Entry, placement: Placement, *, clear_configuration: bool
    ) -> None:
        """Release the live *placement* of *entry* (fault, watchdog or
        orphan): cancel its pending events and free its resources."""
        _cancel_all(entry.events)
        self._emit_slice("slice-free", entry)
        if self.rms.abort_placement(
            placement, clear_configuration=clear_configuration
        ):
            self._freed(placement)

    def _freed(self, placement: Placement) -> None:
        """*placement*'s processing element is free again: the queue
        re-offers the requirements it can serve (an empty queue's next
        entries are offered anyway)."""
        if not self.pending:
            return
        kind = placement.candidate.kind
        region = placement.region
        if region is not None:
            hosted = region.region_id in placement.candidate.pe.hosted_softcores
            kind = PEClass.SOFTCORE if hosted else PEClass.RPE
        self.pending.release(kind)

    def _return_probe(self, entry: _Entry, node_id: int) -> None:
        """A loss that is no evidence against the node returns its
        unconsumed half-open probe slot without judgment."""
        if entry.is_probe and self.health is not None:
            self.health.abort_probe(node_id)
        entry.is_probe = False

    def _release(
        self, entry: _Entry, placement: Placement, preserved_s: float | None = None
    ) -> None:
        """The tail of every lost placement: *entry* holds nothing and is
        no longer active.  With the seconds a checkpoint *preserved_s*,
        the task also shrinks to its un-checkpointed remainder and the
        gauges re-sample; a graceful leave passes none."""
        self._return_probe(entry, placement.candidate.node_id)
        entry.dispatched = False
        entry.placement = None
        self.active.pop(entry.key, None)
        if preserved_s is not None:
            self._apply_checkpoint_resume(entry, placement, preserved_s)
            self._telemetry_sample()

    # ------------------------------------------------------------------
    # Adaptive resilience: checkpoint/restart + migration
    # ------------------------------------------------------------------
    def _checkpoint_credit(self, entry: _Entry, placement: Placement) -> float:
        """Execution seconds (on *placement*) preserved by the newest
        checkpoint; zero without checkpointing."""
        if entry.checkpoint_frac <= 0.0:
            return 0.0
        return entry.checkpoint_frac * placement.exec_time_s

    def _apply_checkpoint_resume(
        self, entry: _Entry, placement: Placement, preserved_s: float
    ) -> None:
        """Shrink a fault/timeout-hit task to its un-checkpointed
        remainder so the next placement only redoes the lost tail.
        Fractions (not seconds) transplant across PEs with different
        speeds -- the same scaling idiom as stream chunking and the
        GPP fallback."""
        if entry.checkpoint_frac <= 0.0:
            return
        remaining = 1.0 - entry.checkpoint_frac
        task = entry.task
        entry.task = replace(
            task,
            t_estimated=task.t_estimated * remaining,
            workload_mi=task.effective_workload_mi * remaining,
        )
        entry.resumed_from = placement.candidate.node_id
        entry.checkpoint_frac = 0.0

    def _schedule_checkpoints(self, entry: _Entry, placement: Placement) -> float:
        """Schedule progress snapshots for a fabric-hosted execution;
        returns the total checkpoint overhead added to the execution
        time.  Handles live in ``entry.events`` so a fault cancels any
        snapshots it outran."""
        spec = self.resilience.checkpoint if self.resilience is not None else None
        if (
            spec is None
            or placement.region is None
            or placement.exec_time_s <= spec.interval_s
        ):
            return 0.0
        # Snapshots at k * interval of *progress*, strictly before the
        # end of execution (a checkpoint at completion is useless).
        count = int((placement.exec_time_s - 1e-12) // spec.interval_s)
        for k in range(1, count + 1):
            frac = (k * spec.interval_s) / placement.exec_time_s
            # The snapshot becomes durable after its own overhead.
            at = k * spec.interval_s + k * spec.overhead_s
            entry.events.append(
                self.engine.schedule(at, self._make_checkpoint(entry, frac))
            )
        return count * spec.overhead_s

    def _make_checkpoint(self, entry: _Entry, frac: float) -> Callable[[], None]:
        def take() -> None:
            placement = entry.placement
            if placement is None:  # pragma: no cover - defensive
                return
            entry.checkpoint_frac = frac
            spec = self.resilience.checkpoint
            assert spec is not None
            self._emit(
                "checkpoint",
                entry.key,
                node=placement.candidate.node_id,
                region=placement.region_id,
                frac=frac,
                overhead=spec.overhead_s,
            )

        return take

    # ------------------------------------------------------------------
    # Core event handlers
    # ------------------------------------------------------------------
    def _arrive(
        self,
        task: Task,
        *,
        job_id: int | None = None,
        key: object | None = None,
        on_complete: Callable[[_Entry], None] | None = None,
        silent: bool = False,
    ) -> None:
        entry = _Entry(
            key=key if key is not None else task.task_id,
            task=task,
            job_id=job_id,
            on_complete=on_complete,
            silent=silent,
            arrival=self.engine.now,
        )
        # Priority/tenant ride along only when set, so traces of
        # untagged workloads are byte-identical to pre-overload runs.
        extra: dict[str, object] = {}
        if task.priority:
            extra["priority"] = task.priority
        if task.tenant:
            extra["tenant"] = task.tenant
        deps = sorted(task.predecessor_ids)
        if deps:
            # Task-graph edges feed critical-path extraction in
            # sim/analysis.py; synthetic workloads have none, so their
            # traces stay byte-identical.
            extra["deps"] = deps
        self._emit(
            "submit",
            entry.key,
            function=task.function,
            pe_class=task.exec_req.node_type.value,
            **extra,
        )
        if self.admission is None:
            self._admit(entry)
        else:
            self._offer(entry)

    def _admit(self, entry: _Entry) -> None:
        """Accept a submission into the pending queue (the entire
        pre-admission arrival tail lives here unchanged)."""
        self.pending.add(entry)
        self._arm_watchdog(entry)
        if self.discard_after_s is not None:
            deadline = self.discard_after_s

            def maybe_discard() -> None:
                if not entry.dispatched and not entry.discarded and not entry.failed:
                    entry.discarded = True
                    reason = f"discarded after {deadline:g}s pending"
                    self._terminate(
                        entry,
                        "discard",
                        entry.failure_reason or reason,
                        entry.attempts or None,
                    )

            self.engine.schedule(deadline, maybe_discard)
        self._dispatch_pending()

    # ------------------------------------------------------------------
    # Overload protection (no-ops while ``admission`` is None)
    # ------------------------------------------------------------------
    def _offer(self, entry: _Entry) -> None:
        """Route a submission through admission control: a fresh one,
        or one re-offered after its deferral (unless it was abandoned
        while parked)."""
        if entry.discarded or entry.failed:
            return
        ctl = self.admission
        assert ctl is not None
        depth = len(self.pending)
        if entry.defers:
            decision, reason = ctl.decide_reoffer(depth, entry.defers)
            extra = {"deferred": entry.defers}
        else:
            decision, reason = ctl.decide_submit(self.engine.now, depth)
            extra = {}
        if decision == ADMIT:
            self._emit("admit", entry.key, depth=depth, **extra)
            self._admit(entry)
        elif decision == DEFER:
            self._defer(entry, reason)
        else:
            self._shed(entry, reason)

    def _defer(self, entry: _Entry, reason: str) -> None:
        """Backpressure: park the submission outside the queue and
        re-offer it after the configured delay."""
        ctl = self.admission
        assert ctl is not None
        queue = ctl.spec.queue
        assert queue is not None
        entry.defers += 1
        self._emit(
            "defer",
            entry.key,
            reason=reason,
            attempt=entry.defers,
            depth=len(self.pending),
        )
        self.engine.schedule(queue.defer_delay_s, lambda: self._offer(entry))

    def _shed(self, entry: _Entry, reason: str) -> None:
        """Terminally reject a submission (admission refusal or
        brownout load shedding).  ``discarded`` is set too so every
        existing timer guard (watchdog, discard, backoff requeue)
        already skips shed entries."""
        entry.discarded = True
        entry.shed = True
        self._terminate(entry, "shed", f"shed: {reason}", None, reason=reason)

    def _shed_excess(self) -> None:
        """Brownout stage 3: shed queued work down to the recovery
        watermark, lowest priority first, newest first within a
        priority class (oldest submissions have waited longest and are
        closest to service)."""
        ctl = self.admission
        assert ctl is not None
        brownout = ctl.spec.brownout
        assert brownout is not None
        excess = len(self.pending) - brownout.exit_pending
        if excess <= 0:
            return
        queued = list(self.pending)
        order = sorted(
            range(len(queued)), key=lambda i: (queued[i].task.priority, -i)
        )
        for victim in [queued[i] for i in order[:excess]]:
            self._shed(victim, "brownout")

    def _admission_observe(self) -> None:
        """Feed the live queue depth into the brownout controller and
        act on any transition.  Runs after every dispatch round and on
        scheduled dwell reviews; the review chain only persists while a
        transition is actually pending, so a drained grid always lets
        the engine terminate."""
        ctl = self.admission
        assert ctl is not None
        if ctl.spec.brownout is None:
            return
        transition = ctl.observe(self.engine.now, len(self.pending))
        if transition is not None:
            old, new = transition
            action = "escalate" if new > old else "recover"
            self._emit(
                "brownout",
                action=action,
                stage=new,
                depth=len(self.pending),
            )
        if ctl.stage >= 3:
            self._shed_excess()
        at = ctl.next_review()
        if at is not None and not ctl.review_scheduled:
            ctl.review_scheduled = True
            self.engine.schedule(
                max(0.0, at - self.engine.now), self._admission_review
            )

    def _admission_review(self) -> None:
        ctl = self.admission
        assert ctl is not None
        ctl.review_scheduled = False
        self._admission_observe()

    def _dispatch_pending(self) -> None:
        """One pass over the queue in arrival order; each successful
        dispatch immediately reserves resources, so later entries see
        the updated state.

        The pass is one RMS dispatch round (``open_round``): within it,
        a requirement that found no candidate is not matched again until
        the next commit.  :class:`~repro.sim.pending.PendingQueue` skips
        such a requirement's whole group at once, and re-offers only
        the newcomers while nothing was released since the last pass.
        A round whose requests the utilization gate vetoed ends with one
        ``gated`` event that counts them.
        """
        if self.control_plane is not None and not self.control_plane.dispatchable:
            # The control plane is dark: no placement decisions are
            # possible.  The queue waits for the failover / restart
            # handler, which re-runs this pass on recovery.
            self._telemetry_sample()
            if self.admission is not None:
                self._admission_observe()
            return
        rms = self.rms
        admission = self.admission
        stage = admission.stage if admission is not None else 0
        opened = rms.open_round()
        try:
            self.pending.dispatch(
                rms,
                self._try_dispatch,
                self._degrade_low_priority if stage >= 2 else None,
                self._suspected_targets,
                self.health,
                self.engine.now,
            )
        finally:
            if opened:
                rms.close_round()
        if opened and rms.gated:
            self._emit("gated", requests=rms.gated)
        self._telemetry_sample()
        if admission is not None:
            self._admission_observe()

    def _degrade_low_priority(self, entry: _Entry) -> None:
        """Brownout stage 2: low-priority work is forced onto the
        software path before placement -- same graceful-degradation
        rewrite as the fault-recovery GPP fallback."""
        if not (entry.task.priority < 0 and self._to_gpp(entry)):
            return
        admission = self.admission
        assert admission is not None
        self._emit("degrade", entry.key, stage=admission.stage)

    def _try_dispatch(self, entry: _Entry) -> bool:
        data_sites = {
            data.source_task_id: self._output_sites[(entry.job_id, data.source_task_id)]
            for data in entry.task.data_in
            if (entry.job_id, data.source_task_id) in self._output_sites
        } or None
        # Avoid the nodes this task faulted on and those the detector
        # already suspects.
        exclude = entry.excluded_nodes
        if self._suspected_targets:
            suspects = {t for t in self._suspected_targets if t != "rms"}
            if suspects:
                exclude = exclude | suspects
        try:
            placement = self.rms.plan_placement(
                entry.task,
                data_sites=data_sites,
                exclude_nodes=exclude or None,
                now=self.engine.now,
            )
            if placement is None and exclude:
                # Starvation guard: when exclusions leave nowhere to go,
                # forgive them rather than strand the task forever.
                # Quarantine is enforced *inside* plan_placement and is
                # never forgiven: an open breaker gets zero placements.
                placement = self.rms.plan_placement(
                    entry.task, data_sites=data_sites, now=self.engine.now
                )
        except SchedulingError as exc:
            entry.failure_reason = str(exc)
            return False
        if placement is None:
            return False
        if not math.isfinite(placement.total_time_s):
            # Partitioned network: no finite route for the inputs.
            # Defer; the link-restore handler re-runs the queue.
            entry.failure_reason = "no finite-cost route (network partition)"
            return False
        if self.health is not None and self.health.is_probation(
            placement.candidate.node_id, self.engine.now
        ):
            # Probationary trickle through a half-open breaker: the
            # probe event precedes the dispatch, telling the checker
            # this placement is sanctioned.
            entry.is_probe = True
            self.health.note_probe(placement.candidate.node_id)
            self._emit("probe", entry.key, node=placement.candidate.node_id)
        self.rms.commit(placement)
        entry.dispatched = True
        entry.placement = placement
        self.active[entry.key] = entry
        entry.dispatched_at = self.engine.now
        self._emit(
            "dispatch",
            entry.key,
            node=placement.candidate.node_id,
            resource=placement.candidate.resource_id,
            resource_index=placement.candidate.resource_index,
            region=placement.region_id,
            pe_kind=placement.candidate.kind.value,
            function=entry.task.function,
            reused=placement.reused_configuration,
            slices=(
                placement.bitstream.required_slices
                if placement.bitstream is not None
                else task_required_slices(entry.task)
            ),
            transfer_time=placement.transfer_time_s,
            synthesis_time=placement.synthesis_time_s,
            reconfig_time=placement.reconfig_time_s,
        )
        if self._listening:
            self._emit_slice("slice-alloc", entry)
            if placement.reconfig_time_s > 0:
                self._emit(
                    "reconfigure",
                    entry.key,
                    node=placement.candidate.node_id,
                    resource=placement.candidate.resource_id,
                    region=placement.region_id,
                    function=entry.task.function,
                    duration=placement.reconfig_time_s,
                )
        if entry.resumed_from is not None:
            # This dispatch resumes checkpointed work lost to a fault
            # or timeout: the task migrated (possibly back, under the
            # starvation guard) carrying its preserved progress.
            self._emit(
                "migrate",
                entry.key,
                node=placement.candidate.node_id,
                from_node=entry.resumed_from,
            )
            entry.resumed_from = None
        if self.failover is not None and self.failover.lease_s is not None:
            entry.lease_expiry = self.engine.now + self.failover.lease_s
        self._launch(entry)
        return True

    def _launch(self, entry: _Entry) -> None:
        """The tail of every committed placement.  On a node that
        already died silently, the launch stalls: nothing will ever come
        back from it, so nothing is scheduled until the detector
        confirms the loss or the node reboots, and either one scraps
        it.  Otherwise the start fires once setup is done, unless the
        placement draws a configuration fault."""
        placement = entry.placement
        assert placement is not None
        if placement.candidate.node_id in self._dead_nodes:
            return
        start = self._start
        # A configuration-port load (fresh bitstream or soft-core
        # provisioning) may fail: the fault surfaces when the load
        # would have completed, scrapping the setup work.
        if (
            self.faults is not None
            and placement.reconfig_time_s > 0
            and placement.candidate.kind is not PEClass.GPP
            and placement.candidate.kind is not PEClass.GPU
            and self.faults.config_should_fail()
        ):
            start = self._configuration_failed
        entry.events.append(
            self.engine.schedule(placement.setup_time_s, lambda: start(entry))
        )

    def _configuration_failed(self, entry: _Entry) -> None:
        placement = entry.placement
        assert placement is not None
        self._fault(
            entry,
            f"configuration of {entry.task.function or 'soft core'} failed on "
            f"node {placement.candidate.node_id} (region {placement.region_id})",
        )

    def _execution_fault(self, entry: _Entry) -> None:
        placement = entry.placement
        assert placement is not None
        self._fault(
            entry,
            f"SEU corrupted {entry.task.function or 'task'} on node "
            f"{placement.candidate.node_id} (region {placement.region_id})",
        )

    def _start(self, entry: _Entry) -> None:
        placement = entry.placement
        assert placement is not None
        self.rms.begin_execution(placement)
        node_id = placement.candidate.node_id
        self._emit("start", entry.key, node=node_id)
        if entry.job_id is not None:
            self.jss.mark_started(
                entry.job_id, entry.task.task_id, time=self.engine.now, node_id=node_id
            )
        # Progress snapshots for fabric tasks; overhead stretches the
        # execution.  Scheduled before the SEU branch so snapshots
        # taken ahead of the strike survive it (the fault cancels any
        # that were still pending).
        overhead_s = self._schedule_checkpoints(entry, placement)
        # Transient SEU hazard while a fabric-hosted task executes: one
        # draw per start decides whether (and when) the circuit is
        # corrupted before it can finish.
        if self.faults is not None and placement.region is not None:
            seu_at = self.faults.seu_delay_s(placement.exec_time_s)
            if seu_at is not None:
                entry.events.append(
                    self.engine.schedule(seu_at, lambda: self._execution_fault(entry))
                )
                return
        entry.events.append(
            self.engine.schedule(
                placement.exec_time_s + overhead_s, lambda: self._finish(entry)
            )
        )

    def _finish(self, entry: _Entry) -> None:
        placement = entry.placement
        assert placement is not None
        self.rms.finish_execution(placement)
        self._freed(placement)
        self._health_verdict(entry, placement.candidate.node_id, ok=True)
        entry.completed = True
        _cancel_all(entry.deadline_events)
        self._emit("complete", entry.key, node=placement.candidate.node_id)
        self._emit_slice("slice-free", entry)
        self.active.pop(entry.key, None)
        self._output_sites[(entry.job_id, entry.task.task_id)] = (
            placement.candidate.node_id
        )
        if entry.job_id is not None and not entry.silent:
            self.jss.mark_completed(entry.job_id, entry.task.task_id, time=self.engine.now)
        if entry.on_complete is not None:
            entry.on_complete(entry)
        self._dispatch_pending()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> SimulationReport:
        self.engine.run(until=until, max_events=max_events)
        now = self.engine.now
        slo = self.slo.finalize(now, self.telemetry) if self.slo is not None else []
        return self.metrics.report(now, slo=slo)
