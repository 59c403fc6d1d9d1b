"""Simulation metrics: per-task records, per-resource utilization,
reconfiguration statistics, and aggregate reports.

These are the observables DReAMSim exists to measure: waiting times,
turnaround, how often configuration reuse fires, how much time the grid
burns reconfiguring, and how busy each processing element is under a
given scheduling strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class TaskMetrics:
    """Timeline of one task through the simulator."""

    key: object
    function: str = ""
    #: Owning tenant label ("" in single-tenant runs).
    tenant: str = ""
    pe_kind: str = ""
    node_id: int | None = None
    resource_index: int | None = None
    slices: int = 0
    arrival: float = 0.0
    dispatch: float | None = None
    start: float | None = None
    finish: float | None = None
    transfer_time: float = 0.0
    synthesis_time: float = 0.0
    reconfig_time: float = 0.0
    reused_configuration: bool = False
    discarded: bool = False
    # --- fault-injection observables (all zero in fault-free runs) ---
    failed: bool = False
    failure_reason: str | None = None
    faults: int = 0
    retries: int = 0
    fell_back_to_gpp: bool = False
    first_fault: float | None = None
    #: Setup/execution seconds thrown away by faults (work that had to
    #: be redone or was abandoned).
    wasted_time_s: float = 0.0
    #: The same waste weighted by the fabric slices it occupied.
    wasted_slice_seconds: float = 0.0
    # --- resilience observables (all zero/None when the layer is off) ---
    #: Worst deadline this task missed: None, "soft", or "hard".
    deadline_missed: str | None = None
    #: Progress checkpoints taken across all placements of this task.
    checkpoints: int = 0
    #: Execution seconds spent writing those checkpoints.
    checkpoint_overhead_s: float = 0.0
    #: Seconds of progress a checkpoint preserved across faults (work
    #: the pre-resilience simulator would have counted as wasted).
    wasted_work_saved_s: float = 0.0
    #: Checkpoint resumes re-placed on a (possibly different) node.
    migrations: int = 0
    #: A speculative replica was launched for this task.
    speculated: bool = False
    #: ... and the replica finished first.
    speculative_win: bool = False
    # --- overload-protection observables (zero when admission is off) ---
    #: Terminal rejection by the admission controller / load shedder.
    shed: bool = False
    shed_reason: str | None = None
    #: Backpressure deferrals this submission absorbed before admission.
    defers: int = 0
    #: Brownout stage 2 forced this low-priority task onto GPP.
    degraded_to_gpp: bool = False

    @property
    def wait_time(self) -> float | None:
        """Arrival to dispatch: queueing delay."""
        if self.dispatch is None:
            return None
        return self.dispatch - self.arrival

    @property
    def turnaround(self) -> float | None:
        if self.finish is None:
            return None
        return self.finish - self.arrival


@dataclass
class ResourceUsage:
    """Busy-time accumulator for one PE (or fabric region)."""

    label: str
    busy_s: float = 0.0
    tasks_executed: int = 0

    def utilization(self, horizon_s: float) -> float:
        if horizon_s <= 0:
            return 0.0
        return min(1.0, self.busy_s / horizon_s)


@dataclass
class SimulationReport:
    """Aggregates over a finished run."""

    horizon_s: float
    completed: int
    discarded: int
    pending: int
    mean_wait_s: float
    p95_wait_s: float
    mean_turnaround_s: float
    makespan_s: float
    reconfigurations: int
    total_reconfig_time_s: float
    reuse_hits: int
    reuse_rate: float
    mean_utilization: float
    per_resource_utilization: dict[str, float]
    tasks_by_pe_kind: dict[str, int]
    # --- fault-injection / recovery aggregates (defaults keep stored
    # reports from fault-free runs loadable) ---
    failed: int = 0
    fault_events: int = 0
    retries: int = 0
    gpp_fallbacks: int = 0
    #: Fraction of node-seconds the grid's nodes were up over the run.
    availability: float = 1.0
    #: Mean time to repair: first fault to eventual completion, over
    #: tasks that recovered.
    mttr_s: float = 0.0
    #: Setup/execution seconds lost to faults (redone or abandoned).
    wasted_work_s: float = 0.0
    #: The same waste weighted by occupied fabric slices.
    wasted_slice_seconds: float = 0.0
    #: Completed tasks per second of horizon -- throughput that *only*
    #: counts work that survived the faults.
    goodput_tasks_per_s: float = 0.0
    # --- adaptive-resilience aggregates (defaults keep stored reports
    # from pre-resilience runs loadable) ---
    #: Soft / hard deadline misses counted by the watchdog.
    deadline_soft_misses: int = 0
    deadline_hard_misses: int = 0
    #: Fraction of submitted tasks that missed any deadline.
    deadline_miss_rate: float = 0.0
    #: Circuit-breaker trips (CLOSED -> OPEN episodes) across nodes.
    quarantines: int = 0
    #: Node-seconds spent quarantined (OPEN or HALF_OPEN).
    quarantine_time_s: float = 0.0
    #: Progress checkpoints taken and the execution time they cost.
    checkpoints: int = 0
    checkpoint_overhead_s: float = 0.0
    #: Fault-hit progress preserved by checkpoints instead of redone.
    wasted_work_saved_s: float = 0.0
    #: Checkpoint resumes re-placed after a fault or timeout.
    migrations: int = 0
    #: Speculative replicas: launched, won, and the loser-side waste.
    speculative_launches: int = 0
    speculative_wins: int = 0
    speculative_win_rate: float = 0.0
    speculative_wasted_s: float = 0.0
    # --- latency percentiles (defaults keep stored reports from
    # earlier runs loadable; ``p95_wait_s`` above predates these) ---
    p50_wait_s: float = 0.0
    p99_wait_s: float = 0.0
    p50_turnaround_s: float = 0.0
    p95_turnaround_s: float = 0.0
    p99_turnaround_s: float = 0.0
    # --- overload-protection aggregates (defaults keep stored reports
    # from pre-admission runs loadable) ---
    #: Submissions rejected terminally by admission / load shedding.
    shed: int = 0
    #: Backpressure deferral events (one submission may defer several
    #: times before it is finally admitted or shed).
    admission_deferrals: int = 0
    #: Matchmaking rounds vetoed by the utilization gate.
    placements_gated: int = 0
    #: Low-priority tasks brownout stage 2 forced onto GPP execution.
    brownout_degraded: int = 0
    #: Brownout stage transitions (escalations + recoveries).
    brownout_transitions: int = 0
    brownout_max_stage: int = 0
    #: Simulated seconds spent at any brownout stage > 0.
    brownout_time_s: float = 0.0
    #: Completions per second *while degraded* -- the throughput the
    #: protected system still delivered under overload.
    overload_goodput_tasks_per_s: float = 0.0
    # --- control-plane fault-tolerance aggregates (defaults keep
    # stored reports from pre-failover runs loadable) ---
    #: Primary RMS crashes / gray-failure episodes injected.
    rms_crashes: int = 0
    rms_gray_events: int = 0
    #: Warm-standby promotions that completed.
    failovers: int = 0
    #: Sim seconds the control plane could not make placement
    #: decisions (crash + gray windows, failover takeover included).
    control_plane_downtime_s: float = 0.0
    #: Confirmed failure detections and their death-to-confirm latency.
    detections: int = 0
    detection_latency_p50_s: float = 0.0
    detection_latency_p95_s: float = 0.0
    #: Suspicions that cleared (or confirms that proved wrong) -- the
    #: detector's false-positive count.
    false_suspicions: int = 0
    #: Placements whose lease lapsed while the control plane was dark.
    leases_expired: int = 0
    #: Placements orphaned by control-plane loss -- every one of them
    #: re-queued, so recovered == orphaned (the conservation invariant
    #: extends over failover).
    orphaned_tasks: int = 0
    orphans_recovered: int = 0
    # --- per-tenant aggregates (empty in single-tenant runs; defaults
    # keep stored reports loadable) ---
    #: tenant -> {completed, shed, failed, mean/p50/p95/p99 wait and
    #: turnaround}, tenants in order of first arrival.
    per_tenant: dict[str, dict[str, float]] = field(default_factory=dict)
    # --- SLO monitoring aggregates (zero/empty unless the run armed an
    # ``SLOSpec``; defaults keep stored reports loadable) ---
    #: Objectives the monitor evaluated over the run.
    slo_objectives: int = 0
    #: Breach episodes (begin/end pairs) across all objectives.
    slo_breaches: int = 0
    #: Burn-rate alerts fired and resolved (horizon-close included).
    slo_alerts_fired: int = 0
    slo_alerts_resolved: int = 0
    #: objective name -> fraction of the horizon spent in compliance.
    slo_attainment: dict[str, float] = field(default_factory=dict)
    #: objective name -> error budget left (1 = untouched, 0 = spent).
    slo_error_budget_remaining: dict[str, float] = field(default_factory=dict)
    #: objective name -> sim seconds spent in breach.
    slo_breach_seconds: dict[str, float] = field(default_factory=dict)
    #: Names of objectives that blew their error budget.
    slo_violated: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        """Human-readable report (printed by benches and examples)."""
        lines = [
            f"horizon              {self.horizon_s:10.2f} s",
            f"completed / discarded / pending   {self.completed} / {self.discarded} / {self.pending}",
            f"mean wait            {self.mean_wait_s:10.4f} s   "
            f"(p50 {self.p50_wait_s:.4f}  p95 {self.p95_wait_s:.4f}  p99 {self.p99_wait_s:.4f})",
            f"mean turnaround      {self.mean_turnaround_s:10.4f} s   "
            f"(p50 {self.p50_turnaround_s:.4f}  p95 {self.p95_turnaround_s:.4f}  "
            f"p99 {self.p99_turnaround_s:.4f})",
            f"makespan             {self.makespan_s:10.2f} s",
            f"reconfigurations     {self.reconfigurations:6d}  ({self.total_reconfig_time_s:.3f} s total)",
            f"configuration reuse  {self.reuse_hits:6d}  (rate {self.reuse_rate:.2%})",
            f"mean PE utilization  {self.mean_utilization:10.2%}",
            "tasks by PE kind     "
            + ", ".join(f"{k}: {v}" for k, v in sorted(self.tasks_by_pe_kind.items())),
        ]
        if self.fault_events or self.failed:
            lines += [
                f"faults / retries / fallbacks   {self.fault_events} / {self.retries} / {self.gpp_fallbacks}",
                f"failed tasks         {self.failed:6d}",
                f"availability         {self.availability:10.2%}",
                f"MTTR                 {self.mttr_s:10.4f} s",
                f"wasted work          {self.wasted_work_s:10.4f} s   ({self.wasted_slice_seconds:.1f} slice-s)",
                f"goodput              {self.goodput_tasks_per_s:10.4f} tasks/s",
            ]
        if (
            self.deadline_soft_misses
            or self.deadline_hard_misses
            or self.quarantines
            or self.checkpoints
            or self.speculative_launches
        ):
            lines += [
                f"deadline misses      soft {self.deadline_soft_misses} / "
                f"hard {self.deadline_hard_misses}   (miss rate {self.deadline_miss_rate:.2%})",
                f"quarantines          {self.quarantines:6d}  ({self.quarantine_time_s:.2f} node-s)",
                f"checkpoints          {self.checkpoints:6d}  "
                f"(overhead {self.checkpoint_overhead_s:.3f} s, saved {self.wasted_work_saved_s:.3f} s)",
                f"migrations           {self.migrations:6d}",
                f"speculation          {self.speculative_launches} launched / "
                f"{self.speculative_wins} won  (win rate {self.speculative_win_rate:.2%}, "
                f"wasted {self.speculative_wasted_s:.3f} s)",
            ]
        if (
            self.shed
            or self.admission_deferrals
            or self.placements_gated
            or self.brownout_transitions
        ):
            lines += [
                f"overload protection  shed {self.shed} / deferred "
                f"{self.admission_deferrals} / gated {self.placements_gated}",
                f"brownout             {self.brownout_transitions} transitions  "
                f"(max stage {self.brownout_max_stage}, "
                f"{self.brownout_time_s:.2f} s degraded, "
                f"{self.brownout_degraded} forced to GPP)",
                f"goodput (degraded)   {self.overload_goodput_tasks_per_s:10.4f} tasks/s",
            ]
        if self.rms_crashes or self.rms_gray_events or self.detections or self.orphaned_tasks:
            lines += [
                f"control plane        {self.rms_crashes} crashes / "
                f"{self.rms_gray_events} gray  "
                f"({self.control_plane_downtime_s:.2f} s dark, "
                f"{self.failovers} failovers)",
                f"detection latency    p50 {self.detection_latency_p50_s:.3f} s  "
                f"p95 {self.detection_latency_p95_s:.3f} s  "
                f"({self.detections} confirmed, "
                f"{self.false_suspicions} false suspicions)",
                f"orphans              {self.orphaned_tasks} orphaned / "
                f"{self.orphans_recovered} recovered  "
                f"({self.leases_expired} leases expired)",
            ]
        for name, row in self.per_tenant.items():
            lines.append(
                f"tenant {name:<14s}{int(row['completed'])} done / "
                f"{int(row['shed'])} shed / {int(row['failed'])} failed   "
                f"(p95 wait {row['p95_wait_s']:.4f} s, "
                f"p95 turnaround {row['p95_turnaround_s']:.4f} s)"
            )
        if self.slo_objectives:
            lines.append(
                f"SLO                  {self.slo_objectives} objectives / "
                f"{len(self.slo_violated)} violated   "
                f"({self.slo_breaches} breaches, "
                f"{self.slo_alerts_fired} alerts fired / "
                f"{self.slo_alerts_resolved} resolved)"
            )
            for name, attainment in self.slo_attainment.items():
                budget = self.slo_error_budget_remaining.get(name, 0.0)
                verdict = "VIOLATED" if name in self.slo_violated else "ok"
                lines.append(
                    f"  {name:<32s} attainment {attainment:8.2%}  "
                    f"budget left {budget:7.2%}  {verdict}"
                )
        return lines


#: Layout version of ``repro simulate --report-json`` dumps.
REPORT_DUMP_FORMAT = 1


def report_dump(spec, report: SimulationReport, *, energy=None) -> dict:
    """A self-describing JSON document for one finished run.

    Carries the full spec, the report, and a provenance stamp so
    ``repro diff`` can compare two dumps -- or refuse, when the stamps
    show the runs are not comparable.
    """
    from dataclasses import asdict

    from repro.provenance import run_provenance

    return {
        "format": REPORT_DUMP_FORMAT,
        "kind": "report-dump",
        "provenance": run_provenance(spec),
        "spec": asdict(spec),
        "report": asdict(report),
        "energy": asdict(energy) if energy is not None else None,
    }


def write_report_dump(path, spec, report: SimulationReport, *, energy=None) -> None:
    """Persist a :func:`report_dump` document (``repro diff`` input)."""
    import json
    from pathlib import Path

    Path(path).write_text(
        json.dumps(report_dump(spec, report, energy=energy),
                   indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )


def _tenant_row(
    *,
    completed: int,
    shed: int,
    failed: int,
    waits: np.ndarray,
    turnarounds: np.ndarray,
) -> dict[str, float]:
    """One tenant's aggregate row, shared by both collectors so the
    arithmetic (numpy mean/percentile over identical value multisets)
    cannot drift apart."""
    return {
        "completed": completed,
        "shed": shed,
        "failed": failed,
        "mean_wait_s": float(waits.mean()) if waits.size else 0.0,
        "p50_wait_s": float(np.percentile(waits, 50)) if waits.size else 0.0,
        "p95_wait_s": float(np.percentile(waits, 95)) if waits.size else 0.0,
        "p99_wait_s": float(np.percentile(waits, 99)) if waits.size else 0.0,
        "mean_turnaround_s": (
            float(turnarounds.mean()) if turnarounds.size else 0.0
        ),
        "p50_turnaround_s": (
            float(np.percentile(turnarounds, 50)) if turnarounds.size else 0.0
        ),
        "p95_turnaround_s": (
            float(np.percentile(turnarounds, 95)) if turnarounds.size else 0.0
        ),
        "p99_turnaround_s": (
            float(np.percentile(turnarounds, 99)) if turnarounds.size else 0.0
        ),
    }


class MetricsCollector:
    """Accumulates task and resource records during a run."""

    def __init__(self) -> None:
        self.tasks: dict[object, TaskMetrics] = {}
        self.resources: dict[str, ResourceUsage] = {}
        #: Node ids ever part of the grid (denominator of availability).
        self.known_nodes: set[int] = set()
        #: node_id -> time it went down (open downtime window).
        self._down_since: dict[int, float] = {}
        #: node_id -> accumulated downtime of closed windows.
        self._downtime: dict[int, float] = {}
        self.fault_events = 0
        self.retry_events = 0
        self.fallback_events = 0
        # --- adaptive-resilience counters ---
        self.deadline_soft_misses = 0
        self.deadline_hard_misses = 0
        self.checkpoint_events = 0
        self.checkpoint_overhead_s = 0.0
        self.wasted_work_saved_s = 0.0
        self.migration_events = 0
        self.speculative_launches = 0
        self.speculative_wins = 0
        self.speculative_wasted_s = 0.0
        #: Pushed by the simulator from its HealthTracker at report time.
        self.quarantines = 0
        self.quarantine_time_s = 0.0
        # --- overload-protection counters ---
        self.shed_events = 0
        self.defer_events = 0
        self.brownout_degraded = 0
        #: Pushed by the simulator from its AdmissionController at
        #: report time (see :meth:`record_admission_stats`).
        self.placements_gated = 0
        self.brownout_transitions = 0
        self.brownout_max_stage = 0
        self.brownout_time_s = 0.0
        self.brownout_completions = 0
        # --- control-plane fault-tolerance counters ---
        self.orphan_events = 0
        #: Pushed by the simulator from its ReplicatedRMS wrapper and
        #: heartbeat bookkeeping at report time
        #: (see :meth:`record_failover_stats`).
        self.rms_crashes = 0
        self.rms_gray_events = 0
        self.failovers = 0
        self.control_plane_downtime_s = 0.0
        self.detections = 0
        self.detection_latency_p50_s = 0.0
        self.detection_latency_p95_s = 0.0
        self.false_suspicions = 0
        self.leases_expired = 0
        # --- SLO monitoring results ---
        #: Pushed by the simulator from its SLOMonitor at report time
        #: (see :meth:`record_slo_stats`); ``SLOResult``-shaped objects.
        self.slo_results: list = []

    # ------------------------------------------------------------------
    # Recording (called by the simulator)
    # ------------------------------------------------------------------
    def record_arrival(
        self, key: object, time: float, function: str = "", tenant: str = ""
    ) -> TaskMetrics:
        if key in self.tasks:
            raise ValueError(f"duplicate task key {key!r}")
        tm = TaskMetrics(key=key, arrival=time, function=function, tenant=tenant)
        self.tasks[key] = tm
        return tm

    def record_dispatch(
        self,
        key: object,
        time: float,
        *,
        pe_kind: str,
        node_id: int,
        transfer_time: float,
        synthesis_time: float,
        reconfig_time: float,
        reused: bool,
        resource_index: int | None = None,
        slices: int = 0,
    ) -> None:
        tm = self.tasks[key]
        tm.dispatch = time
        tm.pe_kind = pe_kind
        tm.node_id = node_id
        tm.resource_index = resource_index
        tm.slices = slices
        tm.transfer_time = transfer_time
        tm.synthesis_time = synthesis_time
        tm.reconfig_time = reconfig_time
        tm.reused_configuration = reused

    def record_start(self, key: object, time: float) -> None:
        self.tasks[key].start = time

    def record_finish(self, key: object, time: float, resource_label: str) -> None:
        tm = self.tasks[key]
        tm.finish = time
        usage = self.resources.setdefault(resource_label, ResourceUsage(resource_label))
        if tm.start is not None:
            usage.busy_s += time - tm.start
        usage.tasks_executed += 1

    def record_discard(self, key: object, time: float) -> None:
        self.tasks[key].discarded = True

    # ------------------------------------------------------------------
    # Fault-injection recording
    # ------------------------------------------------------------------
    def record_fault(
        self,
        key: object,
        time: float,
        *,
        reason: str,
        wasted_time_s: float = 0.0,
        wasted_slice_seconds: float = 0.0,
    ) -> None:
        tm = self.tasks[key]
        tm.faults += 1
        if tm.first_fault is None:
            tm.first_fault = time
        tm.failure_reason = reason
        tm.wasted_time_s += wasted_time_s
        tm.wasted_slice_seconds += wasted_slice_seconds
        self.fault_events += 1

    def record_retry(self, key: object, time: float) -> None:
        self.tasks[key].retries += 1
        self.retry_events += 1

    def record_fallback(self, key: object, time: float) -> None:
        tm = self.tasks[key]
        tm.retries += 1
        tm.fell_back_to_gpp = True
        self.fallback_events += 1

    def record_failed(self, key: object, time: float, *, reason: str) -> None:
        tm = self.tasks[key]
        tm.failed = True
        tm.failure_reason = reason

    # ------------------------------------------------------------------
    # Adaptive-resilience recording
    # ------------------------------------------------------------------
    def record_deadline_miss(self, key: object, time: float, *, hard: bool) -> None:
        tm = self.tasks[key]
        if hard:
            tm.deadline_missed = "hard"
            self.deadline_hard_misses += 1
        else:
            if tm.deadline_missed is None:
                tm.deadline_missed = "soft"
            self.deadline_soft_misses += 1

    def record_wasted(
        self, key: object, time: float, *, wasted_time_s: float,
        wasted_slice_seconds: float,
    ) -> None:
        """Waste from a non-fault teardown (a watchdog cancellation)."""
        tm = self.tasks[key]
        tm.wasted_time_s += wasted_time_s
        tm.wasted_slice_seconds += wasted_slice_seconds

    def record_checkpoint(self, key: object, time: float, *, overhead_s: float) -> None:
        tm = self.tasks[key]
        tm.checkpoints += 1
        tm.checkpoint_overhead_s += overhead_s
        self.checkpoint_events += 1
        self.checkpoint_overhead_s += overhead_s

    def record_checkpoint_restore(self, key: object, saved_s: float) -> None:
        """A fault/timeout destroyed a placement but *saved_s* seconds
        of its progress survived in the last checkpoint."""
        self.tasks[key].wasted_work_saved_s += saved_s
        self.wasted_work_saved_s += saved_s

    def record_migration(self, key: object, time: float) -> None:
        self.tasks[key].migrations += 1
        self.migration_events += 1

    def record_speculation(self, key: object, time: float) -> None:
        self.tasks[key].speculated = True
        self.speculative_launches += 1

    def record_speculation_result(
        self,
        key: object,
        time: float,
        *,
        win: bool,
        wasted_s: float,
        node_id: int | None = None,
        resource_index: int | None = None,
    ) -> None:
        """First finisher decided: *win* means the replica beat the
        primary; *wasted_s* is the loser's burned placement time.  On a
        win the task's placement attribution moves to the replica's
        node/resource (where it actually completed)."""
        if win:
            tm = self.tasks[key]
            tm.speculative_win = True
            if node_id is not None:
                tm.node_id = node_id
                tm.resource_index = resource_index
            self.speculative_wins += 1
        self.speculative_wasted_s += max(0.0, wasted_s)

    def record_orphan(
        self,
        key: object,
        time: float,
        *,
        wasted_time_s: float = 0.0,
        wasted_slice_seconds: float = 0.0,
    ) -> None:
        """A control-plane loss orphaned this task's placement and the
        recovery path re-queued it (:mod:`repro.sim.failover`).  Not a
        fault: the node did nothing wrong and no retry budget burns."""
        self.record_wasted(
            key,
            time,
            wasted_time_s=wasted_time_s,
            wasted_slice_seconds=wasted_slice_seconds,
        )
        self.orphan_events += 1

    def record_failover_stats(
        self,
        *,
        rms_crashes: int,
        rms_gray: int,
        failovers: int,
        downtime_s: float,
        detection_latencies: list[float],
        false_suspicions: int,
        leases_expired: int,
    ) -> None:
        """Pushed once by the simulator (from its ReplicatedRMS wrapper
        and heartbeat bookkeeping) just before the report is built."""
        self.rms_crashes = rms_crashes
        self.rms_gray_events = rms_gray
        self.failovers = failovers
        self.control_plane_downtime_s = downtime_s
        self.detections = len(detection_latencies)
        if detection_latencies:
            latencies = np.asarray(detection_latencies, dtype=float)
            self.detection_latency_p50_s = float(np.percentile(latencies, 50))
            self.detection_latency_p95_s = float(np.percentile(latencies, 95))
        self.false_suspicions = false_suspicions
        self.leases_expired = leases_expired

    def record_quarantine_stats(self, *, episodes: int, total_s: float) -> None:
        """Pushed once by the simulator (from its HealthTracker) just
        before the report is built."""
        self.quarantines = episodes
        self.quarantine_time_s = total_s

    # ------------------------------------------------------------------
    # Overload-protection recording
    # ------------------------------------------------------------------
    def record_shed(self, key: object, time: float, *, reason: str) -> None:
        """Terminal rejection by admission control or load shedding.
        Deliberately does *not* mark the task discarded: ``discarded``
        keeps counting only age-based queue discards."""
        tm = self.tasks[key]
        tm.shed = True
        tm.shed_reason = reason
        self.shed_events += 1

    def record_defer(self, key: object, time: float) -> None:
        self.tasks[key].defers += 1
        self.defer_events += 1

    def record_degrade(self, key: object, time: float) -> None:
        tm = self.tasks[key]
        tm.degraded_to_gpp = True
        self.brownout_degraded += 1

    def record_admission_stats(
        self,
        *,
        gated: int,
        transitions: int,
        max_stage: int,
        brownout_time_s: float,
        brownout_completions: int,
    ) -> None:
        """Pushed once by the simulator (from its AdmissionController)
        just before the report is built."""
        self.placements_gated = gated
        self.brownout_transitions = transitions
        self.brownout_max_stage = max_stage
        self.brownout_time_s = brownout_time_s
        self.brownout_completions = brownout_completions

    # ------------------------------------------------------------------
    # SLO monitoring recording
    # ------------------------------------------------------------------
    def record_slo_stats(self, results: list) -> None:
        """Pushed once by the simulator (from its finalized SLOMonitor)
        just before the report is built.  *results* are
        :class:`repro.sim.slo.SLOResult` instances."""
        self.slo_results = list(results)

    def _slo_report_kwargs(self) -> dict:
        """Report fields derived from the pushed SLO results (shared by
        both collectors so the derivations cannot drift apart)."""
        results = self.slo_results
        return {
            "slo_objectives": len(results),
            "slo_breaches": sum(r.breach_count for r in results),
            "slo_alerts_fired": sum(r.alerts_fired for r in results),
            "slo_alerts_resolved": sum(r.alerts_resolved for r in results),
            "slo_attainment": {r.name: r.attainment for r in results},
            "slo_error_budget_remaining": {
                r.name: r.error_budget_remaining for r in results
            },
            "slo_breach_seconds": {r.name: r.breach_seconds for r in results},
            "slo_violated": [r.name for r in results if r.violated],
        }

    # ------------------------------------------------------------------
    # Node availability windows
    # ------------------------------------------------------------------
    def register_node(self, node_id: int) -> None:
        self.known_nodes.add(node_id)

    def record_node_down(self, node_id: int, time: float) -> None:
        self.known_nodes.add(node_id)
        self._down_since.setdefault(node_id, time)

    def record_node_up(self, node_id: int, time: float) -> None:
        since = self._down_since.pop(node_id, None)
        if since is not None:
            self._downtime[node_id] = self._downtime.get(node_id, 0.0) + (time - since)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, horizon_s: float) -> SimulationReport:
        finished = [t for t in self.tasks.values() if t.finish is not None]
        discarded = [t for t in self.tasks.values() if t.discarded]
        failed = [t for t in self.tasks.values() if t.failed]
        shed = [t for t in self.tasks.values() if t.shed]
        pending = [
            t
            for t in self.tasks.values()
            if t.finish is None and not t.discarded and not t.failed and not t.shed
        ]
        waits = np.array([t.wait_time for t in finished if t.wait_time is not None])
        turnarounds = np.array([t.turnaround for t in finished])
        reconfigs = [t for t in finished if t.reconfig_time > 0]
        reuse_hits = sum(1 for t in finished if t.reused_configuration)
        hw_tasks = sum(1 for t in finished if t.pe_kind == "RPE")
        utilizations = {
            label: usage.utilization(horizon_s) for label, usage in self.resources.items()
        }
        by_kind: dict[str, int] = {}
        for t in finished:
            by_kind[t.pe_kind] = by_kind.get(t.pe_kind, 0) + 1
        # Recovery aggregates.  Downtime windows still open at the
        # horizon (a node that never rejoined) are closed against it.
        downtime = dict(self._downtime)
        for node_id, since in self._down_since.items():
            downtime[node_id] = downtime.get(node_id, 0.0) + max(
                0.0, horizon_s - since
            )
        node_seconds = len(self.known_nodes) * horizon_s
        availability = (
            max(0.0, 1.0 - sum(downtime.values()) / node_seconds)
            if node_seconds > 0
            else 1.0
        )
        repairs = np.array(
            [
                t.finish - t.first_fault
                for t in finished
                if t.first_fault is not None
            ]
        )
        # Per-tenant aggregates, tenants in order of first arrival
        # (the bulk collector reproduces the same order through its
        # interning table, so the two reports stay byte-equal).
        per_tenant: dict[str, dict[str, float]] = {}
        tenant_names: list[str] = []
        for t in self.tasks.values():
            if t.tenant and t.tenant not in per_tenant:
                per_tenant[t.tenant] = {}
                tenant_names.append(t.tenant)
        for name in tenant_names:
            rows = [t for t in self.tasks.values() if t.tenant == name]
            fin = [t for t in rows if t.finish is not None]
            t_waits = np.array(
                [t.wait_time for t in fin if t.wait_time is not None]
            )
            t_turn = np.array([t.turnaround for t in fin])
            per_tenant[name] = _tenant_row(
                completed=len(fin),
                shed=sum(1 for t in rows if t.shed),
                failed=sum(1 for t in rows if t.failed),
                waits=t_waits,
                turnarounds=t_turn,
            )
        return SimulationReport(
            horizon_s=horizon_s,
            completed=len(finished),
            discarded=len(discarded),
            pending=len(pending),
            mean_wait_s=float(waits.mean()) if waits.size else 0.0,
            p95_wait_s=float(np.percentile(waits, 95)) if waits.size else 0.0,
            p50_wait_s=float(np.percentile(waits, 50)) if waits.size else 0.0,
            p99_wait_s=float(np.percentile(waits, 99)) if waits.size else 0.0,
            mean_turnaround_s=float(turnarounds.mean()) if turnarounds.size else 0.0,
            p50_turnaround_s=(
                float(np.percentile(turnarounds, 50)) if turnarounds.size else 0.0
            ),
            p95_turnaround_s=(
                float(np.percentile(turnarounds, 95)) if turnarounds.size else 0.0
            ),
            p99_turnaround_s=(
                float(np.percentile(turnarounds, 99)) if turnarounds.size else 0.0
            ),
            makespan_s=max((t.finish for t in finished), default=0.0),
            reconfigurations=len(reconfigs),
            total_reconfig_time_s=sum(t.reconfig_time for t in reconfigs),
            reuse_hits=reuse_hits,
            reuse_rate=reuse_hits / hw_tasks if hw_tasks else 0.0,
            mean_utilization=(
                float(np.mean(list(utilizations.values()))) if utilizations else 0.0
            ),
            per_resource_utilization=utilizations,
            tasks_by_pe_kind=by_kind,
            failed=len(failed),
            fault_events=self.fault_events,
            retries=self.retry_events,
            gpp_fallbacks=self.fallback_events,
            availability=availability,
            mttr_s=float(repairs.mean()) if repairs.size else 0.0,
            wasted_work_s=sum(t.wasted_time_s for t in self.tasks.values()),
            wasted_slice_seconds=sum(
                t.wasted_slice_seconds for t in self.tasks.values()
            ),
            goodput_tasks_per_s=len(finished) / horizon_s if horizon_s > 0 else 0.0,
            deadline_soft_misses=self.deadline_soft_misses,
            deadline_hard_misses=self.deadline_hard_misses,
            deadline_miss_rate=(
                sum(1 for t in self.tasks.values() if t.deadline_missed is not None)
                / len(self.tasks)
                if self.tasks
                else 0.0
            ),
            quarantines=self.quarantines,
            quarantine_time_s=self.quarantine_time_s,
            checkpoints=self.checkpoint_events,
            checkpoint_overhead_s=self.checkpoint_overhead_s,
            wasted_work_saved_s=self.wasted_work_saved_s,
            migrations=self.migration_events,
            speculative_launches=self.speculative_launches,
            speculative_wins=self.speculative_wins,
            speculative_win_rate=(
                self.speculative_wins / self.speculative_launches
                if self.speculative_launches
                else 0.0
            ),
            speculative_wasted_s=self.speculative_wasted_s,
            shed=len(shed),
            admission_deferrals=self.defer_events,
            placements_gated=self.placements_gated,
            brownout_degraded=self.brownout_degraded,
            brownout_transitions=self.brownout_transitions,
            brownout_max_stage=self.brownout_max_stage,
            brownout_time_s=self.brownout_time_s,
            overload_goodput_tasks_per_s=(
                self.brownout_completions / self.brownout_time_s
                if self.brownout_time_s > 0
                else 0.0
            ),
            rms_crashes=self.rms_crashes,
            rms_gray_events=self.rms_gray_events,
            failovers=self.failovers,
            control_plane_downtime_s=self.control_plane_downtime_s,
            detections=self.detections,
            detection_latency_p50_s=self.detection_latency_p50_s,
            detection_latency_p95_s=self.detection_latency_p95_s,
            false_suspicions=self.false_suspicions,
            leases_expired=self.leases_expired,
            orphaned_tasks=self.orphan_events,
            orphans_recovered=self.orphan_events,
            per_tenant=per_tenant,
            **self._slo_report_kwargs(),
        )


class _TaskRow:
    """Flyweight read view of one task's columns (bulk collector).

    Exposes the two fields the simulator reads back mid-run
    (``arrival`` and ``dispatch``) with the same None-for-missing
    convention as :class:`TaskMetrics`.
    """

    __slots__ = ("_c", "_i")

    def __init__(self, collector: "BulkMetricsCollector", index: int):
        self._c = collector
        self._i = index

    @property
    def arrival(self) -> float:
        return float(self._c._arrival[self._i])

    @property
    def dispatch(self) -> float | None:
        v = self._c._dispatch[self._i]
        return None if np.isnan(v) else float(v)


class _TaskRowMap:
    """Mapping facade over the bulk collector's columns."""

    __slots__ = ("_c",)

    def __init__(self, collector: "BulkMetricsCollector"):
        self._c = collector

    def __getitem__(self, key: object) -> _TaskRow:
        return _TaskRow(self._c, self._c._index[key])

    def __contains__(self, key: object) -> bool:
        return key in self._c._index

    def __len__(self) -> int:
        return self._c._n


class BulkMetricsCollector(MetricsCollector):
    """Array-backed :class:`MetricsCollector` for million-task runs.

    The standard collector allocates one :class:`TaskMetrics` dataclass
    per task -- hundreds of bytes and several dict operations per
    task, which dominates memory at 1e6 tasks.  This collector stores
    the per-task timeline in preallocated numpy columns (8-80 bytes per
    task).

    ``report()`` replicates the base-class arithmetic *exactly* -- same
    value multisets, same accumulation order (insertion order == column
    order), numpy mean/percentile for latencies and Python left-fold
    ``sum`` for the waste/reconfig totals -- so for identical record
    streams the two collectors produce identical reports (locked by a
    differential test).

    Limitations, by design: per-task drill-down fields that no report
    aggregate reads (node ids, transfer/synthesis splits, failure
    reasons, per-task retry counts) are not stored, so the energy
    auditor and trace tooling need the standard collector.
    """

    _INITIAL_CAPACITY = 1024

    def __init__(self, capacity: int | None = None) -> None:
        super().__init__()
        cap = max(1, int(capacity) if capacity is not None else self._INITIAL_CAPACITY)
        self._n = 0
        self._index: dict[object, int] = {}
        self._arrival = np.empty(cap)
        self._dispatch = np.full(cap, np.nan)
        self._start = np.full(cap, np.nan)
        self._finish = np.full(cap, np.nan)
        self._reconfig = np.zeros(cap)
        self._wasted_t = np.zeros(cap)
        self._wasted_sl = np.zeros(cap)
        self._first_fault = np.full(cap, np.nan)
        self._reused = np.zeros(cap, dtype=bool)
        self._discarded = np.zeros(cap, dtype=bool)
        self._failed = np.zeros(cap, dtype=bool)
        self._shed = np.zeros(cap, dtype=bool)
        #: pe_kind interned to a small int; -1 = never dispatched.
        self._kind_code = np.full(cap, -1, dtype=np.int16)
        #: tenant interned to a small int; -1 = untagged (single-tenant).
        self._tenant_code = np.full(cap, -1, dtype=np.int16)
        #: 0 = met, 1 = soft miss, 2 = hard miss.
        self._deadline_code = np.zeros(cap, dtype=np.int8)
        self._kind_codes: dict[str, int] = {}
        self._kind_names: list[str] = []
        self._tenant_codes: dict[str, int] = {}
        self._tenant_names: list[str] = []
        self.tasks = _TaskRowMap(self)  # type: ignore[assignment]

    def _grow(self) -> None:
        cap = len(self._arrival) * 2
        for name in (
            "_arrival", "_dispatch", "_start", "_finish", "_reconfig",
            "_wasted_t", "_wasted_sl", "_first_fault", "_reused",
            "_discarded", "_failed", "_shed", "_kind_code", "_tenant_code",
            "_deadline_code",
        ):
            old = getattr(self, name)
            if old.dtype == np.float64 and name in ("_dispatch", "_start", "_finish", "_first_fault"):
                new = np.full(cap, np.nan)
            elif old.dtype == np.int16:
                new = np.full(cap, -1, dtype=np.int16)
            else:
                new = np.zeros(cap, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def _kind(self, pe_kind: str) -> int:
        code = self._kind_codes.get(pe_kind)
        if code is None:
            code = len(self._kind_names)
            self._kind_codes[pe_kind] = code
            self._kind_names.append(pe_kind)
        return code

    def _tenant(self, tenant: str) -> int:
        code = self._tenant_codes.get(tenant)
        if code is None:
            code = len(self._tenant_names)
            self._tenant_codes[tenant] = code
            self._tenant_names.append(tenant)
        return code

    # -- recording ------------------------------------------------------
    def record_arrival(self, key: object, time: float, function: str = "", tenant: str = "") -> None:  # type: ignore[override]
        if key in self._index:
            raise ValueError(f"duplicate task key {key!r}")
        i = self._n
        if i == len(self._arrival):
            self._grow()
        self._index[key] = i
        self._arrival[i] = time
        if tenant:
            self._tenant_code[i] = self._tenant(tenant)
        self._n = i + 1

    def record_dispatch(
        self,
        key: object,
        time: float,
        *,
        pe_kind: str,
        node_id: int,
        transfer_time: float,
        synthesis_time: float,
        reconfig_time: float,
        reused: bool,
        resource_index: int | None = None,
        slices: int = 0,
    ) -> None:
        i = self._index[key]
        self._dispatch[i] = time
        self._kind_code[i] = self._kind(pe_kind)
        self._reconfig[i] = reconfig_time
        self._reused[i] = reused

    def record_start(self, key: object, time: float) -> None:
        self._start[self._index[key]] = time

    def record_finish(self, key: object, time: float, resource_label: str) -> None:
        i = self._index[key]
        self._finish[i] = time
        usage = self.resources.setdefault(resource_label, ResourceUsage(resource_label))
        start = self._start[i]
        if not np.isnan(start):
            usage.busy_s += time - start
        usage.tasks_executed += 1

    def record_discard(self, key: object, time: float) -> None:
        self._discarded[self._index[key]] = True

    def record_fault(
        self,
        key: object,
        time: float,
        *,
        reason: str,
        wasted_time_s: float = 0.0,
        wasted_slice_seconds: float = 0.0,
    ) -> None:
        i = self._index[key]
        if np.isnan(self._first_fault[i]):
            self._first_fault[i] = time
        self._wasted_t[i] += wasted_time_s
        self._wasted_sl[i] += wasted_slice_seconds
        self.fault_events += 1

    def record_retry(self, key: object, time: float) -> None:
        self.retry_events += 1

    def record_fallback(self, key: object, time: float) -> None:
        self.fallback_events += 1

    def record_failed(self, key: object, time: float, *, reason: str) -> None:
        self._failed[self._index[key]] = True

    def record_deadline_miss(self, key: object, time: float, *, hard: bool) -> None:
        i = self._index[key]
        if hard:
            self._deadline_code[i] = 2
            self.deadline_hard_misses += 1
        else:
            if self._deadline_code[i] == 0:
                self._deadline_code[i] = 1
            self.deadline_soft_misses += 1

    def record_wasted(
        self, key: object, time: float, *, wasted_time_s: float,
        wasted_slice_seconds: float,
    ) -> None:
        i = self._index[key]
        self._wasted_t[i] += wasted_time_s
        self._wasted_sl[i] += wasted_slice_seconds

    def record_checkpoint(self, key: object, time: float, *, overhead_s: float) -> None:
        self.checkpoint_events += 1
        self.checkpoint_overhead_s += overhead_s

    def record_checkpoint_restore(self, key: object, saved_s: float) -> None:
        self.wasted_work_saved_s += saved_s

    def record_migration(self, key: object, time: float) -> None:
        self.migration_events += 1

    def record_speculation(self, key: object, time: float) -> None:
        self.speculative_launches += 1

    def record_speculation_result(
        self,
        key: object,
        time: float,
        *,
        win: bool,
        wasted_s: float,
        node_id: int | None = None,
        resource_index: int | None = None,
    ) -> None:
        if win:
            self.speculative_wins += 1
        self.speculative_wasted_s += max(0.0, wasted_s)

    def record_shed(self, key: object, time: float, *, reason: str) -> None:
        self._shed[self._index[key]] = True
        self.shed_events += 1

    def record_defer(self, key: object, time: float) -> None:
        self.defer_events += 1

    def record_degrade(self, key: object, time: float) -> None:
        self.brownout_degraded += 1

    # -- reporting ------------------------------------------------------
    def report(self, horizon_s: float) -> SimulationReport:
        n = self._n
        arrival = self._arrival[:n]
        dispatch = self._dispatch[:n]
        finish = self._finish[:n]
        discarded = self._discarded[:n]
        failed = self._failed[:n]
        shed = self._shed[:n]
        finished = ~np.isnan(finish)
        pending = np.isnan(finish) & ~discarded & ~failed & ~shed
        # Same multisets in the same (insertion) order as the base
        # collector's list comprehensions.
        waits = (dispatch - arrival)[finished & ~np.isnan(dispatch)]
        turnarounds = (finish - arrival)[finished]
        reconfig_mask = finished & (self._reconfig[:n] > 0)
        reuse_hits = int((finished & self._reused[:n]).sum())
        rpe_code = self._kind_codes.get("RPE")
        kinds = self._kind_code[:n]
        hw_tasks = int((finished & (kinds == rpe_code)).sum()) if rpe_code is not None else 0
        utilizations = {
            label: usage.utilization(horizon_s) for label, usage in self.resources.items()
        }
        # by-kind counts in order of first finished appearance, exactly
        # like the base collector's insertion-ordered dict.
        by_kind: dict[str, int] = {}
        finished_kinds = kinds[finished]
        if finished_kinds.size:
            codes, firsts, counts = np.unique(
                finished_kinds, return_index=True, return_counts=True
            )
            for pos in np.argsort(firsts):
                code = int(codes[pos])
                name = self._kind_names[code] if code >= 0 else ""
                by_kind[name] = int(counts[pos])
        downtime = dict(self._downtime)
        for node_id, since in self._down_since.items():
            downtime[node_id] = downtime.get(node_id, 0.0) + max(
                0.0, horizon_s - since
            )
        node_seconds = len(self.known_nodes) * horizon_s
        availability = (
            max(0.0, 1.0 - sum(downtime.values()) / node_seconds)
            if node_seconds > 0
            else 1.0
        )
        first_fault = self._first_fault[:n]
        repairs = (finish - first_fault)[finished & ~np.isnan(first_fault)]
        completed = int(finished.sum())
        # Per-tenant aggregates.  Interning assigns codes in order of
        # first arrival, so iterating codes reproduces the base
        # collector's first-appearance tenant order; masks select the
        # same value multisets in the same (column == insertion) order.
        per_tenant: dict[str, dict[str, float]] = {}
        tenant_codes = self._tenant_code[:n]
        for code, name in enumerate(self._tenant_names):
            mask = tenant_codes == code
            fin_mask = mask & finished
            per_tenant[name] = _tenant_row(
                completed=int(fin_mask.sum()),
                shed=int((mask & shed).sum()),
                failed=int((mask & failed).sum()),
                waits=(dispatch - arrival)[fin_mask & ~np.isnan(dispatch)],
                turnarounds=(finish - arrival)[fin_mask],
            )
        return SimulationReport(
            horizon_s=horizon_s,
            completed=completed,
            discarded=int(discarded.sum()),
            pending=int(pending.sum()),
            mean_wait_s=float(waits.mean()) if waits.size else 0.0,
            p95_wait_s=float(np.percentile(waits, 95)) if waits.size else 0.0,
            p50_wait_s=float(np.percentile(waits, 50)) if waits.size else 0.0,
            p99_wait_s=float(np.percentile(waits, 99)) if waits.size else 0.0,
            mean_turnaround_s=float(turnarounds.mean()) if turnarounds.size else 0.0,
            p50_turnaround_s=(
                float(np.percentile(turnarounds, 50)) if turnarounds.size else 0.0
            ),
            p95_turnaround_s=(
                float(np.percentile(turnarounds, 95)) if turnarounds.size else 0.0
            ),
            p99_turnaround_s=(
                float(np.percentile(turnarounds, 99)) if turnarounds.size else 0.0
            ),
            makespan_s=float(finish[finished].max()) if completed else 0.0,
            reconfigurations=int(reconfig_mask.sum()),
            # Python left-fold sum, like the base collector (numpy's
            # pairwise summation rounds differently).
            total_reconfig_time_s=sum(self._reconfig[:n][reconfig_mask].tolist()),
            reuse_hits=reuse_hits,
            reuse_rate=reuse_hits / hw_tasks if hw_tasks else 0.0,
            mean_utilization=(
                float(np.mean(list(utilizations.values()))) if utilizations else 0.0
            ),
            per_resource_utilization=utilizations,
            tasks_by_pe_kind=by_kind,
            failed=int(failed.sum()),
            fault_events=self.fault_events,
            retries=self.retry_events,
            gpp_fallbacks=self.fallback_events,
            availability=availability,
            mttr_s=float(repairs.mean()) if repairs.size else 0.0,
            wasted_work_s=sum(self._wasted_t[:n].tolist()),
            wasted_slice_seconds=sum(self._wasted_sl[:n].tolist()),
            goodput_tasks_per_s=completed / horizon_s if horizon_s > 0 else 0.0,
            deadline_soft_misses=self.deadline_soft_misses,
            deadline_hard_misses=self.deadline_hard_misses,
            deadline_miss_rate=(
                int((self._deadline_code[:n] != 0).sum()) / n if n else 0.0
            ),
            quarantines=self.quarantines,
            quarantine_time_s=self.quarantine_time_s,
            checkpoints=self.checkpoint_events,
            checkpoint_overhead_s=self.checkpoint_overhead_s,
            wasted_work_saved_s=self.wasted_work_saved_s,
            migrations=self.migration_events,
            speculative_launches=self.speculative_launches,
            speculative_wins=self.speculative_wins,
            speculative_win_rate=(
                self.speculative_wins / self.speculative_launches
                if self.speculative_launches
                else 0.0
            ),
            speculative_wasted_s=self.speculative_wasted_s,
            shed=int(shed.sum()),
            admission_deferrals=self.defer_events,
            placements_gated=self.placements_gated,
            brownout_degraded=self.brownout_degraded,
            brownout_transitions=self.brownout_transitions,
            brownout_max_stage=self.brownout_max_stage,
            brownout_time_s=self.brownout_time_s,
            overload_goodput_tasks_per_s=(
                self.brownout_completions / self.brownout_time_s
                if self.brownout_time_s > 0
                else 0.0
            ),
            rms_crashes=self.rms_crashes,
            rms_gray_events=self.rms_gray_events,
            failovers=self.failovers,
            control_plane_downtime_s=self.control_plane_downtime_s,
            detections=self.detections,
            detection_latency_p50_s=self.detection_latency_p50_s,
            detection_latency_p95_s=self.detection_latency_p95_s,
            false_suspicions=self.false_suspicions,
            leases_expired=self.leases_expired,
            orphaned_tasks=self.orphan_events,
            orphans_recovered=self.orphan_events,
            per_tenant=per_tenant,
            **self._slo_report_kwargs(),
        )
