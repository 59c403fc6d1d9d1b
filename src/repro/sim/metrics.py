"""Simulation metrics: per-task records, per-resource utilization,
reconfiguration statistics, and aggregate reports.

These are the observables DReAMSim exists to measure: waiting times,
turnaround, how often configuration reuse fires, how much time the grid
burns reconfiguring, and how busy each processing element is under a
given scheduling strategy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
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
        ):
            lines += [
                f"deadline misses      soft {self.deadline_soft_misses} / "
                f"hard {self.deadline_hard_misses}   (miss rate {self.deadline_miss_rate:.2%})",
                f"quarantines          {self.quarantines:6d}  ({self.quarantine_time_s:.2f} node-s)",
                f"checkpoints          {self.checkpoints:6d}  "
                f"(overhead {self.checkpoint_overhead_s:.3f} s, saved {self.wasted_work_saved_s:.3f} s)",
                f"migrations           {self.migrations:6d}",
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


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _latency_fields(waits: np.ndarray, turnarounds: np.ndarray) -> dict[str, float]:
    """Mean and p50/p95/p99 of *waits* and *turnarounds* (0 when empty),
    under their :class:`SimulationReport` names."""
    fields = {}
    for name, values in (("wait", waits), ("turnaround", turnarounds)):
        fields[f"mean_{name}_s"] = float(values.mean()) if values.size else 0.0
        for q in (50, 95, 99):
            fields[f"p{q}_{name}_s"] = _percentile(values, q)
    return fields


#: One numpy column per :class:`TaskMetrics` field: name -> (dtype, the
#: value of a fresh row).  NaN means "event not seen"; -1 marks a missing
#: node/resource or, in the interned string columns (``_INTERNED``), an
#: empty string.  ``deadline_missed`` is 0 = met, 1 = soft, 2 = hard.
#: The rare ``failure_reason``/``shed_reason`` strings live in sparse
#: ``row -> str`` dicts instead.
_COLUMNS: dict[str, tuple[type, object]] = {
    "function": (np.int32, -1),
    "tenant": (np.int16, -1),
    "pe_kind": (np.int16, -1),
    "node_id": (np.int32, -1),
    "resource_index": (np.int32, -1),
    "slices": (np.int32, 0),
    "arrival": (np.float64, np.nan),
    "dispatch": (np.float64, np.nan),
    "start": (np.float64, np.nan),
    "finish": (np.float64, np.nan),
    "transfer_time": (np.float64, 0.0),
    "synthesis_time": (np.float64, 0.0),
    "reconfig_time": (np.float64, 0.0),
    "reused_configuration": (np.bool_, False),
    "discarded": (np.bool_, False),
    "failed": (np.bool_, False),
    "faults": (np.int32, 0),
    "retries": (np.int32, 0),
    "fell_back_to_gpp": (np.bool_, False),
    "first_fault": (np.float64, np.nan),
    "wasted_time_s": (np.float64, 0.0),
    "wasted_slice_seconds": (np.float64, 0.0),
    "deadline_missed": (np.int8, 0),
    "checkpoints": (np.int32, 0),
    "checkpoint_overhead_s": (np.float64, 0.0),
    "wasted_work_saved_s": (np.float64, 0.0),
    "migrations": (np.int32, 0),
    "shed": (np.bool_, False),
    "defers": (np.int32, 0),
    "degraded_to_gpp": (np.bool_, False),
}

#: String columns stored as small-int codes, in order of first sight.
_INTERNED = ("function", "tenant", "pe_kind")

_INITIAL_ROWS = 1024


class _TaskView(Mapping):
    """Read-only ``key -> TaskMetrics`` view of the collector's columns.

    Keys iterate in arrival order; each lookup builds a fresh
    :class:`TaskMetrics` snapshot, so mutating one changes nothing.
    """

    __slots__ = ("_c",)

    def __init__(self, collector: "MetricsCollector"):
        self._c = collector

    def __getitem__(self, key: object) -> TaskMetrics:
        return self._c._snapshot(key, self._c._index[key])

    def __iter__(self):
        return iter(self._c._index)

    def __len__(self) -> int:
        return len(self._c._index)


class MetricsCollector:
    """Folds the simulator's event stream into the run's report.

    The simulator hands every event it emits to :meth:`observe` before
    any tracer sees it, so the report is a fold of the stream: a trace
    replayed through a fresh collector gives back the live report
    (DESIGN.md section 7, "The report and the telemetry fold the event
    stream").  *node_ids* are the grid's nodes at t=0; later nodes
    arrive by ``node-join``.

    Per-task state lives in numpy columns (``_COLUMNS``), one row per
    task in arrival order, grown by doubling: ~0.3 KB per task with the
    key index, where a dataclass per task costs ~2 KB.  :attr:`tasks`
    reads them back as :class:`TaskMetrics` snapshots.
    """

    def __init__(self, node_ids: Iterable[int] = ()) -> None:
        self.resources: dict[str, ResourceUsage] = {}
        #: key -> row in the columns (insertion order == arrival order).
        self._index: dict[object, int] = {}
        self._col = {
            name: np.full(_INITIAL_ROWS, fill, dtype=dtype)
            for name, (dtype, fill) in _COLUMNS.items()
        }
        #: column -> {string: code}; codes count up from 0 by first sight.
        self._codes: dict[str, dict[str, int]] = {name: {} for name in _INTERNED}
        self._failure_reasons: dict[int, str] = {}
        self._shed_reasons: dict[int, str] = {}
        #: Node ids ever part of the grid, in order of first sight: the
        #: denominator of availability, and the order quarantine
        #: seconds are summed in (the health tracker's order).
        self.known_nodes: dict[int, None] = dict.fromkeys(node_ids)
        #: node_id -> time it went down (open downtime window).
        self._down_since: dict[int, float] = {}
        #: node_id -> accumulated downtime of closed windows.
        self._downtime: dict[int, float] = {}
        #: node_id -> start of its open quarantine episode.
        self._quarantined_since: dict[int, float] = {}
        #: node_id -> quarantine seconds of its closed episodes.
        self._quarantine_s: dict[int, float] = {}
        self.quarantines = 0
        self.fault_events = 0
        self.retry_events = 0
        self.fallback_events = 0
        self.deadline_soft_misses = 0
        self.deadline_hard_misses = 0
        self.checkpoint_events = 0
        self.checkpoint_overhead_s = 0.0
        self.wasted_work_saved_s = 0.0
        self.migration_events = 0
        self.shed_events = 0
        self.defer_events = 0
        self.brownout_degraded = 0
        self.orphan_events = 0
        self.placements_gated = 0
        #: Brownout: the stage the last ``brownout`` event set, the
        #: start of the open degraded window (stage above 0), and the
        #: transitions, residency and completions of the run so far.
        self.brownout_stage = 0
        self._brownout_since: float | None = None
        self.brownout_transitions = 0
        self.brownout_max_stage = 0
        self.brownout_time_s = 0.0
        self.brownout_completions = 0
        # Control plane.
        self.rms_crashes = 0
        self.rms_gray_events = 0
        self.failovers = 0
        self.leases_expired = 0
        self.control_plane_downtime_s = 0.0
        #: Heartbeat target -> when it went dark: ``"rms"`` for the
        #: control plane's open dark window, a node id from its silent
        #: death until it reboots or joins again.
        self._dark_since: dict[object, float] = {}
        #: Suspected target -> whether it was dark at any point of the
        #: suspicion (a rejoin of one that never was is false).
        self._suspicions: dict[object, bool] = {}
        self.detection_latencies: list[float] = []
        self.false_suspicions = 0
        #: kind -> handler, from the ``_on_<kind>`` methods below.
        self._handlers = {
            name[4:].replace("_", "-"): getattr(self, name)
            for name in dir(type(self))
            if name.startswith("_on_")
        }

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        n = len(self._index)
        for name, (dtype, fill) in _COLUMNS.items():
            column = np.full(2 * n, fill, dtype=dtype)
            column[:n] = self._col[name]
            self._col[name] = column

    def _code(self, column: str, value: str) -> int:
        codes = self._codes[column]
        code = codes.get(value)
        if code is None:
            code = codes[value] = len(codes)
        return code

    @property
    def tasks(self) -> Mapping[object, TaskMetrics]:
        """Per-task records: a read-only mapping, keys in arrival order."""
        return _TaskView(self)

    def _snapshot(self, key: object, i: int) -> TaskMetrics:
        row = {name: column[i].item() for name, column in self._col.items()}
        for name in ("dispatch", "start", "finish", "first_fault"):
            if math.isnan(row[name]):
                row[name] = None
        for name in ("node_id", "resource_index"):
            if row[name] < 0:
                row[name] = None
        for name in _INTERNED:
            row[name] = list(self._codes[name])[row[name]] if row[name] >= 0 else ""
        row["deadline_missed"] = (None, "soft", "hard")[row["deadline_missed"]]
        return TaskMetrics(
            key=key,
            failure_reason=self._failure_reasons.get(i),
            shed_reason=self._shed_reasons.get(i),
            **row,
        )

    # ------------------------------------------------------------------
    # The fold: one handler per event kind the report reads
    # ------------------------------------------------------------------
    def observe(self, t: float, kind: str, key: object, payload: Mapping) -> None:
        """Fold one event at sim time *t* (kinds without a handler, such
        as ``slice-alloc`` or the ``slo-*`` events, change nothing)."""
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(t, key, payload)

    def _on_submit(self, t: float, key: object, p: Mapping) -> None:
        index = self._index
        if key in index:
            raise ValueError(f"duplicate task key {key!r}")
        i = len(index)
        if i == len(self._col["arrival"]):
            self._grow()
        index[key] = i
        col = self._col
        col["arrival"][i] = t
        function = p.get("function")
        if function:
            col["function"][i] = self._code("function", function)
        tenant = p.get("tenant")
        if tenant:
            col["tenant"][i] = self._code("tenant", tenant)

    def _on_dispatch(self, t: float, key: object, p: Mapping) -> None:
        i = self._index[key]
        col = self._col
        col["dispatch"][i] = t
        col["pe_kind"][i] = self._code("pe_kind", p["pe_kind"])
        col["node_id"][i] = p["node"]
        index = p["resource_index"]
        col["resource_index"][i] = -1 if index is None else index
        col["slices"][i] = p["slices"]
        col["transfer_time"][i] = p["transfer_time"]
        col["synthesis_time"][i] = p["synthesis_time"]
        col["reconfig_time"][i] = p["reconfig_time"]
        col["reused_configuration"][i] = p["reused"]

    def _on_start(self, t: float, key: object, p: Mapping) -> None:
        self._col["start"][self._index[key]] = t

    def _on_complete(self, t: float, key: object, p: Mapping) -> None:
        i = self._index[key]
        col = self._col
        col["finish"][i] = t
        # The resource that ran it, named from its dispatch row.
        kind = list(self._codes["pe_kind"])[col["pe_kind"][i]]
        label = f"node{col['node_id'][i]}:{kind}{col['resource_index'][i]}"
        usage = self.resources.get(label)
        if usage is None:
            usage = self.resources[label] = ResourceUsage(label)
        start = col["start"][i]
        if not np.isnan(start):
            usage.busy_s += t - start
        usage.tasks_executed += 1
        if self.brownout_stage:
            self.brownout_completions += 1

    def _on_discard(self, t: float, key: object, p: Mapping) -> None:
        self._col["discarded"][self._index[key]] = True

    def _lost(self, i: int, p: Mapping) -> None:
        """A torn-down placement's waste, and the progress its newest
        checkpoint saved."""
        col = self._col
        col["wasted_time_s"][i] += p["wasted"]
        col["wasted_slice_seconds"][i] += p["wasted_slice_s"]
        saved = p["saved"]
        if saved:
            col["wasted_work_saved_s"][i] += saved
            self.wasted_work_saved_s += saved

    def _on_fault(self, t: float, key: object, p: Mapping) -> None:
        i = self._index[key]
        col = self._col
        col["faults"][i] += 1
        if np.isnan(col["first_fault"][i]):
            col["first_fault"][i] = t
        self._failure_reasons[i] = p["reason"]
        self._lost(i, p)
        self.fault_events += 1

    def _on_retry(self, t: float, key: object, p: Mapping) -> None:
        self._col["retries"][self._index[key]] += 1
        self.retry_events += 1

    def _on_fallback(self, t: float, key: object, p: Mapping) -> None:
        i = self._index[key]
        self._col["retries"][i] += 1
        self._col["fell_back_to_gpp"][i] = True
        self.fallback_events += 1

    def _on_task_failed(self, t: float, key: object, p: Mapping) -> None:
        i = self._index[key]
        self._col["failed"][i] = True
        self._failure_reasons[i] = p["reason"]

    def _on_timeout(self, t: float, key: object, p: Mapping) -> None:
        i = self._index[key]
        missed = self._col["deadline_missed"]
        if p["deadline"] == "hard":
            missed[i] = 2
            self.deadline_hard_misses += 1
        else:
            if missed[i] == 0:
                missed[i] = 1
            self.deadline_soft_misses += 1
        if "wasted" in p:  # the watchdog tore the placement down
            self._lost(i, p)

    def _on_checkpoint(self, t: float, key: object, p: Mapping) -> None:
        i = self._index[key]
        overhead = p["overhead"]
        self._col["checkpoints"][i] += 1
        self._col["checkpoint_overhead_s"][i] += overhead
        self.checkpoint_events += 1
        self.checkpoint_overhead_s += overhead

    def _on_migrate(self, t: float, key: object, p: Mapping) -> None:
        self._col["migrations"][self._index[key]] += 1
        self.migration_events += 1

    def _on_orphan_recovered(self, t: float, key: object, p: Mapping) -> None:
        """Not a fault: the control plane lost track of the placement,
        and no retry budget burns."""
        self._lost(self._index[key], p)
        self.orphan_events += 1

    def _on_shed(self, t: float, key: object, p: Mapping) -> None:
        """Terminal rejection by admission control or load shedding.
        Deliberately does *not* mark the task discarded: ``discarded``
        keeps counting only age-based queue discards."""
        i = self._index[key]
        self._col["shed"][i] = True
        self._shed_reasons[i] = p["reason"]
        self.shed_events += 1

    def _on_defer(self, t: float, key: object, p: Mapping) -> None:
        self._col["defers"][self._index[key]] += 1
        self.defer_events += 1

    def _on_degrade(self, t: float, key: object, p: Mapping) -> None:
        self._col["degraded_to_gpp"][self._index[key]] = True
        self.brownout_degraded += 1

    def _on_brownout(self, t: float, key: object, p: Mapping) -> None:
        """A stage transition; the degraded window runs while the stage
        is above 0."""
        old, stage = self.brownout_stage, p["stage"]
        self.brownout_stage = stage
        self.brownout_transitions += 1
        self.brownout_max_stage = max(self.brownout_max_stage, stage)
        if old == 0 and stage > 0:
            self._brownout_since = t
        elif stage == 0 and self._brownout_since is not None:
            self.brownout_time_s += t - self._brownout_since
            self._brownout_since = None

    def _on_gated(self, t: float, key: object, p: Mapping) -> None:
        self.placements_gated += p["requests"]

    def _on_quarantine(self, t: float, key: object, p: Mapping) -> None:
        """An episode runs from the breaker's first trip to its close; a
        failed probe re-opens it within the same episode."""
        node = p["node"]
        if p["phase"] == "open":
            if node not in self._quarantined_since:
                self._quarantined_since[node] = t
                self.quarantines += 1
            return
        since = self._quarantined_since.pop(node, None)
        if since is not None:
            self._quarantine_s[node] = self._quarantine_s.get(node, 0.0) + (t - since)

    # -- node availability windows ----------------------------------------
    def _node_up(self, node: int, t: float) -> None:
        since = self._down_since.pop(node, None)
        if since is not None:
            self._downtime[node] = self._downtime.get(node, 0.0) + (t - since)

    def _on_node_join(self, t: float, key: object, p: Mapping) -> None:
        node = p["node"]
        self.known_nodes[node] = None
        self._dark_since.pop(node, None)  # it left while dead: back alive
        if p.get("rejoin"):
            self._node_up(node, t)

    def _on_node_leave(self, t: float, key: object, p: Mapping) -> None:
        """A crash takes the node down; a graceful departure does not."""
        if p.get("crash"):
            self._down_since.setdefault(p["node"], t)

    def _on_node_dead(self, t: float, key: object, p: Mapping) -> None:
        self._down_since.setdefault(p["node"], t)
        self._went_dark(p["node"], t)

    def _on_node_reboot(self, t: float, key: object, p: Mapping) -> None:
        self._node_up(p["node"], t)
        self._dark_since.pop(p["node"], None)

    # -- control plane and failure detection --------------------------------
    def _went_dark(self, target: object, t: float) -> None:
        """*target* died or went dark; an open window keeps its start."""
        self._dark_since.setdefault(target, t)
        if target in self._suspicions:
            self._suspicions[target] = True

    def _on_rms_crash(self, t: float, key: object, p: Mapping) -> None:
        self.rms_crashes += 1
        self._went_dark("rms", t)

    def _on_rms_gray(self, t: float, key: object, p: Mapping) -> None:
        self.rms_gray_events += 1
        self._went_dark("rms", t)

    def _on_rms_restore(self, t: float, key: object, p: Mapping) -> None:
        self.control_plane_downtime_s += t - self._dark_since.pop("rms", t)

    def _on_failover_complete(self, t: float, key: object, p: Mapping) -> None:
        self.failovers += 1
        self._on_rms_restore(t, key, p)

    def _on_lease_expire(self, t: float, key: object, p: Mapping) -> None:
        self.leases_expired += 1

    def _on_heartbeat_suspect(self, t: float, key: object, p: Mapping) -> None:
        self._suspicions[p["target"]] = p["target"] in self._dark_since

    def _on_heartbeat_rejoin(self, t: float, key: object, p: Mapping) -> None:
        """A suspicion lifted: false unless its target was dark during
        it (a reboot or a restore lifts a true one)."""
        if not self._suspicions.pop(p["target"], True):
            self.false_suspicions += 1

    def _on_heartbeat_confirm(self, t: float, key: object, p: Mapping) -> None:
        """A death detected this long after it happened; confirming a
        live target is a false suspicion."""
        self._suspicions.pop(p["target"], None)
        since = self._dark_since.get(p["target"])
        if since is None:
            self.false_suspicions += 1
        else:
            self.detection_latencies.append(t - since)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, horizon_s: float, *, slo: Sequence = ()) -> SimulationReport:
        """Reduce the fold at *horizon_s*, closing the windows still
        open there.  The SLO verdicts are the monitor's own fold of the
        same stream: its :class:`~repro.sim.slo.SLOResult` list (empty
        when no SLO is armed)."""
        n = len(self._index)
        col = {name: column[:n] for name, column in self._col.items()}
        arrival = col["arrival"]
        dispatch = col["dispatch"]
        finish = col["finish"]
        discarded = col["discarded"]
        failed = col["failed"]
        shed = col["shed"]
        finished = ~np.isnan(finish)
        pending = np.isnan(finish) & ~discarded & ~failed & ~shed
        # Every reduction runs over rows in arrival order.
        waits = (dispatch - arrival)[finished & ~np.isnan(dispatch)]
        turnarounds = (finish - arrival)[finished]
        reconfig_mask = finished & (col["reconfig_time"] > 0)
        reuse_hits = int((finished & col["reused_configuration"]).sum())
        kind_names = list(self._codes["pe_kind"])
        rpe_code = self._codes["pe_kind"].get("RPE")
        kinds = col["pe_kind"]
        hw_tasks = int((finished & (kinds == rpe_code)).sum()) if rpe_code is not None else 0
        utilizations = {
            label: usage.utilization(horizon_s) for label, usage in self.resources.items()
        }
        # by-kind counts in order of first finished appearance.
        by_kind: dict[str, int] = {}
        finished_kinds = kinds[finished]
        if finished_kinds.size:
            codes, firsts, counts = np.unique(
                finished_kinds, return_index=True, return_counts=True
            )
            for pos in np.argsort(firsts):
                code = int(codes[pos])
                name = kind_names[code] if code >= 0 else ""
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
        quarantine_s = 0.0
        for node_id in self.known_nodes:
            quarantine_s += self._quarantine_s.get(node_id, 0.0)
            since = self._quarantined_since.get(node_id)
            if since is not None:
                quarantine_s += max(0.0, horizon_s - since)
        brownout_s = self.brownout_time_s
        if self._brownout_since is not None:
            brownout_s += horizon_s - self._brownout_since
        dark_s = self.control_plane_downtime_s + max(
            0.0, horizon_s - self._dark_since.get("rms", horizon_s)
        )
        latencies = np.asarray(self.detection_latencies, dtype=float)
        first_fault = col["first_fault"]
        repairs = (finish - first_fault)[finished & ~np.isnan(first_fault)]
        completed = int(finished.sum())
        # Per-tenant aggregates, tenants in order of first arrival (the
        # order interning assigned their codes in).
        per_tenant: dict[str, dict[str, float]] = {}
        tenant_codes = col["tenant"]
        for code, name in enumerate(self._codes["tenant"]):
            mask = tenant_codes == code
            fin_mask = mask & finished
            per_tenant[name] = {
                "completed": int(fin_mask.sum()),
                "shed": int((mask & shed).sum()),
                "failed": int((mask & failed).sum()),
                **_latency_fields(
                    (dispatch - arrival)[fin_mask & ~np.isnan(dispatch)],
                    (finish - arrival)[fin_mask],
                ),
            }
        return SimulationReport(
            horizon_s=horizon_s,
            completed=completed,
            discarded=int(discarded.sum()),
            pending=int(pending.sum()),
            **_latency_fields(waits, turnarounds),
            makespan_s=float(finish[finished].max()) if completed else 0.0,
            reconfigurations=int(reconfig_mask.sum()),
            # Python left-fold sums: numpy's pairwise summation rounds
            # differently, and the pinned reports depend on the order.
            total_reconfig_time_s=sum(col["reconfig_time"][reconfig_mask].tolist()),
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
            wasted_work_s=sum(col["wasted_time_s"].tolist()),
            wasted_slice_seconds=sum(col["wasted_slice_seconds"].tolist()),
            goodput_tasks_per_s=completed / horizon_s if horizon_s > 0 else 0.0,
            deadline_soft_misses=self.deadline_soft_misses,
            deadline_hard_misses=self.deadline_hard_misses,
            deadline_miss_rate=(
                int((col["deadline_missed"] != 0).sum()) / n if n else 0.0
            ),
            quarantines=self.quarantines,
            quarantine_time_s=quarantine_s,
            checkpoints=self.checkpoint_events,
            checkpoint_overhead_s=self.checkpoint_overhead_s,
            wasted_work_saved_s=self.wasted_work_saved_s,
            migrations=self.migration_events,
            shed=int(shed.sum()),
            admission_deferrals=self.defer_events,
            brownout_degraded=self.brownout_degraded,
            placements_gated=self.placements_gated,
            brownout_transitions=self.brownout_transitions,
            brownout_max_stage=self.brownout_max_stage,
            brownout_time_s=brownout_s,
            overload_goodput_tasks_per_s=(
                self.brownout_completions / brownout_s if brownout_s > 0 else 0.0
            ),
            rms_crashes=self.rms_crashes,
            rms_gray_events=self.rms_gray_events,
            failovers=self.failovers,
            control_plane_downtime_s=dark_s,
            detections=latencies.size,
            detection_latency_p50_s=_percentile(latencies, 50),
            detection_latency_p95_s=_percentile(latencies, 95),
            false_suspicions=self.false_suspicions,
            leases_expired=self.leases_expired,
            orphaned_tasks=self.orphan_events,
            orphans_recovered=self.orphan_events,
            per_tenant=per_tenant,
            **_slo_fields(slo),
        )


def _slo_fields(results: Sequence) -> dict:
    """Report fields of the SLO monitor's
    :class:`~repro.sim.slo.SLOResult` list."""
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


#: Old name of the collector, kept only because the benchmark under
#: ``perf/`` imports it; nothing else may use it.
BulkMetricsCollector = MetricsCollector
