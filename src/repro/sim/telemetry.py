"""Sim-time telemetry: labeled instruments, derived spans, exporters.

The paper's quantitative story is about *watching* a reconfigurable
grid over time -- utilization evolving, reconfiguration time
accumulating, the resilience layer quarantining and rehabilitating
nodes.  PRs 1-3 gave the simulator a flat event trace and end-of-run
scalars; this module adds the time dimension:

* :class:`TelemetryRegistry` -- a registry of :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` instruments keyed by name +
  labels (node, RPE, strategy, event kind...).  Gauges and counters
  record ``(simulated time, value)`` samples on every change, so a
  finished run carries full step-wise time-series with no periodic
  sampler perturbing the event engine.  The registry reads time from a
  pluggable ``clock`` (the simulator installs ``engine.now``), which
  lets hooks in layers that never see the clock (RMS, JSS, health
  tracker) sample correctly.
* :class:`TelemetryFold` -- the simulator passes every event it emits
  to the fold, which owns one table from event kind to instrument.
* **Span derivation** -- :func:`build_task_spans` and
  :func:`build_node_spans` fold a :class:`~repro.sim.tracing.TraceEvent`
  stream into task-lifecycle spans (queued -> setup -> execute, one
  cycle per placement attempt, annotated with fault / timeout /
  checkpoint / migrate instants) and node-occupancy spans
  (one per fabric-region allocation).
* **Exporters** -- :func:`to_chrome_trace` renders spans as Chrome
  trace-event JSON (the format ``chrome://tracing`` and Perfetto load);
  :meth:`TelemetryRegistry.open_metrics` dumps instruments in an
  OpenMetrics-style text format; :meth:`TelemetryRegistry.to_json` /
  :func:`load_telemetry` round-trip the full registry through the JSON
  file ``repro simulate --telemetry`` writes and ``repro report``
  reads.

Determinism contract: telemetry is purely observational.  It schedules
no engine events, draws no randomness, and mutates no simulator state,
so an instrumented run emits a byte-identical trace to an
uninstrumented one -- and with ``telemetry=None`` every hook is a
single attribute check (the PR 3 zero-cost-when-disabled idiom).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.sim.tracing import TraceEvent

#: Telemetry JSON file layout version (``repro report`` checks it).
TELEMETRY_FORMAT = 1

#: Default histogram buckets (seconds): wait / turnaround scales.
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0)

#: Numeric encoding of circuit-breaker states for the breaker gauge.
BREAKER_STATE_VALUES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}

#: Numeric encoding of the ``control_plane_state`` gauge the
#: :class:`TelemetryFold` sets from the failover layer's events.
CONTROL_PLANE_STATE_VALUES = {"up": 0.0, "gray": 1.0, "down": 2.0}


def _label_key(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Instrument:
    """Base of all instruments: a name, labels, and a help string."""

    kind = "untyped"

    def __init__(self, registry: "TelemetryRegistry", name: str,
                 labels: dict[str, object], help: str = ""):
        self.registry = registry
        self.name = name
        self.labels = {k: str(v) for k, v in labels.items()}
        self.help = help

    def _now(self) -> float:
        return self.registry.clock()

    def label_suffix(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(self.labels.items()))
        return "{" + inner + "}"


class _Sampled(Instrument):
    """An instrument that keeps a ``(time, value)`` step series."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.points: list[tuple[float, float]] = []

    @property
    def value(self) -> float:
        return self.points[-1][1] if self.points else 0.0

    def _record(self, value: float) -> None:
        now = self._now()
        if self.points:
            last_t, last_v = self.points[-1]
            if value == last_v:
                return  # step series: only changes are interesting
            if now == last_t:
                self.points[-1] = (now, value)
                return
        self.points.append((now, value))

    def value_at(self, t: float) -> float:
        """Step-wise lookup: the newest sample at or before *t*."""
        index = bisect_right(self.points, (t, float("inf"))) - 1
        return self.points[index][1] if index >= 0 else 0.0


class Counter(_Sampled):
    """Monotonically increasing total (events, seconds of overhead)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._record(self.value + amount)


class Gauge(_Sampled):
    """A value that goes up and down (queue depth, utilization)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._record(float(value))

    def inc(self, amount: float = 1.0) -> None:
        self._record(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self._record(self.value - amount)


class Histogram(Instrument):
    """Cumulative-bucket histogram (OpenMetrics ``le`` convention)."""

    kind = "histogram"

    def __init__(self, registry: "TelemetryRegistry", name: str,
                 labels: dict[str, object], help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        super().__init__(registry, name, labels, help)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # ``le`` convention: bucket i counts values <= buckets[i]; the
        # final slot is the +inf tail.
        index = bisect_left(self.buckets, value)
        self.bucket_counts[index] += 1

    def cumulative_counts(self) -> list[int]:
        """Counts per ``le`` bound, cumulative, +inf last."""
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


class TelemetryRegistry:
    """Get-or-create registry of instruments, with a sim-time clock.

    The simulator installs its engine clock via :meth:`set_clock`; every
    layer that holds the registry (RMS, JSS, health tracker) then
    samples against simulated seconds without ever seeing the engine.
    ``meta`` carries run-level context (strategy, seed, summary lines)
    into the telemetry file for the dashboard's header.
    """

    def __init__(self, *, clock: Callable[[], float] | None = None):
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        self.meta: dict[str, object] = {}
        self._instruments: dict[tuple[str, tuple], Instrument] = {}

    def set_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    # ------------------------------------------------------------------
    # Instrument factories (get-or-create, keyed by name + labels)
    # ------------------------------------------------------------------
    def _get(self, cls, name: str, help: str, labels: dict, **kwargs) -> Instrument:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(self, name, labels, help, **kwargs)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"instrument {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def instruments(self) -> list[Instrument]:
        return [self._instruments[key] for key in sorted(self._instruments)]

    def series(self, name: str | None = None) -> list[_Sampled]:
        """Every sampled (counter/gauge) instrument, optionally by name."""
        return [
            i for i in self.instruments
            if isinstance(i, _Sampled) and (name is None or i.name == name)
        ]

    # ------------------------------------------------------------------
    # OpenMetrics-style text dump
    # ------------------------------------------------------------------
    def open_metrics(self) -> str:
        """Instrument end-states in an OpenMetrics-style text format."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for instrument in self.instruments:
            if instrument.name not in seen_headers:
                seen_headers.add(instrument.name)
                if instrument.help:
                    lines.append(f"# HELP {instrument.name} {instrument.help}")
                lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            suffix = instrument.label_suffix()
            if isinstance(instrument, Histogram):
                cumulative = instrument.cumulative_counts()
                for bound, count in zip(instrument.buckets, cumulative):
                    extra = f'le="{bound:g}"'
                    inner = suffix[1:-1] + "," + extra if suffix else extra
                    lines.append(f"{instrument.name}_bucket{{{inner}}} {count}")
                inner = (suffix[1:-1] + ',le="+Inf"') if suffix else 'le="+Inf"'
                lines.append(f"{instrument.name}_bucket{{{inner}}} {instrument.count}")
                lines.append(f"{instrument.name}_sum{suffix} {instrument.sum:g}")
                lines.append(f"{instrument.name}_count{suffix} {instrument.count}")
            else:
                lines.append(f"{instrument.name}{suffix} {instrument.value:g}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # JSON round-trip (the ``--telemetry`` file)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        series = []
        histograms = []
        for instrument in self.instruments:
            record: dict[str, object] = {
                "name": instrument.name,
                "labels": dict(sorted(instrument.labels.items())),
                "help": instrument.help,
            }
            if isinstance(instrument, Histogram):
                record.update(
                    buckets=list(instrument.buckets),
                    counts=list(instrument.bucket_counts),
                    sum=instrument.sum,
                    count=instrument.count,
                )
                histograms.append(record)
            else:
                record.update(
                    type=instrument.kind,
                    points=[[t, v] for t, v in instrument.points],
                )
                series.append(record)
        return {
            "format": TELEMETRY_FORMAT,
            "meta": self.meta,
            "series": series,
            "histograms": histograms,
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), sort_keys=True) + "\n", encoding="ascii"
        )


def load_telemetry(path: str | Path) -> TelemetryRegistry:
    """Rebuild a registry from a ``--telemetry`` JSON file."""
    data = json.loads(Path(path).read_text(encoding="ascii"))
    if data.get("format") != TELEMETRY_FORMAT:
        raise ValueError(
            f"unsupported telemetry format {data.get('format')!r} "
            f"(expected {TELEMETRY_FORMAT})"
        )
    registry = TelemetryRegistry()
    # `or {}` / `or []`: a dump may carry explicit nulls for these keys
    # (hand-edited or produced by another tool); an empty registry must
    # load cleanly so `repro report` can render its empty state.
    registry.meta = data.get("meta") or {}
    for record in data.get("series") or []:
        cls = Counter if record.get("type") == "counter" else Gauge
        instrument = registry._get(
            cls, record["name"], record.get("help", ""), record.get("labels", {})
        )
        instrument.points = [
            (float(t), float(v)) for t, v in record.get("points") or []
        ]
    for record in data.get("histograms") or []:
        histogram = registry.histogram(
            record["name"],
            record.get("help", ""),
            buckets=tuple(record["buckets"]),
            **record.get("labels", {}),
        )
        histogram.bucket_counts = [int(c) for c in record["counts"]]
        histogram.sum = float(record["sum"])
        histogram.count = int(record["count"])
    return registry


# ----------------------------------------------------------------------
# The event fold: simulator transitions -> instruments
# ----------------------------------------------------------------------

class Series(NamedTuple):
    """An instrument the fold drives, and the payload field labelling it."""

    name: str
    help: str
    label: str | None = None


#: Event kind -> the counter each event moves by one.
EVENT_COUNTERS: dict[str, Series] = {
    "defer": Series("sim_deferrals_total", "submissions deferred by backpressure"),
    "shed": Series("sim_sheds_total", "submissions shed by overload protection", "reason"),
    "degrade": Series("sim_degrades_total", "low-priority tasks forced to GPP by brownout"),
    "migrate": Series("sim_migrations_total", "checkpoint-resume migrations"),
    "retry": Series("sim_retries_total", "retry requeues"),
    "fallback": Series("sim_fallbacks_total", "GPP graceful-degradation fallbacks"),
    "fault": Series("sim_faults_total", "placements destroyed by injected faults"),
    "timeout": Series("sim_deadline_misses_total", "deadline watchdog firings", "deadline"),
    "checkpoint": Series("sim_checkpoints_total", "progress snapshots taken"),
    "heartbeat-suspect": Series("sim_suspicions_total", "heartbeat suspicions raised"),
    "rms-crash": Series("sim_rms_crashes_total", "primary RMS process crashes"),
    "rms-gray": Series("sim_rms_gray_total", "primary RMS gray-failure episodes"),
    "failover-complete": Series("sim_failovers_total", "standby promotions to primary"),
    "orphan-recovered": Series(
        "sim_orphans_total", "orphaned placements recovered into the queue"
    ),
}
#: Each ``checkpoint`` also adds the run's per-snapshot overhead.
CHECKPOINT_OVERHEAD = Series(
    "sim_checkpoint_overhead_seconds_total", "execution seconds spent writing snapshots"
)
#: Observed at ``dispatch`` / ``complete``, from the key's ``submit``.
TASK_WAIT = Series("task_wait_seconds", "arrival -> dispatch latency")
TASK_TURNAROUND = Series("task_turnaround_seconds", "arrival -> completion latency")
#: The two event-driven gauges: the stage of each ``brownout`` event,
#: and the state (CONTROL_PLANE_STATE_VALUES) each control-plane event sets.
BROWNOUT_STAGE = Series(
    "sim_brownout_stage", "current brownout degradation stage (0 = healthy)"
)
CONTROL_PLANE_STATE = Series("control_plane_state", "0 = up, 1 = gray, 2 = down")
CONTROL_PLANE_EVENTS = {
    "rms-crash": 2.0, "rms-gray": 1.0, "rms-restore": 0.0, "failover-complete": 0.0
}
#: The kinds the fold reads besides submit, dispatch and complete; the
#: rest (start, slice-alloc, ...) pass by.
FOLDED_KINDS = frozenset(EVENT_COUNTERS).union(
    CONTROL_PLANE_EVENTS, ("task-failed", "discard", "brownout")
)


class TelemetryFold:
    """Folds the simulator's event stream into a registry, as
    ``EVENT_COUNTERS`` and the other ``Series`` constants say.
    Instruments are created at their first event and cached per (name,
    label value).  ``brownout`` / ``control_plane`` seed their
    gauge at 0 for layers armed from the start; ``checkpoint_overhead_s``
    is the run's ``CheckpointSpec.overhead_s``."""

    def __init__(self, registry: TelemetryRegistry, *, brownout: bool = False,
                 control_plane: bool = False, checkpoint_overhead_s: float = 0.0):
        self.registry = registry
        self.checkpoint_overhead_s = checkpoint_overhead_s
        self._cache: dict[object, Instrument] = {}
        #: Task key -> submit time, dropped at the key's terminal event.
        self._submitted: dict[object, float] = {}
        if brownout:
            self._get(registry.gauge, BROWNOUT_STAGE).set(0)
        if control_plane:
            self._get(registry.gauge, CONTROL_PLANE_STATE).set(0)

    def _get(self, factory, series: Series, label: object = None):
        key = series.name if series.label is None else (series.name, label)
        instrument = self._cache.get(key)
        if instrument is None:
            labels = {series.label: label} if series.label is not None else {}
            instrument = self._cache[key] = factory(series.name, series.help, **labels)
        return instrument

    def observe(self, kind: str, key: object, payload: dict) -> None:
        """Fold one event into the instruments its kind drives."""
        registry = self.registry
        if kind == "submit":
            self._submitted[key] = registry.clock()
        elif kind == "dispatch":
            wait = registry.clock() - self._submitted[key]
            self._get(registry.histogram, TASK_WAIT).observe(wait)
        elif kind == "complete":
            turnaround = registry.clock() - self._submitted.pop(key)
            self._get(registry.histogram, TASK_TURNAROUND).observe(turnaround)
        elif kind in FOLDED_KINDS:
            counter = EVENT_COUNTERS.get(kind)
            if counter is not None:
                label = payload[counter.label] if counter.label is not None else None
                self._get(registry.counter, counter, label).inc()
            if kind in CONTROL_PLANE_EVENTS:
                self._get(registry.gauge, CONTROL_PLANE_STATE).set(CONTROL_PLANE_EVENTS[kind])
            elif kind in ("task-failed", "discard", "shed"):
                self._submitted.pop(key, None)
            elif kind == "checkpoint":
                self._get(registry.counter, CHECKPOINT_OVERHEAD).inc(self.checkpoint_overhead_s)
            elif kind == "brownout":
                self._get(registry.gauge, BROWNOUT_STAGE).set(payload["stage"])


# ----------------------------------------------------------------------
# Derived spans: folding the TraceEvent stream into intervals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """One derived interval on one track.

    ``track`` groups spans for display (a task key, or a fabric
    region); ``phase`` is the span's category (``queued`` / ``setup`` /
    ``execute`` / ``occupied``); ``args`` carries the originating event
    payload fields worth surfacing in a trace viewer.
    """

    track: str
    phase: str
    start: float
    end: float
    name: str = ""
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """A point annotation on a track (fault, checkpoint, migrate...)."""

    track: str
    kind: str
    time: float
    args: dict = field(default_factory=dict)


#: Event kinds rendered as instant annotations on the task's track.
ANNOTATION_KINDS = frozenset(
    {"fault", "retry", "fallback", "task-failed", "timeout", "checkpoint",
     "migrate", "probe", "discard", "requeue",
     "lease-expire", "orphan-recovered"}
)

#: Task lifecycle phases, in display order.
TASK_PHASES = ("queued", "setup", "execute")


def _task_track(key: object) -> str:
    if isinstance(key, tuple):
        return "task " + ".".join(str(part) for part in key)
    return f"task {key}"


def build_task_spans(
    events: list[TraceEvent],
) -> tuple[list[Span], list[Instant]]:
    """Fold task-lifecycle events into per-attempt phase spans.

    Each placement attempt contributes up to three spans on the task's
    track: ``queued`` (submit/requeue -> dispatch), ``setup`` (dispatch
    -> start; the transfer + synthesis + reconfigure window) and
    ``execute`` (start -> complete, or until the placement is destroyed
    by a fault / timeout / requeue).  Faults, retries, checkpoints,
    migrations and watchdog timeouts become :class:`Instant`
    annotations, so a trace viewer shows *why* a span ended where it
    did.
    """
    spans: list[Span] = []
    instants: list[Instant] = []
    #: key -> (phase, phase start time, args carried from dispatch)
    open_phase: dict[object, tuple[str, float, dict]] = {}

    def close(key: object, end: float) -> None:
        state = open_phase.pop(key, None)
        if state is not None:
            phase, start, args = state
            spans.append(Span(_task_track(key), phase, start, end, args=args))

    for event in events:
        key, kind, t = event.key, event.kind, event.time
        if kind == "submit":
            open_phase[key] = ("queued", t, dict(event.payload))
        elif kind == "dispatch":
            close(key, t)
            open_phase[key] = ("setup", t, dict(event.payload))
        elif kind == "start":
            state = open_phase.get(key)
            args = state[2] if state else {}
            close(key, t)
            open_phase[key] = ("execute", t, args)
        elif kind == "complete":
            close(key, t)
        elif kind in ("requeue", "fault", "discard", "task-failed"):
            close(key, t)
            if kind in ("requeue",):
                open_phase[key] = ("queued", t, {})
        elif kind in ("retry", "fallback"):
            # Backoff elapsed: the task re-enters the queue now.
            open_phase[key] = ("queued", t, {})
        elif kind == "timeout" and event.payload.get("action") in ("requeue", "fail"):
            close(key, t)
        if kind in ANNOTATION_KINDS and key is not None:
            instants.append(Instant(_task_track(key), kind, t, dict(event.payload)))
    # Anything still open at the end of the stream (a run stopped at a
    # horizon) closes at the last event's timestamp.
    if events:
        horizon = events[-1].time
        for key in list(open_phase):
            close(key, horizon)
    spans.sort(key=lambda s: (s.track, s.start, TASK_PHASES.index(s.phase)
                              if s.phase in TASK_PHASES else 99))
    return spans, instants


def build_node_spans(events: list[TraceEvent]) -> list[Span]:
    """Fold slice-alloc/free pairs into fabric-region occupancy spans.

    One span per allocation, on a ``node N rpe R region G`` track,
    named for the hardware function resident during the occupancy (from
    the surrounding dispatch, when available).
    """
    spans: list[Span] = []
    #: (node, resource, region) -> (start, slices, function)
    live: dict[tuple, tuple[float, int, str]] = {}
    #: key -> function named by the latest dispatch (for span naming)
    last_function: dict[object, str] = {}
    for event in events:
        payload = event.payload
        if event.kind == "dispatch":
            last_function[event.key] = payload.get("function", "")
        elif event.kind == "slice-alloc":
            place = (payload["node"], payload["resource"], payload["region"])
            live[place] = (
                event.time,
                payload.get("slices", 0),
                last_function.get(event.key, ""),
            )
        elif event.kind == "slice-free":
            place = (payload["node"], payload["resource"], payload["region"])
            opened = live.pop(place, None)
            if opened is None:
                continue  # free without a seen alloc (trimmed trace)
            start, slices, function = opened
            spans.append(
                Span(
                    track=f"node {place[0]} rpe {place[1]} region {place[2]}",
                    phase="occupied",
                    start=start,
                    end=event.time,
                    name=function,
                    args={"slices": slices},
                )
            )
    if events:
        horizon = events[-1].time
        for place, (start, slices, function) in sorted(live.items(), key=repr):
            spans.append(
                Span(
                    track=f"node {place[0]} rpe {place[1]} region {place[2]}",
                    phase="occupied",
                    start=start,
                    end=horizon,
                    name=function,
                    args={"slices": slices},
                )
            )
    spans.sort(key=lambda s: (s.track, s.start))
    return spans


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto export
# ----------------------------------------------------------------------

#: Process ids in the exported trace: tasks vs. fabric occupancy.
TASKS_PID = 1
FABRIC_PID = 2


def to_chrome_trace(events: list[TraceEvent]) -> dict:
    """Render a trace as Chrome trace-event JSON (Perfetto-loadable).

    Simulated seconds map to trace microseconds.  Task tracks live in
    a ``tasks`` process (one thread per task), fabric-region occupancy
    in a ``fabric`` process (one thread per region); lifecycle phases
    are complete (``X``) events and annotations are instants (``i``).
    """
    task_spans, instants = build_task_spans(events)
    node_spans = build_node_spans(events)
    tids: dict[tuple[int, str], int] = {}
    trace_events: list[dict] = [
        {"ph": "M", "pid": TASKS_PID, "tid": 0, "name": "process_name",
         "args": {"name": "tasks"}},
        {"ph": "M", "pid": FABRIC_PID, "tid": 0, "name": "process_name",
         "args": {"name": "fabric"}},
    ]

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tids:
            tids[key] = sum(1 for existing in tids if existing[0] == pid) + 1
            trace_events.append(
                {"ph": "M", "pid": pid, "tid": tids[key], "name": "thread_name",
                 "args": {"name": track}}
            )
        return tids[key]

    def us(t: float) -> int:
        return round(t * 1e6)

    for span in task_spans:
        trace_events.append(
            {
                "ph": "X",
                "pid": TASKS_PID,
                "tid": tid_for(TASKS_PID, span.track),
                "name": span.phase,
                "cat": "task",
                "ts": us(span.start),
                "dur": max(1, us(span.end) - us(span.start)),
                "args": span.args,
            }
        )
    for instant in instants:
        trace_events.append(
            {
                "ph": "i",
                "pid": TASKS_PID,
                "tid": tid_for(TASKS_PID, instant.track),
                "name": instant.kind,
                "cat": "annotation",
                "s": "t",
                "ts": us(instant.time),
                "args": instant.args,
            }
        )
    for span in node_spans:
        trace_events.append(
            {
                "ph": "X",
                "pid": FABRIC_PID,
                "tid": tid_for(FABRIC_PID, span.track),
                "name": span.name or "occupied",
                "cat": "fabric",
                "ts": us(span.start),
                "dur": max(1, us(span.end) - us(span.start)),
                "args": span.args,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, events: list[TraceEvent]) -> int:
    """Write the Perfetto/chrome://tracing JSON; returns event count."""
    trace = to_chrome_trace(events)
    Path(path).write_text(
        json.dumps(trace, sort_keys=True) + "\n", encoding="ascii"
    )
    return len(trace["traceEvents"])
