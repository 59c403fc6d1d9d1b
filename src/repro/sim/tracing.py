"""Structured simulator tracing: typed events, sinks, and invariants.
Event schema: ``submit`` / ``dispatch`` / ``start`` / ``reconfigure`` /
``complete`` / ``discard`` / ``requeue`` (task lifecycle, keyed by
``(job, task)``), ``node-join`` / ``node-leave`` (grid membership),
``slice-alloc`` / ``slice-free`` (fabric-region occupancy).  Checked
invariants: per-task causality, global time monotonicity, per-fabric
slice-capacity conservation, and configuration-reuse accounting.

The DReAMSim runs behind the paper's quantitative claims are only
trustworthy if their event streams can be audited.  This module gives
the simulator an observability layer:

* :class:`TraceEvent` -- one typed, timestamped event.  The simulator
  emits ``submit`` / ``dispatch`` / ``start`` / ``reconfigure`` /
  ``complete`` / ``discard`` / ``requeue`` for tasks, ``node-join`` /
  ``node-leave`` for grid membership, and ``slice-alloc`` /
  ``slice-free`` for fabric-region occupancy.
* :class:`Tracer` -- fan-out of events to pluggable sinks.
* :class:`InMemorySink` -- bounded (ring) or unbounded event list.
* :class:`JsonlSink` -- one JSON object per line; traces round-trip
  through :func:`read_jsonl` so stored baselines can be re-verified.
* :class:`TraceInvariantChecker` -- a sink that validates the stream
  *as it is produced*: per-task causality (dispatch after submit,
  start after dispatch, complete after start), global time
  monotonicity, slice-capacity conservation per fabric, and
  configuration-reuse accounting (a reuse hit must name a function
  actually resident in the chosen region, and pays zero
  reconfiguration time).

Event payloads deliberately exclude process-global identifiers
(bitstream ids, configuration ids): :func:`canonical_events` remaps the
remaining job-id component of task keys to dense indices, which makes
traces byte-stable across interpreter sessions -- the property the
golden-trace regression tests pin down.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

#: Every event kind the simulator emits, in no particular order.
EVENT_KINDS = frozenset(
    {
        "submit",
        "dispatch",
        "start",
        "reconfigure",
        "complete",
        "discard",
        "requeue",
        "node-join",
        "node-leave",
        "node-dead",    # ground truth: a node died silently (RMS unaware)
        "node-reboot",  # that node rebooted before the detector confirmed it
        "slice-alloc",
        "slice-free",
        # Fault-injection subsystem (sim/faults.py):
        "fault",        # a fault hit this task's placement
        "retry",        # post-backoff re-queue of a faulted task
        "fallback",     # re-queue degraded to GPP execution
        "task-failed",  # terminal failure (retry budget exhausted)
        "link-fault",   # a network link degraded or was severed
        "link-restore", # that link healed
        # Adaptive resilience layer (grid/health.py + sim/resilience.py):
        "quarantine",   # a node's circuit breaker opened/closed
        "probe",        # a probationary placement on a half-open node
        "timeout",      # the deadline watchdog fired for this task
        "checkpoint",   # a fabric task snapshotted its progress
        "migrate",      # a checkpointed task resumed on another node
        # Overload protection (sim/admission.py):
        "admit",        # the admission controller accepted a submission
        "defer",        # backpressure: submission parked for re-offer
        "shed",         # load shedding: submission rejected, terminal
        "degrade",      # brownout forced a low-priority task onto GPP
        "brownout",     # brownout stage transition (escalate / recover)
        "gated",        # the utilization gate vetoed a round's requests
        # Control-plane fault tolerance (sim/failover.py):
        "heartbeat-suspect",  # detector suspects a target (node / rms)
        "heartbeat-confirm",  # suspicion confirmed: target declared down
        "heartbeat-rejoin",   # a heartbeat (or rejoin) cleared suspicion
        "rms-crash",          # the primary RMS process died
        "rms-gray",           # the primary went gray (up but useless)
        "rms-restore",        # cold restart / gray recovery: plane back up
        "failover-begin",     # standby promotion started
        "failover-complete",  # standby promoted; control plane back up
        "lease-expire",       # a placement's lease lapsed while dark
        "orphan-recovered",   # orphaned placement torn down and re-queued
        # Online SLO monitoring (sim/slo.py):
        "slo-breach",         # an objective entered/left breach (action=)
        "slo-alert-fire",     # multi-window burn rate crossed the threshold
        "slo-alert-resolve",  # the burn subsided (or the horizon closed it)
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped simulator event.

    ``key`` identifies the task for task-lifecycle events (``None`` for
    grid-membership events); ``payload`` carries kind-specific fields
    (node ids, region ids, slice counts, timing decomposition...).
    """

    time: float
    kind: str
    key: object = None
    payload: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to one deterministic JSON line (sorted keys)."""
        record = {"t": self.time, "kind": self.kind, "key": _jsonable_key(self.key)}
        record.update(self.payload)
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Parse one JSONL record; ``ValueError`` unless it is an object
        with a finite real ``t``, a ``kind`` in ``EVENT_KINDS`` and a
        ``key`` that is null, a string, a number or a flat list of those."""
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        time = data.pop("t", None)
        if (
            not isinstance(time, (int, float))
            or isinstance(time, bool)
            or not math.isfinite(time)
        ):
            raise ValueError(f"'t' must be a finite number, got {time!r}")
        kind = data.pop("kind", None)
        if not isinstance(kind, str) or not kind:
            raise ValueError(f"'kind' must be a non-empty string, got {kind!r}")
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        key = data.pop("key", None)
        parts = key if isinstance(key, list) else [key]
        if not all(isinstance(part, (str, int, float, type(None))) for part in parts):
            raise ValueError("'key' must be null, a string, a number or a flat "
                             f"list of those, got {key!r}")
        return cls(time=time, kind=kind, key=_tuple_key(key), payload=data)


def _jsonable_key(key: object) -> object:
    return list(key) if isinstance(key, tuple) else key


def _tuple_key(key: object) -> object:
    return tuple(key) if isinstance(key, list) else key


class TraceSink:
    """Receives events from a :class:`Tracer`.  Subclass and override."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; called by :meth:`Tracer.close`."""


class InMemorySink(TraceSink):
    """Keeps events in memory; ``capacity`` makes it a ring buffer."""

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.events: deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlSink(TraceSink):
    """Streams events to a JSONL file, one object per line.

    Flushes every ``flush_every`` events (default 64) so a crashed or
    killed run still leaves a readable partial trace on disk; pass
    ``flush_every=None`` to defer entirely to the OS buffer.
    """

    def __init__(self, path: str | Path, *, flush_every: int | None = 64):
        if flush_every is not None and flush_every < 1:
            raise ValueError("flush_every must be >= 1 (or None)")
        self.path = Path(path)
        self.flush_every = flush_every
        self._fh = self.path.open("w", encoding="ascii")
        self.lines_written = 0

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(event.to_json() + "\n")
        self.lines_written += 1
        if self.flush_every is not None and self.lines_written % self.flush_every == 0:
            self.flush()

    def flush(self) -> None:
        """Push buffered lines to disk (no-op once closed)."""
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def iter_jsonl(path: str | Path) -> Iterator[TraceEvent]:
    """Stream a JSONL trace one event per line (keys re-tupled).  A
    malformed record raises ``ValueError`` naming its line number."""
    with Path(path).open(encoding="ascii") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    event = TraceEvent.from_json(line)
                except ValueError as exc:
                    raise ValueError(f"line {number}: {exc}") from None
                yield event


def read_jsonl(path: str | Path) -> list[TraceEvent]:
    """Load a whole JSONL trace into a list (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def canonical_events(events: list[TraceEvent]) -> list[TraceEvent]:
    """Remap the job-id component of task keys to dense indices.

    JSS job ids come from a process-global counter, so the same seeded
    run yields shifted ids depending on what ran earlier in the
    process.  Canonicalization assigns each distinct job id its order
    of first appearance, making traces reproducible byte-for-byte.
    """
    mapping: dict[object, int] = {}
    out: list[TraceEvent] = []
    for event in events:
        key = event.key
        if isinstance(key, tuple) and key:
            job = key[0]
            if job not in mapping:
                mapping[job] = len(mapping)
            key = (mapping[job],) + key[1:]
        out.append(TraceEvent(time=event.time, kind=event.kind, key=key,
                              payload=event.payload))
    return out


class Tracer:
    """Fans simulator events out to sinks.

    The simulator calls :meth:`emit`; each sink sees every event in
    emission order.  A :class:`TraceInvariantChecker` is just another
    sink, so invariants can be validated online during the run.
    """

    def __init__(self, *sinks: TraceSink):
        self.sinks: list[TraceSink] = list(sinks)
        self.events_emitted = 0

    @classmethod
    def with_invariants(cls, *sinks: TraceSink) -> "Tracer":
        """A tracer whose first sink is a fresh invariant checker."""
        return cls(TraceInvariantChecker(), *sinks)

    @property
    def checker(self) -> "TraceInvariantChecker | None":
        for sink in self.sinks:
            if isinstance(sink, TraceInvariantChecker):
                return sink
        return None

    def emit(self, time: float, kind: str, key: object = None, **payload) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = TraceEvent(time=time, kind=kind, key=key, payload=payload)
        self.events_emitted += 1
        for sink in self.sinks:
            sink.emit(event)

    def observe(self, t: float, kind: str, key: object, payload: dict) -> None:
        """:meth:`emit`, in the shape of the simulator's subscribers."""
        self.emit(t, kind, key, **payload)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class InvariantViolation(RuntimeError):
    """An event stream broke a simulator invariant."""


#: Task lifecycle states tracked by the checker.
_SUBMITTED = "submitted"
_DISPATCHED = "dispatched"
_STARTED = "started"
_COMPLETED = "completed"
_DISCARDED = "discarded"
_FAULTED = "faulted"   # placement lost to a fault; awaiting retry/failure
_FAILED = "failed"     # terminal: retry budget exhausted
_SHED = "shed"         # terminal: rejected by overload protection

#: States in which a task has terminated (exactly-once, never revisited).
_TERMINAL = frozenset({_COMPLETED, _DISCARDED, _FAILED, _SHED})


class TraceInvariantChecker(TraceSink):
    """Validates an event stream against the simulator's contracts.

    Raised violations name the offending event.  Checked invariants:

    * **Monotonic time** -- event timestamps never decrease.
    * **Task causality** -- ``submit`` -> ``dispatch`` -> ``start`` ->
      ``complete``; ``discard`` only before dispatch; ``requeue`` only
      after dispatch (and returns the task to the queue); no duplicate
      submits or transitions from terminal states.
    * **Slice conservation** -- a fabric region is allocated at most
      once at a time, allocated slices per (node, RPE) never exceed the
      device capacity, frees match their allocs, and a departing node
      has no live allocations left (its victims were requeued first).
    * **Reuse accounting** -- a dispatch flagged ``reused`` pays zero
      reconfiguration time and names a function previously loaded (by a
      non-reused dispatch or a ``reconfigure``, and not since evicted)
      in that exact region.
    * **Fault lifecycle** -- ``fault`` only hits a dispatched/started
      task; ``retry`` / ``fallback`` / ``task-failed`` only follow a
      fault; terminal states (completed / discarded / failed) are never
      left, which is what makes :meth:`assert_no_lost_tasks`'s
      exactly-once guarantee meaningful.  ``link-restore`` must pair
      with a live ``link-fault``.
    * **Quarantine** -- after a ``quarantine`` (phase ``open``) for a
      node, no ``dispatch`` may target that node until a ``probe``
      (the sanctioned half-open trickle) or a ``quarantine`` phase
      ``close`` lifts it: an open circuit breaker receives zero
      placements.
    * **Resilience lifecycle** -- ``checkpoint`` only while started;
      ``migrate`` only right after a dispatch; ``timeout`` transitions
      follow its ``action`` (``warn`` observes, ``requeue`` /``fail``
      tear the placement down like a fault does).
    * **Admission lifecycle** -- ``admit`` / ``defer`` / ``degrade``
      only touch a submitted (not yet dispatched) task; ``shed`` is a
      terminal transition from submitted; ``brownout`` carries a legal
      action and stage; ``gated`` counts at least one request, in a
      dispatch round of an up control plane.
    * **Control-plane lifecycle** -- no ``dispatch`` while the control
      plane is dark (between ``rms-crash`` / ``rms-gray`` and the
      matching ``failover-complete`` / ``rms-restore``);
      ``failover-complete`` only follows ``failover-begin``;
      ``heartbeat-confirm`` / ``heartbeat-rejoin`` only resolve a live
      suspicion; ``orphan-recovered`` returns an in-flight task to the
      queue exactly like ``requeue`` does, keeping conservation intact.
    * **Liveness** -- after a ``node-dead`` (a silent death the RMS
      has not seen yet), no ``start`` or ``complete`` happens on that
      node until its ``node-reboot``, its ``node-leave`` (``detected``)
      or a ``node-join``: a dead node produces nothing.
    * **SLO lifecycle** -- ``slo-breach`` begin/end pairs per objective
      (no double begin, no unmatched end) and ``slo-alert-fire`` /
      ``slo-alert-resolve`` pairs likewise; after a finalized run
      :meth:`assert_slo_closed` requires everything closed.
    * **Task conservation** (online) -- at every point in the stream,
      ``completed + failed + discarded + shed <= submitted``; after a
      drained run :meth:`assert_conservation` requires equality, i.e.
      every submitted task terminated exactly once.
    """

    def __init__(self) -> None:
        self.events_checked = 0
        self._last_time = 0.0
        self._task_state: dict[object, str] = {}
        #: (node, resource) -> {region_id: allocated slices}
        self._alloc: dict[tuple[int, int], dict[int, int]] = {}
        #: (node, resource) -> device slice capacity
        self._capacity: dict[tuple[int, int], int] = {}
        #: (node, resource, region) -> resident hardware function
        self._resident: dict[tuple[int, int, int], str] = {}
        #: (site a, site b) pairs with a live, un-restored link fault
        self._degraded_links: set[tuple[int, int]] = set()
        #: Nodes whose circuit breaker is open (no dispatch allowed
        #: until a probe or a quarantine-close lifts the embargo).
        self._open_breakers: set[int] = set()
        #: Silently dead nodes, until they reboot or leave.
        self._dead: set[int] = set()
        #: Targets (node ids / "rms") under live heartbeat suspicion.
        self._suspected: set[object] = set()
        #: SLO objectives currently in breach (open slo-breach begin).
        self._slo_breaching: set[str] = set()
        #: SLO objectives with a firing (unresolved) burn-rate alert.
        self._slo_alerting: set[str] = set()
        #: Control-plane availability: ``"up"``, ``"gray"`` (the
        #: primary answers but is useless -- a crash may still
        #: *escalate* it), or ``"down"`` (crashed).  No dispatch may
        #: happen unless ``"up"``.
        self._cp_state = "up"
        self._failover_inflight = False
        # Online task-conservation ledger: every terminal transition
        # increments exactly one bucket, and the sum may never pass the
        # submit count (checked after every event in :meth:`emit`).
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.discarded = 0
        self.shed = 0

    # ------------------------------------------------------------------
    def _fail(self, event: TraceEvent, message: str) -> None:
        raise InvariantViolation(
            f"t={event.time:.6f} {event.kind} key={event.key!r}: {message}"
        )

    def _expect_state(self, event: TraceEvent, *allowed: str) -> str:
        state = self._task_state.get(event.key)
        if state not in allowed:
            self._fail(
                event,
                f"task is {state or 'unknown'}; expected one of {', '.join(allowed)}",
            )
        return state

    def _expect_alive(self, event: TraceEvent) -> None:
        node = event.payload.get("node")
        if node in self._dead:
            self._fail(event, f"node {node} is dead (node-dead, no reboot yet)")

    def emit(self, event: TraceEvent) -> None:
        if event.kind not in EVENT_KINDS:
            self._fail(event, "unknown event kind")
        if event.time < self._last_time - 1e-12:
            self._fail(
                event, f"time moved backwards (previous {self._last_time:.6f})"
            )
        self._last_time = max(self._last_time, event.time)
        handler = getattr(self, "_on_" + event.kind.replace("-", "_"), None)
        if handler is not None:
            handler(event)
        terminated = self.completed + self.failed + self.discarded + self.shed
        if terminated > self.submitted:
            self._fail(
                event,
                f"conservation violated: {terminated} terminations for "
                f"{self.submitted} submissions",
            )
        self.events_checked += 1

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def _on_submit(self, event: TraceEvent) -> None:
        if event.key in self._task_state:
            self._fail(event, "duplicate submit")
        self._task_state[event.key] = _SUBMITTED
        self.submitted += 1

    def _on_dispatch(self, event: TraceEvent) -> None:
        self._expect_state(event, _SUBMITTED)
        self._task_state[event.key] = _DISPATCHED
        payload = event.payload
        if self._cp_state != "up":
            self._fail(event, "dispatch while the control plane is down")
        if payload.get("node") in self._open_breakers:
            self._fail(
                event,
                f"dispatch to node {payload.get('node')} whose circuit "
                "breaker is open (quarantined)",
            )
        reused = payload.get("reused", False)
        if reused and payload.get("reconfig_time", 0.0) > 0.0:
            self._fail(event, "configuration reuse must pay zero reconfiguration")
        if payload.get("pe_kind") == "RPE":
            place = (payload.get("node"), payload.get("resource"), payload.get("region"))
            function = payload.get("function", "")
            if reused:
                resident = self._resident.get(place)
                if resident != function:
                    self._fail(
                        event,
                        f"reuse of {function!r} but region {place} holds {resident!r}",
                    )
            elif function:
                self._resident[place] = function

    def _on_reconfigure(self, event: TraceEvent) -> None:
        # Every load makes its function resident in the region it names.
        payload = event.payload
        function = payload.get("function", "")
        if payload.get("region") is not None and function:
            place = (payload.get("node"), payload.get("resource"), payload["region"])
            self._resident[place] = function

    def _on_start(self, event: TraceEvent) -> None:
        self._expect_state(event, _DISPATCHED)
        self._expect_alive(event)
        self._task_state[event.key] = _STARTED

    def _on_complete(self, event: TraceEvent) -> None:
        self._expect_state(event, _STARTED)
        self._expect_alive(event)
        self._task_state[event.key] = _COMPLETED
        self.completed += 1

    def _on_discard(self, event: TraceEvent) -> None:
        # FAULTED is allowed: a task abandoned while awaiting retry.
        self._expect_state(event, _SUBMITTED, _FAULTED)
        self._task_state[event.key] = _DISCARDED
        self.discarded += 1

    def _on_requeue(self, event: TraceEvent) -> None:
        self._expect_state(event, _DISPATCHED, _STARTED)
        self._task_state[event.key] = _SUBMITTED

    # ------------------------------------------------------------------
    # Fault / recovery lifecycle
    # ------------------------------------------------------------------
    def _on_fault(self, event: TraceEvent) -> None:
        self._expect_state(event, _DISPATCHED, _STARTED)
        self._task_state[event.key] = _FAULTED

    def _on_retry(self, event: TraceEvent) -> None:
        self._expect_state(event, _FAULTED)
        self._task_state[event.key] = _SUBMITTED

    _on_fallback = _on_retry  # the re-queue, degraded to GPP

    def _on_task_failed(self, event: TraceEvent) -> None:
        self._expect_state(event, _FAULTED)
        self._task_state[event.key] = _FAILED
        self.failed += 1

    # ------------------------------------------------------------------
    # Overload protection lifecycle
    # ------------------------------------------------------------------
    def _on_admit(self, event: TraceEvent) -> None:
        # Admit, defer and degrade (brownout stage 2 rewrites the exec
        # requirement of a pending task) touch a never-dispatched task
        # and leave it submitted.
        self._expect_state(event, _SUBMITTED)

    _on_defer = _on_degrade = _on_admit

    def _on_shed(self, event: TraceEvent) -> None:
        self._expect_state(event, _SUBMITTED)
        self._task_state[event.key] = _SHED
        self.shed += 1

    def _on_brownout(self, event: TraceEvent) -> None:
        action = event.payload.get("action")
        if action not in ("escalate", "recover"):
            self._fail(event, f"unknown brownout action {action!r}")
        stage = event.payload.get("stage")
        if not isinstance(stage, int) or stage < 0:
            self._fail(event, f"brownout stage {stage!r} is not a stage index")

    def _on_gated(self, event: TraceEvent) -> None:
        # A dispatch round ran, so the control plane was up.
        requests = event.payload.get("requests")
        if not isinstance(requests, int) or requests < 1:
            self._fail(event, f"gated requests {requests!r} is not a positive count")
        if self._cp_state != "up":
            self._fail(event, "gated while the control plane is down")

    # ------------------------------------------------------------------
    # Control-plane fault-tolerance lifecycle
    # ------------------------------------------------------------------
    def _on_heartbeat_suspect(self, event: TraceEvent) -> None:
        target = event.payload.get("target")
        if target in self._suspected:
            self._fail(event, f"target {target!r} is already suspected")
        self._suspected.add(target)

    def _on_heartbeat_confirm(self, event: TraceEvent) -> None:
        # A confirmation or a rejoin resolves a live suspicion.
        target = event.payload.get("target")
        if target not in self._suspected:
            self._fail(event, f"target {target!r} is not suspected")
        self._suspected.discard(target)

    _on_heartbeat_rejoin = _on_heartbeat_confirm

    def _on_rms_crash(self, event: TraceEvent) -> None:
        # A crash from "gray" is a legitimate escalation: the useless
        # primary finally dies.  Only crash-while-crashed is absurd.
        if self._cp_state == "down":
            self._fail(event, "rms-crash while the control plane is already down")
        self._cp_state = "down"

    def _on_rms_gray(self, event: TraceEvent) -> None:
        if self._cp_state != "up":
            self._fail(event, "rms-gray while the control plane is already dark")
        self._cp_state = "gray"

    def _on_rms_restore(self, event: TraceEvent) -> None:
        if self._cp_state == "up":
            self._fail(event, "rms-restore with the control plane already up")
        self._cp_state = "up"
        self._failover_inflight = False

    def _on_failover_begin(self, event: TraceEvent) -> None:
        if self._cp_state == "up":
            self._fail(event, "failover-begin with the control plane up")
        if self._failover_inflight:
            self._fail(event, "failover already in flight")
        self._failover_inflight = True

    def _on_failover_complete(self, event: TraceEvent) -> None:
        if not self._failover_inflight:
            self._fail(event, "failover-complete without failover-begin")
        self._cp_state = "up"
        self._failover_inflight = False

    def _on_lease_expire(self, event: TraceEvent) -> None:
        # The lease lapses while the placement is still in flight;
        # orphan-recovered follows and does the state transition.
        self._expect_state(event, _DISPATCHED, _STARTED)

    def _on_orphan_recovered(self, event: TraceEvent) -> None:
        # Exactly the requeue transition: the in-flight placement is
        # torn down and the task goes back to the queue, so the
        # conservation ledger never loses it.
        self._expect_state(event, _DISPATCHED, _STARTED)
        self._task_state[event.key] = _SUBMITTED

    # ------------------------------------------------------------------
    # Online SLO monitoring lifecycle
    # ------------------------------------------------------------------
    def _on_slo_breach(self, event: TraceEvent) -> None:
        objective = event.payload.get("objective")
        if not objective:
            self._fail(event, "slo-breach without an objective name")
        action = event.payload.get("action")
        if action == "begin":
            if objective in self._slo_breaching:
                self._fail(event, f"objective {objective!r} is already in breach")
            self._slo_breaching.add(objective)
        elif action == "end":
            if objective not in self._slo_breaching:
                self._fail(
                    event, f"breach end for {objective!r} without a begin"
                )
            self._slo_breaching.discard(objective)
        else:
            self._fail(event, f"unknown slo-breach action {action!r}")

    def _on_slo_alert_fire(self, event: TraceEvent) -> None:
        objective = event.payload.get("objective")
        if not objective:
            self._fail(event, "slo-alert-fire without an objective name")
        if objective in self._slo_alerting:
            self._fail(event, f"alert for {objective!r} is already firing")
        self._slo_alerting.add(objective)

    def _on_slo_alert_resolve(self, event: TraceEvent) -> None:
        objective = event.payload.get("objective")
        if objective not in self._slo_alerting:
            self._fail(
                event, f"alert resolve for {objective!r} without a fire"
            )
        self._slo_alerting.discard(objective)

    # ------------------------------------------------------------------
    # Adaptive resilience lifecycle
    # ------------------------------------------------------------------
    def _on_quarantine(self, event: TraceEvent) -> None:
        node = event.payload.get("node")
        phase = event.payload.get("phase")
        if phase == "open":
            # Re-adding is legal: a failed probe re-opens the breaker.
            self._open_breakers.add(node)
        elif phase == "close":
            # The node may already have been lifted by a probe.
            self._open_breakers.discard(node)
        else:
            self._fail(event, f"unknown quarantine phase {phase!r}")

    def _on_probe(self, event: TraceEvent) -> None:
        # A probe is the sanctioned half-open trickle: it lifts the
        # dispatch embargo for the placement that follows it.
        self._open_breakers.discard(event.payload.get("node"))

    def _on_timeout(self, event: TraceEvent) -> None:
        action = event.payload.get("action")
        if action == "warn":
            self._expect_state(event, _SUBMITTED, _DISPATCHED, _STARTED, _FAULTED)
        elif action == "requeue":
            # The watchdog tore down a live placement; the task re-enters
            # the retry machinery exactly like a faulted one.
            self._expect_state(event, _DISPATCHED, _STARTED)
            self._task_state[event.key] = _FAULTED
        elif action == "fail":
            # Hard deadline: placement (if any) torn down, terminal
            # failure (``task-failed``) follows.
            self._expect_state(event, _SUBMITTED, _DISPATCHED, _STARTED, _FAULTED)
            self._task_state[event.key] = _FAULTED
        else:
            self._fail(event, f"unknown timeout action {action!r}")

    def _on_checkpoint(self, event: TraceEvent) -> None:
        self._expect_state(event, _STARTED)
        frac = event.payload.get("frac", 0.0)
        if not 0.0 < frac < 1.0:
            self._fail(event, f"checkpoint fraction {frac!r} outside (0, 1)")

    def _on_migrate(self, event: TraceEvent) -> None:
        # Emitted immediately after the resumed task's dispatch.
        self._expect_state(event, _DISPATCHED)

    def _on_link_fault(self, event: TraceEvent) -> None:
        pair = (event.payload.get("a"), event.payload.get("b"))
        if pair in self._degraded_links:
            self._fail(event, f"link {pair} already has an unresolved fault")
        self._degraded_links.add(pair)

    def _on_link_restore(self, event: TraceEvent) -> None:
        pair = (event.payload.get("a"), event.payload.get("b"))
        if pair not in self._degraded_links:
            self._fail(event, f"restoring link {pair} that has no live fault")
        self._degraded_links.remove(pair)

    # ------------------------------------------------------------------
    # Slice conservation
    # ------------------------------------------------------------------
    def _on_slice_alloc(self, event: TraceEvent) -> None:
        payload = event.payload
        pe = (payload["node"], payload["resource"])
        region = payload["region"]
        slices = payload["slices"]
        capacity = payload["capacity"]
        if slices <= 0 or capacity <= 0:
            self._fail(event, "slice counts must be positive")
        known = self._capacity.setdefault(pe, capacity)
        if known != capacity:
            self._fail(event, f"capacity changed from {known} to {capacity}")
        allocations = self._alloc.setdefault(pe, {})
        if region in allocations:
            self._fail(event, f"region {region} is already allocated")
        if sum(allocations.values()) + slices > capacity:
            self._fail(
                event,
                f"allocating {slices} slices exceeds capacity {capacity} "
                f"(already {sum(allocations.values())} in use)",
            )
        allocations[region] = slices

    def _on_slice_free(self, event: TraceEvent) -> None:
        payload = event.payload
        pe = (payload["node"], payload["resource"])
        region = payload["region"]
        allocations = self._alloc.get(pe, {})
        if region not in allocations:
            self._fail(event, f"freeing region {region} that is not allocated")
        if allocations[region] != payload["slices"]:
            self._fail(
                event,
                f"free of {payload['slices']} slices does not match "
                f"allocation of {allocations[region]}",
            )
        del allocations[region]

    # ------------------------------------------------------------------
    # Grid membership
    # ------------------------------------------------------------------
    def _on_node_dead(self, event: TraceEvent) -> None:
        self._dead.add(event.payload["node"])

    def _on_node_reboot(self, event: TraceEvent) -> None:
        self._dead.discard(event.payload["node"])

    def _on_node_join(self, event: TraceEvent) -> None:
        self._dead.discard(event.payload["node"])  # a joining node is alive

    def _on_node_leave(self, event: TraceEvent) -> None:
        node_id = event.payload["node"]
        if event.payload.get("detected"):
            self._dead.discard(node_id)
        for (node, resource), allocations in self._alloc.items():
            if node == node_id and allocations:
                self._fail(
                    event,
                    f"node leaves with regions {sorted(allocations)} of "
                    f"resource {resource} still allocated",
                )
        self._alloc = {pe: a for pe, a in self._alloc.items() if pe[0] != node_id}
        self._capacity = {pe: c for pe, c in self._capacity.items() if pe[0] != node_id}
        self._resident = {
            place: fn for place, fn in self._resident.items() if place[0] != node_id
        }

    # ------------------------------------------------------------------
    # Summary helpers
    # ------------------------------------------------------------------
    @property
    def live_allocations(self) -> int:
        return sum(len(a) for a in self._alloc.values())

    def assert_quiescent(self) -> None:
        """After a fully drained run: no region is still allocated and
        no task is stuck between dispatch and completion (or mid-fault
        recovery)."""
        if self.live_allocations:
            raise InvariantViolation(
                f"{self.live_allocations} fabric region(s) still allocated"
            )
        stuck = [
            key
            for key, state in self._task_state.items()
            if state in (_DISPATCHED, _STARTED, _FAULTED)
        ]
        if stuck:
            raise InvariantViolation(f"tasks stuck mid-flight: {stuck!r}")

    def assert_no_lost_tasks(self) -> None:
        """The fault-tolerance contract: every submitted task terminated
        exactly once -- as completed, failed, or discarded -- no matter
        what faults hit it, and no matter how the resilience layer moved
        it around (quarantine deferrals, watchdog timeouts, checkpoint
        migrations).  (Exactly-once is enforced online: the state
        machine rejects any transition out of a terminal state.)  Call
        after a fully drained run.
        """
        lost = sorted(
            (key for key, state in self._task_state.items() if state not in _TERMINAL),
            key=repr,
        )
        if lost:
            states = {key: self._task_state[key] for key in lost}
            raise InvariantViolation(f"tasks lost (non-terminal at end): {states!r}")

    def assert_slo_closed(self) -> None:
        """After a finalized run: every ``slo-breach`` begin has a
        matching end and every ``slo-alert-fire`` a matching resolve
        (the monitor's :meth:`~repro.sim.slo.SLOMonitor.finalize`
        closes anything still open at the horizon).  (The no-duplicate
        / no-unmatched direction is enforced online per event.)"""
        if self._slo_breaching:
            raise InvariantViolation(
                f"objectives still in breach at end of trace: "
                f"{sorted(self._slo_breaching)!r}"
            )
        if self._slo_alerting:
            raise InvariantViolation(
                f"alerts still firing at end of trace: "
                f"{sorted(self._slo_alerting)!r}"
            )

    def conservation(self) -> dict[str, int]:
        """The online task-conservation ledger as a dict."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "discarded": self.discarded,
            "shed": self.shed,
        }

    def assert_conservation(self) -> None:
        """After a fully drained run: submitted == completed + failed +
        discarded + shed -- the overload-protection contract that no
        submission is silently dropped, whatever mix of faults,
        deferrals, brownout stages, and shedding the run saw.  (The
        ``<=`` direction is enforced online after every event.)
        """
        terminated = self.completed + self.failed + self.discarded + self.shed
        if terminated != self.submitted:
            raise InvariantViolation(
                "conservation violated at end of run: "
                f"{self.conservation()!r} leaves "
                f"{self.submitted - terminated} task(s) unaccounted for"
            )


def verify_trace(events: Iterable[TraceEvent]) -> int:
    """Run a fresh checker over *events*; returns the count checked.

    Raises :class:`InvariantViolation` on the first broken invariant.
    """
    checker = TraceInvariantChecker()
    for event in events:
        checker.emit(event)
    return checker.events_checked


def verify_jsonl(path: str | Path) -> int:
    """Validate a stored JSONL trace file, streaming it."""
    return verify_trace(iter_jsonl(path))
