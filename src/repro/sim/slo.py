"""Online SLO monitoring: declarative objectives, burn-rate alerts.

Everything observability gave the simulator so far is retrospective --
telemetry series, phase ledgers, bench diffs all explain a run after it
ends.  This module evaluates *service-level objectives* while the run
is still going: a declarative :class:`SLOSpec` names objectives
(latency percentile, throughput floor, availability, queue-depth
bound; latency, throughput and availability global or scoped to one
tenant / priority class) and an :class:`SLOMonitor` folds the
simulator's event stream through sliding sim-time windows, tracking
breach intervals and SRE-style multi-window burn-rate alerts.

Determinism contract (same as telemetry): the monitor is purely
observational.  It schedules no engine events, draws no randomness and
mutates no simulator state, so an SLO-monitored run replays the
committed goldens byte-identically once its own ``slo-*`` events are
filtered out.

Key semantics:

* An objective is **in breach** while its windowed value violates the
  target (p-percentile latency above target, windowed throughput below
  the floor, windowed success fraction below target, queue depth above
  the bound).  Breach state changes only at evaluation instants (see
  :class:`SLOMonitor`) and at the horizon, and every transition is a
  first-class ``slo-breach`` trace event (``action="begin"`` /
  ``"end"``).
* **Attainment** is ``1 - breach_seconds / horizon`` (clamped to
  [0, 1]); the **error budget** is the ``budget_fraction`` of the
  horizon the objective is allowed to spend in breach.  An objective is
  **violated** when the budget is exhausted (breach fraction exceeds
  ``budget_fraction``) -- this is what ``repro slo`` turns into an exit
  code.
* **Burn rate** over a lookback window ``w`` is
  ``(breach seconds in w) / w / budget_fraction`` -- burn 1.0 spends
  the budget exactly at sustainable speed.  An alert fires when *both*
  the fast (5% of ``window_s``) and slow (1x ``window_s``) windows burn
  at or above ``burn_threshold``, and resolves hysteretically when both
  fall below half of it.  :meth:`SLOMonitor.finalize` closes open
  breaches and resolves firing alerts at the horizon, so every
  ``slo-alert-fire`` in a complete trace has a matching resolve (the
  online checker invariant in :mod:`repro.sim.tracing`).

:func:`evaluate_trace` feeds a recorded JSONL trace (``repro slo`` on a
file) to the same monitor.  The monitor reads nothing but the event
stream, so the replay emits the live run's ``slo-*`` events and reaches
its results.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

__all__ = [
    "OBJECTIVE_KINDS",
    "SLOObjective",
    "SLOSpec",
    "SLOResult",
    "SLOMonitor",
    "SLO_PRESETS",
    "parse_objective",
    "parse_slo",
    "evaluate_trace",
]

#: The supported objective kinds.
OBJECTIVE_KINDS = ("latency", "throughput", "availability", "queue-depth")

#: Latency metrics an objective may target.
LATENCY_METRICS = ("turnaround", "wait")

#: Fast burn window as a fraction of the objective's window
#: (the SRE multi-window pairing: 5%-of-window + 1x-window).
FAST_WINDOW_FRACTION = 0.05

#: Hysteresis: a firing alert resolves when both burn rates fall
#: below ``burn_threshold * RESOLVE_FRACTION``.
RESOLVE_FRACTION = 0.5


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective.

    ``kind`` selects the evaluator:

    * ``"latency"`` -- the ``percentile`` of ``metric`` (turnaround or
      wait) over completions in the sliding window must be <= ``target``
      seconds.
    * ``"throughput"`` -- completions per second over the window must
      be >= ``target`` (evaluated only once a full window has elapsed,
      so a cold start is not a breach).
    * ``"availability"`` -- the success fraction
      ``completed / (completed + shed + failed)`` over the window must
      be >= ``target``.
    * ``"queue-depth"`` -- the pending-queue depth must be <= ``target``.

    ``tenant`` / ``priority`` scope the objective to matching tasks
    (empty / ``None`` = global).  A queue-depth objective is always
    global: the pending queue is one shared resource, so a scope is
    rejected.  ``budget_fraction`` is the error budget: the fraction of
    the run the objective may spend in breach before it counts as
    violated.
    """

    kind: str
    target: float
    name: str = ""
    metric: str = "turnaround"
    percentile: float = 95.0
    window_s: float = 30.0
    tenant: str = ""
    priority: int | None = None
    budget_fraction: float = 0.05
    burn_threshold: float = 1.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r} (expected one of "
                f"{', '.join(OBJECTIVE_KINDS)})"
            )
        if self.metric not in LATENCY_METRICS:
            raise ValueError(
                f"unknown latency metric {self.metric!r} "
                f"(expected one of {', '.join(LATENCY_METRICS)})"
            )
        for name in ("target", "window_s", "burn_threshold"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"SLO {name} must be finite, got {value!r}")
        if self.target < 0:
            raise ValueError("SLO target must be non-negative")
        if self.kind == "queue-depth" and (self.tenant or self.priority is not None):
            raise ValueError(
                "a queue-depth objective cannot be scoped to a tenant or a "
                "priority: the pending queue is one shared resource"
            )
        if self.kind == "availability" and not 0.0 < self.target <= 1.0:
            raise ValueError("availability target must be in (0, 1]")
        if not 0.0 < self.percentile < 100.0:
            raise ValueError("percentile must be in (0, 100)")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must be in (0, 1]")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")
        if not self.name:
            object.__setattr__(self, "name", self._auto_name())

    def _auto_name(self) -> str:
        if self.kind == "latency":
            base = f"{self.metric}-p{self.percentile:g}"
        elif self.kind == "throughput":
            base = "throughput"
        elif self.kind == "availability":
            base = "availability"
        else:
            base = "queue-depth"
        if self.tenant:
            base += f"@{self.tenant}"
        if self.priority is not None:
            base += f"@prio{self.priority}"
        return base

    @property
    def scope(self) -> str:
        """Human-readable scope label (``global`` or the filter)."""
        parts = []
        if self.tenant:
            parts.append(self.tenant)
        if self.priority is not None:
            parts.append(f"priority={self.priority}")
        return ",".join(parts) or "global"

    def matches(self, tenant: str, priority: int) -> bool:
        if self.tenant and tenant != self.tenant:
            return False
        if self.priority is not None and priority != self.priority:
            return False
        return True

    def describe(self) -> dict:
        """JSON-safe self-description (telemetry meta / provenance)."""
        return {k: v for k, v in asdict(self).items() if v not in (None, "")}


@dataclass(frozen=True)
class SLOSpec:
    """The declarative SLO contract of one run: a tuple of objectives.

    An empty spec normalizes to ``None`` inside the simulator (the
    zero-cost contract shared with :class:`~repro.sim.admission.AdmissionSpec`).
    """

    objectives: tuple[SLOObjective, ...] = ()

    def __post_init__(self):
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(
                f"duplicate objective names in SLOSpec: {names} -- give "
                "clashing objectives explicit name= labels"
            )

    @property
    def enabled(self) -> bool:
        return bool(self.objectives)

    def describe(self) -> dict:
        return {"objectives": [o.describe() for o in self.objectives]}


#: Ready-made contracts for the CLI (``--slo default`` etc.).
SLO_PRESETS: dict[str, SLOSpec] = {
    # A serving-style contract: tail turnaround, availability, and a
    # bounded queue.  Generous enough that the canonical reference
    # experiment attains it.
    "default": SLOSpec(objectives=(
        SLOObjective(kind="latency", target=10.0, percentile=95.0),
        SLOObjective(kind="availability", target=0.95),
        SLOObjective(kind="queue-depth", target=64.0),
    )),
    # A tight contract that overload / chaos scenarios visibly burn
    # through -- useful for exercising alerts and the CI gate.
    "strict": SLOSpec(objectives=(
        SLOObjective(kind="latency", target=2.0, percentile=95.0,
                     window_s=10.0, budget_fraction=0.02),
        SLOObjective(kind="availability", target=0.999, window_s=10.0,
                     budget_fraction=0.02),
        SLOObjective(kind="queue-depth", target=16.0, budget_fraction=0.02),
    )),
}


def parse_objective(text: str) -> SLOObjective:
    """Parse one CLI objective: ``[name=]kind:target[:window][:tenant]``.

    ``kind`` is one of ``latency-pNN`` (turnaround percentile),
    ``wait-pNN`` (queueing-delay percentile), ``throughput``,
    ``availability``, or ``queue``.  Examples::

        latency-p95:2.0
        gold=latency-p99:5.0:60:tenant0
        availability:0.99:30
        queue:64
    """
    name = ""
    if "=" in text:
        name, text = text.split("=", 1)
    parts = text.split(":")
    if len(parts) < 2 or len(parts) > 4:
        raise ValueError(
            f"bad objective {text!r}: expected "
            "[name=]kind:target[:window][:tenant]"
        )
    kind_text = parts[0].strip().lower()
    try:
        target = float(parts[1])
    except ValueError:
        raise ValueError(f"bad objective target {parts[1]!r}") from None
    window_s = 30.0
    if len(parts) >= 3 and parts[2]:
        try:
            window_s = float(parts[2])
        except ValueError:
            raise ValueError(f"bad objective window {parts[2]!r}") from None
    tenant = parts[3].strip() if len(parts) == 4 else ""
    common = dict(name=name, target=target, window_s=window_s, tenant=tenant)
    if kind_text.startswith(("latency-p", "wait-p")):
        metric, _, ptext = kind_text.partition("-p")
        metric = "turnaround" if metric == "latency" else "wait"
        try:
            percentile = float(ptext)
        except ValueError:
            raise ValueError(f"bad percentile in {kind_text!r}") from None
        return SLOObjective(kind="latency", metric=metric,
                            percentile=percentile, **common)
    if kind_text == "throughput":
        return SLOObjective(kind="throughput", **common)
    if kind_text == "availability":
        return SLOObjective(kind="availability", **common)
    if kind_text == "queue":
        return SLOObjective(kind="queue-depth", **common)
    raise ValueError(
        f"unknown objective kind {kind_text!r} (expected latency-pNN, "
        "wait-pNN, throughput, availability, or queue)"
    )


def parse_slo(values: list[str] | None) -> SLOSpec | None:
    """CLI helper: preset name or repeatable objective strings."""
    if not values:
        return None
    if len(values) == 1 and values[0] in SLO_PRESETS:
        return SLO_PRESETS[values[0]]
    return SLOSpec(objectives=tuple(parse_objective(v) for v in values))


def _percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method) over a
    small window, without paying array construction per observation."""
    return _percentile_of_sorted(sorted(values), q)


def _percentile_of_sorted(data: list[float], q: float) -> float:
    """:func:`_percentile` of already sorted, non-empty *data*."""
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * (q / 100.0)
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= len(data):
        return data[-1]
    return data[lo] + (data[lo + 1] - data[lo]) * frac


@dataclass
class SLOResult:
    """One objective's end-of-run verdict."""

    name: str
    kind: str
    scope: str
    target: float
    window_s: float
    budget_fraction: float
    observations: int
    breach_count: int
    breach_seconds: float
    attainment: float
    error_budget_remaining: float
    alerts_fired: int
    alerts_resolved: int
    violated: bool

    def to_json(self) -> dict:
        return dict(vars(self))


#: The result fields :meth:`SLOMonitor.finalize` sets as ``slo_<field>``
#: gauges, with their help texts.
_GAUGES = (
    ("attainment", "fraction of the run the objective held"),
    ("error_budget_remaining", "unspent fraction of the objective's error budget"),
    ("breach_seconds", "simulated seconds spent in breach"),
)

#: :attr:`_ObjectiveState.window_value` before its first computation and
#: after every change to the window's samples.
_STALE = object()


class _ObjectiveState:
    """Per-objective sliding-window state inside the monitor."""

    __slots__ = (
        "obj", "samples", "ordered", "ok", "window_value", "depth", "cold", "due",
        "dirty", "in_breach", "breach_started", "recent", "breach_seconds",
        "breach_count", "alert_firing", "alerts_fired", "alerts_resolved",
        "observations",
    )

    def __init__(self, obj: SLOObjective):
        self.obj = obj
        #: latency: (t, value); availability: (t, ok); throughput: (t, True).
        self.samples: deque = deque()
        #: latency: the window's values, kept sorted (insertion among
        #: equals keeps arrival order, as ``sorted`` would).
        self.ordered: list[float] = []
        #: availability and throughput: the window's successes.
        self.ok = 0
        #: Latency percentile or availability ratio over ``samples``
        #: (``None`` when empty), or :data:`_STALE`.  In-breach
        #: objectives are re-evaluated at instants that change nothing
        #: in their window, and each would otherwise recompute it.
        self.window_value: object = _STALE
        self.depth = 0.0
        #: A throughput window before its first fill (no verdict yet).
        self.cold = obj.kind == "throughput"
        #: The instant the oldest sample leaves the window (``inf`` when
        #: there is none); a cold throughput window is due when it fills.
        self.due = obj.window_s if self.cold else math.inf
        #: An input changed since the last evaluation.
        self.dirty = False
        self.in_breach = False
        self.breach_started = 0.0
        #: Closed breach intervals still inside the slow burn window.
        self.recent: deque[tuple[float, float]] = deque()
        self.breach_seconds = 0.0
        self.breach_count = 0
        self.alert_firing = False
        self.alerts_fired = 0
        self.alerts_resolved = 0
        self.observations = 0

    # -- window evaluation ---------------------------------------------
    def add(self, sample: tuple) -> None:
        if not self.samples:
            self.due = min(self.due, sample[0] + self.obj.window_s)
        self.samples.append(sample)
        if self.obj.kind == "latency":
            insort(self.ordered, sample[1])
        else:
            self.ok += sample[1]
        self.window_value = _STALE

    def _prune(self, now: float) -> None:
        """Drop the samples that left the window by *now*: a sample at
        ``t`` leaves at ``t + window_s``, the instant :attr:`due` names."""
        window = self.obj.window_s
        samples = self.samples
        self.window_value = _STALE
        while samples and samples[0][0] + window <= now:
            value = samples.popleft()[1]
            if self.obj.kind == "latency":
                # The oldest sample is the first of its equals.
                del self.ordered[bisect_left(self.ordered, value)]
            else:
                self.ok -= value
        self.cold = self.cold and now < window
        due = samples[0][0] + window if samples else math.inf
        self.due = min(due, window) if self.cold else due

    def current_value(self, now: float) -> float | None:
        """The windowed value the target is compared against, or
        ``None`` when the window holds nothing to judge."""
        obj = self.obj
        if obj.kind == "throughput":
            if now < obj.window_s:
                return None  # cold start: no full window yet
            return len(self.samples) / obj.window_s
        if obj.kind == "queue-depth":
            return self.depth
        value = self.window_value
        if value is _STALE:
            value = self.window_value = self._window_value()
        return value

    def _window_value(self) -> float | None:
        samples = self.samples
        if not samples:
            return None
        if self.obj.kind == "latency":
            return _percentile_of_sorted(self.ordered, self.obj.percentile)
        return self.ok / len(samples)

    def breaching(self, now: float) -> tuple[bool, float | None]:
        value = self.current_value(now)
        if value is None:
            return False, None
        obj = self.obj
        if obj.kind in ("throughput", "availability"):
            return value < obj.target, value
        return value > obj.target, value

    # -- burn rate ------------------------------------------------------
    def breach_overlap(self, a: float, b: float) -> float:
        """Breach seconds inside ``[a, b]`` (recent intervals + open)."""
        if b <= a:
            return 0.0
        total = 0.0
        for t0, t1 in self.recent:
            lo, hi = max(a, t0), min(b, t1)
            if hi > lo:
                total += hi - lo
        if self.in_breach:
            lo = max(a, self.breach_started)
            if b > lo:
                total += b - lo
        return total

    def burn_rates(self, now: float) -> tuple[float, float]:
        obj = self.obj
        recent = self.recent
        while recent and recent[0][1] <= now - obj.window_s:
            recent.popleft()  # out of the slow window
        if not self.in_breach and not recent:
            return 0.0, 0.0  # no breach second inside either window
        slow_w = obj.window_s
        fast_w = max(slow_w * FAST_WINDOW_FRACTION, 1e-9)
        fast = self.breach_overlap(now - fast_w, now) / fast_w
        slow = self.breach_overlap(now - slow_w, now) / slow_w
        return fast / obj.budget_fraction, slow / obj.budget_fraction


class SLOMonitor:
    """Evaluates an :class:`SLOSpec` against a run's event stream.

    The simulator subscribes :meth:`observe` to its event stream, and
    :func:`evaluate_trace` feeds it a recorded trace; the monitor reads
    nothing else.  Per task it keeps the submit time, tenant, priority
    and latest dispatch, dropped at the task's terminal event, and it
    keeps the pending queue's membership: ``submit``, ``admit``,
    ``retry``, ``fallback``, ``requeue`` and ``orphan-recovered`` enter
    the queue, ``defer``, ``dispatch`` and the terminal events leave
    it.  A ``complete`` is a latency, throughput and availability
    sample, a ``shed`` or ``task-failed`` an availability error; a
    ``discard`` is no error.  No other kind is an input.

    An objective is evaluated at most once per instant, after the
    instant's last event, and only when

    * an event at that instant changed its inputs (a sample, or a queue
      depth other than the last one it saw);
    * one of its samples leaves its window at that instant (a
      throughput window's first fill counts too), applied when the
      first later event arrives or at :meth:`finalize`;
    * it is in breach or alerting, and the monitor evaluates anything
      at that instant.

    ``emit(t, kind, key, payload)`` receives the first-class
    ``slo-breach`` / ``slo-alert-fire`` / ``slo-alert-resolve`` events,
    each at the instant it was evaluated at; :meth:`finalize` runs once
    at the horizon.
    """

    def __init__(self, spec: SLOSpec, *, emit: Callable | None = None):
        self.spec = spec
        self.emit = emit
        self._states = [_ObjectiveState(o) for o in spec.objectives]
        self._queue_states = [
            s for s in self._states if s.obj.kind == "queue-depth"
        ]
        self.finalized = False
        #: The instant being observed; it is evaluated once its last
        #: event has passed.
        self._now = 0.0
        #: Some objective's inputs changed at ``_now``.
        self._dirty = False
        #: The earliest :attr:`_ObjectiveState.due` over all objectives.
        self._due = min((s.due for s in self._states), default=math.inf)
        #: key -> [submit time, tenant, priority, latest dispatch time].
        self._tasks: dict[object, list] = {}
        #: Keys in the pending queue, and its depth at the last
        #: evaluated instant.
        self._queued: set[object] = set()
        self._depth = 0
        self._handlers = {
            **dict.fromkeys(
                ("admit", "retry", "fallback", "requeue", "orphan-recovered"),
                lambda t, key, p: self._queued.add(key),
            ),
            "submit": self._on_submit,
            "defer": lambda t, key, p: self._queued.discard(key),
            "dispatch": self._on_dispatch,
            "complete": self._on_complete,
            "shed": self._on_error,
            "task-failed": self._on_error,
            "discard": lambda t, key, p: self._end(key),
        }

    # -- the event stream -----------------------------------------------
    def observe(self, t: float, kind: str, key: object, payload: dict) -> None:
        """Fold one event at sim time *t*.  The first event after an
        instant evaluates that instant first."""
        if t != self._now:
            self._advance(t)
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(t, key, payload)

    def _on_submit(self, t: float, key: object, p: dict) -> None:
        self._tasks[key] = [t, p.get("tenant", ""), p.get("priority", 0), None]
        self._queued.add(key)

    def _on_dispatch(self, t: float, key: object, p: dict) -> None:
        self._queued.discard(key)
        task = self._tasks.get(key)
        if task is not None:
            # The latest dispatch: a retried task waits until the
            # dispatch that completed it.
            task[3] = t

    def _end(self, key: object) -> list | None:
        """A terminal event: the key leaves the queue and its state goes."""
        self._queued.discard(key)
        return self._tasks.pop(key, None)

    def _on_complete(self, t: float, key: object, p: dict) -> None:
        task = self._end(key)
        if task is None:
            return
        submitted, tenant, priority, dispatched = task
        wait = None if dispatched is None else dispatched - submitted
        for state in self._states:
            obj = state.obj
            if obj.kind == "queue-depth" or not obj.matches(tenant, priority):
                continue
            if obj.kind == "latency":
                value = t - submitted if obj.metric == "turnaround" else wait
                sample = None if value is None else (t, value)
            else:  # throughput, availability
                sample = (t, True)
            self._sample(state, sample)

    def _on_error(self, t: float, key: object, p: dict) -> None:
        """A shed or terminally failed task (an availability error)."""
        _, tenant, priority, _ = self._end(key) or (None, "", 0, None)
        for state in self._states:
            obj = state.obj
            if obj.kind == "availability" and obj.matches(tenant, priority):
                self._sample(state, (t, False))

    def _sample(self, state: _ObjectiveState, sample) -> None:
        state.observations += 1
        if sample is not None:
            state.add(sample)
            self._due = min(self._due, state.due)
        state.dirty = self._dirty = True

    # -- evaluation -----------------------------------------------------
    def _advance(self, t: float) -> None:
        """Leave the instant being observed for *t*: evaluate it, then
        every window expiry before *t*, each at its own instant."""
        self._settle(self._now)
        while self._due < t:
            self._now = self._due
            self._settle(self._now)
        self._now = t

    def _settle(self, now: float) -> None:
        """Evaluate the instant *now* after its last event, by the rule
        in the class docstring."""
        depth = len(self._queued)
        if depth != self._depth and self._queue_states:
            self._depth = depth
            for state in self._queue_states:
                state.observations += 1
                state.depth = float(depth)
                state.dirty = self._dirty = True
        if not self._dirty and self._due > now:
            return
        self._dirty = False
        self._due = math.inf
        for state in self._states:
            if state.dirty or state.due <= now or state.in_breach or state.alert_firing:
                self._evaluate(state, now)
            self._due = min(self._due, state.due)

    def _evaluate(self, state: _ObjectiveState, now: float) -> None:
        state.dirty = False
        if state.due <= now:
            state._prune(now)
        breach, value = state.breaching(now)
        obj = state.obj
        if breach and not state.in_breach:
            state.in_breach = True
            state.breach_started = now
            state.breach_count += 1
            self._emit_event(
                now, "slo-breach", objective=obj.name, action="begin",
                slo_kind=obj.kind, value=value, target=obj.target,
            )
        elif not breach and state.in_breach:
            self._close_breach(state, now, value=value)
        fast, slow = state.burn_rates(now)
        threshold = obj.burn_threshold
        if not state.alert_firing:
            if fast >= threshold and slow >= threshold:
                state.alert_firing = True
                state.alerts_fired += 1
                self._emit_event(
                    now, "slo-alert-fire", objective=obj.name,
                    fast_burn=fast, slow_burn=slow, threshold=threshold,
                )
        elif (
            fast < threshold * RESOLVE_FRACTION
            and slow < threshold * RESOLVE_FRACTION
        ):
            self._resolve_alert(state, now, fast=fast, slow=slow)

    def _close_breach(self, state: _ObjectiveState, now: float,
                      value: float | None = None) -> None:
        duration = now - state.breach_started
        state.in_breach = False
        state.recent.append((state.breach_started, now))
        state.breach_seconds += duration
        payload = dict(objective=state.obj.name, action="end",
                       duration=duration)
        if value is not None:
            payload["value"] = value
        self._emit_event(now, "slo-breach", **payload)

    def _resolve_alert(self, state: _ObjectiveState, now: float, *,
                       fast: float, slow: float, reason: str = "") -> None:
        state.alert_firing = False
        state.alerts_resolved += 1
        payload = dict(objective=state.obj.name, fast_burn=fast,
                       slow_burn=slow)
        if reason:
            payload["reason"] = reason
        self._emit_event(now, "slo-alert-resolve", **payload)

    def _emit_event(self, now: float, kind: str, **payload) -> None:
        if self.emit is not None:
            self.emit(now, kind, None, payload)

    # -- end of run -----------------------------------------------------
    def finalize(self, now: float, telemetry=None) -> list[SLOResult]:
        """Evaluate what is left up to the horizon *now*, then close
        open breaches and resolve firing alerts there, so complete
        traces satisfy the fire/resolve pairing invariant.  Returns the
        results at *now* and sets them as *telemetry*'s gauges when a
        registry is given.  Idempotent: the simulator may finalize
        before each report."""
        if not self.finalized:
            self.finalized = True
            if now != self._now:
                self._advance(now)
            self._settle(now)
            for state in self._states:
                if state.in_breach:
                    self._close_breach(state, now)
                if state.alert_firing:
                    fast, slow = state.burn_rates(now)
                    self._resolve_alert(state, now, fast=fast, slow=slow,
                                        reason="horizon")
        results = self.results(now)
        for result in results if telemetry is not None else ():
            for field, help_text in _GAUGES:
                telemetry.gauge(f"slo_{field}", help_text, objective=result.name).set(
                    getattr(result, field)
                )
        return results

    def results(self, horizon_s: float) -> list[SLOResult]:
        """Per-objective verdicts at *horizon_s*."""
        out = []
        for state in self._states:
            obj = state.obj
            breach_s = state.breach_seconds
            if state.in_breach:  # results before finalize: count to now
                breach_s += max(0.0, horizon_s - state.breach_started)
            frac = breach_s / horizon_s if horizon_s > 0 else 0.0
            attainment = min(1.0, max(0.0, 1.0 - frac))
            remaining = min(1.0, max(0.0, 1.0 - frac / obj.budget_fraction))
            out.append(SLOResult(
                name=obj.name,
                kind=obj.kind,
                scope=obj.scope,
                target=obj.target,
                window_s=obj.window_s,
                budget_fraction=obj.budget_fraction,
                observations=state.observations,
                breach_count=state.breach_count,
                breach_seconds=breach_s,
                attainment=attainment,
                error_budget_remaining=remaining,
                alerts_fired=state.alerts_fired,
                alerts_resolved=state.alerts_resolved,
                violated=frac > obj.budget_fraction,
            ))
        return out


# ----------------------------------------------------------------------
# Post-hoc evaluation of a recorded trace (``repro slo`` on a file)
# ----------------------------------------------------------------------

def evaluate_trace(events, spec: SLOSpec):
    """Feed an iterable of trace events to an :class:`SLOMonitor`, once,
    and finalize it at the last event's time.

    Returns ``(results, emitted)`` where *emitted* is the list of
    ``(time, kind, payload)`` SLO events the monitor produced.  On a
    run's own trace these are the live run's ``slo-*`` events and
    results: the live monitor reads the same stream.
    """
    emitted: list[tuple[float, str, dict]] = []
    monitor = SLOMonitor(
        spec, emit=lambda t, kind, key, payload: emitted.append((t, kind, payload))
    )
    horizon = 0.0
    for event in events:
        monitor.observe(event.time, event.kind, event.key, event.payload)
        horizon = max(horizon, event.time)
    return monitor.finalize(horizon), emitted
