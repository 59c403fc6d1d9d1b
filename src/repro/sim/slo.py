"""Online SLO monitoring: declarative objectives, burn-rate alerts.

Everything observability gave the simulator so far is retrospective --
telemetry series, phase ledgers, bench diffs all explain a run after it
ends.  This module evaluates *service-level objectives* while the run
is still going: a declarative :class:`SLOSpec` names objectives
(latency percentile, throughput floor, availability, queue-depth
bound; global or scoped to one tenant / priority class) and an
:class:`SLOMonitor` folds the simulator's completion/shed/fail
observations through sliding sim-time windows, tracking breach
intervals and SRE-style multi-window burn-rate alerts.

Determinism contract (same as telemetry): the monitor is purely
observational.  It schedules no engine events, draws no randomness and
mutates no simulator state, so an SLO-monitored run replays the
committed goldens byte-identically once its own ``slo-*`` events are
filtered out -- and with ``slo=None`` every simulator hook is a single
attribute check (the zero-cost-when-disabled idiom shared with
resilience/admission/failover).

Key semantics:

* An objective is **in breach** while its windowed value violates the
  target (p-percentile latency above target, windowed throughput below
  the floor, windowed success fraction below target, queue depth above
  the bound).  Breach state changes only at observation points --
  completions, errors, queue samples, and the horizon -- and every
  transition is a first-class ``slo-breach`` trace event
  (``action="begin"`` / ``"end"``).
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

:func:`evaluate_trace` replays the same monitor over a recorded JSONL
trace (``repro slo`` on a file) in one pass over the event stream,
reconstructing observations from ``submit`` / ``complete`` / ``shed`` /
``task-failed`` events and the queue-membership transitions, so live
and post-hoc evaluation share one implementation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import asdict, dataclass
from operator import itemgetter
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
    (empty / ``None`` = global).  ``budget_fraction`` is the error
    budget: the fraction of the run the objective may spend in breach
    before it counts as violated.
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


#: :attr:`_ObjectiveState.window_value` before its first computation and
#: after every change to the window's samples.
_STALE = object()


class _ObjectiveState:
    """Per-objective sliding-window state inside the monitor."""

    __slots__ = (
        "obj", "samples", "ordered", "window_value", "depth", "in_breach",
        "breach_started", "recent", "breach_seconds", "breach_count",
        "alert_firing", "alerts_fired", "alerts_resolved", "observations",
    )

    def __init__(self, obj: SLOObjective):
        self.obj = obj
        #: latency: (t, value); availability: (t, ok); throughput: t.
        self.samples: deque = deque()
        #: latency: the window's values, kept sorted (insertion among
        #: equals keeps arrival order, as ``sorted`` would).
        self.ordered: list[float] = []
        #: Latency percentile or availability ratio over ``samples``
        #: (``None`` when empty), or :data:`_STALE`.  Queue observations
        #: outnumber sample changes, and each would otherwise recompute
        #: the value.
        self.window_value: object = _STALE
        self.depth = 0.0
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
    def add(self, sample) -> None:
        self.samples.append(sample)
        if self.obj.kind == "latency":
            insort(self.ordered, sample[1])
        self.window_value = _STALE

    def _prune(self, now: float) -> None:
        horizon = now - self.obj.window_s
        samples = self.samples
        if self.obj.kind == "throughput":
            while samples and samples[0] <= horizon:
                samples.popleft()
        elif samples and samples[0][0] <= horizon:
            self.window_value = _STALE
            ordered = self.ordered if self.obj.kind == "latency" else None
            while samples and samples[0][0] <= horizon:
                value = samples.popleft()[1]
                if ordered is not None:
                    # The oldest sample is the first of its equals.
                    del ordered[bisect_left(ordered, value)]
        recent_horizon = now - self.obj.window_s
        while self.recent and self.recent[0][1] <= recent_horizon:
            self.recent.popleft()

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
        return sum(map(itemgetter(1), samples)) / len(samples)  # True counts 1

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
        if not self.in_breach and not self.recent:
            return 0.0, 0.0  # no breach second inside either window
        obj = self.obj
        slow_w = obj.window_s
        fast_w = max(slow_w * FAST_WINDOW_FRACTION, 1e-9)
        fast = self.breach_overlap(now - fast_w, now) / fast_w
        slow = self.breach_overlap(now - slow_w, now) / slow_w
        return fast / obj.budget_fraction, slow / obj.budget_fraction


class SLOMonitor:
    """Evaluates an :class:`SLOSpec` online against a run's observations.

    The simulator feeds :meth:`observe_completion`,
    :meth:`observe_error` and :meth:`observe_queue` from its completion
    / shed / fail / dispatch paths; :meth:`finalize` runs once at the
    horizon.  ``emit`` (the simulator's ``_emit``) receives the
    first-class ``slo-breach`` / ``slo-alert-fire`` /
    ``slo-alert-resolve`` events; ``clock`` reads simulated seconds.
    """

    def __init__(
        self,
        spec: SLOSpec,
        *,
        clock: Callable[[], float],
        emit: Callable | None = None,
    ):
        self.spec = spec
        self.clock = clock
        self.emit = emit
        self._states = [_ObjectiveState(o) for o in spec.objectives]
        self._any_queue = any(
            o.kind == "queue-depth" for o in spec.objectives
        )
        self.finalized = False
        #: Simulated time of the last evaluation, until finalize.  An
        #: evaluation is idempotent at a fixed time, so a queue sample
        #: that brings nothing new at that instant skips it.
        self._settled_at: float | None = None

    # -- observation hooks ---------------------------------------------
    def observe_completion(
        self, *, tenant: str = "", priority: int = 0,
        wait: float | None = None, turnaround: float = 0.0,
    ) -> None:
        now = self.clock()
        for state in self._states:
            obj = state.obj
            if obj.kind == "queue-depth" or not obj.matches(tenant, priority):
                continue
            state.observations += 1
            if obj.kind == "latency":
                value = turnaround if obj.metric == "turnaround" else wait
                if value is not None:
                    state.add((now, value))
            elif obj.kind == "throughput":
                state.add(now)
            else:  # availability
                state.add((now, True))
        self._evaluate_all(now)

    def observe_error(self, *, tenant: str = "", priority: int = 0) -> None:
        """A shed or terminally failed task (an availability error)."""
        now = self.clock()
        for state in self._states:
            obj = state.obj
            if obj.kind != "availability" or not obj.matches(tenant, priority):
                continue
            state.observations += 1
            state.add((now, False))
        self._evaluate_all(now)

    def observe_queue(self, depth: int) -> None:
        """Pending-queue depth after a queue transition (global scope:
        the queue is one shared resource)."""
        if not self._any_queue:
            return
        now = self.clock()
        changed = False
        for state in self._states:
            if state.obj.kind != "queue-depth":
                continue
            if float(depth) != state.depth:
                state.observations += 1
                state.depth = float(depth)
                changed = True
        if changed or now != self._settled_at:
            self._evaluate_all(now)

    # -- evaluation -----------------------------------------------------
    def _evaluate_all(self, now: float) -> None:
        for state in self._states:
            self._evaluate(state, now)
        self._settled_at = now

    def _evaluate(self, state: _ObjectiveState, now: float) -> None:
        state._prune(now)
        breach, value = state.breaching(now)
        obj = state.obj
        if breach and not state.in_breach:
            state.in_breach = True
            state.breach_started = now
            state.breach_count += 1
            self._emit_event(
                "slo-breach", objective=obj.name, action="begin",
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
                    "slo-alert-fire", objective=obj.name,
                    fast_burn=fast, slow_burn=slow, threshold=threshold,
                )
        elif (
            fast < threshold * RESOLVE_FRACTION
            and slow < threshold * RESOLVE_FRACTION
        ):
            self._resolve_alert(state, fast=fast, slow=slow)

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
        self._emit_event("slo-breach", **payload)

    def _resolve_alert(self, state: _ObjectiveState, *, fast: float,
                       slow: float, reason: str = "") -> None:
        state.alert_firing = False
        state.alerts_resolved += 1
        payload = dict(objective=state.obj.name, fast_burn=fast,
                       slow_burn=slow)
        if reason:
            payload["reason"] = reason
        self._emit_event("slo-alert-resolve", **payload)

    def _emit_event(self, kind: str, **payload) -> None:
        if self.emit is not None:
            self.emit(kind, None, **payload)

    # -- end of run -----------------------------------------------------
    def finalize(self, now: float | None = None) -> None:
        """Close open breaches and resolve firing alerts at the horizon
        so complete traces satisfy the fire/resolve pairing invariant.
        Idempotent: the simulator may finalize before each report."""
        if self.finalized:
            return
        self.finalized = True
        self._settled_at = None
        if now is None:
            now = self.clock()
        for state in self._states:
            if state.in_breach:
                self._close_breach(state, now)
            if state.alert_firing:
                fast, slow = state.burn_rates(now)
                self._resolve_alert(state, fast=fast, slow=slow,
                                    reason="horizon")

    def results(self, horizon_s: float) -> list[SLOResult]:
        """Per-objective verdicts (call after :meth:`finalize`)."""
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

    def publish(self, telemetry, horizon_s: float) -> None:
        """Roll attainment / budget gauges into the telemetry registry."""
        for result in self.results(horizon_s):
            telemetry.gauge(
                "slo_attainment", "fraction of the run the objective held",
                objective=result.name,
            ).set(result.attainment)
            telemetry.gauge(
                "slo_error_budget_remaining",
                "unspent fraction of the objective's error budget",
                objective=result.name,
            ).set(result.error_budget_remaining)
            telemetry.gauge(
                "slo_breach_seconds", "simulated seconds spent in breach",
                objective=result.name,
            ).set(result.breach_seconds)


# ----------------------------------------------------------------------
# Post-hoc evaluation of a recorded trace (``repro slo`` on a file)
# ----------------------------------------------------------------------

def evaluate_trace(events, spec: SLOSpec):
    """Replay an iterable of trace events through an :class:`SLOMonitor`, once.

    Observations are reconstructed from the lifecycle events: latency
    from ``submit`` -> latest ``dispatch`` -> ``complete`` per key (tenant and
    priority from the submit payload), errors from ``shed`` /
    ``task-failed``, and queue depth from the queue-membership
    transitions (``submit``/``admit`` enter, a ``defer`` at the submit
    instant parks, ``dispatch`` leaves, ``shed``/``discard`` abandon,
    ``retry``/``fallback``/``requeue`` re-enter).  Returns ``(results,
    emitted)`` where *emitted* is the list of ``(time, kind, payload)``
    SLO events the replay produced.

    The depth is sampled once per instant, after the last event at that
    timestamp, as the live monitor samples it once per dispatch pass:
    the transient depths inside one pass are never seen, so breach
    counts and breach seconds match the live run.  The emitted events
    can still differ: the live monitor also samples on dispatch passes
    that no trace event marks (a pass that places nothing), and each
    sample re-evaluates the time-windowed objectives at that instant.
    """
    now = [0.0]
    emitted: list[tuple[float, str, dict]] = []

    def emit(kind, key, **payload):
        emitted.append((now[0], kind, payload))

    monitor = SLOMonitor(spec, clock=lambda: now[0], emit=emit)
    submits: dict[object, tuple[float, str, int]] = {}
    dispatched_at: dict[object, float] = {}
    in_queue: set[object] = set()
    depth = 0
    #: A queue transition happened at ``now[0]`` and is not yet sampled.
    unsampled = False
    horizon = 0.0

    def enter(key) -> None:
        nonlocal depth
        if key not in in_queue:
            in_queue.add(key)
            depth += 1

    def leave(key) -> None:
        nonlocal depth
        if key in in_queue:
            in_queue.discard(key)
            depth -= 1

    for event in events:
        if unsampled and event.time != now[0]:
            monitor.observe_queue(depth)
            unsampled = False
        now[0] = event.time
        horizon = max(horizon, event.time)
        kind, key = event.kind, event.key
        if kind == "submit":
            submits[key] = (
                event.time,
                event.payload.get("tenant", ""),
                event.payload.get("priority", 0),
            )
            enter(key)
            unsampled = True
        elif kind == "admit":
            enter(key)
            unsampled = True
        elif kind == "defer":
            leave(key)  # parked at submit; a re-offer finds it outside
        elif kind == "dispatch":
            leave(key)
            # The latest dispatch, like the live monitor: a retried
            # task's wait runs to the dispatch that completed it.
            dispatched_at[key] = event.time
            unsampled = True
        elif kind in ("retry", "fallback", "requeue"):
            enter(key)
            unsampled = True
        elif kind == "complete":
            leave(key)
            sub = submits.get(key)
            if sub is not None:
                t0, tenant, priority = sub
                dispatch = dispatched_at.get(key)
                monitor.observe_completion(
                    tenant=tenant,
                    priority=priority,
                    wait=None if dispatch is None else dispatch - t0,
                    turnaround=event.time - t0,
                )
            unsampled = True
        elif kind in ("shed", "task-failed", "discard"):
            leave(key)
            if kind in ("shed", "task-failed"):
                sub = submits.get(key)
                tenant, priority = (sub[1], sub[2]) if sub else ("", 0)
                monitor.observe_error(tenant=tenant, priority=priority)
            unsampled = True
    if unsampled:
        monitor.observe_queue(depth)
    monitor.finalize(horizon)
    return monitor.results(horizon), emitted
