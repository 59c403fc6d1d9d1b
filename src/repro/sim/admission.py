"""Overload protection: admission control, backpressure, and brownout.

PRs 2-3 made the grid survive *component* faults; this module protects
it when the load itself is the fault.  A flash crowd otherwise grows
the pending queue without bound and inflates every latency percentile
-- the RMS accepts everything unconditionally.  RC3E-style overcommit
only works with explicit admission at the resource manager, so the
simulator gains a front door:

* :class:`QueueBoundSpec` -- bounded pending queue.  Submissions that
  would exceed ``max_pending`` are either **shed** immediately or
  **deferred** (parked outside the queue and re-offered after a delay,
  at most ``max_defers`` times) -- classic reject-vs-backpressure.
* :class:`TokenBucketSpec` -- deterministic token-bucket rate limiting
  at submission: tokens refill continuously at ``rate_per_s`` up to
  ``burst``; a submission with no whole token available is shed.
* :class:`UtilizationSpec` -- admission ahead of matchmaking: when the
  live busy fraction of the grid's processing elements reaches
  ``threshold``, :meth:`repro.grid.rms.ResourceManagementSystem.
  plan_placement` defers instead of placing (completions re-run the
  queue, so gated tasks resume the moment occupancy drops).
* :class:`BrownoutSpec` -- staged graceful degradation under
  *sustained* overload, with hysteretic recovery:

  - stage 1: no action of its own (it disabled speculative replicas,
    which the simulator no longer has; the stage numbers stay because
    reports record ``max_stage``);
  - stage 2: additionally, low-priority tasks (``Task.priority < 0``)
    are forced onto GPP execution at dispatch (cheapest placement);
  - stage 3: additionally, the newest lowest-priority pending work is
    shed down to ``exit_pending``.

  The controller escalates one stage after the pending depth has held
  at or above ``enter_pending`` for ``dwell_s`` of simulated time, and
  recovers one stage after it has held at or below ``exit_pending``
  (strictly below ``enter_pending``) for ``dwell_s``.  In between the
  stage simply holds -- steady load can never make it oscillate.

All four policies bundle into one frozen :class:`AdmissionSpec` that
lands on ``ExperimentSpec`` and flows through the CLI; ``None`` (or an
all-``None`` spec) is the exact pre-admission behavior, byte for byte
-- the same zero-cost-when-disabled contract as ``ResilienceSpec``.

Determinism contract: no policy draws random numbers.  Decisions are
pure functions of simulated time, queue depth, token level, and live
occupancy, so arming admission never perturbs the seeded workload or
fault streams -- runs differ only where the policies actually act.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.fabric import RegionState
from repro.sim.workload import require_finite


def _require_whole(name: str, value: float) -> None:
    if not (math.isfinite(value) and value == int(value)):
        raise ValueError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class QueueBoundSpec:
    """Bounded pending queue with reject-or-defer backpressure.

    A submission that would push the pending depth past ``max_pending``
    is shed (``defer=False``) or parked and re-offered after
    ``defer_delay_s`` (``defer=True``); after ``max_defers`` failed
    re-offers it is shed anyway -- backpressure must stay bounded.
    """

    max_pending: int = 64
    defer: bool = False
    defer_delay_s: float = 0.5
    max_defers: int = 4

    def __post_init__(self) -> None:
        _require_whole("max_pending", self.max_pending)
        _require_whole("max_defers", self.max_defers)
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        require_finite("defer_delay_s", self.defer_delay_s)
        if self.defer_delay_s <= 0:
            raise ValueError("defer_delay_s must be positive")
        if self.max_defers < 1:
            raise ValueError("max_defers must be >= 1")


@dataclass(frozen=True)
class TokenBucketSpec:
    """Deterministic token-bucket rate limiting at submission.

    Tokens refill continuously at ``rate_per_s`` up to ``burst``; each
    admitted submission consumes one.  A submission arriving with less
    than one token available is shed (rate limiters reject; the queue
    bound is the policy that defers).
    """

    rate_per_s: float
    burst: float = 8.0

    def __post_init__(self) -> None:
        require_finite("rate_per_s", self.rate_per_s)
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        require_finite("burst", self.burst)
        if self.burst < 1.0:
            raise ValueError("burst must be >= 1 (a whole token)")


@dataclass(frozen=True)
class UtilizationSpec:
    """Occupancy-threshold admission ahead of matchmaking.

    When the live busy fraction of the grid's processing elements
    (:func:`grid_occupancy`) is at or above ``threshold``, the RMS
    defers placement requests instead of matchmaking.  Occupancy
    counts only *in-flight* placements (busy GPPs/GPUs, BUSY or
    CONFIGURING fabric regions), so a non-zero occupancy guarantees a
    future completion event that re-runs the queue -- the gate can
    never deadlock a drained grid.
    """

    threshold: float = 0.9

    def __post_init__(self) -> None:
        require_finite("threshold", self.threshold)
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")


@dataclass(frozen=True)
class BrownoutSpec:
    """Staged degradation under sustained overload, with hysteresis.

    ``enter_pending`` and ``exit_pending`` are queue depths;
    escalation and recovery each require the depth to hold past its
    threshold for ``dwell_s`` of simulated time.  ``exit_pending`` must
    be strictly below ``enter_pending`` so a steady queue depth between
    the two holds the current stage forever (no oscillation).
    ``max_stage`` caps how far degradation goes (1 = no action,
    2 = low-priority GPP forcing, 3 = + shedding).
    """

    enter_pending: int = 48
    exit_pending: int = 16
    dwell_s: float = 1.0
    max_stage: int = 3

    def __post_init__(self) -> None:
        _require_whole("enter_pending", self.enter_pending)
        _require_whole("exit_pending", self.exit_pending)
        _require_whole("max_stage", self.max_stage)
        if self.enter_pending < 1:
            raise ValueError("enter_pending must be >= 1")
        if self.exit_pending < 0:
            raise ValueError("exit_pending must be non-negative")
        if self.exit_pending >= self.enter_pending:
            raise ValueError(
                "exit_pending must be strictly below enter_pending (hysteresis)"
            )
        require_finite("dwell_s", self.dwell_s)
        if self.dwell_s <= 0:
            raise ValueError("dwell_s must be positive")
        if not 1 <= self.max_stage <= 3:
            raise ValueError("max_stage must be 1, 2, or 3")


@dataclass(frozen=True)
class AdmissionSpec:
    """The overload-protection layer, as one declarative bundle.

    Every field defaults to ``None`` = off; a spec with all fields
    ``None`` (or ``AdmissionSpec()`` itself) is inert and the simulator
    takes the exact pre-admission code paths.
    """

    queue: QueueBoundSpec | None = None
    rate: TokenBucketSpec | None = None
    utilization: UtilizationSpec | None = None
    brownout: BrownoutSpec | None = None

    @property
    def enabled(self) -> bool:
        return any(
            v is not None
            for v in (self.queue, self.rate, self.utilization, self.brownout)
        )

    def describe(self) -> dict[str, object]:
        """Armed policies as a flat JSON-safe dict -- the telemetry
        file's ``meta.admission`` entry and the dashboard's header."""
        out: dict[str, object] = {}
        if self.queue is not None:
            out["queue"] = {
                "max_pending": self.queue.max_pending,
                "defer": self.queue.defer,
                "defer_delay_s": self.queue.defer_delay_s,
                "max_defers": self.queue.max_defers,
            }
        if self.rate is not None:
            out["rate"] = {
                "rate_per_s": self.rate.rate_per_s,
                "burst": self.rate.burst,
            }
        if self.utilization is not None:
            out["utilization"] = {"threshold": self.utilization.threshold}
        if self.brownout is not None:
            out["brownout"] = {
                "enter_pending": self.brownout.enter_pending,
                "exit_pending": self.brownout.exit_pending,
                "dwell_s": self.brownout.dwell_s,
                "max_stage": self.brownout.max_stage,
            }
        return out


#: Ready-made bundles for the CLI / examples, mirroring the fault and
#: resilience preset dictionaries.
ADMISSION_PRESETS: dict[str, AdmissionSpec] = {
    "none": AdmissionSpec(),
    "bounded": AdmissionSpec(queue=QueueBoundSpec(max_pending=64)),
    "backpressure": AdmissionSpec(
        queue=QueueBoundSpec(max_pending=64, defer=True, defer_delay_s=0.5)
    ),
    "brownout": AdmissionSpec(
        queue=QueueBoundSpec(max_pending=96),
        brownout=BrownoutSpec(enter_pending=48, exit_pending=16, dwell_s=1.0),
    ),
    "strict": AdmissionSpec(
        queue=QueueBoundSpec(max_pending=48),
        rate=TokenBucketSpec(rate_per_s=16.0, burst=16.0),
        utilization=UtilizationSpec(threshold=0.95),
        brownout=BrownoutSpec(enter_pending=32, exit_pending=8, dwell_s=0.5),
    ),
}


def grid_occupancy(nodes) -> float:
    """Live busy fraction of the grid's processing elements.

    GPPs/GPUs count busy while they cannot accept work; fabric regions
    count busy while BUSY or CONFIGURING.  Resident-but-idle
    (CONFIGURED) regions count *free*: they hold reusable state, not
    in-flight work, so occupancy returns to zero on a drained grid --
    the property that makes the utilization gate deadlock-free.
    """
    busy = 0
    count = 0
    for node in nodes:
        for g in node.gpps:
            busy += 0 if g.state.can_accept_work else 1
            count += 1
        for g in node.gpus:
            busy += 0 if g.state.can_accept_work else 1
            count += 1
        for r in node.rpes:
            for region in r.fabric.regions:
                if region.state in (RegionState.BUSY, RegionState.CONFIGURING):
                    busy += 1
                count += 1
    return busy / count if count else 0.0


#: Decision verbs returned by the controller's submit-time methods.
ADMIT = "admit"
DEFER = "defer"
SHED = "shed"


class AdmissionController:
    """Runtime state of one :class:`AdmissionSpec` over one run.

    Owned by the simulator (which also installs it on the RMS for the
    placement gate).  All state is deterministic -- token level, stage,
    dwell anchors, counters -- and every method is a pure function of
    its arguments plus that state: no randomness, ever.
    """

    def __init__(self, spec: AdmissionSpec):
        self.spec = spec
        # Token bucket.
        self._tokens = spec.rate.burst if spec.rate is not None else 0.0
        self._last_refill = 0.0
        # Brownout: current stage plus the hysteresis dwell anchors.
        self.stage = 0
        self._pressure_since: float | None = None
        self._relief_since: float | None = None
        #: A one-shot review event is in flight (the simulator sets and
        #: clears this; it keeps dwell reviews from piling up).
        self.review_scheduled = False
        # Counters (pushed into the metrics collector at run end).
        self.admitted = 0
        self.deferrals = 0
        self.shed = 0
        self.degraded = 0
        self.placements_gated = 0
        self.brownout_transitions = 0
        self.max_stage_seen = 0
        self.brownout_time_s = 0.0
        self.brownout_completions = 0
        self._entered_brownout_at: float | None = None

    # ------------------------------------------------------------------
    # Submit-time decisions
    # ------------------------------------------------------------------
    def decide_submit(self, now: float, pending_depth: int) -> tuple[str, str]:
        """(decision, reason) for a fresh submission: rate limit first
        (a shed there never consumes queue budget), then queue bound."""
        rate = self.spec.rate
        if rate is not None:
            tokens = min(
                rate.burst,
                self._tokens + (now - self._last_refill) * rate.rate_per_s,
            )
            self._last_refill = now
            if tokens < 1.0:
                self._tokens = tokens
                return (SHED, "rate-limit")
            self._tokens = tokens - 1.0
        return self._queue_decision(pending_depth, defers=0)

    def decide_reoffer(self, pending_depth: int, defers: int) -> tuple[str, str]:
        """(decision, reason) when a deferred submission is re-offered.
        Rate-limit tokens are not re-charged: the submission already
        paid at the front door."""
        return self._queue_decision(pending_depth, defers=defers)

    def _queue_decision(self, depth: int, *, defers: int) -> tuple[str, str]:
        queue = self.spec.queue
        if queue is None or depth < queue.max_pending:
            return (ADMIT, "")
        if queue.defer and defers < queue.max_defers:
            return (DEFER, "queue-full")
        return (SHED, "queue-full")

    # ------------------------------------------------------------------
    # Placement gate (called by the RMS ahead of matchmaking)
    # ------------------------------------------------------------------
    def saturated(self, nodes) -> bool:
        """True when the utilization policy vetoes matchmaking now (the
        RMS counts each vetoed request in ``placements_gated``)."""
        util = self.spec.utilization
        return util is not None and grid_occupancy(nodes) >= util.threshold

    # ------------------------------------------------------------------
    # Brownout controller
    # ------------------------------------------------------------------
    def observe(self, now: float, pending_depth: int) -> tuple[int, int] | None:
        """Feed one queue-depth observation; returns ``(old, new)`` on a
        stage transition, else ``None``.

        Escalation requires ``dwell_s`` of sustained depth at or above
        ``enter_pending``; recovery requires ``dwell_s`` at or below
        ``exit_pending``.  Anything in between (or a state with no
        legal transition) clears both dwell anchors, so the stage holds
        and -- crucially -- no review event is owed: the engine can
        always drain.
        """
        b = self.spec.brownout
        if b is None:
            return None
        # Dwell comparisons tolerate one rounding step: the review event
        # is scheduled at exactly ``anchor + dwell_s``, and in floating
        # point ``(anchor + dwell) - anchor`` can land one ULP short of
        # ``dwell``.  Without the slack the review declines, reschedules
        # for the same instant, and the engine livelocks at frozen time.
        dwell = b.dwell_s - 1e-9
        if pending_depth >= b.enter_pending and self.stage < b.max_stage:
            self._relief_since = None
            if self._pressure_since is None:
                self._pressure_since = now
                return None
            if now - self._pressure_since >= dwell:
                self._pressure_since = now  # next stage needs its own dwell
                return self._transition(now, self.stage + 1)
            return None
        if pending_depth <= b.exit_pending and self.stage > 0:
            self._pressure_since = None
            if self._relief_since is None:
                self._relief_since = now
                return None
            if now - self._relief_since >= dwell:
                self._relief_since = now
                return self._transition(now, self.stage - 1)
            return None
        # Hysteresis hold: between the thresholds (or pinned at a
        # boundary stage) nothing can change, so no anchor stays armed.
        self._pressure_since = None
        self._relief_since = None
        return None

    def _transition(self, now: float, new_stage: int) -> tuple[int, int]:
        old = self.stage
        self.stage = new_stage
        self.brownout_transitions += 1
        self.max_stage_seen = max(self.max_stage_seen, new_stage)
        if old == 0 and new_stage > 0:
            self._entered_brownout_at = now
        elif new_stage == 0 and self._entered_brownout_at is not None:
            self.brownout_time_s += now - self._entered_brownout_at
            self._entered_brownout_at = None
        return (old, new_stage)

    def next_review(self) -> float | None:
        """Absolute time of the pending dwell expiry, or ``None`` when
        no transition is owed.  The simulator schedules a one-shot
        review event for it so escalation/recovery fire even while the
        event stream is otherwise quiet."""
        b = self.spec.brownout
        if b is None:
            return None
        anchor = (
            self._pressure_since
            if self._pressure_since is not None
            else self._relief_since
        )
        if anchor is None:
            return None
        return anchor + b.dwell_s

    def note_completion(self) -> None:
        """A task completed while the brownout stage was raised: this
        is the goodput the degraded system still delivered."""
        if self.stage > 0:
            self.brownout_completions += 1

    def finalize(self, now: float) -> None:
        """Close the open brownout residency window at run end."""
        if self._entered_brownout_at is not None:
            self.brownout_time_s += now - self._entered_brownout_at
            self._entered_brownout_at = None
