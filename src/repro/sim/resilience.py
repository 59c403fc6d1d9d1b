"""Declarative resilience policies: deadlines, checkpoints, speculation.

Companion to :mod:`repro.grid.health` (node health scoring + circuit
breakers): where the health tracker adapts *placement*, these specs
adapt *task lifecycles*.  All four mechanisms are bundled into one
frozen, hashable :class:`ResilienceSpec` that lands on
``ExperimentSpec`` and flows through the CLI -- ``None`` (the default)
is the exact PR 2 behavior, byte-for-byte.

Determinism contract: none of these mechanisms draws random numbers.
Deadlines and checkpoints are pure functions of task estimates and
placement timings; speculative replicas reuse the primary's already
planned task and skip the fault model's per-dispatch draws entirely.
Enabling them therefore never perturbs the seeded workload stream or
the fault injector's independent RNG streams (the PR 2 stream-splitting
scheme) -- runs differ only where the mechanisms actually act.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.grid.health import HealthPolicy
from repro.sim.workload import require_finite


@dataclass(frozen=True)
class DeadlineSpec:
    """Per-task soft/hard deadlines enforced by a simulator watchdog.

    Tasks may carry explicit ``soft_deadline_s`` / ``hard_deadline_s``
    budgets (seconds after arrival); for tasks that do not, the watchdog
    derives them from the estimate::

        soft = soft_factor * t_estimated + slack_s
        hard = hard_factor * t_estimated + slack_s

    A **soft** miss is counted and -- when ``reschedule`` is on and the
    task holds a live placement -- cancels the overrunning placement via
    ``rms.abort_placement`` and re-enqueues the task through the retry
    machinery (the slow node is excluded).  A **hard** miss is terminal:
    the task fails with a ``deadline_exceeded`` JSS failure reason.
    """

    soft_factor: float = 4.0
    hard_factor: float = 12.0
    slack_s: float = 1.0
    reschedule: bool = True

    def __post_init__(self) -> None:
        require_finite("soft_factor", self.soft_factor)
        require_finite("hard_factor", self.hard_factor)
        require_finite("slack_s", self.slack_s)
        if self.soft_factor <= 0 or self.hard_factor <= 0:
            raise ValueError("deadline factors must be positive")
        if self.hard_factor < self.soft_factor:
            raise ValueError("hard_factor must be >= soft_factor")
        if self.slack_s < 0:
            raise ValueError("slack_s must be non-negative")

    def soft_deadline_s(self, t_estimated: float) -> float:
        return self.soft_factor * t_estimated + self.slack_s

    def hard_deadline_s(self, t_estimated: float) -> float:
        return self.hard_factor * t_estimated + self.slack_s


@dataclass(frozen=True)
class CheckpointSpec:
    """Periodic checkpointing of fabric-hosted executions.

    Every ``interval_s`` of execution the task's progress *fraction* is
    snapshotted (fractions, not seconds, so resumed work transplants
    onto PEs with different execution speeds).  When a fault or timeout
    destroys the placement mid-execution, only the progress since the
    last checkpoint is wasted: the task is shrunk to its remaining
    fraction and re-placed on a surviving node (a *migration*).  Each
    checkpoint extends execution by ``overhead_s``.
    """

    interval_s: float = 0.5
    overhead_s: float = 0.0

    def __post_init__(self) -> None:
        require_finite("interval_s", self.interval_s)
        require_finite("overhead_s", self.overhead_s)
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.overhead_s < 0:
            raise ValueError("overhead_s must be non-negative")


@dataclass(frozen=True)
class SpeculationSpec:
    """Straggler mitigation by speculative replicas.

    When a dispatched task exceeds ``slowdown_factor`` times its
    placement's expected total time without finishing, a duplicate is
    launched on a healthy node (the primary's node, its faulted nodes,
    and quarantined nodes are excluded).  First finisher wins; the
    loser's placement is aborted.  Replicas are shadows: they draw no
    fault-model randomness and keep the seeded streams unperturbed.
    """

    slowdown_factor: float = 2.0

    def __post_init__(self) -> None:
        require_finite("slowdown_factor", self.slowdown_factor)
        if self.slowdown_factor <= 1.0:
            raise ValueError("slowdown_factor must be > 1")


@dataclass(frozen=True)
class ResilienceSpec:
    """The adaptive resilience layer, as one declarative bundle.

    Every field defaults to ``None`` = off; a spec with all fields
    ``None`` (or ``ResilienceSpec()`` itself) is inert and the
    simulator takes the exact pre-resilience code paths.
    """

    breaker: HealthPolicy | None = None
    deadlines: DeadlineSpec | None = None
    checkpoint: CheckpointSpec | None = None
    speculation: SpeculationSpec | None = None

    @property
    def enabled(self) -> bool:
        return any(
            v is not None
            for v in (self.breaker, self.deadlines, self.checkpoint, self.speculation)
        )

    def describe(self) -> dict[str, object]:
        """Armed mechanisms as a flat JSON-safe dict -- the telemetry
        file's ``meta.resilience`` entry and the dashboard's header."""
        out: dict[str, object] = {}
        if self.breaker is not None:
            out["breaker"] = {
                "ewma_alpha": self.breaker.ewma_alpha,
                "open_threshold": self.breaker.open_threshold,
                "min_events": self.breaker.min_events,
                "open_duration_s": self.breaker.open_duration_s,
                "half_open_probes": self.breaker.half_open_probes,
                "close_after": self.breaker.close_after,
            }
        if self.deadlines is not None:
            out["deadlines"] = {
                "soft_factor": self.deadlines.soft_factor,
                "hard_factor": self.deadlines.hard_factor,
                "slack_s": self.deadlines.slack_s,
                "reschedule": self.deadlines.reschedule,
            }
        if self.checkpoint is not None:
            out["checkpoint"] = {
                "interval_s": self.checkpoint.interval_s,
                "overhead_s": self.checkpoint.overhead_s,
            }
        if self.speculation is not None:
            out["speculation"] = {
                "slowdown_factor": self.speculation.slowdown_factor,
            }
        return out


#: Ready-made bundles for the CLI / examples, mirroring FAULT_PRESETS.
RESILIENCE_PRESETS: dict[str, ResilienceSpec] = {
    "none": ResilienceSpec(),
    "defensive": ResilienceSpec(
        breaker=HealthPolicy(),
        deadlines=DeadlineSpec(),
        checkpoint=CheckpointSpec(),
    ),
    "aggressive": ResilienceSpec(
        breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=5.0),
        deadlines=DeadlineSpec(soft_factor=3.0, hard_factor=8.0, slack_s=0.5),
        checkpoint=CheckpointSpec(interval_s=0.25),
        speculation=SpeculationSpec(slowdown_factor=1.5),
    ),
}
