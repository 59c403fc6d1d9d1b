"""Node health scoring and circuit breakers.

PR 2 taught the simulator to *inject* faults; this module teaches the
RMS to *adapt* to them.  The paper's RMS "updates the statuses of all
nodes in the grid" (Section V) and matchmaking is "governed by [...]
the availability of nodes" -- a production-scale grid extends that
status table with *trust*: a node that keeps eating tasks should stop
receiving them, and a node that has been quiet for a while deserves a
probe before full rehabilitation.

Mechanics
---------
Each node carries an EWMA failure score updated on every fault /
success observed by the simulator::

    score <- alpha * outcome + (1 - alpha) * score      (outcome: 1=fault, 0=ok)

and a three-state circuit breaker:

``CLOSED``
    Healthy; the node is a normal placement candidate.  Trips to OPEN
    when the score crosses ``open_threshold`` (after at least
    ``min_events`` observations, so one early fault cannot quarantine a
    cold node).
``OPEN``
    Quarantined: :meth:`HealthTracker.blocked_nodes` excludes the node
    from matchmaking entirely.  After ``open_duration_s`` the breaker
    lazily transitions to HALF_OPEN on the next inspection.
``HALF_OPEN``
    Probation: at most ``half_open_probes`` concurrent *probe*
    placements trickle through; everything else stays blocked.
    ``close_after`` consecutive clean probes close the breaker (score
    reset); any failure re-opens it for another full window.

The tracker is pure bookkeeping -- it schedules nothing and draws no
random numbers, so enabling it cannot perturb the seeded workload or
fault streams (the PR 2 stream-splitting contract).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class BreakerState(enum.Enum):
    """Circuit-breaker position for one node."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class HealthPolicy:
    """Tuning knobs for :class:`HealthTracker` (declarative, hashable).

    Parameters
    ----------
    ewma_alpha:
        Weight of the newest observation in the failure score.
    open_threshold:
        Score at or above which a CLOSED breaker trips OPEN.
    min_events:
        Observations required before the breaker may trip at all.
    open_duration_s:
        Quarantine window; after it the breaker half-opens.
    half_open_probes:
        Concurrent probe placements allowed while HALF_OPEN.
    close_after:
        Consecutive successful probes needed to re-close the breaker.
    """

    ewma_alpha: float = 0.3
    open_threshold: float = 0.5
    min_events: int = 3
    open_duration_s: float = 10.0
    half_open_probes: int = 1
    close_after: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 < self.open_threshold <= 1.0:
            raise ValueError("open_threshold must be in (0, 1]")
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")
        if self.open_duration_s <= 0:
            raise ValueError("open_duration_s must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        if self.close_after < 1:
            raise ValueError("close_after must be >= 1")


@dataclass
class NodeHealth:
    """Mutable health record for one node."""

    node_id: int
    score: float = 0.0
    events: int = 0
    state: BreakerState = BreakerState.CLOSED
    #: When the current quarantine episode (OPEN or HALF_OPEN) began.
    quarantined_since: float | None = None
    #: When the breaker last moved to OPEN (drives the half-open timer).
    opened_at: float | None = None
    probes_in_flight: int = 0
    probe_successes: int = 0
    #: Accumulated quarantine seconds of *closed* episodes.
    quarantine_s: float = 0.0
    #: Number of times the breaker tripped OPEN from CLOSED.
    quarantine_episodes: int = 0


class HealthTracker:
    """Per-node EWMA failure scores + circuit breakers.

    The simulator feeds observations through :meth:`record_failure` /
    :meth:`record_success` and consults :meth:`blocked_nodes` before
    every placement.  Time is always passed in explicitly (simulated
    seconds); OPEN -> HALF_OPEN transitions happen lazily on
    inspection, so the tracker needs no event-engine hooks.
    """

    #: Numeric gauge encoding of breaker states for telemetry.
    STATE_VALUES = {
        BreakerState.CLOSED: 0.0,
        BreakerState.HALF_OPEN: 1.0,
        BreakerState.OPEN: 2.0,
    }

    def __init__(self, policy: HealthPolicy | None = None):
        self.policy = policy or HealthPolicy()
        self._nodes: dict[int, NodeHealth] = {}
        #: Optional :class:`repro.sim.telemetry.TelemetryRegistry`
        #: installed by the simulator; breaker transitions sample a
        #: per-node ``node_breaker_state`` gauge (0=closed, 1=half-open,
        #: 2=open).  ``None`` keeps every path a single attribute check.
        self.telemetry = None

    def _sample_state(self, node_id: int, state: BreakerState) -> None:
        if self.telemetry is not None:
            self.telemetry.gauge(
                "node_breaker_state",
                "circuit breaker state (0=closed, 1=half-open, 2=open)",
                node=node_id,
            ).set(self.STATE_VALUES[state])

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register_node(self, node_id: int) -> NodeHealth:
        """Idempotent: a rejoining node keeps its history (a node that
        crashed its way into quarantine stays quarantined)."""
        health = self._nodes.get(node_id)
        if health is None:
            health = self._nodes[node_id] = NodeHealth(node_id)
        return health

    def node(self, node_id: int) -> NodeHealth:
        return self.register_node(node_id)

    # ------------------------------------------------------------------
    # State inspection (lazy OPEN -> HALF_OPEN)
    # ------------------------------------------------------------------
    def state(self, node_id: int, now: float) -> BreakerState:
        health = self.register_node(node_id)
        if (
            health.state is BreakerState.OPEN
            and health.opened_at is not None
            and now >= health.opened_at + self.policy.open_duration_s
        ):
            health.state = BreakerState.HALF_OPEN
            health.probes_in_flight = 0
            health.probe_successes = 0
            self._sample_state(node_id, BreakerState.HALF_OPEN)
        return health.state

    def is_blocked(self, node_id: int, now: float) -> bool:
        """True when *node_id* must not receive a placement now."""
        state = self.state(node_id, now)
        if state is BreakerState.OPEN:
            return True
        if state is BreakerState.HALF_OPEN:
            health = self._nodes[node_id]
            return health.probes_in_flight >= self.policy.half_open_probes
        return False

    def is_probation(self, node_id: int, now: float) -> bool:
        """True when a placement on *node_id* would be a probe."""
        return self.state(node_id, now) is BreakerState.HALF_OPEN

    def blocked_nodes(self, now: float) -> set[int]:
        """Nodes excluded from matchmaking at *now* (OPEN breakers plus
        HALF_OPEN breakers whose probe quota is exhausted).  A CLOSED
        breaker neither blocks nor moves lazily, so it is skipped before
        any per-node call."""
        closed = BreakerState.CLOSED
        return {
            node_id
            for node_id, health in self._nodes.items()
            if health.state is not closed and self.is_blocked(node_id, now)
        }

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def _ewma(self, health: NodeHealth, outcome: float) -> None:
        alpha = self.policy.ewma_alpha
        health.score = alpha * outcome + (1.0 - alpha) * health.score
        health.events += 1

    def _open(self, health: NodeHealth, now: float) -> None:
        if health.quarantined_since is None:
            health.quarantined_since = now
            health.quarantine_episodes += 1
        health.state = BreakerState.OPEN
        health.opened_at = now
        health.probes_in_flight = 0
        health.probe_successes = 0
        self._sample_state(health.node_id, BreakerState.OPEN)

    def _close(self, health: NodeHealth, now: float) -> None:
        if health.quarantined_since is not None:
            health.quarantine_s += now - health.quarantined_since
            health.quarantined_since = None
        health.state = BreakerState.CLOSED
        health.opened_at = None
        health.probes_in_flight = 0
        health.probe_successes = 0
        health.score = 0.0
        self._sample_state(health.node_id, BreakerState.CLOSED)

    def record_failure(
        self, node_id: int, now: float, *, probe: bool = False
    ) -> str | None:
        """A fault/timeout hit a placement on *node_id*.  Returns
        ``"open"`` when this observation tripped (or re-tripped) the
        breaker, else ``None``."""
        state = self.state(node_id, now)
        health = self._nodes[node_id]
        self._ewma(health, 1.0)
        if state is BreakerState.CLOSED:
            if (
                health.events >= self.policy.min_events
                and health.score >= self.policy.open_threshold
            ):
                self._open(health, now)
                return "open"
            return None
        if state is BreakerState.HALF_OPEN:
            # Any failure during probation re-opens for a full window.
            if probe and health.probes_in_flight > 0:
                health.probes_in_flight -= 1
            self._open(health, now)
            return "open"
        return None  # already OPEN: stragglers from before the trip

    def record_success(
        self, node_id: int, now: float, *, probe: bool = False
    ) -> str | None:
        """A placement on *node_id* completed cleanly.  Returns
        ``"close"`` when this observation re-closed the breaker."""
        state = self.state(node_id, now)
        health = self._nodes[node_id]
        self._ewma(health, 0.0)
        if state is BreakerState.HALF_OPEN and probe:
            if health.probes_in_flight > 0:
                health.probes_in_flight -= 1
            health.probe_successes += 1
            if health.probe_successes >= self.policy.close_after:
                self._close(health, now)
                return "close"
        return None

    def record_detected_failure(self, node_id: int, now: float) -> None:
        """A failure detector confirmed *node_id* dead
        (:mod:`repro.sim.failover`).  Unlike :meth:`record_failure`
        this is hard evidence, not a statistical hint: trip the breaker
        outright so a later rejoin starts quarantined and has to
        re-earn trust through half-open probes."""
        health = self.register_node(node_id)
        self._ewma(health, 1.0)
        if health.state is not BreakerState.OPEN:
            self._open(health, now)

    def note_probe(self, node_id: int) -> None:
        """A probe placement was just granted on a HALF_OPEN node."""
        self.register_node(node_id).probes_in_flight += 1

    def abort_probe(self, node_id: int) -> None:
        """A probe placement was torn down for a reason that says
        nothing about the node (a graceful departure): return the slot
        without judging the probe."""
        health = self.register_node(node_id)
        if health.probes_in_flight > 0:
            health.probes_in_flight -= 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_quarantine_s(self, now: float) -> float:
        """Quarantine seconds over all nodes; episodes still open are
        closed against *now* (report-time accounting)."""
        total = 0.0
        for health in self._nodes.values():
            total += health.quarantine_s
            if health.quarantined_since is not None:
                total += max(0.0, now - health.quarantined_since)
        return total

    def total_quarantine_episodes(self) -> int:
        return sum(h.quarantine_episodes for h in self._nodes.values())
