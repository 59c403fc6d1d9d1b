"""Control-plane fault tolerance: heartbeat failure detection,
replicated-RMS failover, and lease-based placements.

The paper funnels every placement decision through one central Resource
Management System, and until now the simulator's fault model kept that
component conveniently immortal: nodes crash, links sever, bitstreams
flip bits -- but the coordinator itself always answers, instantly and
correctly, and learns about node deaths *omnisciently* at the moment
they happen.  This module replaces both assumptions:

* :class:`HeartbeatMonitor` -- a deterministic phi-accrual-style
  failure detector.  Every monitored target (worker nodes and the RMS
  itself) is expected to heartbeat each :attr:`HeartbeatSpec.interval_s`
  of sim time; the monitor keeps an EWMA of observed inter-arrival
  times and grades staleness as a multiple of that EWMA.  Crossing
  :attr:`HeartbeatSpec.suspect_after` marks the target *suspect*,
  crossing :attr:`HeartbeatSpec.confirm_after` *confirms* the failure.
  Detection therefore has **latency** -- tasks can be dispatched into
  the window between a node's death and its confirmation, and lost
  heartbeats (a new fault kind) can produce *false* suspicions that
  clear on the next arrival.

* :class:`ReplicatedRMS` -- an availability wrapper modelling a
  primary with N warm standbys.  A primary crash (or gray failure:
  the process is up but useless) makes the control plane
  un-dispatchable; once the failure is detected a standby promotes
  after :attr:`FailoverSpec.takeover_delay_s` and reconciles by
  adopting every in-flight placement whose lease is still valid.
  Placements whose lease lapsed while the control plane was dark are
  *orphaned* and re-queued -- never silently lost; the PR 7
  conservation invariant (submitted == completed + failed + discarded
  + shed) extends over the whole failover path.

Everything here is plain deterministic bookkeeping: no randomness is
drawn in this module, so identically-seeded runs replay byte-identical
traces.  Like the resilience and admission layers, the whole feature
is zero-cost when disabled -- an inert :class:`FailoverSpec` normalises
to ``None`` inside the simulator and the golden traces stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.workload import require_finite

__all__ = [
    "HeartbeatSpec",
    "FailoverSpec",
    "FAILOVER_PRESETS",
    "HeartbeatMonitor",
    "ReplicatedRMS",
    "ALIVE",
    "SUSPECT",
    "DOWN",
]


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HeartbeatSpec:
    """Tuning for the phi-accrual-style failure detector.

    Thresholds are expressed as multiples of the per-target EWMA
    inter-arrival time rather than absolute seconds, so a target whose
    heartbeats have been arriving late (congestion, gray failure) is
    judged against its *observed* cadence -- the classic phi-accrual
    idea, collapsed to a deterministic ratio test.
    """

    #: Sim-time spacing between heartbeat rounds.
    interval_s: float = 0.5
    #: Staleness (multiples of the EWMA inter-arrival) at which a
    #: target becomes *suspect*.  Dispatch starts avoiding suspects.
    suspect_after: float = 3.0
    #: Staleness at which the failure is *confirmed* and teardown /
    #: failover begins.  Must be strictly above ``suspect_after``.
    confirm_after: float = 6.0
    #: Smoothing factor for the inter-arrival EWMA (1.0 = last sample
    #: only).
    ewma_alpha: float = 0.3
    #: Arrivals required before the inter-arrival EWMA starts adapting;
    #: until then staleness is graded against the nominal interval.
    #: (Grading itself is never gated -- a target that dies before
    #: priming must still be confirmable, or its work would stall
    #: forever.)
    min_samples: int = 2

    def __post_init__(self) -> None:
        for name in ("interval_s", "suspect_after", "confirm_after", "ewma_alpha"):
            require_finite(name, getattr(self, name))
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s!r}")
        if self.suspect_after < 1.0:
            raise ValueError(
                f"suspect_after must be >= 1 heartbeat interval, got {self.suspect_after!r}"
            )
        if self.confirm_after <= self.suspect_after:
            raise ValueError(
                "confirm_after must exceed suspect_after "
                f"({self.confirm_after!r} <= {self.suspect_after!r})"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha!r}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples!r}")


@dataclass(frozen=True)
class FailoverSpec:
    """Bundle of control-plane fault-tolerance policies.

    All defaults are inert: ``FailoverSpec()`` enables nothing, and the
    simulator normalises such a spec to ``None`` so the disabled path
    stays a single attribute check (goldens byte-identical).
    """

    #: Arm the heartbeat failure detector (nodes *and* the RMS).  When
    #: absent, crash detection stays omniscient as in PR 2.
    heartbeat: HeartbeatSpec | None = None
    #: Warm standby RMS replicas.  0 means an RMS crash is a cold
    #: restart: the control plane is dark for the fault's full
    #: downtime draw and every in-flight placement is orphaned.
    standbys: int = 0
    #: Promotion time once a primary failure is confirmed: the window
    #: a standby needs to finish reconciling before accepting work.
    takeover_delay_s: float = 0.5
    #: Placement lease duration, renewed on every heartbeat round
    #: while the control plane is up.  A promoted standby adopts
    #: placements with live leases and orphans the rest; ``None``
    #: disables leases (a standby then adopts everything).
    lease_s: float | None = None

    def __post_init__(self) -> None:
        if self.standbys < 0:
            raise ValueError(f"standbys must be >= 0, got {self.standbys!r}")
        require_finite("takeover_delay_s", self.takeover_delay_s)
        if self.takeover_delay_s < 0:
            raise ValueError(
                f"takeover_delay_s must be >= 0, got {self.takeover_delay_s!r}"
            )
        if self.lease_s is not None:
            require_finite("lease_s", self.lease_s)
            if self.lease_s <= 0:
                raise ValueError(f"lease_s must be positive, got {self.lease_s!r}")
        if self.lease_s is not None and self.heartbeat is not None:
            if self.lease_s <= self.heartbeat.interval_s:
                raise ValueError(
                    "lease_s must exceed the heartbeat interval or every "
                    f"lease expires between renewals ({self.lease_s!r} <= "
                    f"{self.heartbeat.interval_s!r})"
                )

    @property
    def enabled(self) -> bool:
        return (
            self.heartbeat is not None
            or self.standbys > 0
            or self.lease_s is not None
        )

    def describe(self) -> dict[str, object]:
        """Flat JSON-safe summary for telemetry metadata."""
        out: dict[str, object] = {
            "standbys": self.standbys,
            "takeover_delay_s": self.takeover_delay_s,
            "lease_s": self.lease_s if self.lease_s is not None else 0.0,
        }
        if self.heartbeat is not None:
            out.update(
                heartbeat_interval_s=self.heartbeat.interval_s,
                heartbeat_suspect_after=self.heartbeat.suspect_after,
                heartbeat_confirm_after=self.heartbeat.confirm_after,
                heartbeat_ewma_alpha=self.heartbeat.ewma_alpha,
                heartbeat_min_samples=self.heartbeat.min_samples,
            )
        return out


#: Named bundles for the CLI (``--failover <preset>``) and docs.
FAILOVER_PRESETS: dict[str, FailoverSpec] = {
    "none": FailoverSpec(),
    # Detection only: heartbeats replace the omniscient crash model but
    # an RMS crash is still a cold restart.
    "detect": FailoverSpec(heartbeat=HeartbeatSpec()),
    # The headline configuration: one warm standby, leased placements.
    "replicated": FailoverSpec(
        heartbeat=HeartbeatSpec(),
        standbys=1,
        takeover_delay_s=0.5,
        lease_s=4.0,
    ),
    # Aggressive HA: two standbys, twitchier detector, short leases.
    "ha": FailoverSpec(
        heartbeat=HeartbeatSpec(interval_s=0.25, suspect_after=2.0, confirm_after=4.0),
        standbys=2,
        takeover_delay_s=0.25,
        lease_s=2.0,
    ),
}


# ---------------------------------------------------------------------------
# Failure detector
# ---------------------------------------------------------------------------
#: Monitor states, strictly ordered: a target only ever worsens
#: ``alive -> suspect -> down`` between heartbeats, and any arrival
#: resets it to ``alive``.
ALIVE = "alive"
SUSPECT = "suspect"
DOWN = "down"

_SEVERITY = {ALIVE: 0, SUSPECT: 1, DOWN: 2}


class HeartbeatMonitor:
    """Deterministic phi-accrual-style failure detector.

    One monitor instance watches many targets (hashable keys -- node
    ids plus the ``"rms"`` sentinel).  The caller drives it from sim
    time: :meth:`heartbeat` on every arrival, :meth:`evaluate` on every
    detector round.  The monitor never schedules events and never draws
    randomness; it is pure bookkeeping.
    """

    def __init__(self, spec: HeartbeatSpec) -> None:
        self.spec = spec
        self._last: dict[object, float] = {}
        self._ewma: dict[object, float] = {}
        self._samples: dict[object, int] = {}
        self.state: dict[object, str] = {}

    # -- membership ---------------------------------------------------
    def watch(self, target: object, now: float) -> None:
        """Start monitoring *target*; the EWMA primes at the nominal
        interval so the first evaluation has a sane denominator."""
        self._last[target] = now
        self._ewma[target] = self.spec.interval_s
        self._samples[target] = 0
        self.state[target] = ALIVE

    def forget(self, target: object) -> None:
        self._last.pop(target, None)
        self._ewma.pop(target, None)
        self._samples.pop(target, None)
        self.state.pop(target, None)

    def watched(self, target: object) -> bool:
        return target in self.state

    # -- arrivals and rounds ------------------------------------------
    def heartbeat(self, target: object, now: float) -> str | None:
        """Record a heartbeat arrival from *target*.

        Returns the state this arrival *cleared* (``"suspect"`` or
        ``"down"``) when the target had been under suspicion -- the
        caller uses that to emit a rejoin event -- else ``None``.
        """
        if target not in self.state:
            return None
        interval = now - self._last[target]
        if interval > 0 and self._samples[target] >= self.spec.min_samples:
            alpha = self.spec.ewma_alpha
            self._ewma[target] = (
                alpha * interval + (1.0 - alpha) * self._ewma[target]
            )
        self._last[target] = now
        self._samples[target] += 1
        previous = self.state[target]
        self.state[target] = ALIVE
        return previous if previous != ALIVE else None

    def suspicion(self, target: object, now: float) -> float:
        """Staleness of *target* as a multiple of its EWMA
        inter-arrival time (the deterministic stand-in for phi)."""
        ewma = self._ewma.get(target)
        if not ewma:
            return 0.0
        return max(0.0, now - self._last[target]) / ewma

    def evaluate(self, target: object, now: float) -> str | None:
        """Re-grade *target* at sim time *now*.

        Returns the new state (``"suspect"`` or ``"down"``) when the
        grading *worsened* since the last call, else ``None``.  States
        never improve here -- only :meth:`heartbeat` clears suspicion.
        """
        if target not in self.state:
            return None
        phi = self.suspicion(target, now)
        if phi >= self.spec.confirm_after:
            graded = DOWN
        elif phi >= self.spec.suspect_after:
            graded = SUSPECT
        else:
            graded = ALIVE
        if _SEVERITY[graded] > _SEVERITY[self.state[target]]:
            self.state[target] = graded
            return graded
        return None


# ---------------------------------------------------------------------------
# Replicated control plane
# ---------------------------------------------------------------------------
class ReplicatedRMS:
    """Availability wrapper around the (single, shared) RMS instance.

    The simulator keeps calling the inner
    :class:`~repro.grid.rms.ResourceManagementSystem` for planning and
    commits; this wrapper only tracks *whether the control plane can
    answer* and who is answering.  A promotion does not copy any state
    -- warm standbys are modelled as replicas that followed the
    primary's node registrations and placement reports, so after
    :meth:`promote` the new primary "already has" the grid state and
    reconciliation reduces to the lease check the simulator performs.
    It keeps no figures for the report: the simulator emits an event
    for each transition that takes, and the metrics fold those.
    """

    def __init__(self, rms, spec: FailoverSpec) -> None:
        self.rms = rms
        self.spec = spec
        #: Monotone epoch: bumped on every promotion so stale events
        #: (a cold-restart timer raced by a failover) can be ignored.
        self.generation = 0
        self.standbys_left = spec.standbys
        self.available = True
        #: Gray failure: the primary answers heartbeats late and fails
        #: placements -- up, but useless.  Dispatch treats gray as
        #: down; only the detector can tell the difference.
        self.gray = False

    # -- state queries ------------------------------------------------
    @property
    def dispatchable(self) -> bool:
        return self.available and not self.gray

    def can_failover(self) -> bool:
        return self.standbys_left > 0

    # -- transitions (driven by the simulator) ------------------------
    def crash(self) -> bool:
        """Primary process dies.  Returns False when the control plane
        was already dark (crash-during-crash is absorbed)."""
        if not self.available:
            return False
        self.available = False
        self.gray = False
        return True

    def gray_start(self) -> bool:
        """Primary goes gray: still heartbeating (late), still 'up',
        but every placement answer is useless."""
        if not self.dispatchable:
            return False
        self.gray = True
        return True

    def promote(self) -> int:
        """A warm standby takes over; returns the new generation."""
        if self.standbys_left <= 0:
            raise RuntimeError("no standby left to promote")
        self.standbys_left -= 1
        self.generation += 1
        self._mark_up()
        return self.generation

    def restore(self) -> None:
        """Cold restart (no standby) or gray window passing."""
        self.generation += 1
        self._mark_up()

    def _mark_up(self) -> None:
        self.available = True
        self.gray = False
