"""Scheduler strategy interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.core.matching import Candidate
from repro.core.task import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.grid.rms import ResourceManagementSystem


def filter_excluded(
    candidates: list[Candidate], exclude_nodes: "set[int] | frozenset[int] | None"
) -> list[Candidate]:
    """Drop candidates on excluded nodes (fault-aware re-placement).

    The retry policy excludes the node a task just faulted on, so the
    next attempt lands elsewhere when the grid has anywhere else to go.
    With no exclusions this is the identity, so fault-free scheduling
    is byte-for-byte unchanged.
    """
    if not exclude_nodes:
        return candidates
    return [c for c in candidates if c.node_id not in exclude_nodes]


def filter_quarantined(
    candidates: list[Candidate], health, now: float | None
) -> list[Candidate]:
    """Drop candidates on quarantined nodes (open circuit breakers).

    *health* is a :class:`repro.grid.health.HealthTracker` (or ``None``
    when the resilience layer is off) and *now* the simulated time the
    placement is planned at.  Nodes whose breaker is OPEN -- or
    HALF_OPEN with its probe quota exhausted -- never reach the
    strategy, which is the quarantine guarantee the property suite
    pins: an open breaker receives zero placements.  Without a tracker
    this is the identity, so pre-resilience scheduling is unchanged.
    """
    if health is None or now is None:
        return candidates
    blocked = health.blocked_nodes(now)
    if not blocked:
        return candidates
    return [c for c in candidates if c.node_id not in blocked]


class Scheduler(ABC):
    """Strategy object plugged into the RMS.

    :meth:`choose` receives only *dynamically available* candidates
    (capability matched AND currently placeable); returning ``None``
    keeps the task in the pending queue for retry at the next
    resource-release event.
    """

    name: str = "abstract"

    @abstractmethod
    def choose(
        self,
        task: Task,
        candidates: list[Candidate],
        rms: "ResourceManagementSystem",
    ) -> Candidate | None:
        """Pick a placement for *task*, or ``None`` to defer it.

        Within one dispatch round (see
        :meth:`~repro.grid.rms.ResourceManagementSystem.open_round`)
        this is not called again for a requirement already known to
        have no candidates, so a strategy must not rely on side effects
        of being handed an empty list.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
