"""The paper's full cost-model scheduler.

Section V lists the parameters a good strategy weighs: "area slices,
reconfiguration delays, and the time required to send configuration
bitstreams, the availability and current status of the nodes".
:class:`HybridCostScheduler` asks the RMS to price every admissible
candidate -- transfer time (input data + bitstream over the modeled
network) + synthesis time + reconfiguration time + execution time --
and takes the cheapest.  Configuration reuse naturally wins whenever
it applies because it zeroes the transfer and reconfiguration terms.

A small area-pressure tiebreaker (``area_weight``) nudges the choice
toward tight region fits so large regions stay free; it is ablated in
``bench_dreamsim_strategies``.
"""

from __future__ import annotations

from repro.core.matching import Candidate, task_required_slices
from repro.core.task import Task
from repro.grid.rms import SchedulingError
from repro.grid.virtualizer import VirtualizationError
from repro.hardware.taxonomy import PEClass
from repro.scheduling.base import Scheduler


class HybridCostScheduler(Scheduler):
    """Minimize per-task dispatch-to-completion time (see module
    docstring for the cost decomposition)."""

    name = "hybrid-cost"

    def __init__(self, area_weight: float = 0.0):
        if area_weight < 0:
            raise ValueError("area_weight must be non-negative")
        self.area_weight = area_weight

    def choose(self, task: Task, candidates: list[Candidate], rms) -> Candidate | None:
        if not candidates:
            return None
        best: Candidate | None = None
        best_cost = float("inf")
        # Only the area tiebreaker reads the task's area.
        required = task_required_slices(task) if self.area_weight else 0
        for candidate in candidates:
            try:
                cost = rms.estimate_cost_s(task, candidate)
            except (SchedulingError, VirtualizationError):
                continue  # unpriceable candidate (e.g. synthesis refused)
            if self.area_weight and candidate.kind is PEClass.RPE:
                rpe = rms.node(candidate.node_id).rpe(candidate.resource_id)
                region = rpe.fabric.find_placeable(max(required, 1))
                if region is not None and rpe.fabric.total_slices:
                    waste = (region.slices - required) / rpe.fabric.total_slices
                    cost += self.area_weight * waste
            if cost < best_cost:
                best, best_cost = candidate, cost
        return best
