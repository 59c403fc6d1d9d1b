"""The paper's full cost-model scheduler.

Section V lists the parameters a good strategy weighs: "area slices,
reconfiguration delays, and the time required to send configuration
bitstreams, the availability and current status of the nodes".
:class:`HybridCostScheduler` asks the RMS to price every admissible
candidate -- transfer time (input data + bitstream over the modeled
network) + synthesis time + reconfiguration time + execution time --
and takes the cheapest.  Configuration reuse naturally wins whenever
it applies because it zeroes the transfer and reconfiguration terms.
Ties go to the earliest candidate in matching order.
"""

from __future__ import annotations

from repro.core.matching import Candidate
from repro.core.task import Task
from repro.grid.rms import SchedulingError
from repro.grid.virtualizer import VirtualizationError
from repro.scheduling.base import Scheduler


class HybridCostScheduler(Scheduler):
    """Minimize per-task dispatch-to-completion time (see module
    docstring for the cost decomposition)."""

    name = "hybrid-cost"

    def choose(self, task: Task, candidates: list[Candidate], rms) -> Candidate | None:
        if not candidates:
            return None
        best: Candidate | None = None
        best_cost = float("inf")
        for candidate in candidates:
            try:
                cost = rms.estimate_cost_s(task, candidate)
            except (SchedulingError, VirtualizationError):
                continue  # unpriceable candidate (e.g. synthesis refused)
            if cost < best_cost:
                best, best_cost = candidate, cost
        return best
