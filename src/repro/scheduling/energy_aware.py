"""Energy-aware scheduling: minimize joules per task.

The paper motivates RPEs with power efficiency (Section I); this
strategy operationalizes that: it prices every admissible candidate in
*joules* -- active power of the chosen PE over the estimated execution
time, plus whole-device reconfiguration energy when a bitstream load is
needed -- and picks the cheapest.  On accelerable kernels this strongly
prefers fabric (10x faster at a fraction of a Xeon's power); on plain
software tasks it prefers the most efficient GPP.

An optional ``deadline_weight`` mixes in time so the strategy does not
starve latency entirely (weight 0 = pure energy; weight 1 ~= the
hybrid cost scheduler's behaviour).
"""

from __future__ import annotations

from repro.core.matching import Candidate, task_required_slices
from repro.core.task import Task
from repro.grid.rms import SchedulingError
from repro.grid.virtualizer import VirtualizationError
from repro.hardware.power import (
    energy_per_task_j,
    fpga_active_power,
    fpga_reconfig_power,
    gpp_power,
    gpu_power,
    softcore_power,
)
from repro.hardware.taxonomy import PEClass
from repro.scheduling.base import Scheduler


class EnergyAwareScheduler(Scheduler):
    """Pick the candidate with the lowest estimated joules (see module
    docstring for the power accounting)."""

    name = "energy-aware"

    def __init__(self, deadline_weight: float = 0.0):
        if deadline_weight < 0:
            raise ValueError("deadline_weight must be non-negative")
        self.deadline_weight = deadline_weight

    def _candidate_energy_j(self, task: Task, candidate: Candidate, rms) -> float:
        placement = rms._price(task, candidate)
        node = rms.node(candidate.node_id)
        if candidate.kind is PEClass.GPP:
            spec = node.gpp(candidate.resource_id).spec
            return energy_per_task_j(gpp_power(spec, load=1.0), placement.exec_time_s)
        if candidate.kind is PEClass.GPU:
            spec = node.gpu(candidate.resource_id).spec
            return energy_per_task_j(gpu_power(spec, load=1.0), placement.exec_time_s)
        rpe = node.rpe(candidate.resource_id)
        if candidate.kind is PEClass.SOFTCORE:
            spec = task.exec_req.artifacts.softcore
            if candidate.region_id is not None:
                spec = rpe.hosted_softcores.get(candidate.region_id, spec)
            if spec is None:
                spec = rms.virtualization.provisioner.default_core
            joules = energy_per_task_j(
                softcore_power(spec, rpe.device), placement.exec_time_s
            )
        else:
            slices = task_required_slices(task) or rpe.device.slices // 4
            joules = energy_per_task_j(
                fpga_active_power(rpe.device, slices), placement.exec_time_s
            )
        joules += energy_per_task_j(
            fpga_reconfig_power(rpe.device), placement.reconfig_time_s
        )
        return joules

    def choose(self, task: Task, candidates: list[Candidate], rms) -> Candidate | None:
        best: Candidate | None = None
        best_cost = float("inf")
        for candidate in candidates:
            try:
                joules = self._candidate_energy_j(task, candidate, rms)
                seconds = rms.estimate_cost_s(task, candidate)
            except (SchedulingError, VirtualizationError):
                continue  # unpriceable candidate (e.g. synthesis refused)
            cost = joules + self.deadline_weight * seconds
            if cost < best_cost:
                best, best_cost = candidate, cost
        return best
