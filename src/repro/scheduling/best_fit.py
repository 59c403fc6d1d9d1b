"""Best-fit by fabric area (and fastest-GPP for GPP-class tasks)."""

from __future__ import annotations

from repro.core.matching import Candidate, task_required_slices
from repro.core.task import Task
from repro.hardware.taxonomy import PEClass
from repro.scheduling.base import Scheduler


class BestFitAreaScheduler(Scheduler):
    """Minimize wasted fabric area ("area slices" in the paper's list of
    scheduling parameters).

    For RPE tasks: among candidates, prefer configuration reuse, then
    the candidate whose best placeable region leaves the least slack
    (``region.slices - required``).  Tight packing preserves large
    regions for large future configurations.

    For GPP-class tasks: pick the highest-MIPS processor -- area is not
    meaningful there, so "best fit" degenerates to "fastest".  GPU-class
    tasks likewise take the GPU with the highest peak GFLOPS.
    """

    name = "best-fit-area"

    def choose(self, task: Task, candidates: list[Candidate], rms) -> Candidate | None:
        if not candidates:
            return None
        reusers = [c for c in candidates if c.reuses_resident]
        if reusers:
            return reusers[0]

        required = task_required_slices(task)

        def rpe_waste(candidate: Candidate) -> float:
            rpe = rms.node(candidate.node_id).rpe(candidate.resource_id)
            region = rpe.fabric.find_placeable(max(required, 1))
            if region is None:
                return float("inf")
            return region.slices - required

        def speed(candidate: Candidate) -> float:
            node = rms.node(candidate.node_id)
            if candidate.kind is PEClass.GPP:
                return node.gpp(candidate.resource_id).spec.mips
            if candidate.kind is PEClass.GPU:
                return node.gpu(candidate.resource_id).spec.peak_gflops
            # Hosted soft core: use its delivered MIPS.
            rpe = node.rpe(candidate.resource_id)
            for caps in rpe.softcore_capabilities():
                if caps.get("region_id") == candidate.region_id:
                    return float(caps["mips"])  # type: ignore[arg-type]
            return 0.0

        if task.exec_req.node_type is PEClass.RPE:
            best = min(candidates, key=rpe_waste)
            return best if rpe_waste(best) != float("inf") else None
        return max(candidates, key=speed)
