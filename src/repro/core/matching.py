"""Capability matchmaking: which PEs of which nodes can run a task.

Section V walks through exactly this query for the case study ("It can
be noticed that any of the GPP0 and GPP1 in the Node0 and GPP0 in the
Node1 contain the minimum processing requirements by the Task0 ...") and
Table II collects the answers.  :func:`find_candidates` is the general
form: it evaluates a task's :class:`~repro.core.execreq.ExecReq` against
every processing element of every node and returns the admissible
placements.

Matching is *static* by default -- it asks "could this PE ever run the
task?", which is what Table II tabulates.  With ``require_available``
it additionally checks the dynamic state (idle GPP / placeable fabric
area), which is what the scheduler needs at dispatch time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.core.node import Node, RPEResource
from repro.core.state import PEState
from repro.core.task import Task
from repro.hardware.taxonomy import PEClass


@dataclass(frozen=True)
class Candidate:
    """One admissible placement of a task.

    ``label`` follows Table II's notation, e.g. ``"RPE_1 <-> Node_1"``:
    the index is the resource's position within its node list, not the
    global resource_id.
    """

    node_id: int
    node_name: str
    kind: PEClass
    resource_id: int
    resource_index: int
    reuses_resident: bool = False
    region_id: int | None = None

    @property
    def label(self) -> str:
        prefix = {
            PEClass.GPP: "GPP",
            PEClass.SOFTCORE: "SOFTCORE",
            PEClass.GPU: "GPU",
            PEClass.RPE: "RPE",
        }[self.kind]
        return f"{prefix}_{self.resource_index} <-> {self.node_name}"


def task_required_slices(task: Task) -> int:
    """Fabric area the task needs, derived from its artifacts or its
    ``slices`` constraint (``MinValue("slices", n)``); 0 when unknown.
    """
    artifacts = task.exec_req.artifacts
    if artifacts.bitstream is not None:
        return artifacts.bitstream.required_slices
    if artifacts.hdl_design is not None:
        return artifacts.hdl_design.estimated_slices
    if artifacts.softcore is not None:
        return artifacts.softcore.required_slices()
    from repro.core.execreq import MinValue

    for constraint in task.exec_req.constraints:
        if isinstance(constraint, MinValue) and constraint.key == "slices":
            return int(constraint.value)
    return 0


def _rpe_dynamic_ok(task: Task, rpe: RPEResource, needed: int) -> bool:
    """Dynamic admissibility of an RPE: resident-config reuse, or enough
    placeable area (*needed* slices) for the task's circuit."""
    if rpe.offline:
        return False
    if task.function and rpe.fabric.find_resident(task.function) is not None:
        return True
    if needed == 0:
        # No area information: any available region will do.
        return rpe.fabric.available_slices > 0
    return rpe.fabric.can_place(needed)


def match_node(
    task: Task, node: Node, *, require_available: bool = False
) -> list[Candidate]:
    """All placements of *task* on *node* (one per admissible PE)."""
    return _match_node(task, node, require_available, _rpe_slices(task))


def _rpe_slices(task: Task) -> int:
    """The fabric area an RPE-class task needs (0 for other classes,
    which never read it) -- constant per task, so computed once."""
    if task.exec_req.node_type is PEClass.RPE:
        return task_required_slices(task)
    return 0


def _match_node(
    task: Task, node: Node, require_available: bool, needed: int
) -> list[Candidate]:
    candidates: list[Candidate] = []
    wanted = task.exec_req.node_type

    if wanted in (PEClass.GPP, PEClass.SOFTCORE):
        for index, gpp in enumerate(node.gpps):
            if wanted is PEClass.SOFTCORE:
                break  # plain GPPs cannot satisfy a soft-core requirement
            if not task.exec_req.matches(gpp.spec.capabilities()):
                continue
            if require_available and gpp.state is not PEState.IDLE:
                continue
            candidates.append(
                Candidate(
                    node_id=node.node_id,
                    node_name=node.name,
                    kind=PEClass.GPP,
                    resource_id=gpp.resource_id,
                    resource_index=index,
                )
            )
        # Section III-A fallback: soft cores hosted on RPEs can serve
        # GPP-class (and SOFTCORE-class) requirements.
        for index, rpe in enumerate(node.rpes):
            for caps in rpe.softcore_capabilities():
                if task.exec_req.matches(caps):
                    candidates.append(
                        Candidate(
                            node_id=node.node_id,
                            node_name=node.name,
                            kind=PEClass.SOFTCORE,
                            resource_id=rpe.resource_id,
                            resource_index=index,
                            region_id=caps.get("region_id"),  # type: ignore[arg-type]
                        )
                    )

    if wanted is PEClass.RPE:
        for index, rpe in enumerate(node.rpes):
            if not task.exec_req.matches(rpe.device.capabilities()):
                continue
            # A device-specific bitstream must target this exact model.
            bitstream = task.exec_req.artifacts.bitstream
            if bitstream is not None and not bitstream.targets(rpe.device):
                continue
            if needed > rpe.device.slices:
                continue
            if require_available and not _rpe_dynamic_ok(task, rpe, needed):
                continue
            reuse = bool(task.function) and rpe.fabric.find_resident(task.function) is not None
            candidates.append(
                Candidate(
                    node_id=node.node_id,
                    node_name=node.name,
                    kind=PEClass.RPE,
                    resource_id=rpe.resource_id,
                    resource_index=index,
                    reuses_resident=reuse,
                )
            )

    if wanted is PEClass.SOFTCORE and task.exec_req.artifacts.softcore is not None:
        # Pre-determined hardware configuration (Section III-B1): the
        # user selected a soft core that is not hosted anywhere yet; any
        # RPE whose device can fit it is a candidate (the scheduler pays
        # the provisioning reconfiguration).
        spec = task.exec_req.artifacts.softcore
        already = {c.resource_id for c in candidates}
        for index, rpe in enumerate(node.rpes):
            if rpe.resource_id in already:
                continue
            if not spec.fits_on(rpe.device):
                continue
            if require_available and not rpe.fabric.can_place(spec.required_slices()):
                continue
            candidates.append(
                Candidate(
                    node_id=node.node_id,
                    node_name=node.name,
                    kind=PEClass.SOFTCORE,
                    resource_id=rpe.resource_id,
                    resource_index=index,
                )
            )

    if wanted is PEClass.GPU:
        # The Section III extension class: nodes may carry GPUs; they
        # match exactly like GPPs over their Table I descriptors.
        for index, gpu in enumerate(node.gpus):
            if not task.exec_req.matches(gpu.spec.capabilities()):
                continue
            if require_available and gpu.state is not PEState.IDLE:
                continue
            candidates.append(
                Candidate(
                    node_id=node.node_id,
                    node_name=node.name,
                    kind=PEClass.GPU,
                    resource_id=gpu.resource_id,
                    resource_index=index,
                )
            )

    return candidates


def find_candidates(
    task: Task, nodes: Iterable[Node], *, require_available: bool = False
) -> list[Candidate]:
    """All placements of *task* across *nodes*, in node order."""
    result: list[Candidate] = []
    needed = _rpe_slices(task)
    for node in nodes:
        result.extend(_match_node(task, node, require_available, needed))
    return result
