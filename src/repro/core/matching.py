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

from repro.core.execreq import MinValue
from repro.core.node import Node
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
    for constraint in task.exec_req.constraints:
        if isinstance(constraint, MinValue) and constraint.key == "slices":
            return int(constraint.value)
    return 0


def static_key(task: Task) -> tuple:
    """Everything static matching reads from *task*: the node type, the
    constraints and the three hardware artifacts.  Equal keys get equal
    answers from one processing-element spec, whatever the grid state.
    The node type enters by value: a str caches its hash, an enum
    member hashes in Python."""
    req = task.exec_req
    artifacts = req.artifacts
    return (
        req.node_type.value,
        req.constraints,
        artifacts.bitstream,
        artifacts.hdl_design,
        artifacts.softcore,
    )


#: Static feasibility memo: :func:`static_key` -> ``(needed, {id(spec):
#: (spec, feasible)})``, where *needed* is the fabric area an RPE-class
#: requirement needs (:func:`_rpe_slices`).  A spec (``GPPSpec``,
#: ``GPUSpec``, ``FPGADevice``) is a frozen value, so its answer never
#: changes; the entry holds the spec, so its id cannot be reused while
#: the memo lives.
StaticMemo = dict[tuple, tuple[int, dict[int, tuple[object, bool]]]]


def _remember(table: dict, spec: object, feasible: bool) -> bool:
    table[id(spec)] = (spec, feasible)
    return feasible


def _rpe_fits(task: Task, device, needed: int) -> bool:
    """Static admissibility of an RPE device: its Table I descriptor
    matches, a device-specific bitstream targets this exact model, and
    the circuit's *needed* slices fit the whole device."""
    req = task.exec_req
    if not req.matches(device.capabilities()):
        return False
    bitstream = req.artifacts.bitstream
    if bitstream is not None and not bitstream.targets(device):
        return False
    return needed <= device.slices


def match_node(
    task: Task, node: Node, *, require_available: bool = False
) -> list[Candidate]:
    """All placements of *task* on *node* (one per admissible PE)."""
    return _match_node(task, node, require_available, _rpe_slices(task), {})


def _rpe_slices(task: Task) -> int:
    """The fabric area an RPE-class task needs (0 for other classes,
    which never read it) -- constant per task, so computed once."""
    if task.exec_req.node_type is PEClass.RPE:
        return task_required_slices(task)
    return 0


def _interned(
    node: Node,
    kind: PEClass,
    resource_id: int,
    resource_index: int,
    reuses_resident: bool = False,
    region_id: int | None = None,
) -> Candidate:
    """*node*'s one :class:`Candidate` with these fields.  A candidate
    is a frozen value of its node and these five fields, so the node
    keeps each one it was asked for and matching builds it once, not
    once per scan.  ``resource_index`` is in the key because removing a
    PE shifts the indices of the PEs after it.  The kind enters by
    value, read from the member's own slot: an enum member hashes in
    Python, and so does its ``value`` property."""
    key = (kind._value_, resource_id, resource_index, reuses_resident, region_id)
    interned = node._candidates
    candidate = interned.get(key)
    if candidate is None:
        candidate = interned[key] = Candidate(
            node.node_id, node.name, kind, resource_id, resource_index,
            reuses_resident, region_id,
        )
    return candidate


def _match_node(
    task: Task, node: Node, require_available: bool, needed: int, table: dict
) -> list[Candidate]:
    """*table* is the static feasibility table of *task*'s
    :func:`static_key`; only dynamic state is read past it."""
    candidates: list[Candidate] = []
    req = task.exec_req
    wanted = req.node_type

    if wanted in (PEClass.GPP, PEClass.SOFTCORE):
        for index, gpp in enumerate(node.gpps):
            if wanted is PEClass.SOFTCORE:
                break  # plain GPPs cannot satisfy a soft-core requirement
            spec = gpp.spec
            entry = table.get(id(spec))
            feasible = (
                entry[1] if entry is not None
                else _remember(table, spec, req.matches(spec.capabilities()))
            )
            if not feasible:
                continue
            if require_available and gpp.state is not PEState.IDLE:
                continue
            candidates.append(_interned(node, PEClass.GPP, gpp.resource_id, index))
        # Section III-A fallback: soft cores hosted on RPEs can serve
        # GPP-class (and SOFTCORE-class) requirements.  A hosted core's
        # descriptor carries its resource and region ids, so it is
        # matched live, not through the static table.
        for index, rpe in enumerate(node.rpes):
            if not rpe.hosted_softcores:
                continue
            for caps in rpe.softcore_capabilities():
                if req.matches(caps):
                    candidates.append(_interned(
                        node, PEClass.SOFTCORE, rpe.resource_id, index,
                        region_id=caps.get("region_id"),  # type: ignore[arg-type]
                    ))

    if wanted is PEClass.RPE:
        function = task.function
        for index, rpe in enumerate(node.rpes):
            device = rpe.device
            entry = table.get(id(device))
            feasible = (
                entry[1] if entry is not None
                else _remember(table, device, _rpe_fits(task, device, needed))
            )
            if not feasible:
                continue
            if not require_available:
                resident = rpe.fabric.find_resident(function) if function else None
            elif rpe.offline:
                continue
            else:
                # Resident-configuration reuse, or enough placeable area
                # for the circuit (no area information: any available
                # region will do), in one pass over the regions.
                resident, admitted = rpe.fabric.admit(function, needed)
                if not admitted:
                    continue
            candidates.append(_interned(
                node, PEClass.RPE, rpe.resource_id, index, resident is not None
            ))

    if wanted is PEClass.SOFTCORE and req.artifacts.softcore is not None:
        # Pre-determined hardware configuration (Section III-B1): the
        # user selected a soft core that is not hosted anywhere yet; any
        # RPE whose device can fit it is a candidate (the scheduler pays
        # the provisioning reconfiguration).
        spec = req.artifacts.softcore
        already = {c.resource_id for c in candidates}
        for index, rpe in enumerate(node.rpes):
            if rpe.resource_id in already:
                continue
            device = rpe.device
            entry = table.get(id(device))
            feasible = (
                entry[1] if entry is not None
                else _remember(table, device, spec.fits_on(device))
            )
            if not feasible:
                continue
            if require_available and not rpe.fabric.can_place(spec.required_slices()):
                continue
            candidates.append(_interned(node, PEClass.SOFTCORE, rpe.resource_id, index))

    if wanted is PEClass.GPU:
        # The Section III extension class: nodes may carry GPUs; they
        # match exactly like GPPs over their Table I descriptors.
        for index, gpu in enumerate(node.gpus):
            spec = gpu.spec
            entry = table.get(id(spec))
            feasible = (
                entry[1] if entry is not None
                else _remember(table, spec, req.matches(spec.capabilities()))
            )
            if not feasible:
                continue
            if require_available and gpu.state is not PEState.IDLE:
                continue
            candidates.append(_interned(node, PEClass.GPU, gpu.resource_id, index))

    return candidates


def static_entry(task: Task, memo: StaticMemo) -> tuple[int, dict]:
    """*task*'s entry in *memo* (see :data:`StaticMemo`), made on first
    use: the area its RPE candidates need, and its feasibility table."""
    key = static_key(task)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (_rpe_slices(task), {})
    return entry


def find_candidates(
    task: Task,
    nodes: Iterable[Node],
    *,
    require_available: bool = False,
    memo: StaticMemo | None = None,
) -> list[Candidate]:
    """All placements of *task* across *nodes*, in node order.

    *memo* carries static feasibility across calls (see
    :data:`StaticMemo`); its owner keeps it for as long as the specs it
    was filled from may be asked about.  Without one, each spec is
    matched at most once per call.
    """
    if memo is None:
        needed, table = _rpe_slices(task), {}
    else:
        needed, table = static_entry(task, memo)
    return match_nodes(task, nodes, require_available, needed, table)


def match_nodes(
    task: Task, nodes: Iterable[Node], require_available: bool, needed: int, table: dict
) -> list[Candidate]:
    """:func:`find_candidates` past its memo: *needed* and *table* are
    *task*'s :func:`static_entry`.  With *require_available*, every RPE
    candidate returned either reuses a resident configuration or has an
    available region of at least *needed* slices (any available region
    when *needed* is 0)."""
    result: list[Candidate] = []
    for node in nodes:
        result.extend(_match_node(task, node, require_available, needed, table))
    return result
