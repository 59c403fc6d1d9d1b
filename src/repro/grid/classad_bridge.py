"""Bridge between the typed framework and the ClassAd substrate.

Section II points at Condor [14] as the reference resource-matching
system and observes that "there is no previous work about the efficient
utilization of RPEs in such [a] system".  This module closes that loop:
it renders Eq. 1 nodes as ClassAd *offers* (one ad per processing
element, carrying the Table I capability descriptor plus node identity)
and Eq. 2 tasks as ClassAd *requests* (the ExecReq constraint list
compiled to a requirements expression), so RPEs become matchable by a
Condor-style matchmaker with no changes to that matchmaker.

:func:`classad_candidates` runs the symmetric match and returns the
same :class:`~repro.core.matching.Candidate` records the typed
matchmaker produces -- the test suite cross-validates both paths on the
paper's Table II.
"""

from __future__ import annotations

from repro.core.execreq import Constraint, Equals, ExecReq, Exists, MaxValue, MinValue, OneOf
from repro.core.matching import Candidate
from repro.core.node import Node
from repro.core.task import Task
from repro.grid.classad import ClassAd, symmetric_match
from repro.hardware.taxonomy import PEClass


class CompileError(ValueError):
    """An ExecReq constraint has no ClassAd expression form."""


def compile_constraint(constraint: Constraint) -> str:
    """One ExecReq constraint -> one ClassAd requirements term."""
    if isinstance(constraint, MinValue):
        return f"target.{constraint.key} >= {constraint.value!r}"
    if isinstance(constraint, MaxValue):
        return f"target.{constraint.key} <= {constraint.value!r}"
    if isinstance(constraint, Equals):
        return f"target.{constraint.key} == {constraint.value!r}"
    if isinstance(constraint, OneOf):
        options = ", ".join(repr(v) for v in constraint.values)
        return f"target.{constraint.key} in ({options},)"
    if isinstance(constraint, Exists):
        return f"target.{constraint.key} == target.{constraint.key} and target.{constraint.key} not in (None, 0, False, '')"
    raise CompileError(f"no ClassAd form for constraint {type(constraint).__name__}")


def compile_execreq(req: ExecReq) -> str:
    """An ExecReq -> a full ClassAd requirements expression.

    The PE-class gate mirrors :meth:`ExecReq.matches`: GPP requirements
    also accept soft cores (Section III-A).
    """
    if req.node_type is PEClass.GPP:
        terms = ["target.pe_class in ('GPP', 'SOFTCORE')"]
    else:
        terms = [f"target.pe_class == {req.node_type.value!r}"]
    terms.extend(compile_constraint(c) for c in req.constraints)
    return " and ".join(terms)


def task_to_ad(task: Task, *, rank: str = "0") -> ClassAd:
    """Render a task as a ClassAd request."""
    return ClassAd(
        attributes={
            "task_id": task.task_id,
            "function": task.function,
            "t_estimated": task.t_estimated,
            "input_bytes": task.total_input_bytes,
        },
        requirements=compile_execreq(task.exec_req),
        rank=rank,
    )


def node_to_ads(node: Node) -> list[tuple[ClassAd, Candidate]]:
    """Render every PE of *node* as a ClassAd offer.

    Each ad is paired with the Candidate it stands for, so a match maps
    straight back into the framework's placement machinery.  Offers
    accept every request by default (``requirements='True'``); a grid
    manager can attach owner policies per ad afterwards.
    """
    ads: list[tuple[ClassAd, Candidate]] = []
    for index, gpp in enumerate(node.gpps):
        ads.append(
            (
                ClassAd(attributes=dict(gpp.spec.capabilities())),
                Candidate(
                    node_id=node.node_id,
                    node_name=node.name,
                    kind=PEClass.GPP,
                    resource_id=gpp.resource_id,
                    resource_index=index,
                    pe=gpp,
                ),
            )
        )
    for index, gpu in enumerate(node.gpus):
        ads.append(
            (
                ClassAd(attributes=dict(gpu.spec.capabilities())),
                Candidate(
                    node_id=node.node_id,
                    node_name=node.name,
                    kind=PEClass.GPU,
                    resource_id=gpu.resource_id,
                    resource_index=index,
                    pe=gpu,
                ),
            )
        )
    for index, rpe in enumerate(node.rpes):
        ads.append(
            (
                ClassAd(attributes=dict(rpe.device.capabilities())),
                Candidate(
                    node_id=node.node_id,
                    node_name=node.name,
                    kind=PEClass.RPE,
                    resource_id=rpe.resource_id,
                    resource_index=index,
                    pe=rpe,
                ),
            )
        )
        for caps in rpe.softcore_capabilities():
            ads.append(
                (
                    ClassAd(attributes=dict(caps)),
                    Candidate(
                        node_id=node.node_id,
                        node_name=node.name,
                        kind=PEClass.SOFTCORE,
                        resource_id=rpe.resource_id,
                        resource_index=index,
                        pe=rpe,
                        region_id=caps.get("region_id"),  # type: ignore[arg-type]
                    ),
                )
            )
    return ads


def classad_candidates(task: Task, nodes: list[Node]) -> list[Candidate]:
    """Table-II-style static matching, but via the ClassAd substrate.

    Device-specific bitstream pinning (a bitstream only targets one
    device model) is enforced the same way the typed matcher does it.
    """
    request = task_to_ad(task)
    bitstream = task.exec_req.artifacts.bitstream
    out: list[Candidate] = []
    for node in nodes:
        for offer, candidate in node_to_ads(node):
            if not symmetric_match(request, offer):
                continue
            if (
                candidate.kind is PEClass.RPE
                and bitstream is not None
                and offer.attributes.get("device_model") != bitstream.target_model
            ):
                continue
            out.append(candidate)
    return out
