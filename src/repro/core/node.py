"""The grid node model (Eq. 1, Figure 3).

.. math::

    Node(NodeID, GPP\\ Caps, RPE\\ Caps, state)

"A typical grid node contains a list of resources [...] Each resource
consists of a null terminated list of GPPs, RPEs, and their current
*state*. [...] The proposed node model is generic and adaptive in
adding/removing resources at runtime." (Section IV-A)

Python lists stand in for the paper's null-terminated C-style lists;
adding/removing resources at runtime is first-class (and exercised by
the fault-injection tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.state import (
    GPPStateSnapshot,
    GPUStateSnapshot,
    NodeStateSnapshot,
    PEState,
    RPEStateSnapshot,
)
from repro.hardware.gpu import GPUSpec
from repro.hardware.bitstream import Bitstream
from repro.hardware.fabric import Fabric, Region, RegionState
from repro.hardware.fpga import FPGADevice
from repro.hardware.gpp import GPPSpec
from repro.hardware.softcore import SoftcoreSpec

_node_ids = itertools.count(0)


class ResourceError(RuntimeError):
    """Illegal resource transition (assigning a busy GPP, removing a
    resource mid-task, ...)."""


@dataclass
class GPPResource:
    """One GPP within a node: an immutable spec plus mutable state."""

    resource_id: int
    spec: GPPSpec
    state: PEState = PEState.IDLE
    current_task_id: int | None = None

    def capabilities(self) -> dict[str, object]:
        caps = self.spec.capabilities()
        caps["resource_id"] = self.resource_id
        caps["state"] = self.state.value
        return caps

    def assign(self, task_id: int) -> None:
        if self.state is not PEState.IDLE:
            raise ResourceError(
                f"GPP {self.resource_id} is {self.state.value}; cannot assign task {task_id}"
            )
        self.state = PEState.BUSY
        self.current_task_id = task_id

    def release(self) -> None:
        if self.state is not PEState.BUSY:
            raise ResourceError(f"GPP {self.resource_id} is not busy; cannot release")
        self.state = PEState.IDLE
        self.current_task_id = None

    def set_offline(self) -> None:
        self.state = PEState.OFFLINE
        self.current_task_id = None

    def snapshot(self) -> GPPStateSnapshot:
        return GPPStateSnapshot(
            resource_id=self.resource_id,
            cpu_model=self.spec.cpu_model,
            state=self.state,
            current_task_id=self.current_task_id,
        )


@dataclass
class GPUResource:
    """One GPU within a node (Section III extension class).

    Same lifecycle as a GPP: an immutable spec plus idle/busy state.
    """

    resource_id: int
    spec: GPUSpec
    state: PEState = PEState.IDLE
    current_task_id: int | None = None

    def capabilities(self) -> dict[str, object]:
        caps = self.spec.capabilities()
        caps["resource_id"] = self.resource_id
        caps["state"] = self.state.value
        return caps

    def assign(self, task_id: int) -> None:
        if self.state is not PEState.IDLE:
            raise ResourceError(
                f"GPU {self.resource_id} is {self.state.value}; cannot assign task {task_id}"
            )
        self.state = PEState.BUSY
        self.current_task_id = task_id

    def release(self) -> None:
        if self.state is not PEState.BUSY:
            raise ResourceError(f"GPU {self.resource_id} is not busy; cannot release")
        self.state = PEState.IDLE
        self.current_task_id = None

    def set_offline(self) -> None:
        self.state = PEState.OFFLINE
        self.current_task_id = None

    def snapshot(self) -> GPUStateSnapshot:
        return GPUStateSnapshot(
            resource_id=self.resource_id,
            gpu_model=self.spec.model,
            state=self.state,
            current_task_id=self.current_task_id,
        )


@dataclass
class RPEResource:
    """One RPE within a node: a device plus its run-time fabric state.

    The fabric is the ground truth; the resource-level ``state`` is
    derived from region states.  A resource can host multiple
    configurations concurrently when the device supports partial
    reconfiguration, including soft-core CPUs provisioned for the
    Section III-A software-only fallback (tracked in ``hosted_softcores``).
    """

    resource_id: int
    device: FPGADevice
    fabric: Fabric
    offline: bool = False
    hosted_softcores: dict[int, SoftcoreSpec] = field(default_factory=dict)
    region_tasks: dict[int, int] = field(default_factory=dict)

    @classmethod
    def create(cls, resource_id: int, device: FPGADevice, regions: int = 1) -> "RPEResource":
        return cls(resource_id=resource_id, device=device, fabric=device.make_fabric(regions))

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def state(self) -> PEState:
        if self.offline:
            return PEState.OFFLINE
        states = {r.state for r in self.fabric.regions}
        if RegionState.CONFIGURING in states:
            return PEState.CONFIGURING
        if states == {RegionState.BUSY}:
            return PEState.BUSY
        return PEState.IDLE if self.fabric.available_slices > 0 else PEState.BUSY

    def capabilities(self) -> dict[str, object]:
        """Device capabilities plus live state (Eq. 1's ``RPE Caps``)."""
        caps = self.device.capabilities()
        caps["resource_id"] = self.resource_id
        caps["state"] = self.state.value
        caps["available_slices"] = self.fabric.available_slices
        caps["resident_functions"] = tuple(
            c.implements for c in self.fabric.resident_configurations()
        )
        return caps

    def softcore_capabilities(self) -> list[dict[str, object]]:
        """One descriptor per hosted soft core that is currently idle;
        these let the matchmaker treat the soft core as a GPP-class PE.
        """
        descriptors = []
        for region in self.fabric.regions:
            spec = self.hosted_softcores.get(region.region_id)
            if spec is not None and region.state is RegionState.CONFIGURED:
                caps = spec.capabilities(self.device)
                caps["resource_id"] = self.resource_id
                caps["region_id"] = region.region_id
                caps["state"] = "idle"
                descriptors.append(caps)
        return descriptors

    # ------------------------------------------------------------------
    # Configuration management
    # ------------------------------------------------------------------
    def host_softcore(self, spec: SoftcoreSpec) -> Region:
        """Provision a soft-core CPU onto this fabric (Section III-A:
        "configure a soft-core CPU on a currently available RPE").

        Returns the region now holding the core.  The caller (the
        simulator) accounts for the reconfiguration delay separately.
        """
        if self.offline:
            raise ResourceError(f"RPE {self.resource_id} is offline")
        if not spec.fits_on(self.device):
            raise ResourceError(
                f"soft core {spec.name} needs {spec.required_slices()} slices / "
                f"{spec.required_bram_kb()} KB BRAM; {self.device.model} cannot host it"
            )
        region = self.fabric.find_placeable(spec.required_slices())
        if region is None:
            raise ResourceError(
                f"RPE {self.resource_id}: no region can take {spec.required_slices()} slices"
            )
        if region.state is RegionState.CONFIGURED:
            self._evict(region)
        bitstream = Bitstream(
            bitstream_id=0,
            target_model=self.device.model,
            size_bytes=self.device.bitstream_size_bytes(spec.required_slices()),
            required_slices=spec.required_slices(),
            implements=f"softcore:{spec.name}",
            speedup_vs_gpp=1.0,
        )
        self.fabric.begin_reconfiguration(region, bitstream)
        self.fabric.finish_reconfiguration(region)
        self.hosted_softcores[region.region_id] = spec
        return region

    def _evict(self, region: Region) -> None:
        self.fabric.clear(region)
        self.hosted_softcores.pop(region.region_id, None)

    def begin_task(self, region: Region, task_id: int) -> None:
        """Mark *region* as executing *task_id*."""
        if self.offline:
            raise ResourceError(f"RPE {self.resource_id} is offline")
        self.fabric.occupy(region)
        self.region_tasks[region.region_id] = task_id

    def finish_task(self, region: Region) -> None:
        self.fabric.vacate(region)
        self.region_tasks.pop(region.region_id, None)

    def set_offline(self) -> None:
        self.offline = True

    def snapshot(self) -> RPEStateSnapshot:
        return RPEStateSnapshot(
            resource_id=self.resource_id,
            device_model=self.device.model,
            state=self.state,
            available_slices=self.fabric.available_slices,
            total_slices=self.fabric.total_slices,
            resident_functions=tuple(
                c.implements for c in self.fabric.resident_configurations()
            ),
        )


class Node:
    """A grid node (Eq. 1): lists of GPPs and RPEs plus dynamic state.

    Parameters
    ----------
    node_id:
        Explicit ``NodeID``, or ``None`` to auto-assign.
    name:
        Optional human-readable name (``"Node_0"`` in the case study).
    """

    def __init__(self, node_id: int | None = None, name: str = ""):
        self.node_id = next(_node_ids) if node_id is None else node_id
        self.name = name or f"Node_{self.node_id}"
        self.gpps: list[GPPResource] = []
        self.rpes: list[RPEResource] = []
        self.gpus: list[GPUResource] = []
        self._next_resource_id = itertools.count(0)
        #: Matchmaking's interned candidates on this node
        #: (:func:`repro.core.matching._interned`).
        self._candidates: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Runtime add/remove (Section IV-A's adaptivity claim)
    # ------------------------------------------------------------------
    def add_gpp(self, spec: GPPSpec) -> GPPResource:
        resource = GPPResource(resource_id=next(self._next_resource_id), spec=spec)
        self.gpps.append(resource)
        return resource

    def add_rpe(self, device: FPGADevice, regions: int = 1) -> RPEResource:
        resource = RPEResource.create(
            resource_id=next(self._next_resource_id), device=device, regions=regions
        )
        self.rpes.append(resource)
        return resource

    def add_gpu(self, spec: GPUSpec) -> GPUResource:
        """Attach a GPU (the Figure 1 extension class; Section III:
        the framework "is extendable to add more types of processing
        elements")."""
        resource = GPUResource(resource_id=next(self._next_resource_id), spec=spec)
        self.gpus.append(resource)
        return resource

    def remove_gpu(self, resource_id: int, *, force: bool = False) -> GPUResource:
        resource = self._find(self.gpus, resource_id, "GPU")
        if resource.state is PEState.BUSY and not force:
            raise ResourceError(
                f"GPU {resource_id} is executing task {resource.current_task_id}; "
                "pass force=True to remove anyway"
            )
        resource.set_offline()
        self.gpus.remove(resource)
        return resource

    def remove_gpp(self, resource_id: int, *, force: bool = False) -> GPPResource:
        resource = self._find(self.gpps, resource_id, "GPP")
        if resource.state is PEState.BUSY and not force:
            raise ResourceError(
                f"GPP {resource_id} is executing task {resource.current_task_id}; "
                "pass force=True to remove anyway"
            )
        resource.set_offline()
        self.gpps.remove(resource)
        return resource

    def remove_rpe(self, resource_id: int, *, force: bool = False) -> RPEResource:
        resource = self._find(self.rpes, resource_id, "RPE")
        if resource.region_tasks and not force:
            raise ResourceError(
                f"RPE {resource_id} is executing tasks {sorted(resource.region_tasks.values())}; "
                "pass force=True to remove anyway"
            )
        resource.set_offline()
        self.rpes.remove(resource)
        return resource

    @staticmethod
    def _find(pool, resource_id: int, kind: str):
        for resource in pool:
            if resource.resource_id == resource_id:
                return resource
        raise KeyError(f"node has no {kind} with resource_id {resource_id}")

    # ------------------------------------------------------------------
    # Eq. 1 views
    # ------------------------------------------------------------------
    def gpp_caps(self) -> list[dict[str, object]]:
        """Eq. 1's ``GPP Caps`` list."""
        return [g.capabilities() for g in self.gpps]

    def rpe_caps(self) -> list[dict[str, object]]:
        """Eq. 1's ``RPE Caps`` list."""
        return [r.capabilities() for r in self.rpes]

    def gpu_caps(self) -> list[dict[str, object]]:
        """Capability list for the GPU extension class."""
        return [g.capabilities() for g in self.gpus]

    def state(self) -> NodeStateSnapshot:
        """Eq. 1's ``state``: a frozen snapshot for the RMS status table."""
        return NodeStateSnapshot(
            node_id=self.node_id,
            gpps=tuple(g.snapshot() for g in self.gpps),
            rpes=tuple(r.snapshot() for r in self.rpes),
            gpus=tuple(g.snapshot() for g in self.gpus),
        )

    def as_tuple(self) -> tuple:
        """The literal ``Node(NodeID, GPP Caps, RPE Caps, state)`` tuple."""
        return (self.node_id, self.gpp_caps(), self.rpe_caps(), self.state())
