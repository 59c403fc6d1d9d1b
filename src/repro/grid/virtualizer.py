"""The virtualization layer (Section IV's framework glue).

"Virtualization allows several application tasks to utilize resources
by putting an abstraction layer between the tasks and resources."
(Section I).  This module is that abstraction layer: it owns the three
provider-side mechanisms the use-case scenarios demand:

* :class:`SynthesisService` -- Section III-B2's "mechanism and tools to
  generate device specific bitstreams for the user": runs the modeled
  CAD flow, caches results per (design, device), and tracks which
  providers "possess the synthesis CAD tools".
* :class:`SoftcoreProvisioner` -- Section III-A's fallback: "configure
  a soft-core CPU on a currently available RPE" when no GPP is free.
* :class:`BitstreamRepository` -- stores user and synthesized
  bitstreams keyed by (function, device model); lookups drive
  configuration reuse across tasks.

:class:`VirtualizationLayer` bundles the three and resolves, per task
and abstraction level, *what* must be configured on an RPE before the
task can start.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.abstraction import AbstractionLevel
from repro.core.node import RPEResource
from repro.core.task import Task
from repro.hardware.bitstream import Bitstream, HDLDesign, SynthesisResult, synthesize
from repro.hardware.fpga import FPGADevice
from repro.hardware.softcore import SoftcoreSpec


class VirtualizationError(RuntimeError):
    """The virtualization layer cannot satisfy a configuration request."""


class SynthesisService:
    """The provider-side CAD flow with result caching.

    Section III-B2: "the service provider is required to possess the
    synthesis CAD tools"; Section III-B3: at the bitstream level "the
    service providers are not required to possess the CAD tools".
    ``has_cad_tools=False`` models the latter kind of provider, which
    refuses HDL synthesis outright.
    """

    def __init__(self, *, has_cad_tools: bool = True):
        self.has_cad_tools = has_cad_tools
        self._cache: dict[tuple[str, str], SynthesisResult] = {}
        self.synthesis_runs = 0
        self.cache_hits = 0

    def synthesize(self, design: HDLDesign, device: FPGADevice) -> SynthesisResult:
        """Produce (or reuse) a bitstream of *design* for *device*.

        Raises :class:`VirtualizationError` when the provider has no CAD
        tools or the design does not fit the device (slices, BRAM or
        DSP): either way this device cannot run the design."""
        if not self.has_cad_tools:
            raise VirtualizationError(
                "this provider has no CAD tools; submit a device-specific "
                "bitstream instead (Section III-B3)"
            )
        key = (design.name, device.model)
        if key in self._cache:
            self.cache_hits += 1
            return self._cache[key]
        try:
            result = synthesize(design, device)
        except ValueError as exc:
            raise VirtualizationError(str(exc)) from exc
        self._cache[key] = result
        self.synthesis_runs += 1
        return result


class BitstreamRepository:
    """Bitstream store keyed by (implements, target device model).

    A hit means a previously synthesized or user-submitted bitstream can
    be shipped instead of re-synthesizing -- and, if the configuration is
    already resident on the target fabric, reused without any transfer.
    """

    def __init__(self) -> None:
        self._store: dict[tuple[str, str], Bitstream] = {}

    def put(self, bitstream: Bitstream) -> None:
        if not bitstream.implements:
            raise ValueError("repository bitstreams must declare what they implement")
        self._store[(bitstream.implements, bitstream.target_model)] = bitstream

    def get(self, implements: str, device_model: str) -> Bitstream | None:
        return self._store.get((implements, device_model))

    def __len__(self) -> int:
        return len(self._store)

    def for_function(self, implements: str) -> list[Bitstream]:
        """All stored bitstreams of one function across device models."""
        return [b for (f, _), b in self._store.items() if f == implements]


class SoftcoreProvisioner:
    """Chooses and applies soft-core configurations on RPE fabric.

    The default core used for the Section III-A software-only fallback
    is configurable; grid managers may register additional cores (the
    node model lets them "add more parameter specifications").
    """

    def __init__(self, default_core: SoftcoreSpec | None = None):
        from repro.hardware.softcore import RHO_VEX_4ISSUE

        self.default_core = default_core or RHO_VEX_4ISSUE
        self.registry: dict[str, SoftcoreSpec] = {self.default_core.name: self.default_core}
        self.provisioned = 0

    def register(self, spec: SoftcoreSpec) -> None:
        self.registry[spec.name] = spec

    def core(self, name: str) -> SoftcoreSpec:
        try:
            return self.registry[name]
        except KeyError:
            available = ", ".join(sorted(self.registry))
            raise VirtualizationError(
                f"unknown soft core {name!r}; registered: {available}"
            ) from None

    def provision(self, rpe: RPEResource, spec: SoftcoreSpec | None = None):
        """Host *spec* (default core if None) on *rpe*; returns the
        region and the reconfiguration time the caller must account for.
        """
        core = spec or self.default_core
        region = rpe.host_softcore(core)
        self.provisioned += 1
        reconfig_time = rpe.device.reconfiguration_time_s(core.required_slices())
        return region, reconfig_time


@dataclass(frozen=True)
class ConfigurationPlan:
    """What must happen on an RPE before a task can execute there.

    ``bitstream is None`` means the required configuration is already
    resident (configuration reuse) -- no transfer, no reconfiguration.
    """

    bitstream: Bitstream | None
    synthesis_time_s: float = 0.0

    @property
    def needs_reconfiguration(self) -> bool:
        return self.bitstream is not None


class VirtualizationLayer:
    """Resolves task requirements into fabric configurations."""

    def __init__(
        self,
        *,
        synthesis: SynthesisService | None = None,
        repository: BitstreamRepository | None = None,
        provisioner: SoftcoreProvisioner | None = None,
    ):
        self.synthesis = synthesis or SynthesisService()
        self.repository = repository or BitstreamRepository()
        self.provisioner = provisioner or SoftcoreProvisioner()

    def plan_rpe_configuration(
        self, task: Task, rpe: RPEResource, *, resident: bool | None = None
    ) -> ConfigurationPlan:
        """Decide how *rpe* gets the circuit *task* needs.

        Resolution order implements the abstraction levels top-down:

        1. configuration reuse -- the function is already resident;
        2. device-specific bitstream shipped by the user (III-B3);
        3. repository hit for (function, device);
        4. synthesis from the user's HDL design (III-B2).

        *resident* is whether the function is resident on *rpe*, when
        the caller already looked on the current fabric state
        (matchmaking does); ``None`` looks.
        """
        if resident is None:
            resident = bool(task.function) and (
                rpe.fabric.find_resident(task.function) is not None
            )
        if resident:
            return ConfigurationPlan(bitstream=None)

        artifacts = task.exec_req.artifacts
        if artifacts.bitstream is not None:
            if not artifacts.bitstream.targets(rpe.device):
                raise VirtualizationError(
                    f"task {task.task_id}: bitstream targets "
                    f"{artifacts.bitstream.target_model}, not {rpe.device.model}"
                )
            return ConfigurationPlan(bitstream=artifacts.bitstream)

        if task.function:
            cached = self.repository.get(task.function, rpe.device.model)
            if cached is not None:
                return ConfigurationPlan(bitstream=cached)

        if artifacts.hdl_design is not None:
            # Planning is pure: the result enters the repository only when
            # the RMS *commits* a placement using it (estimating the cost
            # of a candidate must not change what later plans see).
            result = self.synthesis.synthesize(artifacts.hdl_design, rpe.device)
            return ConfigurationPlan(
                bitstream=result.bitstream, synthesis_time_s=result.synthesis_time_s
            )

        raise VirtualizationError(
            f"task {task.task_id} targets an RPE but supplies neither a "
            "bitstream nor an HDL design, and no repository/resident "
            "configuration implements {!r}".format(task.function or "<unnamed>")
        )

    @staticmethod
    def required_abstraction_level(task: Task) -> AbstractionLevel:
        """Infer the Figure 2 level a task was submitted at from its
        artifacts (used when the submitter did not state one)."""
        artifacts = task.exec_req.artifacts
        if artifacts.bitstream is not None:
            return AbstractionLevel.DEVICE_SPECIFIC_HW
        if artifacts.hdl_design is not None:
            return AbstractionLevel.USER_DEFINED_HW
        if artifacts.softcore is not None:
            return AbstractionLevel.PREDETERMINED_HW
        return AbstractionLevel.SOFTWARE_ONLY
