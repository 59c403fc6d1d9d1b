"""Reconfigurable fabric: area accounting and partial reconfiguration.

The paper's node state "can provide the current available reconfigurable
area or maintain the information of current configuration(s) on an RPE"
(Section IV-A), and reference [21] adds *partial reconfiguration* to the
DReAMSim nodes.  :class:`Fabric` is that run-time state: it divides a
device's slice area into partial-reconfiguration regions, places
:class:`Configuration` objects into them, and conserves area exactly
(a property the test suite checks with hypothesis).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.hardware.bitstream import Bitstream
from repro.hardware.fpga import FPGADevice

_config_ids = itertools.count(1)


class RegionState(enum.Enum):
    """Lifecycle of a partial-reconfiguration region."""

    FREE = "free"
    CONFIGURING = "configuring"
    CONFIGURED = "configured"
    BUSY = "busy"  # configured and currently executing a task


@dataclass
class Configuration:
    """A circuit currently resident in a fabric region.

    ``implements`` is matched against incoming tasks for configuration
    reuse: if the required function is already resident, the scheduler
    skips reconfiguration entirely (DReAMSim's configuration-reuse
    optimization, ablated in ``bench_dreamsim_reconfig``).
    """

    config_id: int
    bitstream: Bitstream
    implements: str

    @classmethod
    def from_bitstream(cls, bitstream: Bitstream) -> "Configuration":
        return cls(
            config_id=next(_config_ids),
            bitstream=bitstream,
            implements=bitstream.implements,
        )


@dataclass
class Region:
    """One partial-reconfiguration region of a fabric."""

    region_id: int
    slices: int
    state: RegionState = RegionState.FREE
    configuration: Configuration | None = None

    def __post_init__(self) -> None:
        if self.slices <= 0:
            raise ValueError("region must have positive slice area")

    @property
    def is_available(self) -> bool:
        """Free, or configured-but-idle (reusable or evictable)."""
        return self.state in (RegionState.FREE, RegionState.CONFIGURED)


class FabricError(RuntimeError):
    """Raised on illegal fabric transitions (double-free, overfill...)."""


class Fabric:
    """Run-time state of one RPE's reconfigurable area.

    A fabric is created from an :class:`FPGADevice` with a chosen region
    partition.  Devices without partial-reconfiguration support get a
    single region spanning the whole device, and any reconfiguration
    replaces everything.

    Invariants maintained (and property-tested):

    * ``sum(region.slices) == device.slices`` (area conservation);
    * a region holds at most one configuration;
    * a BUSY region can never be reconfigured or released.
    """

    def __init__(self, device: FPGADevice, regions: list[Region]):
        if not regions:
            raise ValueError("fabric needs at least one region")
        total = sum(r.slices for r in regions)
        if total != device.slices:
            raise ValueError(
                f"regions cover {total} slices but device has {device.slices}"
            )
        if len(regions) > 1 and not device.supports_partial_reconfig:
            raise ValueError(
                f"{device.model} does not support partial reconfiguration; "
                "use a single region"
            )
        self.device = device
        self.regions: list[Region] = regions

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_device(cls, device: FPGADevice, regions: int = 1) -> "Fabric":
        """Partition *device* into ``regions`` equal(ish) regions."""
        if regions <= 0:
            raise ValueError("region count must be positive")
        base, extra = divmod(device.slices, regions)
        if base == 0:
            raise ValueError(f"cannot split {device.slices} slices into {regions} regions")
        region_list = [
            Region(region_id=i, slices=base + (1 if i < extra else 0))
            for i in range(regions)
        ]
        return cls(device, region_list)

    # ------------------------------------------------------------------
    # Introspection (feeds the Node *state* attribute of Eq. 1)
    # ------------------------------------------------------------------
    @property
    def total_slices(self) -> int:
        return self.device.slices

    @property
    def available_slices(self) -> int:
        """Slices in regions that are free or hold an idle configuration."""
        return sum(r.slices for r in self.regions if r.is_available)

    def resident_configurations(self) -> list[Configuration]:
        """All configurations currently on the fabric (Eq. 1 state)."""
        return [r.configuration for r in self.regions if r.configuration is not None]

    def find_resident(self, implements: str) -> Region | None:
        """Idle region already configured with *implements*, if any."""
        for region in self.regions:
            if (
                region.state is RegionState.CONFIGURED
                and region.configuration is not None
                and region.configuration.implements == implements
            ):
                return region
        return None

    def find_placeable(self, required_slices: int) -> Region | None:
        """Smallest available region with at least *required_slices*.

        Best-fit keeps large regions free for large configurations; at
        equal size, FREE regions are preferred over evicting an idle
        resident configuration (which a later task might reuse).
        """
        best = None
        best_slices = best_rank = 0
        for region in self.regions:
            state = region.state
            if state is RegionState.FREE:
                rank = 0
            elif state is RegionState.CONFIGURED:
                rank = 1
            else:
                continue
            slices = region.slices
            if slices < required_slices:
                continue
            # Strict comparisons: the first region wins a tie, as min() does.
            if best is None or slices < best_slices or (
                slices == best_slices and rank < best_rank
            ):
                best, best_slices, best_rank = region, slices, rank
        return best

    def can_place(self, required_slices: int) -> bool:
        return self.find_placeable(required_slices) is not None

    def admit(
        self, implements: str | None, required_slices: int
    ) -> tuple[Region | None, bool]:
        """Whether a task can run here, in one pass over the regions:
        ``(find_resident(implements), admitted)``, where *admitted* is
        true when that region exists or ``can_place(required_slices)``.
        No resident is looked for when *implements* is empty.
        """
        fits = False
        for region in self.regions:
            state = region.state
            if state is RegionState.CONFIGURED:
                configuration = region.configuration
                if (
                    implements
                    and configuration is not None
                    and configuration.implements == implements
                ):
                    return region, True
            elif state is not RegionState.FREE:
                continue
            if region.slices >= required_slices:
                fits = True
        return None, fits

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def begin_reconfiguration(self, region: Region, bitstream: Bitstream) -> Configuration:
        """Start loading *bitstream* into *region*.

        Returns the new :class:`Configuration`; the region enters
        CONFIGURING until :meth:`finish_reconfiguration`.
        """
        self._check_owned(region)
        if not bitstream.targets(self.device):
            raise FabricError(
                f"bitstream targets {bitstream.target_model} "
                f"but fabric device is {self.device.model}"
            )
        if bitstream.required_slices > region.slices:
            raise FabricError(
                f"bitstream needs {bitstream.required_slices} slices; "
                f"region {region.region_id} has {region.slices}"
            )
        if not region.is_available:
            raise FabricError(
                f"region {region.region_id} is {region.state.value}; cannot reconfigure"
            )
        configuration = Configuration.from_bitstream(bitstream)
        region.state = RegionState.CONFIGURING
        region.configuration = configuration
        return configuration

    def finish_reconfiguration(self, region: Region) -> None:
        self._check_owned(region)
        if region.state is not RegionState.CONFIGURING:
            raise FabricError(
                f"region {region.region_id} is {region.state.value}, not configuring"
            )
        region.state = RegionState.CONFIGURED

    def reconfiguration_time_s(self, bitstream: Bitstream, *, partial: bool = True) -> float:
        """Seconds to load *bitstream* through the configuration port.

        Full-device reconfiguration (``partial=False``, or a device
        without PR support) always pays for the whole device.
        """
        if partial and self.device.supports_partial_reconfig:
            return self.device.reconfiguration_time_s(bitstream.required_slices)
        return self.device.reconfiguration_time_s(None)

    def occupy(self, region: Region) -> None:
        """Mark a configured region as executing a task."""
        self._check_owned(region)
        if region.state is not RegionState.CONFIGURED:
            raise FabricError(
                f"region {region.region_id} is {region.state.value}; cannot occupy"
            )
        region.state = RegionState.BUSY

    def vacate(self, region: Region) -> None:
        """Task finished; the configuration stays resident for reuse."""
        self._check_owned(region)
        if region.state is not RegionState.BUSY:
            raise FabricError(
                f"region {region.region_id} is {region.state.value}; cannot vacate"
            )
        region.state = RegionState.CONFIGURED

    def clear(self, region: Region) -> None:
        """Evict an idle configuration, returning the region to FREE."""
        self._check_owned(region)
        if region.state is RegionState.BUSY:
            raise FabricError(f"region {region.region_id} is busy; cannot clear")
        region.state = RegionState.FREE
        region.configuration = None

    def _check_owned(self, region: Region) -> None:
        if region not in self.regions:
            raise FabricError(f"region {region.region_id} does not belong to this fabric")
