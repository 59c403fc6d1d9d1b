"""Property-based tests for the fabric model.

Invariant under any legal operation sequence: region areas are
conserved, at most one configuration per region, and the available/
free slice accounting always equals the sum over region states.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.hardware.bitstream import Bitstream
from repro.hardware.catalog import device_by_model
from repro.hardware.fabric import Fabric, FabricError, RegionState

DEVICE = device_by_model("XC5VLX110")


@settings(max_examples=30, deadline=None)
@given(regions=st.integers(min_value=1, max_value=16))
def test_partition_conserves_area(regions):
    fabric = Fabric.for_device(DEVICE, regions=regions)
    assert sum(r.slices for r in fabric.regions) == DEVICE.slices
    assert fabric.available_slices == DEVICE.slices


class FabricMachine(RuleBasedStateMachine):
    """Drive a 4-region fabric through random legal transitions."""

    def __init__(self):
        super().__init__()
        self.fabric = Fabric.for_device(DEVICE, regions=4)
        self.counter = 0

    def _bitstream(self, slices: int, name: str) -> Bitstream:
        self.counter += 1
        return Bitstream(
            bitstream_id=self.counter,
            target_model=DEVICE.model,
            size_bytes=DEVICE.bitstream_size_bytes(slices),
            required_slices=slices,
            implements=name,
        )

    @rule(idx=st.integers(min_value=0, max_value=3), frac=st.floats(min_value=0.1, max_value=1.0))
    def reconfigure(self, idx, frac):
        region = self.fabric.regions[idx]
        slices = max(1, int(region.slices * frac))
        bs = self._bitstream(slices, f"fn{self.counter % 3}")
        if region.is_available:
            self.fabric.begin_reconfiguration(region, bs)
            self.fabric.finish_reconfiguration(region)
        else:
            try:
                self.fabric.begin_reconfiguration(region, bs)
                raise AssertionError("reconfigured an unavailable region")
            except FabricError:
                pass

    @rule(idx=st.integers(min_value=0, max_value=3))
    def occupy(self, idx):
        region = self.fabric.regions[idx]
        if region.state is RegionState.CONFIGURED:
            self.fabric.occupy(region)
        else:
            try:
                self.fabric.occupy(region)
                raise AssertionError("occupied a non-configured region")
            except FabricError:
                pass

    @rule(idx=st.integers(min_value=0, max_value=3))
    def vacate(self, idx):
        region = self.fabric.regions[idx]
        if region.state is RegionState.BUSY:
            self.fabric.vacate(region)
        else:
            try:
                self.fabric.vacate(region)
                raise AssertionError("vacated a non-busy region")
            except FabricError:
                pass

    @rule(idx=st.integers(min_value=0, max_value=3))
    def clear(self, idx):
        region = self.fabric.regions[idx]
        if region.state is not RegionState.BUSY:
            self.fabric.clear(region)

    @invariant()
    def area_conserved(self):
        assert sum(r.slices for r in self.fabric.regions) == DEVICE.slices

    @invariant()
    def accounting_matches_states(self):
        available = sum(r.slices for r in self.fabric.regions if r.is_available)
        free = sum(
            r.slices for r in self.fabric.regions if r.state is RegionState.FREE
        )
        assert self.fabric.available_slices == available
        assert free <= available <= self.fabric.total_slices

    @invariant()
    def busy_regions_hold_configurations(self):
        for region in self.fabric.regions:
            if region.state in (RegionState.BUSY, RegionState.CONFIGURED):
                assert region.configuration is not None
            if region.state is RegionState.FREE:
                assert region.configuration is None

    @invariant()
    def resident_list_matches_regions(self):
        resident = self.fabric.resident_configurations()
        holders = [r for r in self.fabric.regions if r.configuration is not None]
        assert len(resident) == len(holders)


TestFabricStateMachine = FabricMachine.TestCase
