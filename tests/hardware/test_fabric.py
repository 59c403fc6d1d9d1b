"""Unit tests for the reconfigurable-fabric model."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.bitstream import Bitstream
from repro.hardware.catalog import device_by_model
from repro.hardware.fabric import Fabric, FabricError, Region, RegionState


@pytest.fixture
def device():
    return device_by_model("XC5VLX110")  # 17,280 slices, PR-capable


@pytest.fixture
def fabric(device):
    return Fabric.for_device(device, regions=3)


def bitstream_for(device, slices=1_000, implements="fft", bs_id=1):
    return Bitstream(
        bitstream_id=bs_id,
        target_model=device.model,
        size_bytes=device.bitstream_size_bytes(slices),
        required_slices=slices,
        implements=implements,
    )


class TestConstruction:
    def test_regions_cover_device_exactly(self, device):
        for n in (1, 2, 3, 7):
            fabric = Fabric.for_device(device, regions=n)
            assert sum(r.slices for r in fabric.regions) == device.slices

    def test_uneven_split_distributes_remainder(self, device):
        fabric = Fabric.for_device(device, regions=7)
        sizes = [r.slices for r in fabric.regions]
        assert max(sizes) - min(sizes) <= 1

    def test_wrong_total_rejected(self, device):
        with pytest.raises(ValueError, match="slices"):
            Fabric(device, [Region(0, device.slices - 1)])

    def test_non_pr_device_rejects_multiple_regions(self):
        spartan = device_by_model("XC3S1000")
        with pytest.raises(ValueError, match="partial reconfiguration"):
            Fabric.for_device(spartan, regions=2)

    def test_zero_regions_rejected(self, device):
        with pytest.raises(ValueError):
            Fabric.for_device(device, regions=0)

    def test_too_many_regions_rejected(self, device):
        with pytest.raises(ValueError):
            Fabric.for_device(device, regions=device.slices + 1)


class TestLifecycle:
    def test_full_configure_occupy_vacate_clear(self, fabric, device):
        region = fabric.find_placeable(1_000)
        bs = bitstream_for(device)
        fabric.begin_reconfiguration(region, bs)
        assert region.state is RegionState.CONFIGURING
        fabric.finish_reconfiguration(region)
        assert region.state is RegionState.CONFIGURED
        fabric.occupy(region)
        assert region.state is RegionState.BUSY
        fabric.vacate(region)
        assert region.state is RegionState.CONFIGURED
        assert fabric.find_resident("fft") is region
        fabric.clear(region)
        assert region.state is RegionState.FREE
        assert fabric.find_resident("fft") is None

    def test_cannot_occupy_free_region(self, fabric):
        with pytest.raises(FabricError):
            fabric.occupy(fabric.regions[0])

    def test_cannot_reconfigure_busy_region(self, fabric, device):
        region = fabric.regions[0]
        fabric.begin_reconfiguration(region, bitstream_for(device))
        fabric.finish_reconfiguration(region)
        fabric.occupy(region)
        with pytest.raises(FabricError, match="busy"):
            fabric.begin_reconfiguration(region, bitstream_for(device, bs_id=2))

    def test_cannot_clear_busy_region(self, fabric, device):
        region = fabric.regions[0]
        fabric.begin_reconfiguration(region, bitstream_for(device))
        fabric.finish_reconfiguration(region)
        fabric.occupy(region)
        with pytest.raises(FabricError, match="busy"):
            fabric.clear(region)

    def test_cannot_finish_without_begin(self, fabric):
        with pytest.raises(FabricError):
            fabric.finish_reconfiguration(fabric.regions[0])

    def test_wrong_device_bitstream_rejected(self, fabric):
        other = device_by_model("XC5VLX220")
        bs = bitstream_for(other)
        with pytest.raises(FabricError, match="targets"):
            fabric.begin_reconfiguration(fabric.regions[0], bs)

    def test_oversized_bitstream_rejected(self, fabric, device):
        region = fabric.regions[0]
        bs = bitstream_for(device, slices=region.slices + 1)
        with pytest.raises(FabricError, match="slices"):
            fabric.begin_reconfiguration(region, bs)

    def test_foreign_region_rejected(self, fabric, device):
        stranger = Region(region_id=99, slices=10)
        with pytest.raises(FabricError, match="belong"):
            fabric.occupy(stranger)


class TestQueries:
    def test_available_slices_tracks_states(self, fabric, device):
        total = fabric.total_slices
        assert fabric.available_slices == total
        region = fabric.regions[0]
        fabric.begin_reconfiguration(region, bitstream_for(device))
        assert fabric.available_slices == total - region.slices
        fabric.finish_reconfiguration(region)
        assert fabric.available_slices == total  # configured+idle is available
        fabric.occupy(region)
        assert fabric.available_slices == total - region.slices

    def test_find_placeable_prefers_smallest_fit(self, device):
        fabric = Fabric(
            device,
            [
                Region(0, 10_000),
                Region(1, 5_000),
                Region(2, device.slices - 15_000),
            ],
        )
        assert fabric.find_placeable(3_000).region_id in (1, 2)
        picked = fabric.find_placeable(3_000)
        assert picked.slices == min(
            r.slices for r in fabric.regions if r.slices >= 3_000
        )

    def test_find_placeable_none_when_too_big(self, fabric):
        assert fabric.find_placeable(10**9) is None

    def test_resident_configurations_listed(self, fabric, device):
        fabric.begin_reconfiguration(fabric.regions[0], bitstream_for(device, implements="a"))
        fabric.finish_reconfiguration(fabric.regions[0])
        fabric.begin_reconfiguration(fabric.regions[1], bitstream_for(device, implements="b", bs_id=2))
        fabric.finish_reconfiguration(fabric.regions[1])
        names = {c.implements for c in fabric.resident_configurations()}
        assert names == {"a", "b"}

    def test_find_resident_ignores_busy_regions(self, fabric, device):
        region = fabric.regions[0]
        fabric.begin_reconfiguration(region, bitstream_for(device))
        fabric.finish_reconfiguration(region)
        fabric.occupy(region)
        assert fabric.find_resident("fft") is None


@st.composite
def fabric_states(draw):
    """A five-region XC5VLX110 fabric whose regions are free, configuring,
    configured or busy, configured with ``a``, ``b`` or ``c``."""
    device = device_by_model("XC5VLX110")
    fabric = Fabric.for_device(device, regions=5)
    for bs_id, region in enumerate(fabric.regions):
        state = draw(st.sampled_from(list(RegionState)))
        if state is RegionState.FREE:
            continue
        fabric.begin_reconfiguration(region, bitstream_for(
            device, slices=draw(st.integers(1, region.slices)),
            implements=draw(st.sampled_from("abc")), bs_id=bs_id,
        ))
        if state is not RegionState.CONFIGURING:
            fabric.finish_reconfiguration(region)
        if state is RegionState.BUSY:
            fabric.occupy(region)
    return fabric


class TestAdmit:
    @given(
        fabric=fabric_states(),
        implements=st.sampled_from(["", "a", "b", "z"]),
        required=st.integers(0, 5_000),
    )
    def test_admit_is_find_resident_or_can_place(self, fabric, implements, required):
        resident = fabric.find_resident(implements) if implements else None
        assert fabric.admit(implements, required) == (
            resident, resident is not None or fabric.can_place(required)
        )


class TestReconfigurationTiming:
    def test_partial_cheaper_than_full(self, fabric, device):
        bs = bitstream_for(device, slices=500)
        assert fabric.reconfiguration_time_s(bs, partial=True) < fabric.reconfiguration_time_s(
            bs, partial=False
        )

    def test_non_pr_device_always_pays_full(self):
        spartan = device_by_model("XC3S1000")
        fabric = Fabric.for_device(spartan, regions=1)
        bs = Bitstream(
            bitstream_id=1,
            target_model=spartan.model,
            size_bytes=1000,
            required_slices=100,
            implements="x",
        )
        assert fabric.reconfiguration_time_s(bs, partial=True) == pytest.approx(
            spartan.reconfiguration_time_s(None)
        )
