"""Unit tests for the scheduling strategies."""

import pytest

from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.rms import ResourceManagementSystem
from repro.grid.virtualizer import VirtualizationLayer
from repro.hardware.bitstream import Bitstream, HDLDesign
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.taxonomy import PEClass
from repro.scheduling import (
    ALL_STRATEGIES,
    BestFitAreaScheduler,
    EnergyAwareScheduler,
    FCFSScheduler,
    FirstFitScheduler,
    GPPOnlyScheduler,
    HybridCostScheduler,
    RandomScheduler,
)


def build_rms(scheduler):
    node0 = Node(node_id=0, name="Node_0")
    node0.add_gpp(GPPSpec(cpu_model="slow", mips=1_000))
    node0.add_rpe(device_by_model("XC5VLX330"))  # huge: wasteful for small tasks
    node1 = Node(node_id=1, name="Node_1")
    node1.add_gpp(GPPSpec(cpu_model="fast", mips=8_000))
    node1.add_rpe(device_by_model("XC5VLX50"))  # small: tight fit
    rms = ResourceManagementSystem(scheduler=scheduler)
    rms.register_node(node0)
    rms.register_node(node1)
    return rms


def gpp_task(task_id=0, t=1.0):
    return simple_task(
        task_id,
        ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
        t,
    )


def hw_task(task_id=0, slices=5_000, function="fft", model=None):
    constraints = (MinValue("slices", slices),)
    artifacts = dict(application_code="x")
    if model:
        bs = Bitstream(300 + task_id, model, 1_000_000, slices, implements=function)
        artifacts["bitstream"] = bs
    else:
        artifacts["hdl_design"] = HDLDesign(
            name=function, language="VHDL", source_lines=200,
            estimated_slices=slices, implements=function,
        )
    return simple_task(
        task_id,
        ExecReq(node_type=PEClass.RPE, constraints=constraints, artifacts=Artifacts(**artifacts)),
        1.0,
        function=function,
    )


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(ALL_STRATEGIES) == {
            "fcfs", "first-fit", "best-fit-area", "random", "hybrid-cost",
            "energy-aware", "gpp-only",
        }

    def test_every_strategy_places_a_simple_task(self):
        for name, cls in ALL_STRATEGIES.items():
            rms = build_rms(cls())
            placement = rms.plan_placement(gpp_task())
            assert placement is not None, name


class TestFCFS:
    def test_takes_first_candidate(self):
        rms = build_rms(FCFSScheduler())
        placement = rms.plan_placement(gpp_task())
        assert placement.candidate.node_id == 0

    def test_defers_on_empty(self):
        assert FCFSScheduler().choose(gpp_task(), [], None) is None


class TestFirstFit:
    def test_prefers_resident_configuration(self):
        rms = build_rms(FirstFitScheduler())
        first = rms.plan_placement(hw_task(0, function="fft"))
        rms.run_placement(first)
        assert first.candidate.node_id == 0  # first in node order
        # Make function resident on node 1 instead: force fresh rms.
        rms2 = build_rms(FirstFitScheduler())
        node1_rpe = rms2.node(1).rpes[0]
        bs = Bitstream(999, node1_rpe.device.model, 1_000, 5_000, implements="fft")
        region = node1_rpe.fabric.find_placeable(5_000)
        node1_rpe.fabric.begin_reconfiguration(region, bs)
        node1_rpe.fabric.finish_reconfiguration(region)
        placement = rms2.plan_placement(hw_task(1, function="fft"))
        assert placement.candidate.node_id == 1
        assert placement.reused_configuration


class TestBestFitArea:
    def test_picks_tightest_fabric(self):
        rms = build_rms(BestFitAreaScheduler())
        placement = rms.plan_placement(hw_task(slices=5_000))
        # XC5VLX50 (7,200) wastes 2,200; XC5VLX330 wastes 46,840.
        assert placement.candidate.node_id == 1

    def test_picks_fastest_gpp(self):
        rms = build_rms(BestFitAreaScheduler())
        placement = rms.plan_placement(gpp_task())
        assert placement.candidate.node_id == 1  # the 8,000-MIPS CPU

    def test_defers_when_nothing_fits(self):
        scheduler = BestFitAreaScheduler()
        assert scheduler.choose(hw_task(), [], None) is None

    def test_picks_fastest_gpu(self):
        """A GPU candidate is ranked by peak GFLOPS, not read as an RPE
        (which raised KeyError: the node has no RPE with its id)."""
        rms = ResourceManagementSystem(scheduler=BestFitAreaScheduler())
        for node_id, cores in ((0, 240), (1, 480), (2, 120)):
            node = Node(node_id=node_id, name=f"Node_{node_id}")
            node.add_gpp(GPPSpec(cpu_model="cpu", mips=2_000))
            node.add_gpu(GPUSpec(model=f"gpu{cores}", shader_cores=cores))
            rms.register_node(node)
        task = simple_task(
            0,
            ExecReq(node_type=PEClass.GPU, artifacts=Artifacts(application_code="x")),
            1.0,
        )
        placement = rms.plan_placement(task)
        assert placement.candidate.kind is PEClass.GPU
        assert placement.candidate.node_id == 1  # 480 shader cores


class TestHybridCost:
    def test_minimizes_total_time(self):
        rms = build_rms(HybridCostScheduler())
        placement = rms.plan_placement(gpp_task(t=8.0))
        # 8000 MI: 8 s on the slow CPU, 1 s on the fast one.
        assert placement.candidate.node_id == 1

    def test_reuse_beats_fresh_reconfiguration(self):
        rms = build_rms(HybridCostScheduler())
        first = rms.plan_placement(hw_task(0, function="fft"))
        rms.run_placement(first)
        second = rms.plan_placement(hw_task(1, function="fft"))
        assert second.reused_configuration
        assert second.candidate.node_id == first.candidate.node_id


class TestUnpriceable:
    """A candidate the RMS cannot price (SchedulingError or
    VirtualizationError) is skipped; any other error is a bug and
    propagates instead of silently dropping candidates."""

    COST_STRATEGIES = (HybridCostScheduler, EnergyAwareScheduler)

    @pytest.mark.parametrize("strategy", COST_STRATEGIES)
    def test_pricing_bug_propagates(self, monkeypatch, strategy):
        def broken(self, task, rpe, **kwargs):
            raise TypeError("pricing bug")

        monkeypatch.setattr(VirtualizationLayer, "plan_rpe_configuration", broken)
        rms = build_rms(strategy())
        with pytest.raises(TypeError, match="pricing bug"):
            rms.plan_placement(hw_task())

    @pytest.mark.parametrize("strategy", COST_STRATEGIES)
    def test_design_over_a_devices_bram_is_skipped_there(self, strategy):
        # 5,000 slices fit both devices; 500 KB of BRAM fits the
        # XC5VLX330 (1,152 KB) but not the XC5VLX50 (216 KB).
        design = HDLDesign("fat", "VHDL", 200, 5_000, estimated_bram_kb=500, implements="fat")
        task = simple_task(
            0,
            ExecReq(node_type=PEClass.RPE, artifacts=Artifacts(application_code="x", hdl_design=design)),
            1.0,
            function="fat",
        )
        rms = build_rms(strategy())
        assert {c.node_id for c in rms.find_candidates(task)} == {0, 1}
        placement = rms.plan_placement(task)
        assert placement.candidate.node_id == 0

    def test_energy_aware_prices_a_gpu(self):
        """A GPU candidate is priced with the GPU power model, not read
        as an RPE (which raised KeyError: the node has no RPE with its
        id)."""
        rms = ResourceManagementSystem(scheduler=EnergyAwareScheduler())
        node = Node(node_id=0, name="Node_0")
        node.add_gpu(GPUSpec(model="Tesla-C1060", shader_cores=240))
        rms.register_node(node)
        task = simple_task(
            0,
            ExecReq(node_type=PEClass.GPU, artifacts=Artifacts(application_code="x")),
            1.0,
        )
        placement = rms.plan_placement(task)
        assert placement.candidate.kind is PEClass.GPU


class TestGPPOnly:
    def test_never_uses_fabric(self):
        rms = build_rms(GPPOnlyScheduler())
        assert rms.plan_placement(hw_task()) is None

    def test_still_schedules_software(self):
        rms = build_rms(GPPOnlyScheduler())
        placement = rms.plan_placement(gpp_task())
        assert placement.candidate.kind is PEClass.GPP


class TestRandom:
    def test_deterministic_under_seed(self):
        def run(seed):
            rms = build_rms(RandomScheduler(seed=seed))
            return [rms.plan_placement(gpp_task(i)).candidate.node_id for i in range(2)]

        assert run(7) == run(7)

    def test_defers_on_empty(self):
        assert RandomScheduler().choose(gpp_task(), [], None) is None
