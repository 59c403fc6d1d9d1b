"""Unit tests for the Resource Management System."""

import pytest

from repro.core.execreq import Artifacts, Equals, ExecReq, MinValue
from repro.core.node import Node
from repro.core.state import PEState
from repro.core.matching import Candidate
from repro.core.task import simple_task
from repro.grid.network import Network
from repro.grid.rms import ResourceManagementSystem, SchedulingError
from repro.hardware.bitstream import Bitstream, HDLDesign
from repro.hardware.catalog import device_by_model
from repro.hardware.fabric import RegionState
from repro.hardware.gpp import GPPSpec
from repro.hardware.softcore import RHO_VEX_4ISSUE
from repro.hardware.taxonomy import PEClass
from repro.scheduling import EnergyAwareScheduler


def build_rms(network=True):
    node = Node(node_id=0, name="Node_0")
    node.add_gpp(GPPSpec(cpu_model="Xeon", mips=2_000))
    node.add_rpe(device_by_model("XC5VLX155"), regions=2)
    net = Network.fully_connected([0], bandwidth_mbps=100.0, latency_s=0.01) if network else None
    rms = ResourceManagementSystem(network=net)
    rms.register_node(node)
    return rms, node


def gpp_task(task_id=0, t=1.0, in_bytes=0):
    return simple_task(
        task_id,
        ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
        t,
        in_bytes=in_bytes,
    )


def rpe_bitstream_task(task_id=1, slices=9_000, function="fft", model="XC5VLX155"):
    bs = Bitstream(task_id + 100, model, 2_000_000, slices, implements=function)
    return simple_task(
        task_id,
        ExecReq(
            node_type=PEClass.RPE,
            constraints=(MinValue("slices", slices),),
            artifacts=Artifacts(application_code="x", bitstream=bs),
        ),
        1.0,
        function=function,
    )


class TestRegistry:
    def test_register_unregister(self):
        rms, node = build_rms()
        assert rms.nodes == [node]
        rms.unregister_node(0)
        assert rms.nodes == []
        with pytest.raises(SchedulingError):
            rms.unregister_node(0)

    def test_double_register_rejected(self):
        rms, node = build_rms()
        with pytest.raises(SchedulingError, match="already"):
            rms.register_node(node)

    def test_status_table(self):
        rms, _ = build_rms()
        status = rms.status()
        assert 0 in status
        assert status[0].idle_gpp_count == 1

    def test_unknown_node_lookup(self):
        rms, _ = build_rms()
        with pytest.raises(SchedulingError):
            rms.node(42)


class TestPricing:
    def test_gpp_exec_time_uses_mips(self):
        rms, _ = build_rms(network=False)
        placement = rms.plan_placement(gpp_task(t=1.0))
        # 1000 MI on a 2000-MIPS GPP.
        assert placement.exec_time_s == pytest.approx(0.5)
        assert placement.transfer_time_s == 0.0

    def test_input_data_priced_over_network(self):
        rms, _ = build_rms()
        placement = rms.plan_placement(gpp_task(in_bytes=10_000_000))
        assert placement.transfer_time_s > 0

    def test_user_bitstream_adds_transfer_and_reconfig(self):
        rms, _ = build_rms()
        placement = rms.plan_placement(rpe_bitstream_task())
        assert placement.reconfig_time_s > 0
        assert placement.transfer_time_s > 0
        assert not placement.reused_configuration
        assert placement.setup_time_s == pytest.approx(
            placement.transfer_time_s + placement.reconfig_time_s
        )

    def test_reuse_zeroes_reconfiguration(self):
        rms, _ = build_rms()
        first = rms.plan_placement(rpe_bitstream_task())
        rms.run_placement(first)
        second = rms.plan_placement(rpe_bitstream_task())
        assert second.reused_configuration
        assert second.reconfig_time_s == 0.0
        assert second.bitstream is None

    def test_partial_reconfiguration_knob(self):
        rms_partial, _ = build_rms()
        rms_full, _ = build_rms()
        rms_full.partial_reconfiguration = False
        p = rms_partial.plan_placement(rpe_bitstream_task())
        f = rms_full.plan_placement(rpe_bitstream_task())
        assert f.reconfig_time_s > p.reconfig_time_s

    def test_synthesis_time_charged_for_hdl(self):
        rms, _ = build_rms()
        hdl = HDLDesign("acc", "VHDL", 500, estimated_slices=5_000, implements="fir")
        task = simple_task(
            2,
            ExecReq(
                node_type=PEClass.RPE,
                artifacts=Artifacts(application_code="x", hdl_design=hdl),
            ),
            1.0,
            function="fir",
        )
        placement = rms.plan_placement(task)
        assert placement.synthesis_time_s > 0

    def test_estimate_cost_matches_placement_total(self):
        rms, _ = build_rms()
        task = gpp_task(in_bytes=1_000_000)
        candidates = rms.find_candidates(task)
        cost = rms.estimate_cost_s(task, candidates[0])
        placement = rms.plan_placement(task)
        assert cost == pytest.approx(placement.total_time_s)


class TestLifecycle:
    def test_gpp_lifecycle(self):
        rms, node = build_rms(network=False)
        placement = rms.plan_placement(gpp_task())
        rms.commit(placement)
        assert node.gpps[0].state is PEState.BUSY
        rms.begin_execution(placement)
        rms.finish_execution(placement)
        assert node.gpps[0].state is PEState.IDLE

    def test_rpe_lifecycle_states(self):
        rms, node = build_rms()
        placement = rms.plan_placement(rpe_bitstream_task())
        rms.commit(placement)
        region = node.rpes[0].fabric.regions[0]
        assert region.state is RegionState.CONFIGURING
        rms.begin_execution(placement)
        assert region.state is RegionState.BUSY
        rms.finish_execution(placement)
        assert region.state is RegionState.CONFIGURED  # resident for reuse

    def test_double_commit_rejected(self):
        rms, _ = build_rms(network=False)
        placement = rms.plan_placement(gpp_task())
        rms.commit(placement)
        with pytest.raises(SchedulingError, match="already committed"):
            rms.commit(placement)
        rms.begin_execution(placement)
        with pytest.raises(SchedulingError, match="already executing"):
            rms.begin_execution(placement)

    def test_execution_requires_commit(self):
        rms, _ = build_rms(network=False)
        placement = rms.plan_placement(gpp_task())
        with pytest.raises(SchedulingError, match="committed"):
            rms.begin_execution(placement)
        with pytest.raises(SchedulingError, match="not executing"):
            rms.finish_execution(placement)

    def test_committed_gpp_not_offered_again(self):
        rms, _ = build_rms(network=False)
        p1 = rms.plan_placement(gpp_task(0))
        rms.commit(p1)
        assert rms.plan_placement(gpp_task(1)) is None

    def test_softcore_provisioning_placement(self):
        rms, node = build_rms(network=False)
        # Occupy the only GPP so the soft-core path is the only option...
        node.gpps[0].assign(99)
        task = simple_task(
            5,
            ExecReq(
                node_type=PEClass.SOFTCORE,
                artifacts=Artifacts(application_code="x", softcore=RHO_VEX_4ISSUE),
            ),
            1.0,
            workload_mi=1_000.0,
        )
        placement = rms.plan_placement(task)
        assert placement is not None
        assert placement.provision_softcore is RHO_VEX_4ISSUE
        assert placement.reconfig_time_s > 0
        total = rms.run_placement(placement)
        assert total > 0
        assert node.rpes[0].hosted_softcores  # core stays resident


class TestSchedulerIntegration:
    def test_custom_scheduler_is_consulted(self):
        calls = []

        class Probe:
            def choose(self, task, candidates, rms):
                calls.append(len(candidates))
                return None

        rms, _ = build_rms(network=False)
        rms.scheduler = Probe()
        assert rms.plan_placement(gpp_task()) is None
        assert calls == [1]


def build_wide_rms(scheduler=None):
    """Three nodes of two GPPs and one RPE each, on a full mesh."""
    rms = ResourceManagementSystem(
        network=Network.fully_connected([0, 1, 2], bandwidth_mbps=100.0, latency_s=0.01),
        scheduler=scheduler,
    )
    for node_id in range(3):
        node = Node(node_id=node_id, name=f"Node_{node_id}")
        node.add_gpp(GPPSpec(cpu_model="Xeon", mips=2_000 + 500 * node_id))
        node.add_gpp(GPPSpec(cpu_model="Atom", mips=1_000))
        node.add_rpe(device_by_model("XC5VLX155"), regions=2)
        rms.register_node(node)
    return rms


def two_input_task(task_id=9):
    """A GPP task with one input from producer task 7, one from the user."""
    return simple_task(
        task_id,
        ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
        1.0,
        sources=(7, -1),
        in_bytes=4_000_000,
        workload_mi=5_000.0,
    )


class TestQuoteMemo:
    @pytest.mark.parametrize(
        "scheduler", [None, EnergyAwareScheduler(), EnergyAwareScheduler(deadline_weight=100.0)]
    )
    def test_each_candidate_priced_once_per_plan(self, monkeypatch, scheduler):
        rms = build_wide_rms(scheduler)
        task = two_input_task()
        candidates = rms.find_candidates(task)
        assert len(candidates) == 6
        calls = []
        real = Network.transfer_time

        def counting(self, size_bytes, src, dst):
            calls.append((src, dst))
            return real(self, size_bytes, src, dst)

        monkeypatch.setattr(Network, "transfer_time", counting)
        placement = rms.plan_placement(task, data_sites={7: 1})
        assert placement is not None
        # Two input streams per candidate, each candidate priced once --
        # the winner included.
        assert len(calls) == 2 * len(candidates)

    def test_memo_cleared_after_plan(self):
        rms = build_wide_rms()
        assert rms._quotes is None
        assert rms.plan_placement(gpp_task()) is not None
        assert rms._quotes is None

    def test_memo_cleared_after_defer(self):
        class Decline:
            def choose(self, task, candidates, rms):
                for candidate in candidates:
                    rms.estimate_cost_s(task, candidate)
                return None

        rms = build_wide_rms(Decline())
        assert rms.plan_placement(gpp_task()) is None
        assert rms._quotes is None

    def test_memo_cleared_after_scheduling_error(self):
        class Unpriceable:
            def choose(self, task, candidates, rms):
                # An RPE candidate for a task with no hardware artifact.
                rpe = rms.node(0).rpes[0]
                return Candidate(0, "Node_0", PEClass.RPE, rpe.resource_id, 0)

        rms = build_wide_rms(Unpriceable())
        with pytest.raises(SchedulingError, match="unpriceable"):
            rms.plan_placement(gpp_task())
        assert rms._quotes is None

    @pytest.mark.parametrize("deadline_weight", [0.0, 100.0])
    def test_energy_aware_choice_matches_fresh_pricing(self, deadline_weight):
        scheduler = EnergyAwareScheduler(deadline_weight=deadline_weight)
        rms = build_wide_rms(scheduler)
        task = two_input_task()
        # Outside plan_placement there is no memo: every quote is fresh.
        unmemoized = scheduler.choose(task, rms.find_candidates(task), rms)
        placement = rms.plan_placement(task)
        assert placement.candidate == unmemoized
