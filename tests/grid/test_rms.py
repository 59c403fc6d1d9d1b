"""Unit tests for the Resource Management System."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.execreq import Artifacts, Equals, ExecReq, MinValue
from repro.core.node import Node
from repro.core.state import PEState
from repro.core.matching import Candidate
from repro.core.task import simple_task
from repro.grid.network import USER_SITE, Network
from repro.grid.rms import ResourceManagementSystem, SchedulingError
from repro.hardware.bitstream import Bitstream, HDLDesign
from repro.hardware.catalog import device_by_model
from repro.hardware.fabric import RegionState
from repro.hardware.gpp import GPPSpec
from repro.hardware.gpu import GPUSpec
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


def plan_memos(rms):
    """The per-plan pricing state: ``None`` outside plan_placement."""
    return rms._classes, rms._staging, rms._matched


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
        # Two input streams per candidate site, each site staged once per
        # plan -- the winner included: 6 calls for 6 candidates on 3 sites.
        sites = {rms.site_of(candidate.node_id) for candidate in candidates}
        assert len(sites) == 3
        assert len(calls) == 2 * len(sites)
        assert len(set(calls)) == len(calls)

    def test_memo_cleared_after_plan(self):
        rms = build_wide_rms()
        assert plan_memos(rms) == (None, None, None)
        assert rms.plan_placement(gpp_task()) is not None
        assert plan_memos(rms) == (None, None, None)

    def test_memo_cleared_after_defer(self):
        class Decline:
            def choose(self, task, candidates, rms):
                for candidate in candidates:
                    rms.estimate_cost_s(task, candidate)
                return None

        rms = build_wide_rms(Decline())
        assert rms.plan_placement(gpp_task()) is None
        assert plan_memos(rms) == (None, None, None)

    def test_memo_cleared_after_scheduling_error(self):
        class Unpriceable:
            def choose(self, task, candidates, rms):
                # An RPE candidate for a task with no hardware artifact.
                rpe = rms.node(0).rpes[0]
                return Candidate(0, "Node_0", PEClass.RPE, rpe.resource_id, 0, rpe)

        rms = build_wide_rms(Unpriceable())
        with pytest.raises(SchedulingError, match="unpriceable"):
            rms.plan_placement(gpp_task())
        assert plan_memos(rms) == (None, None, None)

    @pytest.mark.parametrize("deadline_weight", [0.0, 100.0])
    def test_energy_aware_choice_matches_fresh_pricing(self, deadline_weight):
        scheduler = EnergyAwareScheduler(deadline_weight=deadline_weight)
        rms = build_wide_rms(scheduler)
        task = two_input_task()
        # Outside plan_placement there is no memo: every quote is fresh.
        unmemoized = scheduler.choose(task, rms.find_candidates(task), rms)
        placement = rms.plan_placement(task)
        assert placement.candidate == unmemoized


def absent_model_task(task_id=1):
    """An RPE task whose bitstream targets a device no wide-grid node
    has: it never finds a candidate."""
    return rpe_bitstream_task(task_id, model="XC5VLX330")


@pytest.fixture
def scans(monkeypatch):
    """Counts ``find_candidates`` calls on every RMS."""
    calls = []
    real = ResourceManagementSystem.find_candidates

    def counting(self, task, **kwargs):
        calls.append(task.task_id)
        return real(self, task, **kwargs)

    monkeypatch.setattr(ResourceManagementSystem, "find_candidates", counting)
    return calls


class TestRoundMemo:
    """The dispatch-round infeasibility memo: inside one round, a
    requirement that found no candidate is not matched again until the
    next commit."""

    def test_no_memo_outside_a_round(self, scans):
        rms = build_wide_rms()
        assert rms.plan_placement(absent_model_task(1)) is None
        assert rms.plan_placement(absent_model_task(2)) is None
        assert len(scans) == 2
        assert rms._infeasible is None

    def test_same_key_is_matched_once_per_round(self, scans):
        from repro.sim.telemetry import TelemetryRegistry

        rms = build_wide_rms()
        rms.telemetry = TelemetryRegistry()
        assert rms.open_round()
        # Different ids and input sizes, one requirement.
        first = absent_model_task(1)
        second = replace(
            first,
            task_id=2,
            exec_req=replace(
                first.exec_req,
                artifacts=replace(first.exec_req.artifacts, input_data_bytes=5_000),
            ),
        )
        assert rms.plan_placement(first) is None
        assert rms.plan_placement(second) is None
        assert scans == [1]
        deferred = rms.telemetry.counter("rms_placements_deferred_total")
        assert deferred.value == 2
        rms.close_round()
        assert rms._infeasible is None

    @pytest.mark.parametrize("change", ["function", "constraint", "bitstream", "exclude"])
    def test_a_different_key_is_matched_again(self, scans, change):
        rms = build_wide_rms()
        rms.open_round()
        base = absent_model_task(1)
        assert rms.plan_placement(base) is None
        req = base.exec_req
        exclude = None
        if change == "function":
            other = replace(base, task_id=2, function="fir")
        elif change == "constraint":
            other = replace(
                base, task_id=2, exec_req=req.with_constraints(MinValue("bram_kb", 1))
            )
        elif change == "bitstream":
            other = absent_model_task(2)  # a fresh bitstream id
            assert other.exec_req.artifacts.bitstream != req.artifacts.bitstream
        else:
            other, exclude = replace(base, task_id=2), {1}
        assert rms.plan_placement(other, exclude_nodes=exclude) is None
        assert scans == [1, 2]

    def test_commit_clears_the_memo(self, scans):
        rms = build_wide_rms()
        rms.open_round()
        assert rms.plan_placement(absent_model_task(1)) is None
        assert rms._infeasible
        placement = rms.plan_placement(gpp_task(5))
        rms.commit(placement)
        assert rms._infeasible == set()
        assert rms.plan_placement(absent_model_task(2)) is None
        assert scans == [1, 5, 2]

    def test_gated_requests_are_not_memoized(self, scans):
        from repro.sim.admission import AdmissionController, AdmissionSpec, UtilizationSpec

        rms = build_wide_rms()
        rms.admission = AdmissionController(
            AdmissionSpec(utilization=UtilizationSpec(threshold=0.1))
        )
        for task_id in range(2):  # 2 of 12 processing elements busy
            rms.commit(rms.plan_placement(gpp_task(task_id)))
        rms.open_round()
        assert rms.plan_placement(absent_model_task(7)) is None
        assert rms.plan_placement(absent_model_task(8)) is None
        assert rms.gated == 2  # the round's count
        assert scans == [0, 1]  # the gate ran ahead of matchmaking
        assert rms._infeasible == set()

    def test_all_inf_choices_are_not_memoized(self, scans):
        rms = build_wide_rms()
        for node_id in range(3):
            rms.network.sever(USER_SITE, node_id)
        rms.open_round()
        task = gpp_task(1, in_bytes=1_000)
        assert rms.plan_placement(task) is None  # every candidate costs inf
        assert rms.plan_placement(replace(task, task_id=2)) is None
        assert scans == [1, 2]
        assert rms._infeasible == set()

    def test_scheduling_errors_are_not_memoized(self, scans):
        class Unpriceable:
            def choose(self, task, candidates, rms):
                rpe = rms.node(0).rpes[0]
                return Candidate(0, "Node_0", PEClass.RPE, rpe.resource_id, 0, rpe)

        rms = build_wide_rms(Unpriceable())
        rms.open_round()
        for task_id in (1, 2):
            with pytest.raises(SchedulingError, match="unpriceable"):
                rms.plan_placement(gpp_task(task_id))
        assert scans == [1, 2]
        assert rms._infeasible == set()

    def test_a_nested_round_leaves_the_outer_one_open(self):
        rms = build_wide_rms()
        assert rms.open_round()
        assert not rms.open_round()
        assert rms._infeasible is not None
        rms.close_round()
        assert rms._infeasible is None

    def test_round_closes_when_the_pass_raises(self, monkeypatch):
        from repro.sim.simulator import DReAMSim

        seen = []

        def boom(self, entry):
            seen.append(self.rms._infeasible)
            raise RuntimeError("boom")

        monkeypatch.setattr(DReAMSim, "_try_dispatch", boom)
        rms = build_wide_rms()
        sim = DReAMSim(rms)
        sim.submit_workload([(0.0, gpp_task())])
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert seen == [set()]  # the pass ran inside a round ...
        assert rms._infeasible is None  # ... which the raise still closed


MODELS = ("XC5VLX155", "XC5VLX110", "XC5VLX330")
FUNCTIONS = ("", "fft", "fir")


@st.composite
def grid_states(draw):
    """A random grid: busy and idle GPPs/GPUs, offline RPEs, and fabric
    regions that are free, resident-configured, busy or hosting a soft
    core."""
    rms = ResourceManagementSystem()
    fresh_ids = iter(range(1_000, 2_000))
    for node_id in range(draw(st.integers(1, 3))):
        node = Node(node_id=node_id, name=f"Node_{node_id}")
        for _ in range(draw(st.integers(0, 2))):
            gpp = node.add_gpp(GPPSpec(cpu_model="x", mips=draw(st.sampled_from((800, 2_000)))))
            if draw(st.booleans()):
                gpp.assign(next(fresh_ids))
        if draw(st.booleans()):
            gpu = node.add_gpu(GPUSpec(model="Tesla-C1060", shader_cores=240))
            if draw(st.booleans()):
                gpu.assign(next(fresh_ids))
        for _ in range(draw(st.integers(0, 3))):
            model = draw(st.sampled_from(MODELS))
            rpe = node.add_rpe(device_by_model(model), regions=draw(st.integers(1, 3)))
            core = RHO_VEX_4ISSUE
            fits = core.fits_on(rpe.device) and rpe.fabric.can_place(core.required_slices())
            if fits and draw(st.booleans()):
                rpe.host_softcore(core)
            for region in rpe.fabric.regions:
                if region.configuration is not None or not draw(st.booleans()):
                    continue
                function = draw(st.sampled_from(FUNCTIONS[1:]))
                slices = draw(st.integers(1_000, region.slices))
                bitstream = Bitstream(next(fresh_ids), model, 1_000, slices, implements=function)
                rpe.fabric.begin_reconfiguration(region, bitstream)
                rpe.fabric.finish_reconfiguration(region)
                if draw(st.booleans()):
                    rpe.begin_task(region, next(fresh_ids))
            if draw(st.integers(0, 4)) == 0:
                rpe.set_offline()
        rms.register_node(node)
    return rms


@st.composite
def task_fields(draw):
    """Every field of a task, each from a small pool, over all PE
    classes and artifact kinds."""
    size = st.integers(1_000, 12_000)
    function = st.sampled_from(FUNCTIONS)
    return {
        # Weighted toward the fabric classes, whose matching reads the most.
        "node_type": draw(st.sampled_from(
            (PEClass.RPE, PEClass.RPE, PEClass.SOFTCORE, PEClass.SOFTCORE, PEClass.GPP, PEClass.GPU)
        )),
        "constraints": tuple(draw(st.lists(
            st.sampled_from((
                MinValue("slices", 6_000),
                MinValue("mips", 1_000),
                MinValue("shader_cores", 200),
                Equals("device_model", "XC5VLX155"),
            )),
            max_size=2, unique=True,
        ))),
        "bitstream": draw(st.none() | st.builds(
            Bitstream, st.just(9), st.sampled_from(MODELS), st.just(1_000), size,
            implements=function,
        )),
        "hdl_design": draw(st.none() | st.builds(
            HDLDesign, st.just("core"), st.just("VHDL"), st.just(500), size,
            implements=function,
        )),
        "softcore": draw(st.sampled_from((None, RHO_VEX_4ISSUE))),
        "function": draw(function),
        "in_bytes": draw(st.integers(0, 10**6)),
        "t_estimated": draw(st.floats(0.1, 5.0)),
        "workload_mi": draw(st.none() | st.floats(0.0, 1e4)),
        "priority": draw(st.integers(-1, 1)),
        "tenant": draw(st.sampled_from(("", "tenant0"))),
    }


def task_from(task_id, fields):
    exec_req = ExecReq(
        node_type=fields["node_type"],
        constraints=fields["constraints"],
        artifacts=Artifacts(
            application_code="x",
            input_data_bytes=fields["in_bytes"],
            bitstream=fields["bitstream"],
            hdl_design=fields["hdl_design"],
            softcore=fields["softcore"],
        ),
    )
    task = simple_task(
        task_id, exec_req, fields["t_estimated"], in_bytes=fields["in_bytes"],
        function=fields["function"], workload_mi=fields["workload_mi"],
    )
    return replace(task, priority=fields["priority"], tenant=fields["tenant"])


@settings(max_examples=300, deadline=None)
@given(
    grid=grid_states(),
    first=task_fields(),
    others=st.lists(task_fields(), min_size=3, max_size=3),
)
def test_equal_match_keys_get_equal_candidates(grid, first, others):
    """Each variant is the first task with one field taken from an
    independent draw.  Whenever a variant's match key still equals the
    first task's, matching must return the same candidates: the key
    covers every task field matching reads."""
    base = task_from(1, first)
    key = ResourceManagementSystem._match_key(base, None)
    expected = grid.find_candidates(base)
    for other in others:
        for name in first:
            variant = task_from(2, {**first, name: other[name]})
            if ResourceManagementSystem._match_key(variant, None) == key:
                assert grid.find_candidates(variant) == expected, name
