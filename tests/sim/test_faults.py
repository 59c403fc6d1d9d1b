"""Fault injection and recovery: retry/backoff, GPP fallback, crash
and rejoin, link faults, and the recovery metrics.

These tests drive the machinery both directly (``schedule_node_crash``,
``FaultInjector`` with extreme probabilities) and through the
declarative :class:`ExperimentSpec` path, and pin the two properties
the subsystem promises: deterministic traces for a given
``(seed, FaultSpec)`` and an arrival sequence that is untouched by
enabling faults.
"""

import pytest

from repro.core.application import Application, Stream
from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.jss import JobStatus
from repro.grid.network import Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.bitstream import Bitstream
from repro.hardware.catalog import device_by_model
from repro.hardware.fabric import RegionState
from repro.hardware.gpp import GPPSpec
from repro.hardware.taxonomy import PEClass
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.faults import FAULT_PRESETS, FaultInjector, FaultSpec, RetryPolicy
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import InMemorySink, TraceInvariantChecker, Tracer, canonical_events


def gpp_req():
    return ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x"))


def gpp_task(task_id, t=1.0):
    return simple_task(task_id, gpp_req(), t)


def hw_task(task_id, function="fft", slices=9_000, t=1.0):
    bs = Bitstream(200 + task_id, "XC5VLX155", 1_000_000, slices, implements=function)
    return simple_task(
        task_id,
        ExecReq(
            node_type=PEClass.RPE,
            constraints=(MinValue("slices", slices),),
            artifacts=Artifacts(application_code="x", bitstream=bs),
        ),
        t,
        function=function,
    )


def hybrid_rms(*, nodes=1, network=False):
    """Node(s) with one XC5VLX155 RPE (2 regions) and one GPP each."""
    net = Network.fully_connected(list(range(nodes))) if network else None
    rms = ResourceManagementSystem(network=net)
    for node_id in range(nodes):
        node = Node(node_id=node_id)
        node.add_rpe(device_by_model("XC5VLX155"), regions=2)
        node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=1_000))
        rms.register_node(node)
    return rms


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_factor=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.5)
        assert policy.backoff_s(2) == pytest.approx(1.0)
        assert policy.backoff_s(3) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)


class TestFaultSpec:
    def test_presets_are_valid_and_enabled(self):
        for name, spec in FAULT_PRESETS.items():
            assert spec.enabled, name

    def test_disabled_by_default(self):
        assert not FaultSpec().enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(crash_rate_per_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec(config_fault_prob=1.5)
        with pytest.raises(ValueError):
            FaultSpec(downtime_range_s=(10.0, 5.0))
        with pytest.raises(ValueError):
            FaultSpec(degrade_factor=0.0)
        with pytest.raises(ValueError):
            FaultSpec(partition_window=(10.0, 10.0))
        with pytest.raises(ValueError):
            FaultSpec(horizon_s=0.0)


class TestConfigurationFaults:
    def certain_config_failure(self, **retry_kwargs):
        rms = hybrid_rms()
        injector = FaultInjector(FaultSpec(config_fault_prob=1.0), seed=0)
        sim = DReAMSim(rms, faults=injector, retry=RetryPolicy(**retry_kwargs))
        return sim, injector

    def test_fallback_to_gpp_after_budget(self):
        """Every configuration load fails, so the hardware task burns
        its retry budget and degrades gracefully to the GPP."""
        sim, injector = self.certain_config_failure(max_attempts=3)
        sim.submit_workload([(0.0, hw_task(0))])
        report = sim.run()
        assert report.completed == 1
        assert report.failed == 0
        assert report.fault_events == 3
        assert report.retries == 2  # attempts 2 and 3 were plain retries
        assert report.gpp_fallbacks == 1
        assert injector.injected_config_faults == 3
        tm = next(iter(sim.metrics.tasks.values()))
        assert tm.fell_back_to_gpp
        assert tm.faults == 3
        assert "configuration" in tm.failure_reason

    def test_terminal_failure_reaches_jss(self):
        """No fallback: the task fails terminally and the JSS record
        carries the originating fault reason and the attempt count."""
        sim, _ = self.certain_config_failure(max_attempts=2, gpp_fallback=False)
        sim.submit_workload([(0.0, hw_task(0))])
        report = sim.run()
        assert report.completed == 0
        assert report.failed == 1
        assert report.pending == 0
        job = sim.jss.job(next(j for j, _ in sim.metrics.tasks))
        assert job.status is JobStatus.FAILED
        record = job.records[0]
        assert record.status is JobStatus.FAILED
        assert "configuration" in record.failure_reason
        assert record.attempts == 2

    def test_backoff_delays_the_retry(self):
        sim, _ = self.certain_config_failure(
            max_attempts=2, backoff_base_s=3.0, backoff_factor=2.0
        )
        sim.submit_workload([(0.0, hw_task(0))])
        report = sim.run()
        assert report.completed == 1
        tm = next(iter(sim.metrics.tasks.values()))
        # Fault 1 -> 3 s backoff; exhaustion -> fallback with a fresh
        # budget and another 3 s backoff, plus 1 s of GPP execution:
        # the task cannot finish before t = 7.
        assert tm.finish > 7.0

    def test_fault_free_grid_unaffected(self):
        """config_fault_prob=0: the injector never fires and the run
        matches a fault-free one exactly."""
        rms = hybrid_rms()
        injector = FaultInjector(FaultSpec(), seed=0)
        sim = DReAMSim(rms, faults=injector)
        sim.submit_workload([(0.0, hw_task(0)), (0.5, gpp_task(1))])
        report = sim.run()
        assert report.completed == 2
        assert report.fault_events == 0
        assert report.availability == 1.0


class TestSEUFaults:
    def test_seu_interrupts_fabric_execution(self):
        """An (almost) certain SEU hits every fabric execution; the
        task survives via the GPP fallback, which is SEU-immune."""
        rms = hybrid_rms()
        injector = FaultInjector(FaultSpec(seu_rate_per_s=1_000.0), seed=0)
        sim = DReAMSim(rms, faults=injector, retry=RetryPolicy(max_attempts=2))
        sim.submit_workload([(0.0, hw_task(0, t=5.0))])
        report = sim.run()
        assert report.completed == 1
        assert injector.injected_seus == 2
        tm = next(iter(sim.metrics.tasks.values()))
        assert tm.fell_back_to_gpp
        assert "SEU" in tm.failure_reason
        # The SEU struck mid-execution, so work was genuinely wasted.
        assert report.wasted_work_s > 0
        assert report.wasted_slice_seconds > 0

    def test_seu_spares_gpp_tasks(self):
        rms = hybrid_rms()
        injector = FaultInjector(FaultSpec(seu_rate_per_s=1_000.0), seed=0)
        sim = DReAMSim(rms, faults=injector)
        sim.submit_workload([(0.0, gpp_task(0))])
        report = sim.run()
        assert report.completed == 1
        assert report.fault_events == 0


class TestNodeCrash:
    def single_gpp_grid(self):
        node = Node(node_id=10)
        node.add_gpp(GPPSpec(cpu_model="X", mips=1_000))
        rms = ResourceManagementSystem()
        rms.register_node(node)
        return rms

    def test_crash_faults_victims_and_rejoin_recovers(self):
        rms = self.single_gpp_grid()
        sim = DReAMSim(rms, retry=RetryPolicy(backoff_base_s=0.5))
        sim.submit_workload([(0.0, gpp_task(0, t=10.0))])
        sim.schedule_node_crash(2.0, 10, rejoin_after_s=3.0)
        report = sim.run()
        assert report.completed == 1
        assert report.fault_events == 1
        assert report.retries == 1
        # Faulted at t=2, restarted from scratch at the t=5 rejoin.
        assert report.makespan_s == pytest.approx(15.0)
        assert report.wasted_work_s == pytest.approx(2.0)
        assert report.mttr_s == pytest.approx(13.0)  # 15 - first fault at 2
        # Down 3 s of a 15 s single-node horizon.
        assert report.availability == pytest.approx(1.0 - 3.0 / 15.0)

    def test_crash_without_rejoin_counts_downtime_to_horizon(self):
        rms = self.single_gpp_grid()
        extra = Node(node_id=11)
        extra.add_gpp(GPPSpec(cpu_model="Y", mips=1_000))
        rms.register_node(extra)
        sim = DReAMSim(rms)
        sim.submit_workload([(0.0, gpp_task(0, t=4.0))])
        sim.schedule_node_crash(1.0, 10, rejoin_after_s=None)
        report = sim.run()
        assert report.completed == 1
        # Node 10 stays down from t=1 to the horizon; half the grid.
        assert 0.0 < report.availability < 1.0

    def test_crash_of_absent_node_is_noop(self):
        rms = self.single_gpp_grid()
        sim = DReAMSim(rms)
        sim.submit_workload([(0.0, gpp_task(0))])
        sim.schedule_node_crash(0.5, 999, rejoin_after_s=1.0)
        report = sim.run()
        assert report.completed == 1
        assert report.fault_events == 0

    def test_crash_wipes_resident_configurations(self):
        """A rejoined node comes back cold: the configuration loaded
        before the crash must be reloaded, not reused."""
        rms = hybrid_rms()
        sim = DReAMSim(rms)
        sim.submit_workload([(0.0, hw_task(0)), (10.0, hw_task(1))])
        sim.schedule_node_crash(5.0, 0, rejoin_after_s=2.0)
        report = sim.run()
        assert report.completed == 2
        assert report.reconfigurations == 2  # no reuse across the crash
        assert report.reuse_hits == 0

    def test_crash_during_configuring_region(self):
        """Node loss while a region is mid-reconfiguration: the abort
        path must unwind the CONFIGURING state, not strand it."""
        rms = hybrid_rms(nodes=2)
        sim = DReAMSim(rms, retry=RetryPolicy(backoff_base_s=0.1))
        task = hw_task(0, t=2.0)
        sim.submit_workload([(0.0, task)])
        placement = None

        def capture():
            nonlocal placement
            (entry,) = sim.active.values()
            placement = entry.placement
            assert placement.reconfig_time_s > 0
            states = {r.state for r in placement.candidate.pe.fabric.regions}
            assert RegionState.CONFIGURING in states

        # The XC5VLX155 bitstream load takes ~a few ms; probe and crash
        # while the configuration port is mid-load.  Both nodes go down
        # so the victim is hit whichever one the scheduler picked.
        sim.engine.schedule_at(0.001, capture)
        sim.schedule_node_crash(0.002, 0, rejoin_after_s=None)
        sim.schedule_node_crash(0.002, 1, rejoin_after_s=None)
        sim.schedule_node_join(1.0, _fresh_hybrid_node(5))
        report = sim.run()
        assert placement is not None
        assert report.completed == 1
        assert report.fault_events == 1


def _fresh_hybrid_node(node_id):
    node = Node(node_id=node_id)
    node.add_rpe(device_by_model("XC5VLX155"), regions=2)
    node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=1_000))
    return node


class TestStreamingFaults:
    def test_mid_stream_chunk_requeues_and_job_completes(self):
        """A crash mid-pipeline re-queues the in-flight chunks; the
        stream picks back up after the rejoin and the job completes."""
        node = Node(node_id=0)
        for i in range(3):
            node.add_gpp(GPPSpec(cpu_model=f"cpu{i}", mips=1_000))
        rms = ResourceManagementSystem()
        rms.register_node(node)
        sim = DReAMSim(rms, retry=RetryPolicy(backoff_base_s=0.1))
        app = Application(clauses=(Stream(0, 1, 2),))
        tasks = {i: gpp_task(i) for i in (0, 1, 2)}
        job_id = sim.submit_application(app, tasks, stream_chunks=4)
        sim.schedule_node_crash(0.6, 0, rejoin_after_s=1.0)
        report = sim.run()
        assert sim.jss.job(job_id).status is JobStatus.COMPLETED
        assert report.fault_events >= 1
        assert report.failed == 0
        # Fault-free pipeline finishes at 1.5 s; recovery costs time.
        assert report.makespan_s > 1.5


class TestLinkFaults:
    def two_node_net_sim(self, tracer=None):
        rms = hybrid_rms(nodes=2, network=True)
        return DReAMSim(rms, tracer=tracer)

    def test_degrade_slows_new_placements_then_heals(self):
        sink = InMemorySink()
        tracer = Tracer(TraceInvariantChecker(), sink)
        sim = self.two_node_net_sim(tracer=tracer)
        healthy = sim.rms.network.link_between(0, 1)
        degraded = {}

        def probe():
            degraded["bw"] = sim.rms.network.link_between(0, 1).bandwidth_mbps

        sim.schedule_link_degrade(1.0, 0, 1, factor=0.1, duration_s=2.0)
        sim.engine.schedule_at(2.0, probe)
        sim.submit_workload([(0.0, gpp_task(0))])
        sim.run()
        assert degraded["bw"] == pytest.approx(healthy.bandwidth_mbps * 0.1)
        assert sim.rms.network.link_between(0, 1).bandwidth_mbps == pytest.approx(
            healthy.bandwidth_mbps
        )
        kinds = [e.kind for e in sink.events]
        assert "link-fault" in kinds and "link-restore" in kinds

    def test_partition_severs_and_heals_cross_links(self):
        sim = self.two_node_net_sim()
        seen = {}

        def probe():
            seen["during"] = sim.rms.network.has_link(0, 1)

        sim.schedule_partition(1.0, [0], [1], heal_at_s=3.0)
        sim.engine.schedule_at(2.0, probe)
        sim.submit_workload([(0.0, gpp_task(0))])
        sim.run()
        assert seen["during"] is False
        assert sim.rms.network.has_link(0, 1)

    def test_partition_must_heal_after_start(self):
        sim = self.two_node_net_sim()
        with pytest.raises(ValueError):
            sim.schedule_partition(5.0, [0], [1], heal_at_s=5.0)

    def test_degrade_of_severed_link_is_noop(self):
        """A degrade draw landing inside a partition window must not
        resurrect the severed link."""
        sim = self.two_node_net_sim()
        sim.schedule_partition(1.0, [0], [1], heal_at_s=10.0)
        sim.schedule_link_degrade(2.0, 0, 1, factor=0.5, duration_s=1.0)
        seen = {}

        def probe():
            seen["after_heal_attempt"] = sim.rms.network.has_link(0, 1)

        sim.engine.schedule_at(5.0, probe)
        sim.submit_workload([(0.0, gpp_task(0))])
        sim.run()
        assert seen["after_heal_attempt"] is False  # still partitioned


class TestRecoveryMetrics:
    def test_availability_and_downtime_windows(self):
        m = MetricsCollector([0, 1])
        m.observe(2.0, "node-leave", None, {"node": 0, "crash": True})
        m.observe(6.0, "node-join", None, {"node": 0, "rejoin": True})
        # Still down at the horizon.
        m.observe(8.0, "node-leave", None, {"node": 1, "crash": True})
        report = m.report(10.0)
        # 4 s + 2 s downtime over 2 nodes x 10 s.
        assert report.availability == pytest.approx(1.0 - 6.0 / 20.0)

    def test_availability_is_one_without_nodes_or_faults(self):
        report = MetricsCollector().report(10.0)
        assert report.availability == 1.0
        assert report.mttr_s == 0.0
        assert report.goodput_tasks_per_s == 0.0

    def test_goodput_counts_only_completions(self):
        m = MetricsCollector()
        m.observe(0.0, "submit", 1, {"function": ""})
        m.observe(0.0, "dispatch", 1, {
            "node": 0, "resource_index": 0, "pe_kind": "gpp", "reused": False,
            "slices": 0, "transfer_time": 0, "synthesis_time": 0,
            "reconfig_time": 0,
        })
        m.observe(0.0, "start", 1, {"node": 0})
        m.observe(2.0, "complete", 1, {"node": 0})
        m.observe(0.0, "submit", 2, {"function": ""})
        m.observe(1.0, "fault", 2, {
            "reason": "boom", "wasted": 0.0, "wasted_slice_s": 0.0, "saved": 0.0,
        })
        m.observe(1.0, "task-failed", 2, {"reason": "boom"})
        report = m.report(10.0)
        assert report.goodput_tasks_per_s == pytest.approx(1 / 10.0)
        assert report.completed == 1
        assert report.failed == 1
        assert report.pending == 0

    def test_summary_lines_mention_recovery_only_with_faults(self):
        quiet = MetricsCollector().report(1.0)
        assert not any("availability" in l for l in quiet.summary_lines())
        m = MetricsCollector()
        m.observe(0.0, "submit", 1, {"function": ""})
        m.observe(0.5, "fault", 1, {
            "reason": "x", "wasted": 0.0, "wasted_slice_s": 0.0, "saved": 0.0,
        })
        noisy = m.report(1.0)
        assert any("availability" in l for l in noisy.summary_lines())


class TestDeterminism:
    SPEC = ExperimentSpec(
        tasks=40,
        nodes=(
            NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
            NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
        ),
        arrival_rate_per_s=4.0,
        area_range=(2_000, 12_000),
        seed=5,
        faults=FAULT_PRESETS["chaos"],
    )

    def trace_lines(self, spec):
        sink = InMemorySink()
        run_experiment(spec, tracer=Tracer(TraceInvariantChecker(), sink))
        return [e.to_json() for e in canonical_events(list(sink.events))]

    def test_same_seed_same_fault_schedule_same_trace(self):
        assert self.trace_lines(self.SPEC) == self.trace_lines(self.SPEC)

    def test_different_seed_differs(self):
        assert self.trace_lines(self.SPEC) != self.trace_lines(self.SPEC.with_(seed=6))

    def test_arrival_sequence_is_fault_invariant(self):
        """Satellite guarantee: fault draws come from independent
        streams, so enabling faults never re-phases the workload."""

        def submits(spec):
            sink = InMemorySink()
            run_experiment(spec, tracer=Tracer(sink))
            # Canonicalize first: raw JSS job ids are process-global.
            return [
                (e.time, e.key, e.payload["function"])
                for e in canonical_events(list(sink.events))
                if e.kind == "submit"
            ]

        assert submits(self.SPEC) == submits(self.SPEC.with_(faults=None))

    def test_serial_and_parallel_runner_agree(self):
        from dataclasses import asdict

        from repro.sim.runner import ExperimentRunner

        specs = [self.SPEC, self.SPEC.with_(strategy="fcfs")]
        serial = ExperimentRunner(jobs=1).run(specs)
        wide = ExperimentRunner(jobs=2).run(specs)
        for a, b in zip(serial, wide):
            assert asdict(a.report) == asdict(b.report)

    def test_spec_round_trips_through_cache(self, tmp_path):
        from dataclasses import asdict

        from repro.sim.runner import ExperimentRunner

        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        first = runner.run([self.SPEC])
        assert runner.last_stats.executed == 1
        second = runner.run([self.SPEC])
        assert runner.last_stats.cache_hits == 1
        assert asdict(first[0].report) == asdict(second[0].report)

    def test_fault_spec_changes_cache_key(self):
        from repro.sim.runner import spec_cache_key

        assert spec_cache_key(self.SPEC) != spec_cache_key(self.SPEC.with_(faults=None))
        assert spec_cache_key(self.SPEC) != spec_cache_key(
            self.SPEC.with_(retry=RetryPolicy(max_attempts=5))
        )
