"""Control-plane fault tolerance (:mod:`repro.sim.failover`).

Unit coverage for the three new pieces -- the phi-accrual-style
:class:`HeartbeatMonitor`, the :class:`ReplicatedRMS` availability
wrapper, and the spec validation -- plus simulator-level scenarios:
cold restart orphaning, replicated failover, heartbeat-driven node
crash detection, and the zero-cost-when-disabled report equality.
"""

import dataclasses
import itertools
import math

import pytest

from repro.core.node import Node
from repro.grid.jss import JobStatus
from repro.grid.network import Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.sim.failover import (
    ALIVE,
    DOWN,
    FAILOVER_PRESETS,
    SUSPECT,
    FailoverSpec,
    HeartbeatMonitor,
    HeartbeatSpec,
    ReplicatedRMS,
)
from repro.sim.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import DReAMSim
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
)
from repro.sim.workload import (
    ConfigurationPool,
    PoissonArrivals,
    SyntheticWorkload,
    WorkloadSpec,
)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------
class TestHeartbeatSpecValidation:
    def test_defaults_are_valid(self):
        HeartbeatSpec()

    @pytest.mark.parametrize("kwargs", [
        {"interval_s": 0.0},
        {"interval_s": -1.0},
        {"interval_s": math.nan},
        {"suspect_after": 0.5},
        {"suspect_after": math.inf},
        {"confirm_after": 3.0},        # == suspect_after
        {"confirm_after": 2.0},        # < suspect_after
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"min_samples": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HeartbeatSpec(**kwargs)


class TestFailoverSpecValidation:
    def test_default_is_inert(self):
        spec = FailoverSpec()
        assert not spec.enabled

    def test_any_knob_enables(self):
        assert FailoverSpec(heartbeat=HeartbeatSpec()).enabled
        assert FailoverSpec(standbys=1).enabled
        assert FailoverSpec(lease_s=5.0).enabled

    @pytest.mark.parametrize("kwargs", [
        {"standbys": -1},
        {"takeover_delay_s": -0.1},
        {"takeover_delay_s": math.nan},
        {"lease_s": 0.0},
        {"lease_s": -2.0},
        {"lease_s": math.inf},
        # Lease shorter than the heartbeat interval: every lease would
        # lapse between renewals.
        {"heartbeat": HeartbeatSpec(interval_s=1.0), "lease_s": 0.5},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FailoverSpec(**kwargs)

    def test_presets_are_valid_and_named_sanely(self):
        assert not FAILOVER_PRESETS["none"].enabled
        assert FAILOVER_PRESETS["detect"].heartbeat is not None
        assert FAILOVER_PRESETS["replicated"].standbys == 1
        assert FAILOVER_PRESETS["ha"].standbys == 2

    def test_describe_is_flat_and_json_safe(self):
        import json

        desc = FAILOVER_PRESETS["replicated"].describe()
        json.dumps(desc)
        assert desc["standbys"] == 1
        assert desc["heartbeat_interval_s"] == 0.5


class TestFaultSpecValidation:
    """Satellite: FaultSpec rejects malformed rates and probabilities
    with a clear ValueError instead of silently scheduling nonsense."""

    @pytest.mark.parametrize("kwargs", [
        {"crash_rate_per_s": -0.1},
        {"crash_rate_per_s": math.nan},
        {"crash_rate_per_s": math.inf},
        {"rms_crash_rate_per_s": -1.0},
        {"rms_gray_rate_per_s": math.nan},
        {"burst_rate_per_s": -0.5},
        {"config_fault_prob": -0.01},
        {"config_fault_prob": 1.01},
        {"heartbeat_loss_prob": math.nan},
        {"heartbeat_loss_prob": 2.0},
        {"downtime_range_s": (5.0, 1.0)},
        {"rms_downtime_range_s": (math.nan, 2.0)},
        {"rms_gray_duration_range_s": (-1.0, 2.0)},
        {"burst_size": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_valid_control_plane_spec_accepted(self):
        FaultSpec(
            rms_crash_rate_per_s=0.05,
            rms_gray_rate_per_s=0.02,
            heartbeat_loss_prob=0.1,
            burst_rate_per_s=0.01,
            burst_size=2,
        )


# ---------------------------------------------------------------------------
# HeartbeatMonitor
# ---------------------------------------------------------------------------
class TestHeartbeatMonitor:
    def spec(self, **kw):
        defaults = dict(interval_s=1.0, suspect_after=3.0, confirm_after=6.0)
        defaults.update(kw)
        return HeartbeatSpec(**defaults)

    def test_fresh_target_is_alive(self):
        mon = HeartbeatMonitor(self.spec())
        mon.watch("rms", 0.0)
        assert mon.state["rms"] == ALIVE
        assert mon.evaluate("rms", 0.0) is None

    def test_staleness_escalates_suspect_then_down(self):
        mon = HeartbeatMonitor(self.spec())
        mon.watch(0, 0.0)
        assert mon.evaluate(0, 2.9) is None
        assert mon.evaluate(0, 3.0) == SUSPECT
        assert mon.evaluate(0, 4.0) is None  # already suspect: no repeat
        assert mon.evaluate(0, 6.0) == DOWN
        assert mon.evaluate(0, 100.0) is None  # DOWN is terminal

    def test_heartbeat_clears_suspicion_and_reports_cleared_state(self):
        mon = HeartbeatMonitor(self.spec())
        mon.watch(0, 0.0)
        mon.evaluate(0, 3.5)
        assert mon.state[0] == SUSPECT
        assert mon.heartbeat(0, 3.6) == SUSPECT
        assert mon.state[0] == ALIVE
        assert mon.heartbeat(0, 4.6) is None  # healthy arrival: nothing cleared

    def test_dead_before_priming_is_still_confirmable(self):
        """The min_samples warm-up gates only the EWMA, never the
        grading -- a target that dies on arrival must still reach DOWN
        (otherwise its in-flight work would stall forever)."""
        mon = HeartbeatMonitor(self.spec(min_samples=5))
        mon.watch(0, 0.0)
        # Zero heartbeats ever delivered; grading runs against the
        # nominal interval the watch() call primed.
        assert mon.evaluate(0, 6.0) == DOWN

    def test_ewma_adapts_to_slow_cadence_after_warmup(self):
        mon = HeartbeatMonitor(self.spec(min_samples=1, ewma_alpha=1.0))
        mon.watch(0, 0.0)
        mon.heartbeat(0, 2.0)   # warm-up sample (not yet adapting)
        mon.heartbeat(0, 4.0)   # EWMA <- 2.0 (alpha=1: last sample only)
        # Staleness 3.0s against EWMA 2.0 = 1.5 intervals: healthy.
        assert mon.evaluate(0, 7.0) is None
        assert mon.suspicion(0, 7.0) == pytest.approx(1.5)

    def test_forget_stops_grading(self):
        mon = HeartbeatMonitor(self.spec())
        mon.watch(0, 0.0)
        mon.forget(0)
        assert not mon.watched(0)
        assert mon.evaluate(0, 100.0) is None
        assert mon.heartbeat(0, 100.0) is None


# ---------------------------------------------------------------------------
# ReplicatedRMS
# ---------------------------------------------------------------------------
class TestReplicatedRMS:
    """The wrapper's transitions; the figures the report gives of them
    are folded from the events the simulator emits on each one that
    takes."""

    def cp(self, **kw):
        self.fold = MetricsCollector()
        return ReplicatedRMS(rms=None, spec=FailoverSpec(**kw))

    def step(self, cp, t, kind):
        """Drive one transition of *cp*; when it takes, feed the event
        the simulator emits for it to the fold."""
        took = {
            "rms-crash": cp.crash,
            "rms-gray": cp.gray_start,
            "rms-restore": cp.restore,
            "failover-complete": cp.promote,
        }[kind]()
        if took is not False:
            self.fold.observe(t, kind, None, {})
        return took

    def test_crash_then_promote(self):
        cp = self.cp(standbys=2)
        assert cp.dispatchable
        assert self.step(cp, 10.0, "rms-crash")
        assert not cp.dispatchable
        assert cp.can_failover()
        gen = self.step(cp, 12.0, "failover-complete")
        assert gen == 1
        assert cp.dispatchable
        assert cp.standbys_left == 1
        report = self.fold.report(20.0)
        assert report.failovers == 1
        assert report.control_plane_downtime_s == pytest.approx(2.0)

    def test_crash_during_crash_is_absorbed(self):
        cp = self.cp(standbys=1)
        assert self.step(cp, 1.0, "rms-crash")
        assert not self.step(cp, 2.0, "rms-crash")
        assert self.fold.report(3.0).rms_crashes == 1

    def test_promote_without_standby_raises(self):
        cp = self.cp(standbys=0)
        cp.crash()
        with pytest.raises(RuntimeError):
            cp.promote()

    def test_cold_restore_bumps_generation(self):
        cp = self.cp(standbys=0)
        self.step(cp, 5.0, "rms-crash")
        self.step(cp, 9.0, "rms-restore")
        assert cp.generation == 1
        assert cp.dispatchable
        assert self.fold.report(10.0).control_plane_downtime_s == pytest.approx(4.0)

    def test_gray_counts_as_unavailability_but_not_crash(self):
        cp = self.cp(standbys=1)
        assert self.step(cp, 3.0, "rms-gray")
        assert not cp.dispatchable
        assert cp.available  # up, but useless
        assert not self.step(cp, 4.0, "rms-gray")  # gray-during-gray absorbed
        self.step(cp, 7.0, "rms-restore")
        report = self.fold.report(10.0)
        assert report.rms_gray_events == 1
        assert report.rms_crashes == 0
        assert report.control_plane_downtime_s == pytest.approx(4.0)

    def test_crash_escalates_gray(self):
        cp = self.cp(standbys=1)
        self.step(cp, 2.0, "rms-gray")
        assert self.step(cp, 5.0, "rms-crash")  # the gray process finally dies
        self.step(cp, 6.0, "failover-complete")
        # One continuous dark window from the gray start.
        assert self.fold.report(10.0).control_plane_downtime_s == pytest.approx(4.0)

    def test_open_window_closed_against_horizon(self):
        cp = self.cp(standbys=0)
        self.step(cp, 8.0, "rms-crash")
        assert self.fold.report(10.0).control_plane_downtime_s == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Simulator scenarios
# ---------------------------------------------------------------------------
def build_sim(seed=7, tasks=120, engine="heap", failover=None, faults=None,
              telemetry=None):
    """A checked two-node simulation; *engine* defaults to the heap
    oracle, not the simulator's calendar default."""
    network = Network.fully_connected([0, 1])
    rms = ResourceManagementSystem(network=network)
    for node_id in range(2):
        node = Node(node_id=node_id)
        node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=1_500))
        node.add_rpe(device_by_model("XC5VLX155"), regions=2)
        rms.register_node(node)
    pool = ConfigurationPool(4, area_range=(2_000, 12_000), seed=seed)
    pool.populate_repository(
        rms.virtualization.repository,
        [rpe.device for node in rms.nodes for rpe in node.rpes],
    )
    workload = SyntheticWorkload(
        WorkloadSpec(
            task_count=tasks,
            gpp_fraction=0.5,
            required_time_range_s=(0.2, 1.5),
        ),
        pool,
        PoissonArrivals(rate_per_s=8.0),
        seed=seed,
    )
    checker = TraceInvariantChecker()
    sink = InMemorySink()
    sim = DReAMSim(
        rms,
        engine=engine,
        tracer=Tracer(checker, sink),
        faults=FaultInjector(faults, seed=seed) if faults else None,
        retry=RetryPolicy(backoff_base_s=0.2),
        failover=failover,
        telemetry=telemetry,
    )
    sim.submit_workload(workload.generate())
    return sim, checker, sink


RMS_CHAOS = FaultSpec(
    rms_crash_rate_per_s=0.05,
    rms_downtime_range_s=(4.0, 8.0),
    rms_gray_rate_per_s=0.02,
    horizon_s=40.0,
)
#: RMS_CHAOS with outages shorter than a task: a cold restart then finds
#: a placement still in flight and orphans it (RMS_CHAOS's 4-8 s
#: outages outlast every task, so nothing is left to orphan).
ORPHANING = dataclasses.replace(RMS_CHAOS, rms_downtime_range_s=(0.5, 1.0))


class TestSimulatorFailover:
    def test_cold_restart_conserves_and_recovers_orphans(self):
        for faults, engine in itertools.product((RMS_CHAOS, ORPHANING), ("heap", "calendar")):
            sim, checker, _ = build_sim(engine=engine, failover=None, faults=faults)
            report = sim.run()
            checker.assert_quiescent()
            checker.assert_conservation()
            assert report.rms_crashes >= 1
            assert report.control_plane_downtime_s > 0
            assert report.pending == 0
            assert report.completed + report.failed + report.discarded == 120
            # Orphans are recovered -- never lost.
            assert report.orphans_recovered == report.orphaned_tasks
            if faults is ORPHANING:
                assert report.orphaned_tasks > 0, engine

    def test_replicated_preset_fails_over_with_finite_latency(self):
        sim, checker, _ = build_sim(
            failover=FAILOVER_PRESETS["replicated"], faults=RMS_CHAOS
        )
        report = sim.run()
        checker.assert_quiescent()
        checker.assert_conservation()
        assert report.failovers >= 1
        assert report.detections >= 1
        assert math.isfinite(report.detection_latency_p50_s)
        assert report.detection_latency_p50_s > 0
        assert report.pending == 0

    def test_node_crash_detection_has_latency(self):
        faults = FaultSpec(
            crash_rate_per_s=0.05,
            downtime_range_s=(3.0, 6.0),
            heartbeat_loss_prob=0.05,
            horizon_s=40.0,
        )
        sim, checker, _ = build_sim(
            failover=FAILOVER_PRESETS["detect"], faults=faults
        )
        report = sim.run()
        checker.assert_quiescent()
        checker.assert_conservation()
        assert report.detections >= 1
        assert report.detection_latency_p95_s >= report.detection_latency_p50_s > 0
        assert report.pending == 0

    def test_inert_spec_report_equals_disabled(self):
        sim, _, _ = build_sim(failover=None)
        baseline = sim.run()
        sim, _, _ = build_sim(failover=FailoverSpec())
        inert = sim.run()
        assert baseline == inert

    def test_engines_agree_under_failover(self):
        def trace(engine):
            sim, checker, sink = build_sim(
                seed=3, tasks=80, engine=engine,
                failover=FAILOVER_PRESETS["replicated"], faults=RMS_CHAOS,
            )
            sim.run()
            checker.assert_conservation()
            return [e.to_json() for e in canonical_events(list(sink.events))]

        assert trace("heap") == trace("calendar")

    def test_failover_emits_ordered_control_plane_events(self):
        sim, _, sink = build_sim(
            failover=FAILOVER_PRESETS["replicated"], faults=RMS_CHAOS
        )
        sim.run()
        kinds = [e.kind for e in sink.events]
        assert "rms-crash" in kinds
        assert "failover-begin" in kinds
        assert "failover-complete" in kinds
        # The detector always suspects before confirming.
        assert kinds.index("heartbeat-suspect") < kinds.index("heartbeat-confirm")

    def test_orphaned_jss_records_requeue(self):
        """The JSS view agrees with the simulator: an orphaned task's
        record is rewound, counted, and eventually completes."""
        for engine in ("heap", "calendar"):
            telemetry = TelemetryRegistry()
            sim, _, sink = build_sim(
                engine=engine, failover=None, faults=ORPHANING, telemetry=telemetry
            )
            report = sim.run()
            orphans = [
                (job.job_id, record)
                for job in sim.jss.jobs.values()
                for record in job.records.values()
                if record.orphaned
            ]
            assert report.orphaned_tasks > 0, engine
            assert sum(r.orphaned for _, r in orphans) == report.orphaned_tasks
            counter = telemetry.counter("jss_tasks_orphaned_total")
            assert counter.value == report.orphaned_tasks
            for job_id, record in orphans:
                assert record.status is JobStatus.COMPLETED
                # Rewound: the task was dispatched again after its
                # orphan was recovered, and that second run completed.
                kinds = [
                    e.kind for e in sink.events if e.key == (job_id, record.task.task_id)
                ]
                recovered = kinds.index("orphan-recovered")
                assert "dispatch" in kinds[recovered:]
                assert kinds[-1] == "complete"


@pytest.mark.parametrize("engine", ["heap", "calendar"])
def test_detected_death_quarantine_is_traced(engine, tmp_path, capsys):
    """A death the heartbeat detector confirms trips the node's breaker
    outright.  That trip is a quarantine episode like any other: the
    trace carries its ``quarantine`` open event, so the episodes a
    trace shows are the episodes the report counts."""
    import json

    from repro.cli import main
    from repro.sim.tracing import read_jsonl
    from tests.sim.test_pending_differential import COMPOSED

    trace, dump = tmp_path / "run.jsonl", tmp_path / "report.json"
    assert main([*COMPOSED, "--engine", engine, "--trace", str(trace),
                 "--report-json", str(dump)]) == 0
    capsys.readouterr()
    events = read_jsonl(trace)
    episodes = {
        (e.payload["node"], e.payload["episode"])
        for e in events
        if e.kind == "quarantine" and e.payload["phase"] == "open"
    }
    detected = [e for e in events if e.kind == "node-leave" and e.payload.get("detected")]
    assert detected, "the run no longer confirms a node death"
    report = json.loads(dump.read_text())["report"]
    assert len(episodes) == report["quarantines"] > 0


class TestAbortAfterUnregister:
    """Satellite: aborting a placement whose node already left the
    registry (teardown races reconciliation) is a no-op, not a crash."""

    def test_abort_placement_on_unregistered_node_returns_false(self):
        network = Network.fully_connected([0])
        rms = ResourceManagementSystem(network=network)
        node = Node(node_id=0)
        node.add_gpp(GPPSpec(cpu_model="cpu0", mips=1_500))
        rms.register_node(node)
        from repro.core.execreq import Artifacts, ExecReq
        from repro.core.task import simple_task
        from repro.hardware.taxonomy import PEClass

        task = simple_task(
            0,
            ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
            1.0,
        )
        placement = rms.plan_placement(task)
        rms.commit(placement)
        rms.unregister_node(0)
        assert rms.abort_placement(placement) is False
        # A second abort of the now-reset placement raises cleanly.
        from repro.grid.rms import SchedulingError

        with pytest.raises(SchedulingError):
            rms.abort_placement(placement)
