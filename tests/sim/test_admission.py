"""Overload protection: admission control, backpressure, shedding,
and brownout degradation.

Unit tests drive :class:`AdmissionController` decisions directly (they
are pure functions of time + state, so no simulator is needed);
scenario tests drive :class:`DReAMSim` with hand-built grids, the same
idiom as ``test_resilience.py``.  The acceptance test at the bottom
pins the PR's headline claim: under a 5x flash crowd, the protected
run keeps the queue depth bounded and the admitted-task p95 wait far
below the unprotected baseline -- with exact conservation
(submitted == completed + failed + discarded + shed) on both runs.
"""

import json
import math
import zlib
from dataclasses import asdict, replace

import pytest

from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.bitstream import Bitstream
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.hardware.taxonomy import PEClass
from repro.sim.admission import (
    ADMISSION_PRESETS,
    ADMIT,
    DEFER,
    SHED,
    AdmissionController,
    AdmissionSpec,
    BrownoutSpec,
    QueueBoundSpec,
    TokenBucketSpec,
    UtilizationSpec,
    grid_occupancy,
)
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import DReAMSim
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
)


def gpp_req():
    return ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x"))


def gpp_task(task_id, t=1.0, **kwargs):
    return simple_task(task_id, gpp_req(), t, **kwargs)


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
        workload_mi=2_000.0,  # a GPP cost, so stage-2 degradation can rewrite it
    )


def gpp_rms(*, nodes=1, mips=1_000):
    rms = ResourceManagementSystem()
    for node_id in range(nodes):
        node = Node(node_id=node_id)
        node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=mips))
        rms.register_node(node)
    return rms


def hybrid_rms():
    rms = ResourceManagementSystem()
    node = Node(node_id=0)
    node.add_rpe(device_by_model("XC5VLX155"), regions=2)
    node.add_gpp(GPPSpec(cpu_model="cpu0", mips=1_000))
    rms.register_node(node)
    return rms


def checked_sim(rms, admission, **kwargs):
    """A simulator with the online invariant checker attached, so every
    scenario also validates its own conservation ledger."""
    tracer = Tracer(TraceInvariantChecker(), InMemorySink())
    return DReAMSim(rms, tracer=tracer, admission=admission, **kwargs), tracer


class TestSpecs:
    def test_queue_bound_validation(self):
        with pytest.raises(ValueError):
            QueueBoundSpec(max_pending=0)
        with pytest.raises(ValueError):
            QueueBoundSpec(defer_delay_s=0.0)
        with pytest.raises(ValueError):
            QueueBoundSpec(defer_delay_s=float("nan"))
        with pytest.raises(ValueError):
            QueueBoundSpec(max_defers=0)

    def test_token_bucket_validation(self):
        with pytest.raises(ValueError):
            TokenBucketSpec(rate_per_s=0.0)
        with pytest.raises(ValueError):
            TokenBucketSpec(rate_per_s=float("inf"))
        with pytest.raises(ValueError):
            TokenBucketSpec(rate_per_s=4.0, burst=0.5)

    def test_utilization_validation(self):
        with pytest.raises(ValueError):
            UtilizationSpec(threshold=0.0)
        with pytest.raises(ValueError):
            UtilizationSpec(threshold=1.5)
        UtilizationSpec(threshold=1.0)  # inclusive upper bound is legal

    def test_brownout_validation(self):
        with pytest.raises(ValueError):
            BrownoutSpec(enter_pending=0)
        with pytest.raises(ValueError):
            BrownoutSpec(enter_pending=10, exit_pending=10)  # hysteresis
        with pytest.raises(ValueError):
            BrownoutSpec(dwell_s=0.0)
        with pytest.raises(ValueError):
            BrownoutSpec(max_stage=4)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QueueBoundSpec(max_pending=math.nan),
            lambda: QueueBoundSpec(max_pending=math.inf),
            lambda: QueueBoundSpec(max_pending=2.5),
            lambda: QueueBoundSpec(max_defers=math.nan),
            lambda: QueueBoundSpec(max_defers=1.5),
            lambda: BrownoutSpec(enter_pending=math.nan),
            lambda: BrownoutSpec(enter_pending=math.inf),
            lambda: BrownoutSpec(enter_pending=20.5),
            lambda: BrownoutSpec(exit_pending=math.nan),
            lambda: BrownoutSpec(exit_pending=4.5),
            lambda: BrownoutSpec(max_stage=math.nan),
            lambda: BrownoutSpec(max_stage=2.5),
        ],
        ids=[
            "max_pending-nan", "max_pending-inf", "max_pending-frac",
            "max_defers-nan", "max_defers-frac",
            "enter_pending-nan", "enter_pending-inf", "enter_pending-frac",
            "exit_pending-nan", "exit_pending-frac",
            "max_stage-nan", "max_stage-frac",
        ],
    )
    def test_counts_must_be_whole_numbers(self, build):
        with pytest.raises(ValueError, match="whole number"):
            build()

    def test_whole_floats_are_accepted(self):
        assert QueueBoundSpec(max_pending=64.0).max_pending == 64
        assert BrownoutSpec(enter_pending=24.0, exit_pending=8.0).max_stage == 3

    def test_enabled_property(self):
        assert not AdmissionSpec().enabled
        assert AdmissionSpec(queue=QueueBoundSpec()).enabled
        assert AdmissionSpec(brownout=BrownoutSpec()).enabled

    def test_describe_lists_only_armed_policies(self):
        spec = AdmissionSpec(
            queue=QueueBoundSpec(max_pending=10),
            brownout=BrownoutSpec(enter_pending=8, exit_pending=2),
        )
        described = spec.describe()
        assert set(described) == {"queue", "brownout"}
        assert described["queue"]["max_pending"] == 10
        assert AdmissionSpec().describe() == {}

    def test_presets(self):
        assert ADMISSION_PRESETS["none"].enabled is False
        for name in ("bounded", "backpressure", "brownout", "strict"):
            assert ADMISSION_PRESETS[name].enabled, name
        assert ADMISSION_PRESETS["backpressure"].queue.defer is True


class TestControllerQueueAndRate:
    def test_queue_bound_admits_below_and_sheds_at_capacity(self):
        ctl = AdmissionController(AdmissionSpec(queue=QueueBoundSpec(max_pending=2)))
        assert ctl.decide_submit(0.0, 1) == (ADMIT, "")
        assert ctl.decide_submit(0.0, 2) == (SHED, "queue-full")

    def test_defer_then_shed_after_max_defers(self):
        spec = AdmissionSpec(
            queue=QueueBoundSpec(max_pending=1, defer=True, max_defers=2)
        )
        ctl = AdmissionController(spec)
        assert ctl.decide_submit(0.0, 1) == (DEFER, "queue-full")
        assert ctl.decide_reoffer(1, defers=1) == (DEFER, "queue-full")
        assert ctl.decide_reoffer(1, defers=2) == (SHED, "queue-full")
        assert ctl.decide_reoffer(0, defers=2) == (ADMIT, "")

    def test_token_bucket_burst_then_starve_then_refill(self):
        ctl = AdmissionController(
            AdmissionSpec(rate=TokenBucketSpec(rate_per_s=2.0, burst=2.0))
        )
        assert ctl.decide_submit(0.0, 0)[0] == ADMIT
        assert ctl.decide_submit(0.0, 0)[0] == ADMIT
        assert ctl.decide_submit(0.0, 0) == (SHED, "rate-limit")
        # 0.5 s at 2 tokens/s refills one whole token.
        assert ctl.decide_submit(0.5, 0)[0] == ADMIT
        assert ctl.decide_submit(0.5, 0) == (SHED, "rate-limit")

    def test_token_bucket_caps_at_burst(self):
        ctl = AdmissionController(
            AdmissionSpec(rate=TokenBucketSpec(rate_per_s=10.0, burst=2.0))
        )
        # A long quiet period must not bank more than `burst` tokens.
        for _ in range(2):
            assert ctl.decide_submit(100.0, 0)[0] == ADMIT
        assert ctl.decide_submit(100.0, 0) == (SHED, "rate-limit")

    def test_rate_limit_checked_before_queue(self):
        ctl = AdmissionController(
            AdmissionSpec(
                rate=TokenBucketSpec(rate_per_s=1.0, burst=1.0),
                queue=QueueBoundSpec(max_pending=1, defer=True),
            )
        )
        ctl.decide_submit(0.0, 0)
        # Bucket empty *and* queue full: the rate limit sheds first, so
        # the submission never competes for defer slots.
        assert ctl.decide_submit(0.0, 1) == (SHED, "rate-limit")


class TestBrownoutController:
    def spec(self, **kw):
        params = dict(enter_pending=10, exit_pending=4, dwell_s=1.0)
        params.update(kw)
        return AdmissionSpec(brownout=BrownoutSpec(**params))

    def test_escalates_only_after_sustained_dwell(self):
        ctl = AdmissionController(self.spec())
        assert ctl.observe(0.0, 12) is None  # arms the pressure anchor
        assert ctl.observe(0.5, 12) is None  # dwell not yet served
        assert ctl.observe(1.0, 12) == (0, 1)
        assert ctl.stage == 1

    def test_momentary_spike_does_not_escalate(self):
        ctl = AdmissionController(self.spec())
        ctl.observe(0.0, 12)
        assert ctl.observe(0.5, 6) is None  # back to the middle zone
        assert ctl.next_review() is None  # anchor disarmed
        assert ctl.observe(2.0, 12) is None  # pressure restarts from zero
        assert ctl.observe(2.9, 12) is None
        assert ctl.stage == 0

    def test_recovery_needs_its_own_dwell_and_hysteresis_gap(self):
        ctl = AdmissionController(self.spec())
        ctl.observe(0.0, 12)
        ctl.observe(1.0, 12)
        assert ctl.stage == 1
        # Depth in the hysteresis band (exit < depth < enter): holds.
        for t in (1.5, 5.0, 50.0):
            assert ctl.observe(t, 7) is None
            assert ctl.next_review() is None
        # Sustained relief below exit_pending recovers one stage.
        assert ctl.observe(51.0, 2) is None
        assert ctl.observe(52.0, 2) == (1, 0)
        assert ctl.stage == 0

    def test_steady_mid_band_depth_never_oscillates(self):
        ctl = AdmissionController(self.spec())
        ctl.observe(0.0, 12)
        assert ctl.observe(1.0, 12) == (0, 1)
        for i in range(100):
            assert ctl.observe(2.0 + i * 0.1, 7) is None
        assert ctl.stage == 1

    def test_stage_caps_at_max_stage(self):
        ctl = AdmissionController(self.spec(max_stage=2))
        for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
            ctl.observe(t, 12)
        assert ctl.stage == 2
        # Pinned at the cap: no anchor stays armed, no review owed.
        assert ctl.next_review() is None

    def test_next_review_tracks_pending_dwell(self):
        ctl = AdmissionController(self.spec())
        assert ctl.next_review() is None
        ctl.observe(3.0, 12)
        assert ctl.next_review() == pytest.approx(4.0)

    def test_dwell_comparison_tolerates_float_rounding(self):
        """Regression: the review event fires at exactly
        ``anchor + dwell_s``, and ``(anchor + dwell) - anchor`` can land
        one ULP short of ``dwell`` (7.1 + 1.0 - 7.1 < 1.0).  The dwell
        comparison must still transition, else the simulator reschedules
        the review for the same instant forever -- a frozen-clock
        livelock."""
        anchor = 7.1
        ctl = AdmissionController(self.spec(dwell_s=1.0))
        ctl.observe(anchor, 12)
        # One ULP short of the exact dwell expiry: the worst rounding
        # the scheduled review time can exhibit.
        review_at = math.nextafter(anchor + 1.0, 0.0)
        assert review_at - anchor < 1.0  # the hazard is real
        assert ctl.observe(review_at, 12) == (0, 1)

    @staticmethod
    def feed(ctl, fold, t, depth):
        """One depth observation; a transition reaches *fold* as the
        ``brownout`` event the simulator emits for it."""
        transition = ctl.observe(t, depth)
        if transition is not None:
            old, new = transition
            action = "escalate" if new > old else "recover"
            fold.observe(t, "brownout", None, {"action": action, "stage": new})

    @staticmethod
    def complete(fold, t, key):
        fold.observe(t, "submit", key, {})
        fold.observe(t, "dispatch", key, {
            "pe_kind": "GPP", "node": 0, "resource_index": 0, "slices": 0,
            "transfer_time": 0.0, "synthesis_time": 0.0, "reconfig_time": 0.0,
            "reused": False,
        })
        fold.observe(t, "complete", key, {})

    def test_residency_accounting(self):
        ctl, fold = AdmissionController(self.spec()), MetricsCollector()
        self.feed(ctl, fold, 0.0, 12)
        self.feed(ctl, fold, 1.0, 12)  # enters brownout at t=1
        self.complete(fold, 1.5, "a")
        self.feed(ctl, fold, 2.0, 2)
        self.feed(ctl, fold, 3.0, 2)  # recovers at t=3
        # Healthy again: not goodput-under-degradation.
        self.complete(fold, 3.5, "b")
        report = fold.report(4.0)
        assert report.brownout_transitions == 2
        assert report.brownout_time_s == pytest.approx(2.0)
        # One completion in the 2 s degraded window.
        assert report.overload_goodput_tasks_per_s == pytest.approx(0.5)

    def test_finalize_closes_open_residency_window(self):
        ctl, fold = AdmissionController(self.spec()), MetricsCollector()
        self.feed(ctl, fold, 0.0, 12)
        self.feed(ctl, fold, 1.0, 12)
        assert fold.report(4.5).brownout_time_s == pytest.approx(3.5)


class TestGridOccupancy:
    def test_empty_grid_is_idle(self):
        rms = hybrid_rms()
        assert grid_occupancy(rms.nodes) == 0.0

    def test_busy_fraction_counts_in_flight_work(self):
        rms = gpp_rms(nodes=2)
        sim, _ = checked_sim(rms, None)
        sim.submit_workload([(0.0, gpp_task(0, t=10.0))])
        sim.run(until=1.0)
        assert grid_occupancy(rms.nodes) == pytest.approx(0.5)


class TestSimulatorIntegration:
    def test_bounded_queue_sheds_with_exact_conservation(self):
        spec = AdmissionSpec(queue=QueueBoundSpec(max_pending=2))
        sim, tracer = checked_sim(gpp_rms(), spec)
        sim.submit_workload([(0.0, gpp_task(i, t=5.0)) for i in range(6)])
        report = sim.run()
        # One dispatches immediately, two queue, three are shed.
        assert report.shed == 3
        assert report.completed == 3
        checker = tracer.checker
        checker.assert_no_lost_tasks()
        checker.assert_conservation()
        assert checker.conservation()["shed"] == 3

    def test_shed_task_fails_its_jss_job(self):
        spec = AdmissionSpec(queue=QueueBoundSpec(max_pending=1))
        sim, _ = checked_sim(gpp_rms(), spec)
        sim.submit_workload([(0.0, gpp_task(i, t=5.0)) for i in range(3)])
        report = sim.run()
        assert report.shed == 1
        reasons = [
            record.failure_reason
            for job in sim.jss.jobs.values()
            for record in job.records.values()
            if record.failure_reason
        ]
        assert any(r.startswith("shed:") for r in reasons)

    def test_backpressure_defers_then_admits_after_drain(self):
        spec = AdmissionSpec(
            queue=QueueBoundSpec(
                max_pending=1, defer=True, defer_delay_s=0.5, max_defers=10
            )
        )
        sim, tracer = checked_sim(gpp_rms(), spec)
        sim.submit_workload([(0.0, gpp_task(i, t=1.0)) for i in range(4)])
        report = sim.run()
        # Nothing is lost: deferred work parks outside the queue and is
        # re-offered until the bound admits it.
        assert report.completed == 4
        assert report.shed == 0
        assert report.admission_deferrals > 0
        tracer.checker.assert_conservation()
        kinds = [e.kind for e in tracer.sinks[1].events]
        assert "defer" in kinds and "admit" in kinds

    def test_utilization_gate_defers_placement_without_deadlock(self):
        spec = AdmissionSpec(utilization=UtilizationSpec(threshold=0.5))
        sim, tracer = checked_sim(gpp_rms(nodes=2), spec)
        sim.submit_workload([(0.0, gpp_task(0, t=2.0)), (0.1, gpp_task(1, t=2.0))])
        report = sim.run()
        # The second task waits for the first completion (occupancy 0.5
        # >= threshold), then places: gated but never deadlocked.
        assert report.completed == 2
        assert report.placements_gated > 0
        assert report.makespan_s == pytest.approx(4.0, abs=0.5)
        tracer.checker.assert_conservation()

    def test_brownout_stage2_forces_low_priority_to_gpp(self):
        # max_stage=2 pins the controller below the shedding stage, so
        # every queued low-priority dispatch happens *while* degraded.
        spec = AdmissionSpec(
            brownout=BrownoutSpec(
                enter_pending=2, exit_pending=1, dwell_s=0.2, max_stage=2
            )
        )
        sim, tracer = checked_sim(hybrid_rms(), spec)
        stream = []
        for i in range(10):
            task = hw_task(i, function=f"f{i}", t=2.0)
            stream.append((0.0, replace(task, priority=-1)))
        sim.submit_workload(stream)
        report = sim.run()
        assert report.brownout_max_stage == 2
        assert report.brownout_degraded > 0
        assert report.completed == 10
        kinds = [e.kind for e in tracer.sinks[1].events]
        assert "degrade" in kinds and "brownout" in kinds
        tracer.checker.assert_conservation()

    def test_brownout_stage3_sheds_newest_lowest_priority_first(self):
        spec = AdmissionSpec(
            brownout=BrownoutSpec(enter_pending=3, exit_pending=1, dwell_s=0.1)
        )
        sim, tracer = checked_sim(gpp_rms(), spec)
        stream = [(0.0, gpp_task(0, t=30.0))]
        for i in range(1, 7):
            prio = -1 if i >= 4 else 0
            stream.append((0.0, replace(gpp_task(i, t=30.0), priority=prio)))
        sim.submit_workload(stream)
        report = sim.run(until=5.0)
        shed_ids = [
            e.key[1]  # (job_id, task_id)
            for e in tracer.sinks[1].events
            if e.kind == "shed"
        ]
        assert len(shed_ids) == 5  # depth 6 -> exit_pending 1
        # All low-priority pending work goes before any normal-priority.
        assert set(shed_ids[:3]) == {4, 5, 6}
        assert report.brownout_max_stage == 3

    def test_brownout_recovers_after_queue_drains(self):
        spec = AdmissionSpec(
            brownout=BrownoutSpec(enter_pending=3, exit_pending=1, dwell_s=0.2)
        )
        sim, tracer = checked_sim(gpp_rms(), spec)
        sim.submit_workload([(0.0, gpp_task(i, t=0.4)) for i in range(8)])
        report = sim.run()
        assert report.completed + report.shed == 8
        stages = [
            e.payload["stage"]
            for e in tracer.sinks[1].events
            if e.kind == "brownout"
        ]
        assert stages and stages[-1] == 0, "run must end fully recovered"
        assert report.brownout_transitions == len(stages)
        assert report.brownout_time_s > 0.0

    def test_rate_limit_sheds_with_reason(self):
        spec = AdmissionSpec(rate=TokenBucketSpec(rate_per_s=1.0, burst=1.0))
        sim, tracer = checked_sim(gpp_rms(), spec)
        sim.submit_workload([(0.0, gpp_task(i, t=0.1)) for i in range(3)])
        report = sim.run()
        assert report.shed == 2
        reasons = {
            e.payload["reason"]
            for e in tracer.sinks[1].events
            if e.kind == "shed"
        }
        assert reasons == {"rate-limit"}


class TestZeroCostWhenDisabled:
    def trace_lines(self, admission):
        sink = InMemorySink()
        tracer = Tracer(TraceInvariantChecker(), sink)
        spec = ExperimentSpec(
            tasks=12, configurations=4, arrival_rate_per_s=6.0,
            gpp_fraction=0.3, seed=3, admission=admission,
        )
        run_experiment(spec, tracer=tracer)
        return [e.to_json() for e in canonical_events(list(sink.events))]

    def test_inert_spec_is_byte_identical_to_none(self):
        assert self.trace_lines(None) == self.trace_lines(AdmissionSpec())

    def test_armed_spec_changes_only_annotated_events(self):
        """A generous bound that never binds adds admit events but must
        not perturb the seeded workload or its scheduling."""
        baseline = self.trace_lines(None)
        armed = self.trace_lines(
            AdmissionSpec(queue=QueueBoundSpec(max_pending=10_000))
        )
        stripped = [
            line for line in armed
            if json.loads(line)["kind"] != "admit"
        ]
        assert stripped == baseline


class TestFlashCrowdAcceptance:
    """The PR's headline claim, as an executable assertion."""

    def run_surge(self, admission):
        telemetry = TelemetryRegistry()
        tracer = Tracer(TraceInvariantChecker(), InMemorySink(capacity=1))
        spec = ExperimentSpec(
            tasks=250,
            arrival_rate_per_s=4.0,
            flash_crowd=(2.0, 12.0, 6.0),  # >= 5x surge
            area_range=(2_000, 12_000),
            seed=7,
            admission=admission,
        )
        result = run_experiment(spec, tracer=tracer, telemetry=telemetry)
        tracer.checker.assert_no_lost_tasks()
        tracer.checker.assert_conservation()
        depth = max(
            (value for s in telemetry.series("sim_queue_depth")
             for _, value in s.points),
            default=0.0,
        )
        return result.report, depth

    def test_protection_bounds_depth_and_wait_under_5x_surge(self):
        unprotected, depth0 = self.run_surge(None)
        protected, depth1 = self.run_surge(ADMISSION_PRESETS["brownout"])
        max_pending = ADMISSION_PRESETS["brownout"].queue.max_pending
        assert depth1 <= max_pending
        assert depth1 < depth0
        assert protected.p95_wait_s < unprotected.p95_wait_s / 2
        assert protected.shed > 0
        assert protected.brownout_transitions > 0
        assert protected.overload_goodput_tasks_per_s > 0.0
        # Conservation, spelled out: every submission is accounted for.
        total = (
            protected.completed + protected.failed
            + protected.discarded + protected.shed
        )
        assert total == 250


def report_crc(report) -> str:
    """CRC-32 over every report field, sorted by name."""
    text = json.dumps(asdict(report), sort_keys=True)
    return f"{zlib.crc32(text.encode()):08x}"


def rms_counters(telemetry) -> dict[str, float]:
    """Final values of the ``rms_placements_*_total`` counters."""
    return {
        series.name: series.value
        for series in telemetry.series()
        if series.name.startswith("rms_placements_")
    }


class TestOverloadReportPins:
    """Seeded overloaded runs, pinned to the CRC of every report field
    sorted by name.  The golden traces never arm a queue bound, the
    brownout controller or the utilization gate; these pins do, so the
    shed, degrade and gated-placement paths cannot drift unnoticed.
    Hybrid-cost and first-fit agree on this two-node grid, so scenarios
    (a) and (d) share a pin."""

    NODES = (
        NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
        NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
    )
    QUEUE = QueueBoundSpec(max_pending=64)
    BROWNOUT = BrownoutSpec(enter_pending=24, exit_pending=8, dwell_s=0.5)

    PINNED_CRC = {
        "brownout": "feca002f",
        "brownout+gate": "1ddb377e",
        "brownout-random": "1739cbeb",
        "brownout-first-fit": "feca002f",
    }
    PINNED_COUNTERS = {
        "brownout": {
            "rms_placements_deferred_total": 6987.0,
            "rms_placements_planned_total": 244.0,
        },
        "chaos-defensive": {
            "rms_placements_deferred_total": 849.0,
            "rms_placements_planned_total": 197.0,
        },
    }

    def spec(self, scenario: str) -> ExperimentSpec:
        utilization = UtilizationSpec(0.6) if scenario == "brownout+gate" else None
        strategy = {
            "brownout-random": "random",
            "brownout-first-fit": "first-fit",
        }.get(scenario, "hybrid-cost")
        return ExperimentSpec(
            strategy=strategy,
            tasks=300,
            nodes=self.NODES,
            arrival_rate_per_s=2.0,
            gpp_fraction=0.4,
            area_range=(2_000, 12_000),
            seed=5,
            flash_crowd=(10.0, 400.0, 6.0),
            low_priority_fraction=0.3,
            tenants=3,
            admission=AdmissionSpec(
                queue=self.QUEUE, brownout=self.BROWNOUT, utilization=utilization
            ),
        )

    #: Every pin holds on the heap oracle and on the default engine.
    ENGINES = ("heap", "calendar")

    @pytest.mark.parametrize("scenario", sorted(PINNED_CRC))
    def test_overload_report_is_pinned(self, scenario):
        for engine in self.ENGINES:
            report = run_experiment(self.spec(scenario).with_(engine=engine)).report
            assert report.brownout_max_stage >= 2
            assert report.brownout_degraded > 0
            assert report.shed > 0
            if scenario == "brownout+gate":
                assert report.placements_gated > 0
            assert report_crc(report) == self.PINNED_CRC[scenario], engine

    def test_overload_rms_counters_are_pinned(self):
        for engine in self.ENGINES:
            telemetry = TelemetryRegistry()
            spec = self.spec("brownout").with_(engine=engine)
            run_experiment(spec, telemetry=telemetry)
            assert rms_counters(telemetry) == self.PINNED_COUNTERS["brownout"], engine

    def test_chaos_defensive_rms_counters_are_pinned(self):
        from repro.sim.faults import FAULT_PRESETS
        from repro.sim.resilience import RESILIENCE_PRESETS

        for engine in self.ENGINES:
            telemetry = TelemetryRegistry()
            spec = ExperimentSpec(
                tasks=200, nodes=self.NODES, gpp_fraction=0.4, seed=1,
                faults=replace(FAULT_PRESETS["chaos"], horizon_s=100.0),
                resilience=RESILIENCE_PRESETS["defensive"], engine=engine,
            )
            report = run_experiment(spec, telemetry=telemetry).report
            assert report.quarantines > 0 and report.failed > 0
            assert (
                rms_counters(telemetry) == self.PINNED_COUNTERS["chaos-defensive"]
            ), engine
