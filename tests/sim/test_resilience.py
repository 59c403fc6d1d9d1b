"""The adaptive resilience layer: deadlines, checkpoint/restart +
migration, speculative replicas, and breaker-driven quarantine.

Scenario tests drive :class:`DReAMSim` directly with hand-built grids
(the same idiom as ``test_faults.py``); the acceptance test at the
bottom runs the declarative chaos path and pins the PR's headline
claim -- checkpointing strictly reduces wasted work under the chaos
preset at identical seeds.
"""

import math

import pytest

from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.health import HealthPolicy
from repro.grid.jss import JobStatus
from repro.grid.network import Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.bitstream import Bitstream
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.hardware.taxonomy import PEClass
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.faults import FAULT_PRESETS, FaultSpec, RetryPolicy
from repro.sim.resilience import (
    RESILIENCE_PRESETS,
    CheckpointSpec,
    DeadlineSpec,
    ResilienceSpec,
    SpeculationSpec,
)
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import InMemorySink, TraceInvariantChecker, Tracer


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
    )


def hybrid_rms(*, nodes=1, network=False):
    net = Network.fully_connected(list(range(nodes))) if network else None
    rms = ResourceManagementSystem(network=net)
    for node_id in range(nodes):
        node = Node(node_id=node_id)
        node.add_rpe(device_by_model("XC5VLX155"), regions=2)
        node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=1_000))
        rms.register_node(node)
    return rms


def gpp_rms(*, nodes=1, mips=1_000):
    rms = ResourceManagementSystem()
    for node_id in range(nodes):
        node = Node(node_id=node_id)
        node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=mips))
        rms.register_node(node)
    return rms


def checked_sim(rms, resilience, **kwargs):
    """A simulator with the online invariant checker attached, so every
    scenario also validates its own event stream."""
    tracer = Tracer(TraceInvariantChecker(), InMemorySink())
    return DReAMSim(rms, tracer=tracer, resilience=resilience, **kwargs), tracer


class TestSpecs:
    def test_deadline_spec_validation(self):
        with pytest.raises(ValueError):
            DeadlineSpec(soft_factor=0.0)
        with pytest.raises(ValueError):
            DeadlineSpec(soft_factor=5.0, hard_factor=2.0)
        with pytest.raises(ValueError):
            DeadlineSpec(slack_s=-1.0)
        with pytest.raises(ValueError):
            CheckpointSpec(interval_s=0.0)
        with pytest.raises(ValueError):
            SpeculationSpec(slowdown_factor=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda v: CheckpointSpec(interval_s=v), "interval_s"),
            (lambda v: CheckpointSpec(overhead_s=v), "overhead_s"),
            (lambda v: DeadlineSpec(soft_factor=v), "soft_factor"),
            (lambda v: DeadlineSpec(hard_factor=v), "hard_factor"),
            (lambda v: DeadlineSpec(slack_s=v), "slack_s"),
            (lambda v: SpeculationSpec(slowdown_factor=v), "slowdown_factor"),
        ],
    )
    def test_non_finite_fields_rejected(self, make, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make(value)

    def test_budget_derivation(self):
        spec = DeadlineSpec(soft_factor=4.0, hard_factor=12.0, slack_s=1.0)
        assert spec.soft_deadline_s(2.0) == pytest.approx(9.0)
        assert spec.hard_deadline_s(2.0) == pytest.approx(25.0)

    def test_enabled_property(self):
        assert not ResilienceSpec().enabled
        assert ResilienceSpec(breaker=HealthPolicy()).enabled
        assert ResilienceSpec(deadlines=DeadlineSpec()).enabled

    def test_presets(self):
        assert RESILIENCE_PRESETS["none"].enabled is False
        for name in ("defensive", "aggressive"):
            assert RESILIENCE_PRESETS[name].enabled, name


class TestDeadlines:
    def test_hard_deadline_fails_task(self):
        """A 10 s task against a 5 s hard budget dies at t=5 with the
        ``deadline_exceeded`` reason on its JSS record."""
        res = ResilienceSpec(
            deadlines=DeadlineSpec(
                soft_factor=0.2, hard_factor=0.5, slack_s=0.0, reschedule=False
            )
        )
        sim, tracer = checked_sim(gpp_rms(), res)
        sim.submit_workload([(0.0, gpp_task(0, t=10.0))])
        report = sim.run()
        tracer.close()
        assert report.completed == 0
        assert report.failed == 1
        assert report.deadline_soft_misses == 1
        assert report.deadline_hard_misses == 1
        assert report.deadline_miss_rate == 1.0
        job = sim.jss.job(next(j for j, _ in sim.metrics.tasks))
        record = job.records[0]
        assert record.status is JobStatus.FAILED
        assert record.finish_time == pytest.approx(5.0)
        assert record.failure_reason.startswith("deadline_exceeded")

    def test_soft_deadline_requeues_on_another_node(self):
        """The soft watchdog cancels the straggling placement, excludes
        its node, and the retry lands on the other node."""
        res = ResilienceSpec(
            deadlines=DeadlineSpec(soft_factor=0.3, hard_factor=10.0, slack_s=0.0)
        )
        sim, tracer = checked_sim(
            gpp_rms(nodes=2), res, retry=RetryPolicy(backoff_base_s=0.5)
        )
        sim.submit_workload([(0.0, gpp_task(0, t=10.0))])
        report = sim.run()
        tracer.close()
        assert report.completed == 1
        assert report.failed == 0
        assert report.deadline_soft_misses == 1
        assert report.deadline_hard_misses == 0
        # Cancelled at t=3, 0.5 s backoff, full 10 s rerun elsewhere.
        assert report.makespan_s == pytest.approx(13.5)
        assert report.wasted_work_s == pytest.approx(3.0)
        kinds = [e.kind for e in tracer.sinks[1].events]
        assert "timeout" in kinds

    def test_soft_miss_without_reschedule_only_warns(self):
        res = ResilienceSpec(
            deadlines=DeadlineSpec(
                soft_factor=0.3, hard_factor=10.0, slack_s=0.0, reschedule=False
            )
        )
        sim, tracer = checked_sim(gpp_rms(), res)
        sim.submit_workload([(0.0, gpp_task(0, t=10.0))])
        report = sim.run()
        tracer.close()
        assert report.completed == 1
        assert report.deadline_soft_misses == 1
        assert report.makespan_s == pytest.approx(10.0)  # undisturbed
        timeout = next(e for e in tracer.sinks[1].events if e.kind == "timeout")
        assert timeout.payload["action"] == "warn"

    def test_per_task_budgets_override_spec(self):
        """Explicit Task deadlines win over the spec's derived ones."""
        res = ResilienceSpec(
            deadlines=DeadlineSpec(soft_factor=100.0, hard_factor=100.0)
        )
        from dataclasses import replace

        task = replace(gpp_task(0, t=10.0), soft_deadline_s=1.0, hard_deadline_s=2.0)
        sim, tracer = checked_sim(gpp_rms(), res)
        sim.submit_workload([(0.0, task)])
        report = sim.run()
        tracer.close()
        assert report.failed == 1
        record = sim.jss.job(next(j for j, _ in sim.metrics.tasks)).records[0]
        assert record.finish_time == pytest.approx(2.0)

    def test_generous_deadlines_change_nothing(self):
        baseline = DReAMSim(gpp_rms())
        baseline.submit_workload([(0.0, gpp_task(0, t=2.0)), (0.5, gpp_task(1))])
        base_report = baseline.run()
        res = ResilienceSpec(deadlines=DeadlineSpec())
        sim, tracer = checked_sim(gpp_rms(), res)
        sim.submit_workload([(0.0, gpp_task(0, t=2.0)), (0.5, gpp_task(1))])
        report = sim.run()
        tracer.close()
        assert report.deadline_soft_misses == 0
        assert report.deadline_hard_misses == 0
        assert report.makespan_s == base_report.makespan_s
        assert report.mean_wait_s == base_report.mean_wait_s

    def test_hard_deadline_in_queue_fails_without_placement(self):
        """A task that never gets dispatched (grid saturated) still
        fails at its hard deadline, straight from the queue."""
        res = ResilienceSpec(
            deadlines=DeadlineSpec(
                soft_factor=1.0, hard_factor=2.0, slack_s=0.0, reschedule=False
            )
        )
        sim, tracer = checked_sim(gpp_rms(), res)
        # Task 0 occupies the only GPP for 10 s; task 1 (t=3) waits and
        # its hard deadline (6 s) fires while still queued.
        sim.submit_workload(
            [(0.0, gpp_task(0, t=10.0)), (0.0, gpp_task(1, t=3.0))]
        )
        report = sim.run()
        tracer.close()
        assert report.failed >= 1
        failed = [
            tm for tm in sim.metrics.tasks.values() if tm.failure_reason
        ]
        assert any(
            tm.failure_reason.startswith("deadline_exceeded") and tm.dispatch is None
            for tm in failed
        )


class TestCheckpoints:
    def run_hw(self, *, resilience, crash_at=None, t=4.0, retry=None):
        rms = hybrid_rms()
        sim, tracer = checked_sim(
            rms, resilience, retry=retry or RetryPolicy(backoff_base_s=0.5)
        )
        sim.submit_workload([(0.0, hw_task(0, t=t))])
        if crash_at is not None:
            sim.schedule_node_crash(crash_at, 0, rejoin_after_s=1.0)
        report = sim.run()
        tracer.close()
        return sim, report, tracer

    def test_checkpoints_taken_at_intervals(self):
        res = ResilienceSpec(checkpoint=CheckpointSpec(interval_s=1.0))
        sim, report, tracer = self.run_hw(resilience=res)
        assert report.completed == 1
        # 4 s of fabric execution, snapshots strictly before the end.
        assert report.checkpoints == 3
        fracs = [
            e.payload["frac"]
            for e in tracer.sinks[1].events
            if e.kind == "checkpoint"
        ]
        assert fracs == [pytest.approx(0.25), pytest.approx(0.5), pytest.approx(0.75)]

    def test_overhead_extends_execution(self):
        res = ResilienceSpec(
            checkpoint=CheckpointSpec(interval_s=1.0, overhead_s=0.1)
        )
        _, plain, _ = self.run_hw(
            resilience=ResilienceSpec(checkpoint=CheckpointSpec(interval_s=1.0))
        )
        _, taxed, _ = self.run_hw(resilience=res)
        assert taxed.checkpoint_overhead_s == pytest.approx(0.3)
        assert taxed.makespan_s == pytest.approx(plain.makespan_s + 0.3)

    def test_gpp_tasks_are_not_checkpointed(self):
        res = ResilienceSpec(checkpoint=CheckpointSpec(interval_s=0.25))
        sim, tracer = checked_sim(gpp_rms(), res)
        sim.submit_workload([(0.0, gpp_task(0, t=4.0))])
        report = sim.run()
        tracer.close()
        assert report.completed == 1
        assert report.checkpoints == 0

    def test_crash_resumes_from_last_checkpoint(self):
        """A crash mid-execution restarts from the newest snapshot:
        only the tail past it is re-run, and the saved head is
        accounted in ``wasted_work_saved_s``."""
        res = ResilienceSpec(checkpoint=CheckpointSpec(interval_s=1.0))
        # Locate the execution window first (setup is reconfig-time).
        sim0, plain, _ = self.run_hw(resilience=None)
        tm0 = next(iter(sim0.metrics.tasks.values()))
        crash_at = tm0.start + 2.5  # past the frac=0.5 snapshot
        _, without, _ = self.run_hw(resilience=None, crash_at=crash_at)
        sim1, with_ckpt, tracer = self.run_hw(resilience=res, crash_at=crash_at)
        assert without.completed == with_ckpt.completed == 1
        assert with_ckpt.wasted_work_saved_s == pytest.approx(2.0)
        # Without checkpoints the full 2.5 s is lost; with them only
        # the 0.5 s past the last snapshot is.
        assert without.wasted_work_s == pytest.approx(with_ckpt.wasted_work_s + 2.0)
        assert with_ckpt.makespan_s < without.makespan_s
        # The resumed dispatch is recorded as a migration.
        assert with_ckpt.migrations == 1
        kinds = [e.kind for e in tracer.sinks[1].events]
        assert "migrate" in kinds

    def test_short_tasks_skip_checkpointing(self):
        res = ResilienceSpec(checkpoint=CheckpointSpec(interval_s=10.0))
        _, report, _ = self.run_hw(resilience=res, t=4.0)
        assert report.checkpoints == 0


class TestSpeculation:
    def stretched(self, *, overhead_s, factor=1.5, nodes=2):
        """A fabric task whose checkpoint overhead stretches it past
        the speculation trigger -- a deterministic straggler."""
        res = ResilienceSpec(
            checkpoint=CheckpointSpec(interval_s=1.0, overhead_s=overhead_s),
            speculation=SpeculationSpec(slowdown_factor=factor),
        )
        rms = hybrid_rms(nodes=nodes, network=True)
        sim, tracer = checked_sim(rms, res)
        sim.submit_workload([(0.0, hw_task(0, t=4.0))])
        report = sim.run()
        tracer.close()
        return sim, report, tracer

    def test_replica_wins_against_straggler(self):
        # Primary: 4 s exec + 3 x 3 s overhead ~= 13 s; trigger at
        # ~1.5 x 4 s = 6 s; replica runs 4 s untaxed and wins at ~10 s.
        sim, report, tracer = self.stretched(overhead_s=3.0)
        assert report.completed == 1
        assert report.speculative_launches == 1
        assert report.speculative_wins == 1
        assert report.speculative_win_rate == 1.0
        tm = next(iter(sim.metrics.tasks.values()))
        assert tm.speculative_win
        win = next(
            e
            for e in tracer.sinks[1].events
            if e.kind == "speculate" and e.payload["action"] == "win"
        )
        assert win.payload["node"] != win.payload["loser"]
        # The task completed on the replica's node.
        assert tm.node_id == win.payload["node"]

    def test_replica_loses_against_recovering_primary(self):
        # Primary: 4 s + 3 x 1 s = 7 s finish; trigger at ~6 s; the
        # replica (4 s) would finish at ~10 s and loses.
        sim, report, tracer = self.stretched(overhead_s=1.0)
        assert report.completed == 1
        assert report.speculative_launches == 1
        assert report.speculative_wins == 0
        assert report.speculative_wasted_s > 0
        lose = next(
            e
            for e in tracer.sinks[1].events
            if e.kind == "speculate" and e.payload["action"] == "lose"
        )
        assert lose.key is not None

    def test_no_speculation_for_healthy_tasks(self):
        res = ResilienceSpec(speculation=SpeculationSpec(slowdown_factor=1.5))
        rms = hybrid_rms(nodes=2, network=True)
        sim, tracer = checked_sim(rms, res)
        sim.submit_workload([(0.0, hw_task(0, t=4.0)), (0.0, gpp_task(1))])
        report = sim.run()
        tracer.close()
        assert report.completed == 2
        assert report.speculative_launches == 0

    def test_single_node_grid_cannot_speculate(self):
        """No second node to host the replica: the trigger fires but
        finds no placement, and the run completes unreplicated."""
        sim, report, tracer = self.stretched(overhead_s=3.0, nodes=1)
        assert report.completed == 1
        assert report.speculative_launches == 0


class TestQuarantineIntegration:
    def flaky_grid_run(self, *, breaker=True, tasks=6):
        """Node 0 crashes repeatedly; with the breaker on it gets
        quarantined and later work avoids it."""
        policy = HealthPolicy(
            ewma_alpha=0.6,
            open_threshold=0.5,
            min_events=2,
            open_duration_s=30.0,
        )
        res = ResilienceSpec(breaker=policy) if breaker else None
        rms = gpp_rms(nodes=2)
        sim, tracer = checked_sim(
            rms, res, retry=RetryPolicy(backoff_base_s=0.25)
        )
        workload = [(float(i), gpp_task(i, t=2.0)) for i in range(tasks)]
        sim.submit_workload(workload)
        for crash_at in (0.5, 1.5, 2.5):
            sim.schedule_node_crash(crash_at, 0, rejoin_after_s=0.4)
        report = sim.run()
        tracer.close()
        return sim, report, tracer

    def test_breaker_quarantines_flaky_node(self):
        sim, report, tracer = self.flaky_grid_run()
        assert report.completed == 6
        assert report.quarantines >= 1
        assert report.quarantine_time_s > 0
        events = tracer.sinks[1].events
        opened = [
            e for e in events
            if e.kind == "quarantine" and e.payload["phase"] == "open"
        ]
        assert opened and all(e.payload["node"] == 0 for e in opened)
        # After the (first) trip, no dispatch lands on node 0.
        t_open = opened[0].time
        later = [
            e for e in events
            if e.kind == "dispatch" and e.time > t_open
        ]
        assert later and all(e.payload["node"] != 0 for e in later)

    def test_breaker_reduces_fault_exposure(self):
        _, without, _ = self.flaky_grid_run(breaker=False)
        _, with_breaker, _ = self.flaky_grid_run(breaker=True)
        assert with_breaker.completed == without.completed == 6
        # Quarantine steers work away from the crashing node, so fewer
        # placements are present to be killed.
        assert with_breaker.fault_events < without.fault_events

    def test_half_open_probe_rehabilitates_node(self):
        """After the quarantine window a probe trickles through and,
        when it succeeds, the breaker closes again."""
        policy = HealthPolicy(
            ewma_alpha=0.6,
            open_threshold=0.5,
            min_events=2,
            open_duration_s=5.0,
            half_open_probes=1,
            close_after=1,
        )
        res = ResilienceSpec(breaker=policy)
        rms = gpp_rms(nodes=2)
        sim, tracer = checked_sim(rms, res, retry=RetryPolicy(backoff_base_s=0.25))
        # Two early crashes trip node 0's breaker.  A long task pins
        # node 1 (submitted at 5.9, while node 0 is still OPEN), so the
        # late tasks can only run by probing the HALF_OPEN node 0.
        workload = [(float(i) * 0.5, gpp_task(i, t=1.0)) for i in range(4)]
        workload += [(5.9, gpp_task(20, t=30.0))]
        workload += [(float(8 + 2 * i), gpp_task(10 + i, t=1.0)) for i in range(4)]
        sim.submit_workload(workload)
        for crash_at in (0.25, 1.25):
            sim.schedule_node_crash(crash_at, 0, rejoin_after_s=0.3)
        report = sim.run()
        tracer.close()
        events = tracer.sinks[1].events
        kinds = [e.kind for e in events]
        assert "probe" in kinds
        closes = [
            e for e in events
            if e.kind == "quarantine" and e.payload["phase"] == "close"
        ]
        assert closes, "breaker never re-closed"
        assert report.completed == len(sim.metrics.tasks)


class TestStreamIsolation:
    def submit_times(self, spec):
        tracer = Tracer(TraceInvariantChecker(), InMemorySink())
        run_experiment(spec, tracer=tracer)
        tracer.close()
        return [
            (e.time, e.payload.get("task"))
            for e in tracer.sinks[1].events
            if e.kind == "submit"
        ]

    def test_resilience_does_not_perturb_arrivals_under_chaos(self):
        """Arming every resilience mechanism leaves the seeded arrival
        sequence untouched: the layer draws no randomness, so the
        PR 2 stream-splitting contract extends to the new layer."""
        spec = ExperimentSpec(tasks=40, seed=7, faults=FAULT_PRESETS["chaos"])
        plain = self.submit_times(spec)
        armed = self.submit_times(
            spec.with_(resilience=RESILIENCE_PRESETS["aggressive"])
        )
        assert len(plain) == 40
        assert plain == armed


class TestAcceptance:
    """The PR's measurable claim: under the chaos preset, enabling
    checkpointing strictly lowers the wasted slice-seconds at identical
    seeds."""

    #: Long fabric tasks (modest speedups, 4-10 s required times) so
    #: the chaos preset's crashes/SEUs land mid-execution, where
    #: checkpoints matter.
    SPEC = ExperimentSpec(
        tasks=80,
        nodes=(
            NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
            NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
        ),
        arrival_rate_per_s=2.0,
        area_range=(2_000, 12_000),
        gpp_fraction=0.2,
        required_time_range_s=(4.0, 10.0),
        speedup_range=(2.0, 5.0),
        seed=0,
        faults=FAULT_PRESETS["chaos"],
    )

    def test_checkpointing_strictly_cuts_wasted_work(self):
        without = run_experiment(self.SPEC).report
        with_ckpt = run_experiment(
            self.SPEC.with_(
                resilience=ResilienceSpec(checkpoint=CheckpointSpec(interval_s=0.25))
            )
        ).report
        assert without.fault_events > 0, "chaos preset must actually bite"
        assert with_ckpt.checkpoints > 0
        assert with_ckpt.wasted_work_saved_s > 0
        assert with_ckpt.wasted_slice_seconds < without.wasted_slice_seconds
