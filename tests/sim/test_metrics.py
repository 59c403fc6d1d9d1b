"""Unit tests for the simulation metrics collector."""

import json
import zlib
from dataclasses import asdict

import pytest

from repro.sim.metrics import (
    MetricsCollector,
    ResourceUsage,
    TaskMetrics,
)


def report_crc(report) -> str:
    """CRC-32 over every report field, sorted by name."""
    text = json.dumps(asdict(report), sort_keys=True)
    return f"{zlib.crc32(text.encode()):08x}"


def record_one(collector, key, *, arrival, dispatch, start, finish, reconfig=0.0, reused=False):
    collector.record_arrival(key, arrival)
    collector.record_dispatch(
        key,
        dispatch,
        pe_kind="RPE",
        node_id=0,
        transfer_time=0.1,
        synthesis_time=0.0,
        reconfig_time=reconfig,
        reused=reused,
    )
    collector.record_start(key, start)
    collector.record_finish(key, finish, "node0:RPE0")


class TestTaskMetrics:
    def test_derived_times(self):
        tm = TaskMetrics(key=1, arrival=1.0, dispatch=3.0, finish=10.0)
        assert tm.wait_time == 2.0
        assert tm.turnaround == 9.0

    def test_undefined_until_events_happen(self):
        tm = TaskMetrics(key=1, arrival=1.0)
        assert tm.wait_time is None
        assert tm.turnaround is None


class TestResourceUsage:
    def test_utilization_clamped(self):
        usage = ResourceUsage("r", busy_s=15.0)
        assert usage.utilization(10.0) == 1.0
        assert usage.utilization(30.0) == pytest.approx(0.5)
        assert usage.utilization(0.0) == 0.0


class TestCollector:
    def test_duplicate_key_rejected(self):
        collector = MetricsCollector()
        collector.record_arrival(1, 0.0)
        with pytest.raises(ValueError):
            collector.record_arrival(1, 0.0)

    def test_report_aggregates(self):
        collector = MetricsCollector()
        record_one(collector, "a", arrival=0.0, dispatch=1.0, start=1.5, finish=3.5, reconfig=0.5)
        record_one(collector, "b", arrival=0.0, dispatch=3.0, start=3.0, finish=5.0, reused=True)
        collector.record_arrival("c", 4.0)  # still pending
        collector.record_arrival("d", 4.0)
        collector.record_discard("d", 9.0)

        report = collector.report(horizon_s=10.0)
        assert report.completed == 2
        assert report.pending == 1
        assert report.discarded == 1
        assert report.mean_wait_s == pytest.approx((1.0 + 3.0) / 2)
        assert report.mean_turnaround_s == pytest.approx((3.5 + 5.0) / 2)
        assert report.makespan_s == 5.0
        assert report.reconfigurations == 1
        assert report.total_reconfig_time_s == pytest.approx(0.5)
        assert report.reuse_hits == 1
        assert report.reuse_rate == pytest.approx(0.5)
        # busy time: (3.5-1.5) + (5.0-3.0) = 4 over 10 s horizon
        assert report.per_resource_utilization["node0:RPE0"] == pytest.approx(0.4)
        assert report.tasks_by_pe_kind == {"RPE": 2}
        # Every field, percentiles included, as the per-task-dataclass
        # collector this one replaced reported it.
        assert report_crc(report) == "e3650cef"

    def test_empty_report(self):
        report = MetricsCollector().report(horizon_s=5.0)
        assert report.completed == 0
        assert report.mean_wait_s == 0.0
        assert report.reuse_rate == 0.0
        assert report.mean_utilization == 0.0

    def test_summary_lines_render(self):
        collector = MetricsCollector()
        record_one(collector, "a", arrival=0.0, dispatch=1.0, start=1.0, finish=2.0)
        lines = collector.report(5.0).summary_lines()
        assert any("completed" in line for line in lines)
        assert any("reuse" in line for line in lines)


    def test_columns_grow_past_initial_allocation(self):
        collector = MetricsCollector()
        for i in range(1500):  # past the 1024 rows allocated up front
            record_one(collector, i, arrival=float(i), dispatch=i + 0.5,
                       start=i + 0.5, finish=i + 2.0)
        assert list(collector.tasks) == list(range(1500))
        assert collector.tasks[1499].finish == 1501.0
        report = collector.report(3000.0)
        assert report.completed == 1500
        assert report.mean_wait_s == 0.5
        assert report.mean_turnaround_s == 2.0
        assert report.makespan_s == 1501.0
        assert report.per_resource_utilization["node0:RPE0"] == pytest.approx(0.75)

    def test_tasks_mapping_reads_columns(self):
        collector = MetricsCollector()
        collector.record_arrival("t", 1.25)
        assert "t" in collector.tasks and "nope" not in collector.tasks
        assert len(collector.tasks) == 1
        row = collector.tasks["t"]
        assert row.arrival == 1.25
        assert row.dispatch is None and row.node_id is None
        assert row.function == "" and row.pe_kind == ""
        collector.record_dispatch(
            "t", 2.5, pe_kind="GPP", node_id=1, transfer_time=0.0,
            synthesis_time=0.0, reconfig_time=0.0, reused=False,
        )
        assert collector.tasks["t"].dispatch == 2.5
        assert collector.tasks["t"].resource_index is None
        # Snapshots are copies: the mapping is read-only.
        row.arrival = 9.0
        assert collector.tasks["t"].arrival == 1.25
        with pytest.raises(TypeError):
            collector.tasks["t"] = row

    def test_task_snapshot_matches_record_stream(self):
        """Every TaskMetrics field survives the columns: a faulted,
        retried, checkpointed and migrated task; a deferred then shed
        one; and one that fell back to GPP and failed."""
        collector = MetricsCollector()
        hot, shed, lost = ("job", 1), ("job", 2), ("job", 3)
        collector.record_arrival(hot, 0.5, "fir", tenant="tenant1")
        collector.record_dispatch(
            hot, 1.0, pe_kind="RPE", node_id=0, transfer_time=0.25,
            synthesis_time=0.0, reconfig_time=0.125, reused=False,
            resource_index=0, slices=1200,
        )
        collector.record_start(hot, 1.5)
        collector.record_checkpoint(hot, 2.0, overhead_s=0.0625)
        collector.record_fault(
            hot, 2.5, reason="SEU corrupted fir on node 0",
            wasted_time_s=1.0, wasted_slice_seconds=1200.0,
        )
        collector.record_checkpoint_restore(hot, 0.5)
        collector.record_retry(hot, 2.5)
        collector.record_deadline_miss(hot, 3.0, hard=False)
        collector.record_dispatch(
            hot, 3.25, pe_kind="RPE", node_id=1, transfer_time=0.5,
            synthesis_time=0.0, reconfig_time=0.0, reused=True,
            resource_index=2, slices=1200,
        )
        collector.record_migration(hot, 3.25)
        collector.record_finish(hot, 5.0, "node1:RPE2")
        collector.record_arrival(shed, 0.75, "fft", tenant="tenant0")
        collector.record_defer(shed, 0.75)
        collector.record_defer(shed, 1.25)
        collector.record_shed(shed, 1.75, reason="queue full")
        collector.record_arrival(lost, 1.0)
        collector.record_degrade(lost, 1.0)
        collector.record_dispatch(
            lost, 1.0, pe_kind="GPP", node_id=2, transfer_time=0.0,
            synthesis_time=0.0, reconfig_time=0.0, reused=False,
        )
        collector.record_fault(lost, 2.0, reason="node 2 crashed", wasted_time_s=1.0)
        collector.record_fallback(lost, 2.0)
        collector.record_deadline_miss(lost, 3.0, hard=True)
        collector.record_failed(lost, 3.0, reason="deadline exceeded")

        expected = {
            hot: TaskMetrics(
                key=hot, function="fir", tenant="tenant1", pe_kind="RPE",
                node_id=1, resource_index=2, slices=1200, arrival=0.5,
                dispatch=3.25, start=1.5, finish=5.0, transfer_time=0.5,
                reused_configuration=True,
                failure_reason="SEU corrupted fir on node 0", faults=1,
                retries=1, first_fault=2.5, wasted_time_s=1.0,
                wasted_slice_seconds=1200.0, deadline_missed="soft",
                checkpoints=1, checkpoint_overhead_s=0.0625,
                wasted_work_saved_s=0.5, migrations=1,
            ),
            shed: TaskMetrics(
                key=shed, function="fft", tenant="tenant0", arrival=0.75,
                shed=True, shed_reason="queue full", defers=2,
            ),
            lost: TaskMetrics(
                key=lost, pe_kind="GPP", node_id=2, arrival=1.0, dispatch=1.0,
                failed=True, failure_reason="deadline exceeded", faults=1,
                retries=1, fell_back_to_gpp=True, first_fault=2.0,
                wasted_time_s=1.0, deadline_missed="hard", degraded_to_gpp=True,
            ),
        }
        assert list(collector.tasks) == [hot, shed, lost]
        for key, want in expected.items():
            got = asdict(collector.tasks[key])
            for name, value in asdict(want).items():
                assert got[name] == value and type(got[name]) is type(value), (
                    key, name, got[name], value
                )
        # The same stream's report, pinned with the per-task-dataclass
        # collector this one replaced.
        assert report_crc(collector.report(6.0)) == "6cc81d98"


class TestBulkCollector:
    """Bulk loads that push the columns past their up-front allocation."""

    def test_bulk_duplicate_key_rejected(self):
        collector = MetricsCollector()
        for i in range(1500):  # past the 1024 rows allocated up front
            collector.record_arrival(i, float(i))
        # Keys recorded before and after the columns grew stay indexed.
        for key in (0, 1023, 1024, 1499):
            with pytest.raises(ValueError):
                collector.record_arrival(key, 0.0)
        assert len(collector.tasks) == 1500
        assert collector.tasks[0].arrival == 0.0
        assert collector.tasks[1499].arrival == 1499.0


class TestReportPins:
    """Full-experiment reports, pinned to the CRC of every field sorted
    by name, so they lock the column store to its arithmetic: same
    reductions, same rounding, same dict order.  The chaos and
    resilience scenarios push faults, retries, fallbacks, deadline
    misses, checkpoints and migrations through the columns."""

    PINNED_CRC = {
        "plain": "4e66fb64",
        "chaos": "938b080e",
        "resilience": "67f2f6e8",
    }

    @pytest.mark.parametrize("scenario", ["plain", "chaos", "resilience"])
    def test_run_experiment_report_is_pinned(self, scenario):
        from repro.grid.health import HealthPolicy
        from repro.sim.experiment import ExperimentSpec, run_experiment
        from repro.sim.faults import FaultSpec
        from repro.sim.resilience import CheckpointSpec, DeadlineSpec, ResilienceSpec

        spec = ExperimentSpec(
            tasks=40, configurations=4, arrival_rate_per_s=8.0,
            area_range=(2_000, 14_000), gpp_fraction=0.2, seed=7,
        )
        if scenario in ("chaos", "resilience"):
            spec = spec.with_(
                faults=FaultSpec(
                    crash_rate_per_s=0.25, downtime_range_s=(1.0, 3.0),
                    config_fault_prob=0.35, seu_rate_per_s=0.2, horizon_s=8.0,
                ),
            )
        if scenario == "resilience":
            spec = spec.with_(
                seed=25,
                resilience=ResilienceSpec(
                    breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=4.0),
                    deadlines=DeadlineSpec(soft_factor=2.0, hard_factor=6.0, slack_s=0.25),
                    checkpoint=CheckpointSpec(interval_s=0.1),
                ),
            )
        for engine in ("heap", "calendar"):
            report = run_experiment(spec.with_(engine=engine)).report
            assert report_crc(report) == self.PINNED_CRC[scenario], engine
