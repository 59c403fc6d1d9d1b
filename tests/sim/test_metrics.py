"""Unit tests for the simulation metrics collector."""

from dataclasses import asdict

import pytest

from repro.sim.metrics import (
    BulkMetricsCollector,
    MetricsCollector,
    ResourceUsage,
    TaskMetrics,
)


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


class TestBulkCollector:
    """Differential lock: :class:`BulkMetricsCollector` must produce a
    report *identical* to the standard collector on the same run --
    same means, same percentiles, same rounding, same by-kind dict
    order.  The bulk collector's only licensed difference is storage
    (numpy columns instead of per-task objects)."""

    def test_bulk_report_matches_standard_on_synthetic_events(self):
        std, bulk = MetricsCollector(), BulkMetricsCollector(capacity=2)
        for coll in (std, bulk):
            record_one(coll, "a", arrival=0.0, dispatch=1.0, start=1.5, finish=3.5, reconfig=0.5)
            record_one(coll, "b", arrival=0.2, dispatch=3.0, start=3.0, finish=5.0, reused=True)
            record_one(coll, "c", arrival=0.4, dispatch=0.4, start=0.6, finish=9.1)
            coll.record_arrival("d", 4.0)
            coll.record_discard("d", 9.0)
            coll.record_arrival("e", 5.0)  # pending forever
        assert asdict(std.report(10.0)) == asdict(bulk.report(10.0))

    def test_bulk_capacity_grows_past_initial_allocation(self):
        bulk = BulkMetricsCollector(capacity=4)
        std = MetricsCollector()
        for i in range(100):  # 25x the initial capacity
            record_one(std, i, arrival=float(i), dispatch=i + 0.5, start=i + 0.5, finish=i + 2.0)
            record_one(bulk, i, arrival=float(i), dispatch=i + 0.5, start=i + 0.5, finish=i + 2.0)
        assert asdict(std.report(200.0)) == asdict(bulk.report(200.0))

    def test_bulk_duplicate_key_rejected(self):
        bulk = BulkMetricsCollector()
        bulk.record_arrival(1, 0.0)
        with pytest.raises(ValueError):
            bulk.record_arrival(1, 0.0)

    def test_bulk_task_rows_expose_arrival_and_dispatch(self):
        """The simulator reads ``metrics.tasks[key].arrival`` /
        ``.dispatch`` on its hot paths; the row facade must behave
        like TaskMetrics there, including None before the event."""
        bulk = BulkMetricsCollector()
        bulk.record_arrival("t", 1.25)
        assert "t" in bulk.tasks and "nope" not in bulk.tasks
        assert len(bulk.tasks) == 1
        row = bulk.tasks["t"]
        assert row.arrival == 1.25
        assert row.dispatch is None
        bulk.record_dispatch(
            "t", 2.5, pe_kind="GPP", node_id=1, transfer_time=0.0,
            synthesis_time=0.0, reconfig_time=0.0, reused=False,
        )
        assert bulk.tasks["t"].dispatch == 2.5

    @pytest.mark.parametrize("scenario", ["plain", "chaos", "resilience"])
    def test_bulk_report_matches_standard_on_full_experiments(self, scenario):
        """End-to-end differential: run the same seeded experiment with
        both collectors and require byte-equal reports.  The chaos and
        resilience scenarios push faults, retries, fallbacks, deadline
        misses, checkpoints, and migrations through the bulk paths."""
        from repro.grid.health import HealthPolicy
        from repro.sim.experiment import ExperimentSpec, run_experiment
        from repro.sim.faults import FaultSpec
        from repro.sim.resilience import (
            CheckpointSpec,
            DeadlineSpec,
            ResilienceSpec,
            SpeculationSpec,
        )

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
                seed=11,
                resilience=ResilienceSpec(
                    breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=4.0),
                    deadlines=DeadlineSpec(soft_factor=2.0, hard_factor=6.0, slack_s=0.25),
                    checkpoint=CheckpointSpec(interval_s=0.1),
                    speculation=SpeculationSpec(slowdown_factor=1.5),
                ),
            )
        standard = run_experiment(spec).report
        bulk_result = run_experiment(spec, metrics=BulkMetricsCollector())
        assert asdict(bulk_result.report) == asdict(standard)
