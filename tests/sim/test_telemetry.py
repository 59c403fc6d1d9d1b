"""Tests for the sim-time telemetry layer: registry, instruments,
span derivation, Perfetto/OpenMetrics export, and the zero-perturbation
guarantee (telemetry on or off, the event trace is byte-identical)."""

import json
import zlib
from pathlib import Path

import pytest

from repro.grid.health import HealthPolicy
from repro.sim.admission import AdmissionSpec, BrownoutSpec, QueueBoundSpec
from repro.sim.experiment import ExperimentSpec, NodeSpec, _build, run_experiment
from repro.sim.failover import FailoverSpec, HeartbeatSpec
from repro.sim.faults import FaultSpec, RetryPolicy
from repro.sim.resilience import (
    CheckpointSpec,
    DeadlineSpec,
    ResilienceSpec,
    SpeculationSpec,
)
from repro.sim.telemetry import (
    ANNOTATION_KINDS,
    TELEMETRY_FORMAT,
    Counter,
    Gauge,
    Histogram,
    TelemetryRegistry,
    build_node_spans,
    build_task_spans,
    load_telemetry,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
)

SPEC = ExperimentSpec(tasks=25, configurations=4, seed=3)

#: A faulty, fully-armed scenario so every hook fires at least once.
RESILIENT_SPEC = ExperimentSpec(
    tasks=20,
    configurations=4,
    arrival_rate_per_s=8.0,
    gpp_fraction=0.2,
    seed=11,
    faults=FaultSpec(
        crash_rate_per_s=0.25,
        downtime_range_s=(1.0, 3.0),
        config_fault_prob=0.35,
        seu_rate_per_s=0.2,
        horizon_s=8.0,
    ),
    resilience=ResilienceSpec(
        breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=4.0),
        deadlines=DeadlineSpec(soft_factor=2.0, hard_factor=6.0, slack_s=0.25),
        checkpoint=CheckpointSpec(interval_s=0.1),
    ),
)


class TestInstruments:
    def test_counter_monotonic(self):
        reg = TelemetryRegistry()
        c = reg.counter("hits_total", help="hits")
        c.inc()
        c.inc(2.0)
        assert c.value == 3.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        reg = TelemetryRegistry()
        g = reg.gauge("depth", help="queue depth")
        g.set(5.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 4.0

    def test_gauge_records_only_changes(self):
        reg = TelemetryRegistry()
        t = [0.0]
        reg.set_clock(lambda: t[0])
        g = reg.gauge("depth", help="d")
        g.set(1.0)
        t[0] = 1.0
        g.set(1.0)  # same value: no new point
        t[0] = 2.0
        g.set(3.0)
        assert g.points == [(0.0, 1.0), (2.0, 3.0)]

    def test_gauge_same_time_keeps_last_value(self):
        reg = TelemetryRegistry()
        g = reg.gauge("depth", help="d")
        g.set(1.0)
        g.set(2.0)  # clock still 0.0: replaces, never duplicates
        assert g.points == [(0.0, 2.0)]

    def test_value_at_bisects(self):
        reg = TelemetryRegistry()
        t = [0.0]
        reg.set_clock(lambda: t[0])
        g = reg.gauge("depth", help="d")
        g.set(1.0)
        t[0] = 5.0
        g.set(7.0)
        assert g.value_at(-1.0) == 0.0
        assert g.value_at(0.0) == 1.0
        assert g.value_at(4.9) == 1.0
        assert g.value_at(5.0) == 7.0

    def test_histogram_buckets_le_convention(self):
        reg = TelemetryRegistry()
        h = reg.histogram("wait", help="w", buckets=(1.0, 5.0))
        for v in (0.5, 1.0, 2.0, 10.0):
            h.observe(v)
        # le=1.0 counts 0.5 and 1.0; le=5.0 adds 2.0; +inf adds 10.0.
        assert h.cumulative_counts() == [2, 3, 4]
        assert h.count == 4
        assert h.sum == 13.5

    def test_labels_key_instruments(self):
        reg = TelemetryRegistry()
        a = reg.counter("x_total", help="x", node=0)
        b = reg.counter("x_total", help="x", node=1)
        again = reg.counter("x_total", help="x", node=0)
        assert a is again and a is not b

    def test_kind_mismatch_rejected(self):
        reg = TelemetryRegistry()
        reg.counter("x_total", help="x")
        with pytest.raises(TypeError):
            reg.gauge("x_total", help="x")


class TestRegistryExport:
    def _populated(self):
        reg = TelemetryRegistry()
        t = [0.0]
        reg.set_clock(lambda: t[0])
        reg.counter("runs_total", help="runs").inc()
        g = reg.gauge("depth", help="depth", node=0)
        g.set(2.0)
        t[0] = 1.5
        g.set(4.0)
        reg.histogram("wait_seconds", help="w", buckets=(1.0,)).observe(0.5)
        reg.meta["strategy"] = "fcfs"
        return reg

    def test_json_roundtrip(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "telemetry.json"
        reg.write_json(path)
        loaded = load_telemetry(path)
        assert loaded.meta["strategy"] == "fcfs"
        assert [i.name for i in loaded.instruments] == [
            i.name for i in reg.instruments
        ]
        assert loaded.series("depth")[0].points == [(0.0, 2.0), (1.5, 4.0)]
        data = json.loads(path.read_text(encoding="ascii"))
        assert data["format"] == TELEMETRY_FORMAT

    def test_open_metrics_exposition(self):
        text = self._populated().open_metrics()
        assert "# TYPE runs_total counter" in text
        assert "# TYPE depth gauge" in text
        assert 'depth{node="0"} 4' in text
        assert 'wait_seconds_bucket{le="1"} 1' in text
        assert 'wait_seconds_bucket{le="+Inf"} 1' in text
        assert text.rstrip().endswith("# EOF")

    def test_load_rejects_bad_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 999}), encoding="ascii")
        with pytest.raises(ValueError, match="format"):
            load_telemetry(path)


class TestInstrumentedRun:
    def test_series_cover_the_run(self):
        telemetry = TelemetryRegistry()
        result = run_experiment(RESILIENT_SPEC, telemetry=telemetry)
        names = {i.name for i in telemetry.instruments}
        assert {
            "node_utilization",
            "sim_queue_depth",
            "sim_active_tasks",
            "node_breaker_state",
            "rpe_configured_slices",
            "sim_faults_total",
            "task_wait_seconds",
            "task_turnaround_seconds",
        } <= names
        waits = next(
            i for i in telemetry.instruments if i.name == "task_wait_seconds"
        )
        # Wait is observed per dispatch, so retries re-observe it.
        assert waits.count >= result.report.completed
        turnarounds = next(
            i for i in telemetry.instruments if i.name == "task_turnaround_seconds"
        )
        assert turnarounds.count == result.report.completed
        assert telemetry.meta["strategy"] == RESILIENT_SPEC.strategy
        assert telemetry.meta["resilience"]  # armed mechanisms described

    def test_jss_series_cover_a_graph_run(self):
        """A synthetic workload bypasses the JSS; a task graph goes
        through it, so its job transitions are counted."""
        telemetry = TelemetryRegistry()
        sim, workload = _build(RESILIENT_SPEC, telemetry=telemetry)
        sim.submit_graph([task for _, task in workload.generate()])
        report = sim.run()
        submitted = telemetry.series("jss_tasks_submitted_total")[0]
        assert submitted.value == RESILIENT_SPEC.tasks
        completed = telemetry.series("jss_tasks_completed_total")[0]
        assert completed.value == report.completed > 0

    def test_report_unchanged_by_telemetry(self):
        baseline = run_experiment(SPEC)
        observed = run_experiment(SPEC, telemetry=TelemetryRegistry())
        assert baseline.report == observed.report

    def test_trace_bytes_identical_with_telemetry(self):
        """Telemetry is purely observational: the event stream of an
        instrumented run is byte-for-byte the uninstrumented one."""
        def lines(telemetry):
            sink = InMemorySink()
            tracer = Tracer(TraceInvariantChecker(), sink)
            run_experiment(RESILIENT_SPEC, tracer=tracer, telemetry=telemetry)
            return [e.to_json() for e in canonical_events(list(sink.events))]

        assert lines(None) == lines(TelemetryRegistry())


#: Chaos faults on both planes with every defensive mechanism armed:
#: together with FLASH_SPEC it moves every series in ``FOLDED``.
CHAOS_FAILOVER_SPEC = ExperimentSpec(
    tasks=120,
    configurations=4,
    arrival_rate_per_s=1.0,
    speedup_range=(2.0, 5.0),
    required_time_range_s=(3.0, 8.0),
    gpp_fraction=0.2,
    seed=2,
    tenants=3,
    retry=RetryPolicy(max_attempts=2),
    faults=FaultSpec(
        crash_rate_per_s=0.06,
        downtime_range_s=(4.0, 12.0),
        config_fault_prob=0.3,
        seu_rate_per_s=0.15,
        link_fault_rate_per_s=0.02,
        degrade_factor=0.1,
        rms_crash_rate_per_s=0.05,
        rms_downtime_range_s=(6.0, 12.0),
        rms_gray_rate_per_s=0.03,
        rms_gray_duration_range_s=(2.0, 5.0),
        horizon_s=60.0,
    ),
    resilience=ResilienceSpec(
        breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=5.0),
        deadlines=DeadlineSpec(soft_factor=3.0, hard_factor=8.0, slack_s=0.5),
        checkpoint=CheckpointSpec(interval_s=0.25, overhead_s=0.2),
        speculation=SpeculationSpec(slowdown_factor=1.5),
    ),
    failover=FailoverSpec(
        heartbeat=HeartbeatSpec(interval_s=0.25, suspect_after=2.0, confirm_after=4.0),
        standbys=2,
        takeover_delay_s=0.25,
        lease_s=0.5,
    ),
)

#: A 4x flash crowd against a deferring queue bound and a brownout
#: controller, with low-priority tasks to degrade and shed.
FLASH_SPEC = ExperimentSpec(
    tasks=400,
    nodes=(
        NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
        NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
    ),
    gpp_fraction=0.4,
    seed=2,
    tenants=3,
    low_priority_fraction=0.3,
    flash_crowd=(20.0, 400.0, 4.0),
    admission=AdmissionSpec(
        queue=QueueBoundSpec(
            max_pending=40, defer=True, defer_delay_s=0.5, max_defers=1
        ),
        brownout=BrownoutSpec(enter_pending=24, exit_pending=8, dwell_s=2.0),
    ),
)

#: The series the simulator's transitions move, with the label sets
#: each pin scenario must produce.
FOLDED = {
    "chaos": {
        "sim_migrations_total": [{}],
        "sim_retries_total": [{}],
        "sim_fallbacks_total": [{}],
        "sim_faults_total": [{}],
        "sim_deadline_misses_total": [{"deadline": "hard"}, {"deadline": "soft"}],
        "sim_checkpoints_total": [{}],
        "sim_speculations_total": [{}],
        "sim_suspicions_total": [{}],
        "sim_rms_crashes_total": [{}],
        "sim_rms_gray_total": [{}],
        "sim_failovers_total": [{}],
        "sim_orphans_total": [{}],
        "control_plane_state": [{}],
        "task_wait_seconds": [{}],
        "task_turnaround_seconds": [{}],
    },
    "flash": {
        "sim_deferrals_total": [{}],
        "sim_sheds_total": [{"reason": "brownout"}, {"reason": "queue-full"}],
        "sim_degrades_total": [{}],
        "sim_brownout_stage": [{}],
        "task_wait_seconds": [{}],
        "task_turnaround_seconds": [{}],
    },
}


def _telemetry_crc(spec, *, traced: bool = False) -> tuple[str, dict]:
    """CRC-32 of a run's registry dump without ``meta``, and the dump."""
    telemetry = TelemetryRegistry()
    tracer = Tracer.with_invariants() if traced else None
    run_experiment(spec, tracer=tracer, telemetry=telemetry)
    dump = {k: v for k, v in telemetry.to_json().items() if k != "meta"}
    return f"{zlib.crc32(json.dumps(dump, sort_keys=True).encode()):08x}", dump


class TestTelemetryPins:
    """Every series a registry collects, pinned to the CRC of its JSON
    dump: which instruments exist, their help strings and labels, every
    ``(time, value)`` sample and every histogram bucket."""

    SPECS = {"chaos": CHAOS_FAILOVER_SPEC, "flash": FLASH_SPEC}
    PINNED_CRC = {"chaos": "d03970fd", "flash": "dc0d4170"}

    @pytest.mark.parametrize("engine", ["heap", "calendar"])
    @pytest.mark.parametrize("scenario", ["chaos", "flash"])
    def test_registry_is_pinned(self, scenario, engine):
        crc, dump = _telemetry_crc(self.SPECS[scenario].with_(engine=engine))
        records = dump["series"] + dump["histograms"]
        for name, label_sets in FOLDED[scenario].items():
            # The two gauges carry a t=0 seed sample; they must move after it.
            seeded = int(name in ("sim_brownout_stage", "control_plane_state"))
            moved = [
                record["labels"]
                for record in records
                if record["name"] == name
                and (len(record.get("points", ())) > seeded or record.get("count"))
            ]
            assert sorted(moved, key=repr) == label_sets, name
        assert crc == self.PINNED_CRC[scenario]

    @pytest.mark.parametrize("scenario", ["chaos", "flash"])
    def test_registry_identical_with_and_without_tracer(self, scenario):
        spec = self.SPECS[scenario]
        assert _telemetry_crc(spec)[1] == _telemetry_crc(spec, traced=True)[1]


class TestGoldenTracesWithTelemetryOff:
    """Tier-1 lock: a telemetry-free run (the default) must keep
    reproducing every committed golden trace byte-for-byte."""

    def test_all_goldens_byte_identical(self):
        from tests.sim.test_golden_traces import DATA_DIR, GOLDEN, generate_trace_lines

        for name in sorted(GOLDEN):
            golden = (DATA_DIR / GOLDEN[name][1]).read_text(
                encoding="ascii"
            ).splitlines()
            assert generate_trace_lines(name) == golden, name


def _traced_events(spec):
    sink = InMemorySink()
    run_experiment(spec, tracer=Tracer(TraceInvariantChecker(), sink))
    return canonical_events(list(sink.events))


class TestSpanBuilder:
    def test_task_spans_cover_lifecycle(self):
        events = _traced_events(SPEC)
        spans, instants = build_task_spans(events)
        phases = {s.phase for s in spans}
        assert {"queued", "execute"} <= phases
        executes = [s for s in spans if s.phase == "execute"]
        assert len(executes) == SPEC.tasks
        for s in spans:
            assert s.end >= s.start

    def test_annotations_from_faulty_run(self):
        events = _traced_events(RESILIENT_SPEC)
        spans, instants = build_task_spans(events)
        kinds = {i.kind for i in instants}
        assert kinds <= ANNOTATION_KINDS
        assert "fault" in kinds

    def test_node_spans_match_allocations(self):
        events = _traced_events(SPEC)
        allocs = sum(1 for e in events if e.kind == "slice-alloc")
        spans = build_node_spans(events)
        assert len(spans) == allocs
        for s in spans:
            assert s.phase == "occupied"
            assert s.end >= s.start


class TestChromeTrace:
    def test_structure_loads_in_tracing_format(self, tmp_path):
        """The export must be structurally valid Chrome trace-event
        JSON: a traceEvents array whose entries carry ph/pid/tid/ts."""
        events = _traced_events(RESILIENT_SPEC)
        doc = to_chrome_trace(events)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        trace_events = doc["traceEvents"]
        assert trace_events
        phases = {e["ph"] for e in trace_events}
        assert phases <= {"M", "X", "i"}
        for entry in trace_events:
            assert {"ph", "pid", "tid", "name"} <= set(entry)
            if entry["ph"] == "X":
                assert entry["dur"] >= 0 and entry["ts"] >= 0
            if entry["ph"] == "i":
                assert entry["s"] == "t" and "ts" in entry
        # Metadata names both process tracks.
        meta_names = {
            e["args"]["name"] for e in trace_events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"tasks", "fabric"} <= meta_names

        path = tmp_path / "perfetto.json"
        count = write_chrome_trace(path, events)
        assert count == len(trace_events)
        assert json.loads(path.read_text(encoding="ascii")) == doc
