"""Unit + integration tests for the online SLO layer (sim/slo.py).

The golden byte-identity locks (inert spec, armed observation-only)
live in test_golden_traces.py; the randomized battery in
tests/properties/test_prop_slo.py.  This file covers the declarative
spec/parsers, the monitor's windowed semantics under a hand-driven
clock, the offline trace evaluator against the committed chaos golden,
the report/telemetry integration, the tenant-tag round trip (satellite:
workload -> trace -> metrics -> report, pinned reports), and the
``repro slo`` / ``repro trend`` / ``repro analyze --tenant`` CLI exits.
"""

import json
import zlib
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.sim.slo import (
    SLO_PRESETS,
    SLOMonitor,
    SLOObjective,
    SLOSpec,
    evaluate_trace,
    parse_objective,
    parse_slo,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
CHAOS_GOLDEN = DATA_DIR / "golden_trace_chaos.jsonl"


def read_chaos_events():
    from repro.sim.tracing import TraceEvent

    lines = CHAOS_GOLDEN.read_text(encoding="ascii").splitlines()
    return [TraceEvent.from_json(line) for line in lines]


class TestParseObjective:
    def test_latency_percentile(self):
        obj = parse_objective("latency-p95:2.5")
        assert obj.kind == "latency"
        assert obj.metric == "turnaround"
        assert obj.percentile == 95.0
        assert obj.target == 2.5
        assert obj.name == "turnaround-p95"

    def test_wait_percentile_with_window_and_tenant(self):
        obj = parse_objective("wait-p99:0.5:60:tenant2")
        assert obj.metric == "wait"
        assert obj.percentile == 99.0
        assert obj.window_s == 60.0
        assert obj.tenant == "tenant2"
        assert obj.name == "wait-p99@tenant2"

    def test_explicit_name(self):
        obj = parse_objective("gold=availability:0.99")
        assert obj.name == "gold"
        assert obj.kind == "availability"

    def test_queue_and_throughput(self):
        assert parse_objective("queue:64").kind == "queue-depth"
        assert parse_objective("throughput:1.5").kind == "throughput"

    @pytest.mark.parametrize("bad", [
        "latency-p95",            # no target
        "nope:1.0",               # unknown kind
        "latency-pXX:1.0",        # bad percentile
        "queue:abc",              # bad target
        "queue:1:2:3:4",          # too many fields
        "availability:2.0",       # target outside (0, 1]
        "latency-p95:1.0:-3",     # negative window
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_objective(bad)


class TestParseSlo:
    def test_empty_is_none(self):
        assert parse_slo(None) is None
        assert parse_slo([]) is None

    def test_single_preset_name(self):
        assert parse_slo(["default"]) is SLO_PRESETS["default"]
        assert parse_slo(["strict"]) is SLO_PRESETS["strict"]

    def test_objective_list(self):
        spec = parse_slo(["latency-p95:2.0", "queue:16"])
        assert [o.kind for o in spec.objectives] == ["latency", "queue-depth"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_slo(["latency-p95:2.0", "latency-p95:3.0"])

    def test_presets_are_enabled_and_describable(self):
        for name, spec in SLO_PRESETS.items():
            assert spec.enabled, name
            described = spec.describe()
            assert described["objectives"], name
            json.dumps(described)  # JSON-safe


class TestMonitorSemantics:
    """The monitor under a hand-driven clock: no simulator involved."""

    def make(self, objectives, emitted=None):
        clock = {"now": 0.0}

        def emit(kind, key=None, **payload):
            assert key is None
            if emitted is not None:
                emitted.append((clock["now"], kind, payload))

        monitor = SLOMonitor(
            SLOSpec(objectives=tuple(objectives)),
            clock=lambda: clock["now"], emit=emit,
        )
        return monitor, clock

    def test_latency_breach_opens_and_closes(self):
        emitted = []
        obj = SLOObjective("latency", 1.0, percentile=50.0, window_s=2.0)
        monitor, clock = self.make([obj], emitted)
        clock["now"] = 0.5
        monitor.observe_completion(turnaround=5.0)  # p50 = 5 > 1: breach
        assert [k for _, k, _ in emitted] == ["slo-breach"]
        assert emitted[0][2]["action"] == "begin"
        # The bad sample ages out of the 2 s window; a good one closes it.
        clock["now"] = 3.0
        monitor.observe_completion(turnaround=0.1)
        actions = [p.get("action") for _, k, p in emitted if k == "slo-breach"]
        assert actions == ["begin", "end"]
        results = {r.name: r for r in monitor.results(4.0)}
        r = results[obj.name]
        assert r.breach_count == 1
        assert r.breach_seconds == pytest.approx(2.5)
        assert r.attainment == pytest.approx(1 - 2.5 / 4.0)

    def test_tenant_scope_filters_observations(self):
        obj = SLOObjective("latency", 1.0, percentile=50.0, tenant="gold")
        monitor, clock = self.make([obj])
        clock["now"] = 1.0
        monitor.observe_completion(tenant="bronze", turnaround=99.0)
        state = monitor._states[0]
        assert state.observations == 0  # filtered out
        monitor.observe_completion(tenant="gold", turnaround=0.5)
        assert state.observations == 1

    def test_throughput_cold_start_is_not_a_breach(self):
        obj = SLOObjective("throughput", 10.0, window_s=5.0)
        monitor, clock = self.make([obj])
        clock["now"] = 1.0
        monitor.observe_completion(turnaround=0.1)
        assert not monitor._states[0].in_breach  # now < window_s
        clock["now"] = 6.0
        monitor.observe_completion(turnaround=0.1)
        assert monitor._states[0].in_breach  # 2/5 s << 10/s

    def test_alert_fires_and_resolves_with_hysteresis(self):
        emitted = []
        obj = SLOObjective("queue-depth", 1.0, window_s=2.0,
                           budget_fraction=0.05)
        monitor, clock = self.make([obj], emitted)
        clock["now"] = 1.0
        monitor.observe_queue(5)  # breach opens
        # Let the breach burn >5% of both windows.
        clock["now"] = 2.0
        monitor.observe_queue(6)
        kinds = [k for _, k, _ in emitted]
        assert "slo-alert-fire" in kinds
        # Drain the queue; burn decays below threshold/2 -> resolve.
        clock["now"] = 2.5
        monitor.observe_queue(0)
        clock["now"] = 30.0
        monitor.observe_queue(0)
        kinds = [k for _, k, _ in emitted]
        assert kinds.count("slo-alert-fire") == kinds.count(
            "slo-alert-resolve"
        ) == 1

    def test_finalize_closes_and_is_idempotent(self):
        emitted = []
        obj = SLOObjective("queue-depth", 1.0, window_s=2.0)
        monitor, clock = self.make([obj], emitted)
        clock["now"] = 1.0
        monitor.observe_queue(10)
        clock["now"] = 2.0
        monitor.observe_queue(11)
        monitor.finalize(2.0)
        monitor.finalize(2.0)  # idempotent: no duplicate closes
        kinds = [k for _, k, _ in emitted]
        assert kinds.count("slo-breach") == 2  # one begin + one end
        assert kinds.count("slo-alert-fire") == kinds.count("slo-alert-resolve")
        resolves = [p for _, k, p in emitted if k == "slo-alert-resolve"]
        assert all(p.get("reason") == "horizon" for p in resolves)

    def test_results_bounded_and_violation_rule(self):
        obj = SLOObjective("queue-depth", 1.0, window_s=2.0,
                           budget_fraction=0.1)
        monitor, clock = self.make([obj])
        clock["now"] = 0.0
        monitor.observe_queue(10)  # breach from t=0
        clock["now"] = 10.0
        monitor.finalize(10.0)
        (r,) = monitor.results(10.0)
        assert r.attainment == pytest.approx(0.0)
        assert r.error_budget_remaining == pytest.approx(0.0)
        assert r.violated  # breach fraction 1.0 > budget 0.1
        assert 0.0 <= r.attainment <= 1.0
        assert 0.0 <= r.error_budget_remaining <= 1.0


class TestEvaluateTraceChaosGolden:
    """Offline evaluation against the committed chaos golden."""

    def test_permissive_objective_holds(self):
        results, emitted = evaluate_trace(
            read_chaos_events(), parse_slo(["latency-p95:1000"])
        )
        (r,) = results
        assert not r.violated
        assert r.attainment == 1.0
        assert r.observations > 0
        assert emitted == []

    def test_tight_objective_is_violated_with_paired_alerts(self):
        results, emitted = evaluate_trace(
            read_chaos_events(),
            parse_slo(["latency-p95:0.05:5"]),
        )
        (r,) = results
        assert r.violated
        assert r.breach_count >= 1
        assert r.breach_seconds > 0
        kinds = [k for _, k, _ in emitted]
        assert kinds.count("slo-alert-fire") == kinds.count(
            "slo-alert-resolve"
        ) == r.alerts_fired == r.alerts_resolved
        begins = sum(
            1 for _, k, p in emitted
            if k == "slo-breach" and p.get("action") == "begin"
        )
        ends = sum(
            1 for _, k, p in emitted
            if k == "slo-breach" and p.get("action") == "end"
        )
        assert begins == ends == r.breach_count

    def test_emitted_events_are_time_ordered(self):
        _, emitted = evaluate_trace(
            read_chaos_events(), parse_slo(["latency-p95:0.05:5", "queue:0"])
        )
        times = [t for t, _, _ in emitted]
        assert times == sorted(times)


ARMED_SPEC_OBJECTIVES = (
    SLOObjective("latency", 0.5, percentile=95.0, window_s=5.0),
    SLOObjective("availability", 0.999, window_s=5.0),
    SLOObjective("queue-depth", 2.0, window_s=5.0),
    SLOObjective("latency", 0.5, percentile=90.0, window_s=5.0,
                 tenant="tenant0"),
)


def chaos_tenant_spec(engine="heap"):
    from repro.sim.experiment import ExperimentSpec
    from repro.sim.faults import FaultSpec

    return ExperimentSpec(
        tasks=40, configurations=4, arrival_rate_per_s=8.0,
        area_range=(2_000, 14_000), gpp_fraction=0.2, seed=7,
        engine=engine, tenants=3,
        faults=FaultSpec(
            crash_rate_per_s=0.25, downtime_range_s=(1.0, 3.0),
            config_fault_prob=0.35, seu_rate_per_s=0.2, horizon_s=8.0,
        ),
    )


class TestSimulatorIntegration:
    def test_report_and_telemetry_carry_slo_results(self):
        from repro.sim.experiment import run_experiment
        from repro.sim.telemetry import TelemetryRegistry

        spec = chaos_tenant_spec().with_(
            slo=SLOSpec(objectives=ARMED_SPEC_OBJECTIVES)
        )
        telemetry = TelemetryRegistry()
        report = run_experiment(spec, telemetry=telemetry).report
        assert report.slo_objectives == len(ARMED_SPEC_OBJECTIVES)
        names = {o.name for o in ARMED_SPEC_OBJECTIVES}
        assert set(report.slo_attainment) == names
        assert set(report.slo_error_budget_remaining) == names
        assert set(report.slo_breach_seconds) == names
        for value in report.slo_attainment.values():
            assert 0.0 <= value <= 1.0
        assert set(report.slo_violated) <= names
        # Gauges published per objective.
        for gauge in ("slo_attainment", "slo_error_budget_remaining",
                      "slo_breach_seconds"):
            labels = {
                s.labels.get("objective") for s in telemetry.series(gauge)
            }
            assert labels == names, gauge
        # Telemetry meta + summary surface the armed contract.
        assert telemetry.meta["slo"] == spec.slo.describe()
        lines = "\n".join(report.summary_lines())
        assert "SLO" in lines and "attainment" in lines

    def test_unarmed_report_has_empty_slo_fields(self):
        from repro.sim.experiment import run_experiment

        report = run_experiment(chaos_tenant_spec()).report
        assert report.slo_objectives == 0
        assert report.slo_attainment == {}
        assert report.slo_violated == []

    def test_provenance_stamps_armed_slo(self):
        from repro.provenance import run_provenance

        spec = chaos_tenant_spec().with_(
            slo=SLOSpec(objectives=ARMED_SPEC_OBJECTIVES)
        )
        stamp = run_provenance(spec)
        assert stamp["slo"] == spec.slo.describe()
        assert "slo" not in run_provenance(chaos_tenant_spec())


class TestTenantRoundTrip:
    """Satellite lock: workload tenant tags must round-trip through the
    trace (``extra['tenant']`` on submit), the metrics collector, and
    the per-tenant report section -- on both engines, under faults,
    with a pinned report."""

    @pytest.mark.parametrize("engine", ["heap", "calendar"])
    def test_tenants_flow_from_workload_to_trace_and_report(self, engine):
        from repro.sim.experiment import run_experiment
        from repro.sim.tracing import InMemorySink, TraceInvariantChecker, Tracer

        sink = InMemorySink()
        report = run_experiment(
            chaos_tenant_spec(engine),
            tracer=Tracer(TraceInvariantChecker(), sink),
        ).report
        tags = {
            e.payload["tenant"] for e in sink.events
            if e.kind == "submit" and "tenant" in e.payload
        }
        assert tags == {"tenant0", "tenant1", "tenant2"}
        assert set(report.per_tenant) == tags
        # Every task is attributed to exactly one tenant.
        total = sum(
            row["completed"] + row["shed"] + row["failed"]
            for row in report.per_tenant.values()
        )
        assert total == report.completed + report.failed + report.shed
        for row in report.per_tenant.values():
            assert row["p95_wait_s"] >= 0.0
            assert row["p99_turnaround_s"] >= row["p50_turnaround_s"] >= 0.0
        lines = "\n".join(report.summary_lines())
        for tag in sorted(tags):
            assert tag in lines

    @pytest.mark.parametrize(
        "objectives, pinned_crc",
        [
            (ARMED_SPEC_OBJECTIVES, "499925f8"),
            # The live monitor's wait samples: dispatch - arrival, from
            # the latest dispatch after a retry.
            ((parse_objective("wait-p95:0.2:5"),
              parse_objective("wait-p90:0.2:5:tenant1")), "b6e074a5"),
        ],
        ids=["armed", "wait"],
    )
    def test_tenant_report_is_pinned(self, objectives, pinned_crc):
        """CRC-32 over every report field, sorted by name; pinned with
        the per-task-dataclass collector the column store replaced."""
        from repro.sim.experiment import run_experiment

        spec = chaos_tenant_spec().with_(slo=SLOSpec(objectives=objectives))
        report = run_experiment(spec).report
        assert list(report.per_tenant) == ["tenant0", "tenant1", "tenant2"]
        assert report.slo_breaches > 0
        text = json.dumps(asdict(report), sort_keys=True)
        assert f"{zlib.crc32(text.encode()):08x}" == pinned_crc

    def test_untagged_run_has_no_per_tenant_section(self):
        from repro.sim.experiment import run_experiment

        report = run_experiment(chaos_tenant_spec().with_(tenants=1)).report
        assert report.per_tenant == {}


class TestCli:
    def test_slo_trace_mode_permissive_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["slo", str(CHAOS_GOLDEN), "-o", "latency-p95:1000"]) == 0
        out = capsys.readouterr().out
        assert "attainment" in out and "ok" in out

    def test_slo_trace_mode_violated_exits_one(self, capsys):
        from repro.cli import main

        assert main(["slo", str(CHAOS_GOLDEN), "-o", "latency-p95:0.05:5"]) == 1
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out
        assert "objectives violated" in captured.err

    def test_slo_unreadable_trace_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["slo", str(tmp_path / "missing.jsonl"),
                     "-o", "queue:1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_slo_bad_objective_exits_two(self, capsys):
        from repro.cli import main

        assert main(["slo", str(CHAOS_GOLDEN), "-o", "bogus:1"]) == 2
        assert "unknown objective kind" in capsys.readouterr().err

    def test_slo_live_mode_writes_diffable_artifact(self, tmp_path, capsys):
        from repro.bench.diff import diff_artifacts
        from repro.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["slo", "--tasks", "30", "--tenants", "2",
                "-o", "latency-p95:1000", "--json"]
        assert main(argv + [str(a)]) == 0
        capsys.readouterr()
        assert main(argv + [str(b)]) == 0
        capsys.readouterr()
        document = json.loads(a.read_text())
        assert document["kind"] == "slo-eval"
        assert "spec_hash" in document["provenance"]
        verdict = diff_artifacts(a, b)
        assert verdict.exit_code == 0
        assert verdict.flavor == "slo"

    def test_analyze_tenant_filter(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        assert main(["simulate", "--tasks", "30", "--tenants", "3",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace), "--tenant", "tenant1"]) == 0
        filtered = capsys.readouterr().out
        assert main(["analyze", str(trace)]) == 0
        unfiltered = capsys.readouterr().out

        def analyzed(text):
            for line in text.splitlines():
                if line.startswith("tasks analyzed"):
                    return int(line.split()[2])
            raise AssertionError("no 'tasks analyzed' line")

        assert 0 < analyzed(filtered) < analyzed(unfiltered)

    def test_trend_flags_attainment_regression(self, tmp_path, capsys):
        from repro.cli import main

        def snapshot(stem, attainment):
            (tmp_path / f"BENCH_{stem}.json").write_text(json.dumps({
                "format": 1, "kind": "bench-suite", "mode": "quick",
                "cases": [{
                    "name": "sim-slo",
                    "metrics": {"attainment:turnaround-p95": attainment},
                }],
            }))

        snapshot("20260101T000000Z", 0.95)
        snapshot("20260102T000000Z", 0.80)
        assert main(["trend", "--dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "trajectory regressions" in captured.err
        # A recovering trajectory is healthy.
        snapshot("20260103T000000Z", 0.95)
        assert main(["trend", "--dir", str(tmp_path)]) == 0

    def test_trend_on_committed_snapshots(self, capsys):
        from repro.cli import main

        assert main(["trend"]) == 0
        assert "snapshots" in capsys.readouterr().out
