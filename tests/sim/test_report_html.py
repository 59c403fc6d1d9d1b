"""Tests for the self-contained HTML dashboard renderer."""

import time
import xml.etree.ElementTree as ET

from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.faults import FaultSpec
from repro.sim.telemetry import Span, TelemetryRegistry, build_task_spans
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
)
from repro.report_html import (
    render_dashboard,
    svg_phase_bars,
    svg_span_timeline,
    svg_step_chart,
)

SPEC = ExperimentSpec(
    tasks=20,
    configurations=4,
    arrival_rate_per_s=6.0,
    gpp_fraction=0.3,
    seed=7,
    faults=FaultSpec(
        crash_rate_per_s=0.15,
        downtime_range_s=(1.0, 2.0),
        config_fault_prob=0.2,
        horizon_s=6.0,
    ),
)


def instrumented_run():
    telemetry = TelemetryRegistry()
    sink = InMemorySink()
    tracer = Tracer(TraceInvariantChecker(), sink)
    run_experiment(SPEC, tracer=tracer, telemetry=telemetry)
    return telemetry, canonical_events(list(sink.events))


def svgs_of(html_text: str) -> list[str]:
    out, pos = [], 0
    while True:
        start = html_text.find("<svg", pos)
        if start < 0:
            return out
        end = html_text.index("</svg>", start) + len("</svg>")
        out.append(html_text[start:end])
        pos = end


class TestStepChart:
    def test_renders_series_and_legend(self):
        svg = svg_step_chart(
            [("a", [(0.0, 1.0), (2.0, 3.0)]), ("b", [(0.0, 0.0), (1.0, 2.0)])],
            title="Test chart", unit="tasks", t_max=4.0,
        )
        ET.fromstring(svgs_of(svg)[0])  # well-formed
        assert "Test chart" in svg
        # Two series: the legend is mandatory and names both.
        assert 'class="legend"' in svg
        assert ">a</span>" in svg and ">b</span>" in svg

    def test_single_series_has_no_legend(self):
        svg = svg_step_chart(
            [("only", [(0.0, 1.0)])], title="Solo", unit="x", t_max=1.0,
        )
        assert 'class="legend"' not in svg

    def test_empty_series_yields_placeholder(self):
        html_text = svg_step_chart([], title="Nothing", unit="x", t_max=None)
        assert "no samples" in html_text
        assert "<svg" not in html_text

    def test_palette_never_cycles(self):
        many = [(f"s{i}", [(0.0, float(i))]) for i in range(12)]
        svg = svg_step_chart(many, title="Crowd", unit="x", t_max=1.0)
        assert "not drawn" in svg  # dropped series are disclosed


class TestSpanTimeline:
    def test_renders_rows_with_tooltips(self):
        _, events = instrumented_run()
        spans, instants = build_task_spans(events)
        svg = svg_span_timeline(spans, instants, title="Tasks")
        ET.fromstring(svgs_of(svg)[0])
        assert svg.count("<title>") >= len(spans[:40])

    def test_empty_spans_yield_placeholder(self):
        assert "no spans" in svg_span_timeline([], [], title="Empty")

    def test_track_count_is_linear(self):
        """100k one-span tracks: collecting the tracks by list
        membership took minutes here; it must stay linear."""
        spans = [Span(f"task-{i}", "execute", 0.0, 1.0) for i in range(100_000)]
        start = time.perf_counter()
        svg = svg_span_timeline(spans, [], title="Wide")
        assert time.perf_counter() - start < 5.0
        assert "task-39<" in svg and "task-40<" not in svg


class TestPhaseBars:
    def test_stacked_bars_with_tooltips_and_legend(self):
        svg = svg_phase_bars(
            [
                ("all tasks (3)", {"queue": 1.0, "compute": 3.0}),
                ("p99 bucket (1)", {"recovery": 2.0, "compute": 0.5}),
            ],
            title="Phases",
        )
        ET.fromstring(svgs_of(svg)[0])
        assert "Phases" in svg
        assert svg.count("<title>") == 4  # one tooltip per segment
        assert 'class="legend"' in svg
        for phase in ("queue", "compute", "recovery"):
            assert f">{phase}</span>" in svg

    def test_zero_time_rows_yield_placeholder(self):
        html_text = svg_phase_bars([("idle", {})], title="Nothing")
        assert "no phase time" in html_text
        assert "<svg" not in html_text


class TestDashboard:
    def test_full_document(self):
        telemetry, events = instrumented_run()
        html_text = render_dashboard(telemetry, events)
        assert html_text.startswith("<!DOCTYPE html>")
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html_text
        assert "http://" not in html_text and "https://" not in html_text
        # The acceptance trio of time-series plus the span timeline.
        assert "Node utilization" in html_text
        assert "Scheduler queue" in html_text
        assert "Task lifecycle spans" in html_text
        # Run header and summary surface the spec's knobs.
        assert "hybrid-cost" in html_text
        assert "mean wait" in html_text
        # The causal ledger's stacked panel rides along with the trace.
        assert "Phase breakdown" in html_text
        assert "Turnaround attribution by phase" in html_text
        assert "Dominant p99 phase" in html_text
        for svg in svgs_of(html_text):
            ET.fromstring(svg)

    def test_without_events_still_renders(self):
        telemetry, _ = instrumented_run()
        html_text = render_dashboard(telemetry)
        assert "Task lifecycle spans" not in html_text
        assert "Node utilization" in html_text
        # No trace means no ledger: the panel degrades to a banner.
        assert "Phase breakdown needs a trace" in html_text
        assert "Turnaround attribution by phase" not in html_text


class TestEmptyState:
    """Dumps with nothing to plot render a banner, not a traceback."""

    def test_fresh_registry_renders_banner(self):
        html_text = render_dashboard(TelemetryRegistry())
        assert "Nothing to plot" in html_text
        assert "Time series" not in html_text
        assert html_text.startswith("<!DOCTYPE html>")

    def test_dump_with_explicit_nulls(self, tmp_path):
        import json

        from repro.sim.telemetry import TELEMETRY_FORMAT, load_telemetry

        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "format": TELEMETRY_FORMAT,
            "meta": None,
            "series": None,
            "histograms": None,
        }))
        registry = load_telemetry(path)
        html_text = render_dashboard(registry)
        assert "Nothing to plot" in html_text

    def test_dump_with_sampleless_series(self, tmp_path):
        import json

        from repro.sim.telemetry import TELEMETRY_FORMAT, load_telemetry

        path = tmp_path / "sampleless.json"
        path.write_text(json.dumps({
            "format": TELEMETRY_FORMAT,
            "meta": {},
            "series": [{"name": "sim_queue_depth", "type": "gauge",
                        "labels": {}, "points": []}],
            "histograms": [],
        }))
        html_text = render_dashboard(load_telemetry(path))
        assert "Nothing to plot" in html_text

    def test_real_run_has_no_banner(self):
        telemetry, _ = instrumented_run()
        assert "Nothing to plot" not in render_dashboard(telemetry)
