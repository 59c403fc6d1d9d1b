"""Regenerate the committed dashboard screenshots under docs/.

Runs one instrumented, traced chaos-with-resilience experiment and
extracts two representative SVG figures from the HTML dashboard
renderer -- a time-series step chart and the task-span timeline --
plus the full dashboard itself.  Run from the repository root::

    PYTHONPATH=src python tools/gen_dashboard_svgs.py

The outputs are committed (docs/dashboard_*.svg) so EXPERIMENTS.md can
embed real screenshots without readers running anything.  The spec is
fully seeded, so regeneration is deterministic.
"""

from __future__ import annotations

from pathlib import Path

from repro.grid.health import HealthPolicy
from repro.report_html import render_dashboard, svg_span_timeline, svg_step_chart
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.faults import FaultSpec
from repro.sim.resilience import CheckpointSpec, DeadlineSpec, ResilienceSpec
from repro.sim.telemetry import TelemetryRegistry, build_task_spans
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
)

DOCS = Path(__file__).resolve().parent.parent / "docs"

#: The showcase run: chaotic enough that the breaker trips, retries
#: fire, and the timeline shows faults -- small enough to stay legible.
SPEC = ExperimentSpec(
    tasks=30,
    configurations=4,
    arrival_rate_per_s=4.0,
    gpp_fraction=0.3,
    seed=11,
    faults=FaultSpec(
        crash_rate_per_s=0.2,
        downtime_range_s=(1.0, 3.0),
        config_fault_prob=0.3,
        seu_rate_per_s=0.15,
        horizon_s=8.0,
    ),
    resilience=ResilienceSpec(
        breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=4.0),
        deadlines=DeadlineSpec(soft_factor=3.0, hard_factor=10.0, slack_s=0.5),
        checkpoint=CheckpointSpec(interval_s=0.25),
    ),
)


def generate() -> dict[str, str]:
    """The committed files under docs/, by name, as this tool renders
    them from the current code."""
    telemetry = TelemetryRegistry()
    sink = InMemorySink()
    tracer = Tracer(TraceInvariantChecker(), sink)
    run_experiment(SPEC, tracer=tracer, telemetry=telemetry)
    events = canonical_events(list(sink.events))
    horizon = telemetry.meta.get("horizon_s")
    t_max = float(horizon) if isinstance(horizon, (int, float)) else None

    utilization = svg_step_chart(
        [
            (f"node {s.labels.get('node', '?')}", s.points)
            for s in telemetry.series("node_utilization")
        ],
        title="Node utilization",
        unit="busy fraction",
        t_max=t_max,
    )
    spans, instants = build_task_spans(events)
    timeline = svg_span_timeline(spans, instants, title="Task lifecycle spans")
    return {
        "dashboard_utilization.svg": wrap_standalone(utilization),
        "dashboard_timeline.svg": wrap_standalone(timeline),
        "dashboard_example.html": render_dashboard(telemetry, events),
    }


def main() -> None:
    DOCS.mkdir(parents=True, exist_ok=True)
    for name, markup in generate().items():
        path = DOCS / name
        path.write_text(markup, encoding="utf-8")
        print(f"wrote {path} ({len(markup)} bytes)")


def wrap_standalone(figure_html: str) -> str:
    """A committed .svg must be pure SVG: strip the <figure> wrapper
    and rebuild the HTML legend (series identity must never be lost)
    as SVG swatches appended below the chart."""
    import re

    start = figure_html.index("<svg")
    end = figure_html.index("</svg>") + len("</svg>")
    svg = figure_html[start:end]
    items = re.findall(
        r'<span class="swatch" style="background:(#[0-9a-f]{6})"></span>([^<]+)',
        figure_html,
    )
    if items:
        width = int(re.search(r'viewBox="0 0 (\d+) (\d+)"', svg).group(1))
        height = int(re.search(r'viewBox="0 0 (\d+) (\d+)"', svg).group(2))
        row = []
        x = 12
        y = height + 16
        for color, label in items:
            row.append(
                f'<rect x="{x}" y="{y - 8}" width="10" height="10" rx="2" '
                f'fill="{color}"/>'
                f'<text x="{x + 14}" y="{y + 1}" font-size="12" '
                f'fill="#52514e">{label.strip()}</text>'
            )
            x += 14 + 8 * len(label.strip()) + 24
        new_height = height + 28
        svg = svg.replace(
            f'viewBox="0 0 {width} {height}"',
            f'viewBox="0 0 {width} {new_height}"', 1,
        ).replace(f'height="{height}"', f'height="{new_height}"', 1)
        svg = svg[: svg.rindex("</svg>")] + "".join(row) + "</svg>"
    return svg.replace(
        "<svg ", '<svg xmlns="http://www.w3.org/2000/svg" ', 1
    )


if __name__ == "__main__":
    main()
