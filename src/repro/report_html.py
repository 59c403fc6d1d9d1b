"""Self-contained HTML dashboard for telemetry + trace files.

Renders the ``repro report`` page: inline-SVG step charts for the
sim-time series a :class:`~repro.sim.telemetry.TelemetryRegistry`
recorded, a Gantt-style task-span timeline derived from the trace
event stream, and the run's ASCII summary tables -- one HTML file, no
JavaScript, no external assets, so the artifact can be committed, mailed
or uploaded from CI and opened anywhere.

Chart conventions follow one fixed design method: a categorical palette
assigned in fixed slot order (never cycled -- beyond eight series the
remainder folds into a count note), step-after lines for event-sampled
series, one y-axis per chart, text always in ink tokens rather than
series colors, and a legend whenever a chart carries two or more
series.  Native SVG ``<title>`` elements provide hover tooltips without
scripting.
"""

from __future__ import annotations

import html
from dataclasses import dataclass

from repro.sim.telemetry import (
    BROWNOUT_STAGE,
    CHECKPOINT_OVERHEAD,
    EVENT_COUNTERS,
    Histogram,
    Instant,
    Span,
    TelemetryRegistry,
    build_node_spans,
    build_task_spans,
)
from repro.sim.tracing import TraceEvent

# -- design tokens (light mode of the validated reference palette) -----
SERIES_COLORS = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)
SURFACE = "#fcfcfb"
PAGE = "#f9f9f7"
INK = "#0b0b0b"
INK_SECONDARY = "#52514e"
INK_MUTED = "#898781"
GRIDLINE = "#e1e0d9"
AXIS = "#c3c2b7"
CRITICAL = "#d03b3b"
QUEUED_FILL = "#e1e0d9"  # recessive: waiting, not doing

#: Span-phase fills on the timeline (setup = orange, execute = blue);
#: ``breach`` shades SLO breach windows on the objective timeline.
PHASE_COLORS = {"queued": QUEUED_FILL, "setup": "#eb6834", "execute": "#2a78d6",
                "occupied": "#2a78d6", "breach": "#e34948"}

#: Instants drawn as markers on the timeline; faults in status red.
INSTANT_COLORS = {
    "fault": CRITICAL,
    "task-failed": CRITICAL,
    "timeout": CRITICAL,
    "checkpoint": "#1baf7a",
    "migrate": "#4a3aa7",
    "retry": "#eda100",
    "fallback": "#eda100",
    # Control-plane fault tolerance (PR 8): detector verdicts in
    # escalating warmth, failover machinery in purple, recovery green.
    "heartbeat-suspect": "#eda100",
    "heartbeat-confirm": CRITICAL,
    "heartbeat-rejoin": "#1baf7a",
    "rms-crash": CRITICAL,
    "rms-gray": "#eda100",
    "rms-restore": "#1baf7a",
    "failover-begin": "#4a3aa7",
    "failover-complete": "#4a3aa7",
    "lease-expire": "#eda100",
    "orphan-recovered": "#1baf7a",
    # SLO monitoring (PR 10): burn-rate alert lifecycle.
    "slo-breach": CRITICAL,
    "slo-alert-fire": "#eb6834",
    "slo-alert-resolve": "#1baf7a",
}

#: Causal-ledger phase fills (sim/analysis.py PHASES): waiting states
#: recessive or warm, productive compute in blue, failure paths red.
LEDGER_PHASE_COLORS = {
    "admission": "#eda100",   # yellow: held at the door
    "queue": QUEUED_FILL,     # recessive: waiting, not doing
    "placement": "#4a3aa7",   # violet: matchmaking + staging
    "reconfig": "#eb6834",    # orange: fabric setup
    "compute": "#2a78d6",     # blue: the useful part
    "recovery": "#e34948",    # red: fault teardown + re-queue
    "checkpoint": "#1baf7a",  # aqua: checkpoint-resume migration
    "orphan": "#008300",      # green: control-plane dark limbo
    "brownout": "#e87ba4",    # magenta: degraded-mode queueing
}

MAX_SERIES_PER_CHART = 8
MAX_TIMELINE_TRACKS = 40


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: float) -> str:
    """Compact tick label."""
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.3g}"


@dataclass
class _Scale:
    lo: float
    hi: float
    px0: float
    px1: float

    def __call__(self, v: float) -> float:
        if self.hi == self.lo:
            return self.px0
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px0 + frac * (self.px1 - self.px0)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    import math

    span = hi - lo
    raw = span / max(1, count - 1)
    magnitude = 10 ** math.floor(math.log10(raw))
    for step in (1, 2, 2.5, 5, 10):
        if raw <= step * magnitude:
            step *= magnitude
            break
    else:  # pragma: no cover - the loop always breaks at step=10
        step = 10 * magnitude
    first = math.ceil(lo / step) * step
    ticks, value = [], first
    while value <= hi + 1e-9:
        ticks.append(round(value, 10))
        value += step
    return ticks or [lo]


def svg_step_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    *,
    title: str,
    unit: str = "",
    width: int = 640,
    height: int = 220,
    t_max: float | None = None,
    bands: list[tuple[float, float]] | None = None,
    band_label: str = "",
) -> str:
    """One step-after line chart (inline SVG) for sim-time series.

    ``series`` is ``[(label, [(t, v), ...]), ...]`` in the order the
    palette should be assigned.  Beyond :data:`MAX_SERIES_PER_CHART`
    series the remainder is dropped with a visible note (never drawn in
    generated colors).

    ``bands`` shades ``[t0, t1)`` intervals behind the series (e.g.
    brownout residency windows); ``band_label`` is their hover title.
    """
    dropped = max(0, len(series) - MAX_SERIES_PER_CHART)
    series = [s for s in series[:MAX_SERIES_PER_CHART] if s[1]]
    pad_l, pad_r, pad_t, pad_b = 48, 12, 30, 26
    all_t = [t for _, pts in series for t, _ in pts]
    all_v = [v for _, pts in series for _, v in pts]
    if not all_t:
        return (
            f'<div class="chart-empty">{_esc(title)}: no samples recorded</div>'
        )
    hi_t = max(all_t + ([t_max] if t_max is not None else []))
    hi_v = max(all_v + [0.0])
    lo_v = min(all_v + [0.0])
    if hi_v == lo_v:
        hi_v = lo_v + 1.0
    x = _Scale(0.0, hi_t or 1.0, pad_l, width - pad_r)
    y = _Scale(lo_v, hi_v, height - pad_b, pad_t)
    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(title)}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="{SURFACE}"/>',
        f'<text x="{pad_l}" y="18" fill="{INK}" font-size="13" '
        f'font-weight="600">{_esc(title)}</text>',
    ]
    for tick in _ticks(lo_v, hi_v, 4):
        py = y(tick)
        parts.append(
            f'<line x1="{pad_l}" y1="{py:.1f}" x2="{width - pad_r}" '
            f'y2="{py:.1f}" stroke="{GRIDLINE}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{pad_l - 6}" y="{py + 3:.1f}" fill="{INK_MUTED}" '
            f'font-size="10" text-anchor="end">{_fmt(tick)}</text>'
        )
    for tick in _ticks(0.0, hi_t or 1.0, 6):
        px = x(tick)
        parts.append(
            f'<text x="{px:.1f}" y="{height - 8}" fill="{INK_MUTED}" '
            f'font-size="10" text-anchor="middle">{_fmt(tick)}s</text>'
        )
    parts.append(
        f'<line x1="{pad_l}" y1="{height - pad_b}" x2="{width - pad_r}" '
        f'y2="{height - pad_b}" stroke="{AXIS}" stroke-width="1"/>'
    )
    for t0, t1 in bands or ():
        x0, x1 = x(max(0.0, t0)), x(min(hi_t, t1))
        if x1 <= x0:
            continue
        parts.append(
            f'<rect x="{x0:.1f}" y="{pad_t}" width="{x1 - x0:.1f}" '
            f'height="{height - pad_b - pad_t}" fill="{CRITICAL}" '
            f'fill-opacity="0.08">'
            + (f"<title>{_esc(band_label)}</title>" if band_label else "")
            + "</rect>"
        )
    if unit:
        parts.append(
            f'<text x="{pad_l}" y="{pad_t - 2}" fill="{INK_SECONDARY}" '
            f'font-size="10">{_esc(unit)}</text>'
        )
    for index, (label, points) in enumerate(series):
        color = SERIES_COLORS[index]
        d = [f"M {x(points[0][0]):.1f} {y(points[0][1]):.1f}"]
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            d.append(f"H {x(t1):.1f}")
            if v1 != v0:
                d.append(f"V {y(v1):.1f}")
        d.append(f"H {x(hi_t):.1f}")  # hold the last value to the horizon
        parts.append(
            f'<path d="{" ".join(d)}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round">'
            f"<title>{_esc(label)}</title></path>"
        )
    parts.append("</svg>")
    legend = ""
    if len(series) > 1:
        items = "".join(
            f'<span class="legend-item"><span class="swatch" '
            f'style="background:{SERIES_COLORS[i]}"></span>{_esc(label)}</span>'
            for i, (label, _) in enumerate(series)
        )
        if dropped:
            items += f'<span class="legend-item muted">+{dropped} more (not drawn)</span>'
        legend = f'<div class="legend">{items}</div>'
    elif dropped:
        legend = (
            f'<div class="legend"><span class="legend-item muted">'
            f"+{dropped} more series (not drawn)</span></div>"
        )
    return f'<figure class="chart-box">{"".join(parts)}{legend}</figure>'


def svg_span_timeline(
    spans: list[Span],
    instants: list[Instant],
    *,
    title: str,
    width: int = 900,
    row_height: int = 16,
    legend_items: list[tuple[str, str]] | None = None,
) -> str:
    """Gantt-style track timeline for derived spans (inline SVG).

    ``legend_items`` overrides the default task-lifecycle legend with
    ``(label, color)`` pairs (used by the SLO objective timeline).
    """
    tracks = list(dict.fromkeys(span.track for span in spans))
    dropped = max(0, len(tracks) - MAX_TIMELINE_TRACKS)
    tracks = tracks[:MAX_TIMELINE_TRACKS]
    shown = set(tracks)
    if not tracks:
        return f'<div class="chart-empty">{_esc(title)}: no spans derived</div>'
    pad_l, pad_r, pad_t, pad_b = 170, 12, 30, 24
    height = pad_t + pad_b + row_height * len(tracks)
    hi_t = max(
        [s.end for s in spans if s.track in shown]
        + [i.time for i in instants if i.track in shown] + [1e-9]
    )
    x = _Scale(0.0, hi_t, pad_l, width - pad_r)
    row = {track: pad_t + i * row_height for i, track in enumerate(tracks)}
    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(title)}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="{SURFACE}"/>',
        f'<text x="{pad_l}" y="18" fill="{INK}" font-size="13" '
        f'font-weight="600">{_esc(title)}</text>',
    ]
    for tick in _ticks(0.0, hi_t, 8):
        px = x(tick)
        parts.append(
            f'<line x1="{px:.1f}" y1="{pad_t - 4}" x2="{px:.1f}" '
            f'y2="{height - pad_b}" stroke="{GRIDLINE}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{height - 8}" fill="{INK_MUTED}" '
            f'font-size="10" text-anchor="middle">{_fmt(tick)}s</text>'
        )
    for track, top in row.items():
        parts.append(
            f'<text x="{pad_l - 8}" y="{top + row_height - 5}" fill="{INK_SECONDARY}" '
            f'font-size="10" text-anchor="end">{_esc(track)}</text>'
        )
    for span in spans:
        top = row.get(span.track)
        if top is None:
            continue
        color = PHASE_COLORS.get(span.phase, INK_MUTED)
        x0, x1 = x(span.start), x(span.end)
        w = max(1.0, x1 - x0)
        tip = (
            f"{span.track} {span.phase}"
            + (f" [{span.name}]" if span.name else "")
            + f": {span.start:.3f}s - {span.end:.3f}s ({span.duration:.3f}s)"
        )
        parts.append(
            f'<rect x="{x0:.1f}" y="{top + 2}" width="{w:.1f}" '
            f'height="{row_height - 4}" rx="2" fill="{color}">'
            f"<title>{_esc(tip)}</title></rect>"
        )
    for instant in instants:
        top = row.get(instant.track)
        if top is None:
            continue
        color = INSTANT_COLORS.get(instant.kind, INK_MUTED)
        px = x(instant.time)
        mid = top + row_height / 2
        parts.append(
            f'<path d="M {px:.1f} {mid - 5:.1f} L {px + 4:.1f} {mid:.1f} '
            f'L {px:.1f} {mid + 5:.1f} L {px - 4:.1f} {mid:.1f} Z" '
            f'fill="{color}" stroke="{SURFACE}" stroke-width="1">'
            f"<title>{_esc(f'{instant.kind} @ {instant.time:.3f}s')}</title></path>"
        )
    parts.append("</svg>")
    if legend_items is None:
        legend_items = [
            ("queued", QUEUED_FILL),
            ("setup (transfer+synthesis+reconfig)", PHASE_COLORS["setup"]),
            ("execute", PHASE_COLORS["execute"]),
            ("fault/timeout", CRITICAL),
            ("checkpoint", INSTANT_COLORS["checkpoint"]),
        ]
    legend = "".join(
        f'<span class="legend-item"><span class="swatch" '
        f'style="background:{color}"></span>{_esc(label)}</span>'
        for label, color in legend_items
    )
    if dropped:
        legend += (
            f'<span class="legend-item muted">+{dropped} more tracks '
            f"(truncated)</span>"
        )
    return (
        f'<figure class="chart-box">{"".join(parts)}'
        f'<div class="legend">{legend}</div></figure>'
    )


def svg_phase_bars(
    rows: list[tuple[str, dict[str, float]]],
    *,
    title: str,
    width: int = 640,
    row_height: int = 26,
) -> str:
    """Stacked horizontal phase-share bars (one per task bucket).

    Each bar normalizes its bucket's phase seconds to full width, so
    the segments read as shares; absolute seconds live in the hover
    tooltips.  Colors come from :data:`LEDGER_PHASE_COLORS` in ledger
    phase order.
    """
    rows = [(label, phases) for label, phases in rows
            if sum(phases.values()) > 0]
    if not rows:
        return f'<div class="chart-empty">{_esc(title)}: no phase time recorded</div>'
    pad_l, pad_r, pad_t, pad_b = 150, 12, 30, 8
    height = pad_t + pad_b + row_height * len(rows)
    bar_w = width - pad_l - pad_r
    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{_esc(title)}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="{SURFACE}"/>',
        f'<text x="{pad_l}" y="18" fill="{INK}" font-size="13" '
        f'font-weight="600">{_esc(title)}</text>',
    ]
    used: list[str] = []
    for i, (label, phases) in enumerate(rows):
        top = pad_t + i * row_height
        total = sum(phases.values())
        parts.append(
            f'<text x="{pad_l - 8}" y="{top + row_height / 2 + 3:.1f}" '
            f'fill="{INK_SECONDARY}" font-size="10" '
            f'text-anchor="end">{_esc(label)}</text>'
        )
        cursor = float(pad_l)
        for phase, color in LEDGER_PHASE_COLORS.items():
            seconds = phases.get(phase, 0.0)
            if seconds <= 0:
                continue
            if phase not in used:
                used.append(phase)
            w = bar_w * seconds / total
            tip = f"{label} {phase}: {seconds:.4f} s ({seconds / total:.1%})"
            parts.append(
                f'<rect x="{cursor:.1f}" y="{top + 4}" width="{max(w, 0.5):.1f}" '
                f'height="{row_height - 8}" fill="{color}">'
                f"<title>{_esc(tip)}</title></rect>"
            )
            cursor += w
    parts.append("</svg>")
    legend = "".join(
        f'<span class="legend-item"><span class="swatch" '
        f'style="background:{LEDGER_PHASE_COLORS[p]}"></span>{_esc(p)}</span>'
        for p in used
    )
    return (
        f'<figure class="chart-box">{"".join(parts)}'
        f'<div class="legend">{legend}</div></figure>'
    )


def _phase_breakdown_section(events: list[TraceEvent]) -> list[str]:
    """Stacked phase-share bars from the causal ledger: the whole run
    plus the p50/p95/p99 turnaround buckets, so the dashboard answers
    "where did the tail's time go" next to the timeline it came from."""
    from repro.sim.analysis import analyze_events

    analysis = analyze_events(events)
    rows = [(f"all tasks ({len(analysis.ledgers)})", analysis.phase_totals())]
    for bucket in ("p50", "p95", "p99"):
        pool = analysis.exemplar_pool(bucket)
        if not pool:
            continue
        rows.append((
            f"{bucket} bucket ({len(pool)})",
            analysis.phase_totals([l.key for l in pool]),
        ))
    sections = [
        "<h2>Phase breakdown</h2>",
        svg_phase_bars(rows, title="Turnaround attribution by phase"),
    ]
    dominant = analysis.dominant_phase("p99")
    if dominant is not None:
        sections.append(
            f'<p class="note">Dominant p99 phase: '
            f"<strong>{_esc(dominant)}</strong>.</p>"
        )
    return sections


def _slo_section(
    registry: TelemetryRegistry, events: list[TraceEvent] | None
) -> list[str]:
    """SLO panel: per-objective attainment table (from the monitor's
    end-state gauges) plus a breach/alert timeline reconstructed from
    the ``slo-*`` trace events.  Empty when the monitor was unarmed:
    no gauges published, no events emitted, no panel rendered."""

    def end_state(name: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in registry.series(name):
            obj = s.labels.get("objective")
            if obj and s.points:
                out[obj] = s.points[-1][1]
        return out

    attainment = end_state("slo_attainment")
    budget = end_state("slo_error_budget_remaining")
    breach_s = end_state("slo_breach_seconds")

    spans: list[Span] = []
    instants: list[Instant] = []
    opened: dict[str, float] = {}
    fired = resolved = 0
    last_t = 0.0
    for ev in events or ():
        last_t = max(last_t, ev.time)
        if ev.kind == "slo-breach":
            obj = str(ev.payload.get("objective", "?"))
            if ev.payload.get("action") == "begin":
                opened[obj] = ev.time
            else:
                spans.append(Span(track=obj, phase="breach",
                                  start=opened.pop(obj, ev.time), end=ev.time,
                                  name="breach", args=dict(ev.payload)))
        elif ev.kind in ("slo-alert-fire", "slo-alert-resolve"):
            obj = str(ev.payload.get("objective", "?"))
            instants.append(Instant(track=obj, kind=ev.kind, time=ev.time,
                                    args=dict(ev.payload)))
            fired += ev.kind == "slo-alert-fire"
            resolved += ev.kind == "slo-alert-resolve"
    for obj, start in sorted(opened.items()):  # trace cut before the close
        spans.append(Span(track=obj, phase="breach", start=start,
                          end=max(last_t, start), name="breach (open)"))
    if not attainment and not spans and not instants:
        return []

    sections = ["<h2>SLO objectives</h2>"]
    if attainment:
        rows = []
        for obj in sorted(attainment):
            att = attainment[obj]
            cls = ' class="bad"' if att < 1.0 else ""
            rows.append(
                f"<tr><td>{_esc(obj)}</td>"
                f"<td{cls}>{att:.2%}</td>"
                f"<td>{budget.get(obj, 1.0):.2%}</td>"
                f"<td>{breach_s.get(obj, 0.0):.3f}</td></tr>"
            )
        sections.append(
            '<table class="stats"><thead><tr><th>objective</th>'
            "<th>attainment</th><th>error budget left</th>"
            "<th>breach (s)</th></tr></thead><tbody>"
            + "".join(rows) + "</tbody></table>"
        )
    if spans or instants:
        # svg_span_timeline keys its tracks off spans, so an objective
        # whose alerts fired without a closed breach window still needs
        # a (zero-width) span to claim a row.
        tracked = {s.track for s in spans}
        for inst in instants:
            if inst.track not in tracked:
                tracked.add(inst.track)
                spans.append(Span(track=inst.track, phase="breach",
                                  start=inst.time, end=inst.time))
        sections.append(svg_span_timeline(
            spans, instants, title="SLO breach / alert timeline",
            legend_items=[
                ("breach window", PHASE_COLORS["breach"]),
                ("alert fire", INSTANT_COLORS["slo-alert-fire"]),
                ("alert resolve", INSTANT_COLORS["slo-alert-resolve"]),
            ],
        ))
        sections.append(
            f'<p class="note">Alerts fired: <strong>{fired}</strong>, '
            f"resolved: <strong>{resolved}</strong>.</p>"
        )
    return sections


def _histogram_table(histograms: list[Histogram]) -> str:
    if not histograms:
        return ""
    rows = []
    for h in histograms:
        label = h.name + (h.label_suffix() or "")
        mean = h.sum / h.count if h.count else 0.0
        rows.append(
            f"<tr><td>{_esc(label)}</td><td>{h.count}</td>"
            f"<td>{h.sum:.4f}</td><td>{mean:.4f}</td></tr>"
        )
    return (
        '<h2>Latency distributions</h2><table class="stats">'
        "<thead><tr><th>histogram</th><th>count</th><th>sum (s)</th>"
        "<th>mean (s)</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _brownout_bands(
    registry: TelemetryRegistry, t_max: float | None
) -> list[tuple[float, float]] | None:
    """Brownout residency windows (stage > 0) from the stage gauge's
    step series; ``None`` when the run never browned out (charts then
    draw no bands at all)."""
    series = registry.series(BROWNOUT_STAGE.name)
    if not series or not series[0].points:
        return None
    points = series[0].points
    bands: list[tuple[float, float]] = []
    opened: float | None = None
    for t, v in points:
        if v > 0 and opened is None:
            opened = t
        elif v == 0 and opened is not None:
            bands.append((opened, t))
            opened = None
    if opened is not None:
        end = t_max if t_max is not None else points[-1][0]
        bands.append((opened, max(end, opened)))
    return bands or None


def _series_charts(registry: TelemetryRegistry) -> list[str]:
    """The dashboard's time-series section, grouped by instrument."""
    horizon = registry.meta.get("horizon_s")
    t_max = float(horizon) if isinstance(horizon, (int, float)) else None

    def chart(name: str, title: str, unit: str, label_of=None, bands=None):
        # Instruments that exist but never sampled draw no chart: a
        # dump full of point-less series must fall through to the
        # dashboard's empty-state banner, not a wall of placeholders.
        group = [s for s in registry.series(name) if s.points]
        if not group:
            return None
        if label_of is None:
            def label_of(s):
                labels = ",".join(f"{k}={v}" for k, v in sorted(s.labels.items()))
                return labels or name
        return svg_step_chart(
            [(label_of(s), s.points) for s in group],
            title=title, unit=unit, t_max=t_max,
            bands=bands, band_label="brownout active" if bands else "",
        )

    queue_series = [
        (title, registry.series(name)[0].points)
        for name, title in (
            ("sim_queue_depth", "queued"),
            ("sim_active_tasks", "active"),
            ("sim_tasks_in_backoff", "in backoff"),
        )
        if registry.series(name) and registry.series(name)[0].points
    ]
    brownout_bands = _brownout_bands(registry, t_max)
    charts = [
        chart("node_utilization", "Node utilization", "busy fraction",
              lambda s: f"node {s.labels.get('node', '?')}"),
        svg_step_chart(
            queue_series, title="Scheduler queue", unit="tasks", t_max=t_max,
            bands=brownout_bands, band_label="brownout active",
        ) if queue_series else None,
        chart(EVENT_COUNTERS["shed"].name, "Load shedding", "cumulative sheds",
              lambda s: s.labels.get("reason", "shed"),
              bands=brownout_bands),
        chart(EVENT_COUNTERS["defer"].name, "Backpressure deferrals",
              "cumulative deferrals"),
        chart(BROWNOUT_STAGE.name, "Brownout stage", "0=healthy .. 3=shedding",
              bands=brownout_bands),
        chart("node_breaker_state", "Circuit breaker state",
              "0=closed 1=half-open 2=open",
              lambda s: f"node {s.labels.get('node', '?')}"),
        chart("rpe_configured_slices", "Configured fabric area", "slices",
              lambda s: f"node {s.labels.get('node', '?')} "
                        f"rpe {s.labels.get('rpe', '?')}"),
        chart(EVENT_COUNTERS["retry"].name, "Retry activity", "cumulative retries"),
        chart(CHECKPOINT_OVERHEAD.name, "Checkpoint overhead",
              "cumulative seconds"),
    ]
    return [c for c in charts if c is not None]


def render_dashboard(
    registry: TelemetryRegistry,
    events: list[TraceEvent] | None = None,
    *,
    title: str = "repro simulation report",
) -> str:
    """The complete self-contained dashboard HTML document.

    A registry with no samples (and no trace events) renders a
    friendly empty-state page, not an exception: runs that finish
    before the first sample, hand-trimmed dumps, and dumps with
    explicit ``null`` sections all land here.
    """
    meta = registry.meta or {}
    meta_bits = []
    for key in ("strategy", "tasks", "seed", "nodes", "arrival_rate_per_s",
                "horizon_s"):
        if key in meta:
            meta_bits.append(f"<dt>{_esc(key)}</dt><dd>{_esc(meta[key])}</dd>")
    resilience = meta.get("resilience") or {}
    if resilience:
        armed = ", ".join(sorted(resilience))
        meta_bits.append(f"<dt>resilience</dt><dd>{_esc(armed)}</dd>")
    admission = meta.get("admission") or {}
    if admission:
        armed = ", ".join(sorted(admission))
        meta_bits.append(f"<dt>admission</dt><dd>{_esc(armed)}</dd>")
    slo_meta = meta.get("slo") or {}
    if slo_meta:
        names = ", ".join(
            o.get("name", "?") if isinstance(o, dict) else str(o)
            for o in slo_meta.get("objectives") or ()
        )
        meta_bits.append(f"<dt>slo</dt><dd>{_esc(names or 'armed')}</dd>")
    header = (
        f'<dl class="meta">{"".join(meta_bits)}</dl>' if meta_bits else ""
    )

    sections = [f"<h1>{_esc(title)}</h1>", header]
    charts = _series_charts(registry)
    histograms = [i for i in registry.instruments if isinstance(i, Histogram)]
    has_samples = any(
        getattr(i, "points", None) for i in registry.instruments
    ) or any(h.count for h in histograms)
    if not charts and not has_samples and not events:
        sections.append(
            '<div class="empty-state"><p><strong>Nothing to plot.</strong> '
            "This telemetry file contains no samples and no trace was "
            "supplied.</p><p>Record one with <code>repro simulate "
            "--telemetry out.json --trace out.jsonl</code>, then re-run "
            "<code>repro report</code>.</p></div>"
        )
    if charts:
        sections.append("<h2>Time series</h2>")
        sections.extend(charts)

    sections.extend(_slo_section(registry, events))

    if events:
        task_spans, instants = build_task_spans(events)
        sections.append("<h2>Task timeline</h2>")
        sections.append(
            svg_span_timeline(task_spans, instants, title="Task lifecycle spans")
        )
        node_spans = build_node_spans(events)
        if node_spans:
            sections.append("<h2>Fabric occupancy</h2>")
            sections.append(
                svg_span_timeline(node_spans, [], title="Region occupancy spans")
            )
        sections.extend(_phase_breakdown_section(events))
    elif charts or has_samples:
        # Telemetry without a trace: the causal ledger needs events.
        sections.append("<h2>Phase breakdown</h2>")
        sections.append(
            '<div class="empty-state"><p><strong>Phase breakdown needs a '
            "trace.</strong> Turnaround attribution folds the event "
            "stream, which this report was not given.</p><p>Record one "
            "with <code>repro simulate --trace run.jsonl</code> and pass "
            "it as the second argument to <code>repro report</code>.</p>"
            "</div>"
        )

    sections.append(_histogram_table(histograms))

    summary = meta.get("summary")
    if isinstance(summary, list) and summary:
        sections.append("<h2>Run summary</h2>")
        sections.append(
            "<pre class='summary'>" + _esc("\n".join(summary)) + "</pre>"
        )

    body = "\n".join(s for s in sections if s)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>
  :root {{ color-scheme: light; }}
  body {{
    margin: 0 auto; padding: 24px; max-width: 960px;
    background: {PAGE}; color: {INK};
    font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  }}
  h1 {{ font-size: 20px; margin: 0 0 12px; }}
  h2 {{ font-size: 15px; margin: 28px 0 8px; color: {INK}; }}
  dl.meta {{
    display: flex; flex-wrap: wrap; gap: 4px 24px; margin: 0 0 8px;
    font-size: 12px; color: {INK_SECONDARY};
  }}
  dl.meta dt {{ font-weight: 600; }}
  dl.meta dd {{ margin: 0; }}
  dl.meta > dt {{ display: inline; }}
  dl.meta > dd {{ display: inline; margin-right: 16px; }}
  figure.chart-box {{
    margin: 0 0 16px; padding: 8px; background: {SURFACE};
    border: 1px solid rgba(11,11,11,0.10); border-radius: 6px;
    overflow-x: auto;
  }}
  .legend {{ margin-top: 6px; font-size: 11px; color: {INK_SECONDARY}; }}
  .legend-item {{ margin-right: 14px; white-space: nowrap; }}
  .legend-item.muted {{ color: {INK_MUTED}; }}
  .swatch {{
    display: inline-block; width: 10px; height: 10px; border-radius: 2px;
    margin-right: 4px; vertical-align: -1px;
  }}
  .chart-empty {{ color: {INK_MUTED}; font-size: 12px; margin: 8px 0; }}
  p.note {{ font-size: 12px; color: {INK_SECONDARY}; margin: 4px 0 0; }}
  .empty-state {{
    background: {SURFACE}; border: 1px solid rgba(11,11,11,0.10);
    border-radius: 6px; padding: 16px; font-size: 13px;
    color: {INK_SECONDARY};
  }}
  .empty-state code {{ font-size: 12px; }}
  table.stats {{
    border-collapse: collapse; font-size: 12px; background: {SURFACE};
  }}
  table.stats th, table.stats td {{
    border: 1px solid {GRIDLINE}; padding: 4px 10px; text-align: right;
  }}
  table.stats th:first-child, table.stats td:first-child {{ text-align: left; }}
  table.stats td {{ font-variant-numeric: tabular-nums; }}
  table.stats td.bad {{ color: {CRITICAL}; font-weight: 600; }}
  pre.summary {{
    background: {SURFACE}; border: 1px solid rgba(11,11,11,0.10);
    border-radius: 6px; padding: 12px; font-size: 12px; overflow-x: auto;
  }}
</style>
</head>
<body>
{body}
</body>
</html>
"""
