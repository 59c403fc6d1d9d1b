"""Plain-text reporting: tables and bar charts.

The paper's artifacts are tables (I, II) and figures (the Figure 10
profile bars).  This module renders their
regenerated counterparts as alignment-stable ASCII so benches, examples
and the CLI share one presentation layer (no plotting dependencies).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.metrics import SimulationReport


def ascii_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Render a left-aligned table with a header rule.

    Column widths fit the widest cell; numeric cells are right-aligned.
    """
    if not headers:
        raise ValueError("a table needs headers")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {row!r} has {len(row)} cells; expected {len(headers)}"
            )

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]

    def align(text: str, width: int, value: object) -> str:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return text.rjust(width)
        return text.ljust(width)

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for raw, row in zip(rows, cells):
        lines.append("  ".join(align(c, w, v) for c, w, v in zip(row, widths, raw)))
    return "\n".join(lines)


#: (row label, SimulationReport attribute, format spec) for the fault
#: -recovery metrics introduced by the fault-injection layer.
RECOVERY_METRICS: tuple[tuple[str, str, str], ...] = (
    ("fault events", "fault_events", "d"),
    ("retries", "retries", "d"),
    ("GPP fallbacks", "gpp_fallbacks", "d"),
    ("availability", "availability", ".1%"),
    ("MTTR s", "mttr_s", ".3f"),
    ("wasted work s", "wasted_work_s", ".2f"),
    ("wasted slice-s", "wasted_slice_seconds", ".1f"),
    ("goodput tasks/s", "goodput_tasks_per_s", ".3f"),
)

#: Same, for the adaptive resilience layer (breakers, deadlines,
#: checkpoints).  All-zero across every report = the layer
#: was disabled, and :func:`recovery_table` omits the block.
RESILIENCE_METRICS: tuple[tuple[str, str, str], ...] = (
    ("soft deadline misses", "deadline_soft_misses", "d"),
    ("hard deadline misses", "deadline_hard_misses", "d"),
    ("deadline miss rate", "deadline_miss_rate", ".1%"),
    ("quarantines", "quarantines", "d"),
    ("quarantine time s", "quarantine_time_s", ".2f"),
    ("checkpoints", "checkpoints", "d"),
    ("checkpoint overhead s", "checkpoint_overhead_s", ".3f"),
    ("wasted work saved s", "wasted_work_saved_s", ".2f"),
    ("migrations", "migrations", "d"),
)

#: Same, for the control-plane fault-tolerance layer (heartbeat
#: detection, replicated-RMS failover, lease-based orphan recovery).
#: All-zero across every report = no control-plane faults fired, and
#: :func:`recovery_table` omits the block.
FAILOVER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("RMS crashes", "rms_crashes", "d"),
    ("RMS gray failures", "rms_gray_events", "d"),
    ("failovers", "failovers", "d"),
    ("control-plane dark s", "control_plane_downtime_s", ".2f"),
    ("detections", "detections", "d"),
    ("detect latency p50 s", "detection_latency_p50_s", ".3f"),
    ("detect latency p95 s", "detection_latency_p95_s", ".3f"),
    ("false suspicions", "false_suspicions", "d"),
    ("leases expired", "leases_expired", "d"),
    ("orphans recovered", "orphans_recovered", "d"),
)


def recovery_table(
    entries: Sequence[tuple[str, "SimulationReport"]],
    *,
    title: str = "Recovery & resilience",
) -> str:
    """Recovery + resilience metrics of several runs, side by side.

    ``entries`` pairs a column label (strategy name, scenario...) with
    its :class:`~repro.sim.metrics.SimulationReport`.  Metrics are rows
    so runs line up for comparison; the resilience block only appears
    when at least one run actually exercised the resilience layer.
    """
    if not entries:
        raise ValueError("recovery_table needs at least one report")
    metrics = list(RECOVERY_METRICS)
    reports = [report for _, report in entries]
    if any(getattr(r, attr) for _, attr, _ in RESILIENCE_METRICS for r in reports):
        metrics += RESILIENCE_METRICS
    if any(getattr(r, attr) for _, attr, _ in FAILOVER_METRICS for r in reports):
        metrics += FAILOVER_METRICS
    rows = [
        (label, *(format(getattr(r, attr), spec) for r in reports))
        for label, attr, spec in metrics
    ]
    rows.insert(
        0, ("done/fail/disc", *(f"{r.completed}/{r.failed}/{r.discarded}" for r in reports))
    )
    return ascii_table(["metric", *(label for label, _ in entries)], rows, title=title)


def recovery_json(
    entries: Sequence[tuple[str, "SimulationReport"]],
) -> dict[str, dict[str, object]]:
    """The :func:`recovery_table` numbers as a JSON-ready mapping.

    Keys are the entry labels; values map metric attribute names to raw
    (unformatted) numbers, resilience metrics always included.
    """
    out: dict[str, dict[str, object]] = {}
    for label, report in entries:
        record: dict[str, object] = {
            "completed": report.completed,
            "failed": report.failed,
            "discarded": report.discarded,
        }
        for _, attr, _ in (*RECOVERY_METRICS, *RESILIENCE_METRICS, *FAILOVER_METRICS):
            record[attr] = getattr(report, attr)
        out[label] = record
    return out


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 50,
    title: str = "",
    unit: str = "",
) -> str:
    """Horizontal bar chart; bars scale to the maximum value.

    The Figure 10 renderer: kernel names on the left, ``#`` bars sized
    by time share, numeric value on the right.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        raise ValueError("a chart needs at least one bar")
    if width <= 0:
        raise ValueError("width must be positive")
    if any(v < 0 for v in values):
        raise ValueError("bar values must be non-negative")

    peak = max(values) or 1.0
    label_width = max(len(l) for l in labels)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        bar = "#" * max(1 if value > 0 else 0, round(width * value / peak))
        lines.append(f"{label.ljust(label_width)}  {bar} {value:.2f}{unit}")
    return "\n".join(lines)
