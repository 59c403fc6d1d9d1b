"""Run-record export: CSV/JSON artifacts from finished simulations.

DReAMSim runs are the paper's experimental vehicle; exporting their
per-task records lets results be post-processed outside the library
(spreadsheets, plotting, regression baselines).  Formats are
deliberately boring: flat CSV for per-task tables, JSON for aggregate
reports.  Exports round-trip (:func:`load_task_records`,
:func:`load_report_json`) so stored baselines can be compared against
fresh runs in tests.  The event trace is the typed JSONL stream of
:mod:`repro.sim.tracing`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, fields
from pathlib import Path

from repro.sim.metrics import MetricsCollector, SimulationReport

#: Per-task CSV columns, in order.
TASK_COLUMNS = [
    "key",
    "function",
    "pe_kind",
    "node_id",
    "resource_index",
    "slices",
    "arrival",
    "dispatch",
    "start",
    "finish",
    "transfer_time",
    "synthesis_time",
    "reconfig_time",
    "reused_configuration",
    "discarded",
]


def export_task_records(collector: MetricsCollector, path: str | Path) -> int:
    """Write one CSV row per task; returns the row count."""
    path = Path(path)
    with path.open("w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=TASK_COLUMNS)
        writer.writeheader()
        count = 0
        for tm in collector.tasks.values():
            row = {column: getattr(tm, column) for column in TASK_COLUMNS if column != "key"}
            row["key"] = repr(tm.key)
            writer.writerow(row)
            count += 1
    return count


def load_task_records(path: str | Path) -> list[dict]:
    """Read back an exported per-task CSV with typed fields."""

    def parse(column: str, text: str):
        if text == "":
            return None
        if column in ("reused_configuration", "discarded"):
            return text == "True"
        if column in ("node_id", "resource_index", "slices"):
            return int(text)
        if column in ("function", "pe_kind", "key"):
            return text
        return float(text)

    with Path(path).open(newline="", encoding="ascii") as fh:
        return [
            {column: parse(column, row[column]) for column in TASK_COLUMNS}
            for row in csv.DictReader(fh)
        ]


def export_report_json(report: SimulationReport, path: str | Path) -> None:
    """Serialize an aggregate report as JSON."""
    Path(path).write_text(json.dumps(asdict(report), indent=2), encoding="ascii")


def load_report_json(path: str | Path) -> SimulationReport:
    """Rehydrate an exported aggregate report.

    Raises :class:`ValueError` naming the fields a dump carries that
    :class:`SimulationReport` no longer has (a dump written by an older
    release, for example).
    """
    data = json.loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a report JSON object")
    unexpected = sorted(data.keys() - {f.name for f in fields(SimulationReport)})
    if unexpected:
        raise ValueError(
            f"{path}: unexpected report field(s): {', '.join(unexpected)}"
        )
    return SimulationReport(**data)
