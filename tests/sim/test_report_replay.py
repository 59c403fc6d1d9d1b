"""The report is a fold of the event stream.

The simulator hands every event to its :class:`MetricsCollector` before
a tracer sees it, so the trace on disk holds everything the report is
made of.  Each run below is traced to a JSONL file; the file is read
back through a fresh collector, which is given only the grid's initial
node ids and the live horizon, and through the SLO monitor of the run's
SLO spec.  Its report dump must equal the live one byte for byte, on
both engines.
"""

import json
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from functools import cache
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim.experiment import ExperimentSpec, _build
from repro.sim.failover import FAILOVER_PRESETS
from repro.sim.faults import FAULT_PRESETS
from repro.sim.metrics import MetricsCollector, SimulationReport, report_dump
from repro.sim.simulator import DReAMSim
from repro.sim.slo import SLO_PRESETS, evaluate_trace
from repro.sim.tracing import JsonlSink, Tracer, iter_jsonl
from tests.sim import test_admission
from tests.sim.test_golden_traces import GOLDEN
from tests.sim.test_lifecycle_pins import SPECS as LIFECYCLE, run_scenario
from tests.sim.test_pending_differential import COMPOSED

ENGINES = ("heap", "calendar")

#: Runs that exercise a fold no other scenario does.
EXTRA = {
    # One heartbeat suspicion of a live target lifts: a false suspicion.
    "false-suspicion": ExperimentSpec(
        tasks=200,
        seed=2,
        faults=FAULT_PRESETS["control-plane"],
        failover=FAILOVER_PRESETS["ha"],
    ),
}

#: Scenario group -> the names in it.
SCENARIOS = {
    "golden": sorted(GOLDEN),
    "lifecycle": sorted(LIFECYCLE),
    "overload": sorted(test_admission.TestOverloadReportPins.PINNED_CRC),
    "extra": sorted(EXTRA),
}

#: The report fields folded from admission and control-plane events.
LAYER_FIELDS = (
    "placements_gated",
    "brownout_transitions",
    "brownout_max_stage",
    "brownout_time_s",
    "overload_goodput_tasks_per_s",
    "rms_crashes",
    "rms_gray_events",
    "failovers",
    "control_plane_downtime_s",
    "detections",
    "detection_latency_p50_s",
    "detection_latency_p95_s",
    "false_suspicions",
    "leases_expired",
)


@contextmanager
def live_runs():
    """Collect ``(initial node ids, horizon)`` for every run started
    inside the block; no node has joined or left when ``run`` begins."""
    runs = []
    real = DReAMSim.run

    def run(self, *args, **kwargs):
        node_ids = [node.node_id for node in self.rms.nodes]
        report = real(self, *args, **kwargs)
        runs.append((node_ids, self.engine.now))
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DReAMSim, "run", run)
        yield runs


def replay(path, slo, node_ids: list[int], horizon_s: float) -> SimulationReport:
    """The report folded from the trace at *path* and the SLO spec
    *slo*, given only what the stream cannot carry."""
    collector = MetricsCollector(node_ids)
    for event in iter_jsonl(path):
        collector.observe(event.time, event.kind, event.key, event.payload)
    return collector.report(
        horizon_s,
        slo=evaluate_trace(iter_jsonl(path), slo)[0] if slo is not None else (),
    )


def dump_text(spec, report: SimulationReport) -> str:
    return json.dumps(report_dump(spec, report), sort_keys=True)


def run_spec(spec):
    def run(tracer):
        sim, workload = _build(spec, tracer=tracer)
        sim.submit_workload_columns(workload.generate_columns())
        return sim.run()

    return run


def scenario(group: str, name: str, engine: str):
    """``(spec, run)`` of one scenario, where *run(tracer)* runs the
    spec once and returns its live report."""
    if group == "lifecycle":
        return LIFECYCLE[name].with_(engine=engine), (
            lambda tracer: run_scenario(name, engine=engine, tracer=tracer)
        )
    if group == "golden":
        spec = GOLDEN[name][0]
    elif group == "overload":
        spec = test_admission.TestOverloadReportPins().spec(name)
    else:
        spec = EXTRA[name]
    spec = spec.with_(engine=engine)
    return spec, run_spec(spec)


@cache
def replayed(group: str, name: str, engine: str) -> tuple[str, str, SimulationReport]:
    """The live and the replayed report dump of one scenario, and the
    replayed report."""
    spec, run = scenario(group, name, engine)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        with live_runs() as runs:
            tracer = Tracer(JsonlSink(path))
            live = run(tracer)
            tracer.close()
        ((node_ids, horizon_s),) = runs
        report = replay(path, spec.slo, node_ids, horizon_s)
    return dump_text(spec, live), dump_text(spec, report), report


def assert_replay_matches(group: str, name: str, engine: str) -> None:
    live, replay_dump, _ = replayed(group, name, engine)
    assert replay_dump == live


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", SCENARIOS["golden"])
def test_golden_specs(name, engine):
    assert_replay_matches("golden", name, engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", SCENARIOS["lifecycle"])
def test_lifecycle_specs(name, engine):
    assert_replay_matches("lifecycle", name, engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS["overload"])
def test_overload_specs(scenario, engine):
    assert_replay_matches("overload", scenario, engine)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", SCENARIOS["extra"])
def test_extra_specs(name, engine):
    assert_replay_matches("extra", name, engine)


def test_false_suspicion_is_folded():
    assert replayed("extra", "false-suspicion", "calendar")[2].false_suspicions == 1


def test_every_layer_field_is_exercised():
    """Each admission and control-plane field is non-zero in some
    scenario, so a wrong fold of it cannot replay to the live value
    unnoticed."""
    reports = [
        replayed(group, name, "calendar")[2]
        for group, names in SCENARIOS.items()
        for name in names
    ]
    assert [f for f in LAYER_FIELDS if not any(getattr(r, f) for r in reports)] == []


@pytest.mark.parametrize("engine", ENGINES)
def test_composed_ci_run(engine, tmp_path, capsys):
    """The CI overload smoke's run, through the CLI: its report names
    quarantines that the detector's confirmed deaths opened."""
    trace, dump = tmp_path / "run.jsonl", tmp_path / "report.json"
    with live_runs() as runs:
        assert main([*COMPOSED, "--engine", engine, "--trace", str(trace),
                     "--report-json", str(dump)]) == 0
    capsys.readouterr()
    ((node_ids, horizon_s),) = runs
    live = json.loads(dump.read_text())
    assert live["report"]["quarantines"] > 0
    report = replay(trace, SLO_PRESETS["default"], node_ids, horizon_s)  # --slo default
    document = {**live, "report": asdict(report)}
    assert json.dumps(document, indent=2, sort_keys=True) + "\n" == dump.read_text()
