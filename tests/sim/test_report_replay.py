"""The report is a fold of the event stream.

The simulator hands every event to its :class:`MetricsCollector` before
a tracer sees it, so the trace on disk holds everything the report is
made of.  Each run below is traced to a JSONL file; the file is read
back through a fresh collector, which is given only the grid's initial
node ids, the live horizon and the end states of the admission and
control-plane layers, and through the SLO monitor of the run's SLO
spec.  Its report dump must equal the live one byte for byte, on both
engines.
"""

import json
from contextlib import contextmanager
from dataclasses import asdict

import pytest

from repro.cli import main
from repro.sim.experiment import _build
from repro.sim.metrics import MetricsCollector, SimulationReport, report_dump
from repro.sim.simulator import DReAMSim
from repro.sim.slo import SLO_PRESETS, evaluate_trace
from repro.sim.tracing import JsonlSink, Tracer, iter_jsonl
from tests.sim import test_admission
from tests.sim.test_golden_traces import GOLDEN
from tests.sim.test_lifecycle_pins import SPECS as LIFECYCLE, run_scenario
from tests.sim.test_pending_differential import COMPOSED

ENGINES = ("heap", "calendar")


@contextmanager
def live_runs():
    """Collect ``(simulator, initial node ids)`` for every run started
    inside the block; no node has joined or left when ``run`` begins."""
    runs = []
    real = DReAMSim.run

    def run(self, *args, **kwargs):
        runs.append((self, [node.node_id for node in self.rms.nodes]))
        return real(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DReAMSim, "run", run)
        yield runs


def replay(path, slo, sim: DReAMSim, node_ids: list[int]) -> SimulationReport:
    """The report folded from the trace at *path* and the SLO spec
    *slo*, given only what the stream cannot carry."""
    collector = MetricsCollector(node_ids)
    for event in iter_jsonl(path):
        collector.observe(event.time, event.kind, event.key, event.payload)
    return collector.report(
        sim.engine.now,
        admission=sim.admission,
        control_plane=sim.control_plane,
        slo=evaluate_trace(iter_jsonl(path), slo)[0] if slo is not None else (),
    )


def dump_text(spec, report: SimulationReport) -> str:
    return json.dumps(report_dump(spec, report), sort_keys=True)


def assert_replay_matches(spec, run, path) -> None:
    """*run(tracer)* runs *spec* once and returns its live report."""
    with live_runs() as runs:
        tracer = Tracer(JsonlSink(path))
        live = run(tracer)
        tracer.close()
    ((sim, node_ids),) = runs
    assert dump_text(spec, replay(path, spec.slo, sim, node_ids)) == dump_text(spec, live)


def run_spec(spec):
    def run(tracer):
        sim, workload = _build(spec, tracer=tracer)
        sim.submit_workload_columns(workload.generate_columns())
        return sim.run()

    return run


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_specs(name, engine, tmp_path):
    spec = GOLDEN[name][0].with_(engine=engine)
    assert_replay_matches(spec, run_spec(spec), tmp_path / "run.jsonl")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(LIFECYCLE))
def test_lifecycle_specs(name, engine, tmp_path):
    assert_replay_matches(
        LIFECYCLE[name].with_(engine=engine),
        lambda tracer: run_scenario(name, engine=engine, tracer=tracer),
        tmp_path / "run.jsonl",
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "scenario", sorted(test_admission.TestOverloadReportPins.PINNED_CRC)
)
def test_overload_specs(scenario, engine, tmp_path):
    spec = test_admission.TestOverloadReportPins().spec(scenario).with_(engine=engine)
    assert_replay_matches(spec, run_spec(spec), tmp_path / "run.jsonl")


@pytest.mark.parametrize("engine", ENGINES)
def test_composed_ci_run(engine, tmp_path, capsys):
    """The CI overload smoke's run, through the CLI: its report names
    quarantines that the detector's confirmed deaths opened."""
    trace, dump = tmp_path / "run.jsonl", tmp_path / "report.json"
    with live_runs() as runs:
        assert main([*COMPOSED, "--engine", engine, "--trace", str(trace),
                     "--report-json", str(dump)]) == 0
    capsys.readouterr()
    ((sim, node_ids),) = runs
    live = json.loads(dump.read_text())
    assert live["report"]["quarantines"] > 0
    report = replay(trace, SLO_PRESETS["default"], sim, node_ids)  # --slo default
    replayed = {**live, "report": asdict(report)}
    assert json.dumps(replayed, indent=2, sort_keys=True) + "\n" == dump.read_text()
