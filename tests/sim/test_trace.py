"""Unit tests for run-record export/import."""

import dataclasses
import json

import pytest

from repro.core.execreq import Artifacts, ExecReq
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.gpp import GPPSpec
from repro.hardware.taxonomy import PEClass
from repro.sim.simulator import DReAMSim
from repro.sim.trace import (
    export_report_json,
    export_task_records,
    load_report_json,
    load_task_records,
)


@pytest.fixture
def finished_sim():
    node = Node(node_id=0)
    node.add_gpp(GPPSpec(cpu_model="Xeon", mips=1_000))
    rms = ResourceManagementSystem()
    rms.register_node(node)
    sim = DReAMSim(rms)
    tasks = [
        (
            float(i),
            simple_task(
                i,
                ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
                0.5,
            ),
        )
        for i in range(4)
    ]
    sim.submit_workload(tasks)
    report = sim.run()
    return sim, report


class TestTaskRecords:
    def test_roundtrip(self, finished_sim, tmp_path):
        sim, _ = finished_sim
        path = tmp_path / "tasks.csv"
        count = export_task_records(sim.metrics, path)
        assert count == 4
        records = load_task_records(path)
        assert len(records) == 4
        for record, tm in zip(records, sim.metrics.tasks.values()):
            assert record["pe_kind"] == tm.pe_kind
            assert record["node_id"] == tm.node_id
            assert record["arrival"] == pytest.approx(tm.arrival)
            assert record["finish"] == pytest.approx(tm.finish)
            assert record["reused_configuration"] == tm.reused_configuration
            assert record["discarded"] == tm.discarded

    def test_none_fields_roundtrip_as_none(self, tmp_path):
        from repro.sim.metrics import MetricsCollector

        collector = MetricsCollector()
        collector.record_arrival("pending", 1.0)
        path = tmp_path / "tasks.csv"
        export_task_records(collector, path)
        [record] = load_task_records(path)
        assert record["dispatch"] is None
        assert record["finish"] is None
        assert record["node_id"] is None


class TestReportJson:
    def test_roundtrip(self, finished_sim, tmp_path):
        _, report = finished_sim
        path = tmp_path / "report.json"
        export_report_json(report, path)
        loaded = load_report_json(path)
        assert loaded == report

    def test_unknown_fields_raise_value_error(self, finished_sim, tmp_path):
        # A dump from an older release carries fields the report has
        # since dropped; loading it names them instead of a TypeError.
        _, report = finished_sim
        path = tmp_path / "old-report.json"
        data = dataclasses.asdict(report)
        data["host_phase_s"] = {"engine": 0.5}
        data["host_phase_calls"] = {"engine": 3}
        path.write_text(json.dumps(data), encoding="ascii")
        with pytest.raises(ValueError, match="host_phase_calls, host_phase_s"):
            load_report_json(path)

    def test_non_object_raises_value_error(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="ascii")
        with pytest.raises(ValueError, match="not a report JSON object"):
            load_report_json(path)
