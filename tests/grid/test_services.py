"""Unit tests for the Figure 9 user services."""

import pytest

from repro.core.abstraction import AbstractionLevel
from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.jss import JobStatus
from repro.grid.rms import ResourceManagementSystem, SchedulingError
from repro.grid.services import (
    CostModel,
    EventKind,
    Monitor,
    MonitorEvent,
    QoSRequirement,
    QoSViolation,
    UserServices,
)
from repro.hardware.bitstream import Bitstream
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.hardware.taxonomy import PEClass


def build_services():
    node = Node(node_id=0)
    node.add_gpp(GPPSpec(cpu_model="Xeon", mips=2_000))
    node.add_rpe(device_by_model("XC5VLX155"))
    rms = ResourceManagementSystem()
    rms.register_node(node)
    return UserServices(rms)


def sw_task(task_id=0, t=1.0):
    return simple_task(
        task_id,
        ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
        t,
    )


def hw_task(task_id=1):
    bs = Bitstream(50, "XC5VLX155", 1_000_000, 9_000, implements="fft")
    return simple_task(
        task_id,
        ExecReq(
            node_type=PEClass.RPE,
            constraints=(MinValue("slices", 9_000),),
            artifacts=Artifacts(application_code="x", bitstream=bs),
        ),
        1.0,
        function="fft",
    )


class TestQoSRequirement:
    def test_validation(self):
        with pytest.raises(ValueError):
            QoSRequirement(deadline_s=0)
        with pytest.raises(ValueError):
            QoSRequirement(budget=-1)


class TestCostModel:
    def test_rpe_seconds_cost_more_than_gpp(self):
        model = CostModel()
        assert model.rate_for(PEClass.RPE) > model.rate_for(PEClass.GPP)

    def test_reconfiguration_fee_charged(self):
        svc = build_services()
        placement = svc.rms.plan_placement(hw_task())
        cost = svc.cost_model.placement_cost(placement)
        no_fee = CostModel(reconfiguration_fee=0.0).placement_cost(placement)
        assert cost == pytest.approx(no_fee + CostModel().reconfiguration_fee)


class TestSubmitExecuteQuery:
    def test_minimum_service_loop(self):
        # Figure 9: "submit his application tasks and get results".
        svc = build_services()
        job = svc.submit(sw_task())
        makespan = svc.execute(job)
        assert makespan > 0
        response = svc.query(job.job_id)
        assert response.status is JobStatus.COMPLETED
        assert response.completed_tasks == response.total_tasks == 1
        assert response.accrued_cost > 0
        assert svc.accrued_cost(job.job_id) == response.accrued_cost
        assert svc.accrued_cost(job.job_id + 1) == 0.0  # nothing charged
        kinds = [e.kind for e in response.events]
        assert kinds == [
            EventKind.SUBMITTED,
            EventKind.DISPATCHED,
            EventKind.COMPLETED,
        ]

    def test_deadline_violation_detected(self):
        svc = build_services()
        job = svc.submit(sw_task(t=10.0), QoSRequirement(deadline_s=0.001))
        with pytest.raises(QoSViolation, match="deadline"):
            svc.execute(job)

    def test_budget_violation_detected(self):
        svc = build_services()
        job = svc.submit(sw_task(t=10.0), QoSRequirement(budget=0.0001))
        with pytest.raises(QoSViolation, match="budget"):
            svc.execute(job)

    def test_abstraction_floor_admission(self):
        svc = build_services()
        qos = QoSRequirement(max_abstraction_level=AbstractionLevel.SOFTWARE_ONLY)
        # A device-specific submission is *below* the SOFTWARE_ONLY floor.
        with pytest.raises(QoSViolation, match="below"):
            svc.submit(hw_task(), qos)
        # The floor admits its own level.
        svc.submit(sw_task(), qos)

    def test_unplaceable_task_fails_loudly(self):
        svc = build_services()
        impossible = simple_task(
            9,
            ExecReq(
                node_type=PEClass.GPP,
                constraints=(MinValue("mips", 10**9),),
                artifacts=Artifacts(application_code="x"),
            ),
            1.0,
        )
        job = svc.submit(impossible)
        with pytest.raises(SchedulingError):
            svc.execute(job)
        assert svc.query(job.job_id).status is JobStatus.FAILED


class TestMonitor:
    def test_histories_and_counts(self):
        monitor = Monitor()
        monitor.record(MonitorEvent(0.0, EventKind.SUBMITTED, job_id=1, task_id=0))
        monitor.record(MonitorEvent(1.0, EventKind.STARTED, job_id=1, task_id=0, node_id=2))
        monitor.record(MonitorEvent(2.0, EventKind.NODE_LEFT, node_id=2))
        assert len(monitor.task_history(1, 0)) == 2
        assert len(monitor.node_events(2)) == 2
        assert monitor.counts()[EventKind.SUBMITTED] == 1
