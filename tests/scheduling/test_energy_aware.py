"""Unit tests for the energy-aware scheduler."""

import pytest

from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.bitstream import Bitstream
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.hardware.taxonomy import PEClass
from repro.scheduling import EnergyAwareScheduler


def build_rms():
    node = Node(node_id=0)
    node.add_gpp(GPPSpec(cpu_model="Xeon-big", mips=20_000, cores=2))  # ~160 W
    node.add_gpp(GPPSpec(cpu_model="Atom", mips=3_000, cores=1))  # ~12 W
    node.add_rpe(device_by_model("XC5VLX155"), regions=2)
    rms = ResourceManagementSystem(scheduler=EnergyAwareScheduler())
    rms.register_node(node)
    return rms


def test_validation():
    with pytest.raises(ValueError):
        EnergyAwareScheduler(deadline_weight=-1)


def test_prefers_efficient_gpp_for_software():
    """20,000 MI: big Xeon takes 1 s at ~160 W (160 J); Atom takes
    6.7 s at ~12 W (~80 J) -- energy-aware picks the Atom."""
    rms = build_rms()
    task = simple_task(
        0,
        ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
        1.0,
        workload_mi=20_000.0,
    )
    placement = rms.plan_placement(task)
    assert placement.candidate.pe.spec.cpu_model == "Atom"


def test_deadline_weight_flips_to_fast_cpu():
    rms = build_rms()
    rms.scheduler = EnergyAwareScheduler(deadline_weight=100.0)
    task = simple_task(
        0,
        ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
        1.0,
        workload_mi=20_000.0,
    )
    placement = rms.plan_placement(task)
    assert placement.candidate.pe.spec.cpu_model == "Xeon-big"


def test_places_hardware_tasks():
    rms = build_rms()
    bs = Bitstream(1, "XC5VLX155", 1_000_000, 9_000, implements="fft")
    task = simple_task(
        1,
        ExecReq(
            node_type=PEClass.RPE,
            constraints=(MinValue("slices", 9_000),),
            artifacts=Artifacts(application_code="x", bitstream=bs),
        ),
        1.0,
        function="fft",
    )
    placement = rms.plan_placement(task)
    assert placement is not None
    assert placement.candidate.kind is PEClass.RPE


def test_defers_on_empty():
    task = simple_task(
        0, ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")), 1.0
    )
    assert EnergyAwareScheduler().choose(task, [], None) is None
