"""Every strategy's placement decisions on a small mixed grid, pinned.

The grid offers every candidate class matching can return: GPPs of two
speeds, a GPU, a soft core already hosted on an RPE, RPEs a soft core
can still be provisioned on, and RPEs with one, two and four regions.
A seeded stream of GPP, GPU, soft-core and RPE tasks (device-specific
bitstreams, HDL designs and repository functions) runs through the
simulator once per strategy and engine.  Each dispatch is pinned as
``task:node/resource/region`` (``-`` for no region), so a change to how
a strategy reads a candidate's hardware, or how the RMS locates the
region it runs in, shows up as a changed decision.
"""

import random

import pytest

from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.network import Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.bitstream import Bitstream, HDLDesign
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.softcore import RHO_VEX_4ISSUE
from repro.hardware.taxonomy import PEClass
from repro.scheduling import ALL_STRATEGIES
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import InMemorySink, Tracer

FUNCTIONS = ("fft", "fir", "aes")
MODELS = ("XC5VLX155", "XC5VLX330", "XC5VLX110")


def mixed_rms(strategy: str) -> ResourceManagementSystem:
    """Three nodes on a 50 Mb/s network; the XC5VLX155 hosts a soft core."""
    rms = ResourceManagementSystem(
        network=Network.fully_connected([0, 1, 2], bandwidth_mbps=50.0, latency_s=0.02),
        scheduler=ALL_STRATEGIES[strategy](),
    )
    node = Node(node_id=0, name="Node_0")
    node.add_gpp(GPPSpec(cpu_model="Atom", mips=300))
    node.add_gpp(GPPSpec(cpu_model="Xeon", mips=2_000))
    node.add_gpu(GPUSpec(model="Tesla-C1060", shader_cores=240))
    rms.register_node(node)
    node = Node(node_id=1, name="Node_1")
    node.add_rpe(device_by_model("XC5VLX155"), regions=2).host_softcore(RHO_VEX_4ISSUE)
    node.add_rpe(device_by_model("XC5VLX330"), regions=2)
    rms.register_node(node)
    node = Node(node_id=2, name="Node_2")
    node.add_gpp(GPPSpec(cpu_model="Xeon", mips=2_000))
    node.add_rpe(device_by_model("XC5VLX110"), regions=4)
    node.add_rpe(device_by_model("XC5VLX50"))
    rms.register_node(node)
    for index, function in enumerate(FUNCTIONS):
        for model in MODELS:
            rms.virtualization.repository.put(Bitstream(
                100 + index, model, 1_500_000, 3_000 + 2_000 * index, implements=function,
            ))
    return rms


def mixed_stream(seed: int = 7, tasks: int = 24) -> list:
    """``(arrival, task)`` pairs of every requirement class, seeded."""
    rng = random.Random(seed)
    stream, t = [], 0.0
    for task_id in range(tasks):
        t += rng.uniform(0.0, 0.6)
        kind = rng.choice(("gpp", "gpu", "softcore", "bitstream", "hdl", "repository"))
        function = rng.choice(FUNCTIONS)
        slices = rng.choice((2_000, 5_000, 9_000))
        artifacts = {"application_code": "x"}
        constraints = ()
        node_type = PEClass.RPE
        if kind == "gpp":
            node_type, function = PEClass.GPP, ""
        elif kind == "gpu":
            node_type, function = PEClass.GPU, ""
        elif kind == "softcore":
            node_type, function = PEClass.SOFTCORE, ""
            artifacts["softcore"] = RHO_VEX_4ISSUE
        elif kind == "bitstream":
            artifacts["bitstream"] = Bitstream(
                200 + task_id, rng.choice(MODELS), 1_000_000, slices, implements=function,
            )
        elif kind == "hdl":
            artifacts["hdl_design"] = HDLDesign(
                function, "VHDL", 200, slices, implements=function,
            )
        else:
            constraints = (MinValue("slices", slices),)
        req = ExecReq(
            node_type=node_type, constraints=constraints, artifacts=Artifacts(**artifacts),
        )
        stream.append((t, simple_task(
            task_id, req, rng.uniform(0.5, 2.0), in_bytes=rng.choice((0, 500_000)),
            workload_mi=rng.uniform(500.0, 3_000.0), function=function,
        )))
    return stream


def decisions(strategy: str, engine: str) -> str:
    """One ``task:node/resource/region`` entry per dispatch, in order."""
    sink = InMemorySink()
    sim = DReAMSim(mixed_rms(strategy), tracer=Tracer(sink), engine=engine)
    sim.submit_workload(mixed_stream())
    sim.run()
    entries = []
    for event in sink.events:
        if event.kind == "dispatch":
            p = event.payload
            region = "-" if p["region"] is None else p["region"]
            entries.append(f"{event.key[1]}:{p['node']}/{p['resource']}/{region}")
    return " ".join(entries)


PINNED = {
    "fcfs": (
        "0:0/2/- 1:1/0/1 2:1/0/0 3:0/2/- 4:1/1/0 5:0/2/- 6:1/1/1 7:1/0/1 "
        "9:1/0/0 8:1/1/0 10:2/2/0 11:0/0/- 12:1/1/1 13:1/1/0 14:1/0/1 "
        "15:0/2/- 17:0/2/- 16:1/1/1 19:0/2/- 21:0/0/- 22:0/1/- 23:2/0/- "
        "18:2/2/0 20:1/1/0"
    ),
    "first-fit": (
        "0:0/2/- 1:1/0/1 2:1/0/0 3:0/2/- 4:1/1/0 5:0/2/- 6:1/1/1 7:1/0/1 "
        "9:1/0/0 8:1/1/0 10:2/2/0 11:0/0/- 12:1/1/1 13:1/1/0 14:1/0/1 "
        "15:0/2/- 17:0/2/- 16:1/1/1 19:0/2/- 21:0/0/- 22:0/1/- 23:2/0/- "
        "18:2/2/0 20:1/1/0"
    ),
    "best-fit-area": (
        "0:0/2/- 1:2/1/0 2:1/0/1 3:0/2/- 4:1/0/0 5:0/2/- 6:1/1/0 7:1/1/1 "
        "9:1/0/1 10:1/0/0 11:0/1/- 8:1/1/0 13:2/2/0 12:1/1/1 14:1/1/0 "
        "15:0/2/- 17:0/2/- 19:0/2/- 16:1/1/1 21:0/1/- 22:2/0/- 23:0/1/- "
        "18:1/0/0"
    ),
    "random": (
        "0:0/2/- 1:2/2/0 2:1/0/1 3:0/2/- 4:1/1/0 5:0/2/- 6:1/1/1 7:1/0/0 "
        "9:1/0/1 8:1/1/0 11:0/1/- 10:1/1/1 12:1/1/0 13:1/0/0 15:0/2/- "
        "17:0/2/- 14:1/1/0 19:0/2/- 21:0/0/- 22:0/1/- 23:2/0/- 16:1/0/0 "
        "18:1/1/1 20:1/0/1"
    ),
    "hybrid-cost": (
        "0:0/2/- 1:1/0/1 2:1/0/0 3:0/2/- 4:1/1/0 5:0/2/- 6:1/1/1 7:1/0/1 "
        "9:1/0/0 8:1/1/0 10:2/2/0 11:0/1/- 12:1/1/1 13:1/1/0 14:1/0/1 "
        "15:0/2/- 17:0/2/- 16:1/1/1 19:0/2/- 21:0/1/- 22:2/0/- 23:0/1/- "
        "18:2/2/0 20:1/1/0"
    ),
    "energy-aware": (
        "0:0/2/- 1:2/2/0 2:1/0/1 3:0/2/- 4:1/0/0 5:0/2/- 6:1/1/0 7:1/1/1 "
        "9:1/0/1 10:1/0/0 11:0/0/- 8:1/1/0 12:1/1/1 13:1/1/0 15:0/2/- "
        "17:0/2/- 19:0/2/- 14:1/1/1 21:0/0/- 22:0/1/- 23:2/0/- 16:1/0/0 "
        "18:1/1/0 20:1/0/1"
    ),
    "gpp-only": "11:0/0/- 21:0/0/- 22:0/1/- 23:2/0/-",
}


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize("strategy", sorted(ALL_STRATEGIES))
def test_strategy_decisions_are_pinned(strategy, engine):
    assert decisions(strategy, engine) == PINNED[strategy]


def test_the_grid_offers_every_candidate_class():
    """The stream meets GPP, GPU, hosted and provisioned soft-core and
    RPE candidates, so every strategy branch is exercised."""
    rms = mixed_rms("fcfs")
    kinds = set()
    for _, task in mixed_stream():
        kinds |= {(c.kind, c.region_id is not None) for c in rms.find_candidates(task)}
    assert kinds == {
        (PEClass.GPP, False), (PEClass.GPU, False), (PEClass.RPE, False),
        (PEClass.SOFTCORE, True), (PEClass.SOFTCORE, False),
    }
