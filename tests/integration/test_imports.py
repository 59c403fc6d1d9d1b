"""What each entry point loads, checked in a fresh interpreter.

networkx is a test-only oracle: routing and the task DAG are stdlib,
so no run path may import it.  And the command-line parser offers the
preset names as plain constants, so building it (``repro --help``)
imports no simulator module and hence no numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.sim.admission import ADMISSION_PRESETS
from repro.sim.failover import FAILOVER_PRESETS
from repro.sim.faults import FAULT_PRESETS
from repro.sim.slo import SLO_PRESETS


def modules_after(code: str) -> set[str]:
    """Names in ``sys.modules`` once a fresh interpreter has run *code*."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    report = "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        check=True, capture_output=True, text=True, env=env,
    )
    return set(done.stdout.splitlines()[-1].split())  # after any output of *code*


RUN = """
from repro.core.execreq import Artifacts, ExecReq
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.gpp import GPPSpec
from repro.hardware.taxonomy import PEClass
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.simulator import DReAMSim

assert run_experiment(ExperimentSpec(tasks=20, seed=1)).report.completed == 20
node = Node()
node.add_gpp(GPPSpec(cpu_model="cpu", mips=1_000))
rms = ResourceManagementSystem()
rms.register_node(node)
sim = DReAMSim(rms)
req = ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x"))
sim.submit_graph(
    [simple_task(0, req, 1.0), simple_task(1, req, 1.0, sources=(0,), in_bytes=8)]
)
assert sim.run().completed == 2
"""

HELP = """
from repro.cli import main
try:
    main(["--help"])
except SystemExit:
    pass
"""


def test_a_run_and_a_task_graph_job_load_no_networkx():
    loaded = modules_after(RUN)
    assert "repro.grid.network" in loaded and "repro.core.taskgraph" in loaded
    assert not {m for m in loaded if m.split(".")[0] == "networkx"}


def test_help_loads_no_simulator_and_no_numpy():
    loaded = modules_after(HELP)
    assert "repro.cli" in loaded
    assert "numpy" not in loaded
    assert not {m for m in loaded if m.startswith("repro.sim")}


@pytest.mark.parametrize(
    "names, presets",
    [
        (cli.FAULT_PRESET_NAMES, FAULT_PRESETS),
        (cli.FAILOVER_PRESET_NAMES, FAILOVER_PRESETS),
        (cli.ADMISSION_PRESET_NAMES, ADMISSION_PRESETS),
        (cli.SLO_PRESET_NAMES, SLO_PRESETS),
    ],
    ids=["faults", "failover", "admission", "slo"],
)
def test_parser_preset_names_match_the_tables(names, presets):
    assert list(names) == sorted(presets)
