"""Dynamic grid: runtime node churn, soft-core fallback, streaming, QoS.

Demonstrates the framework properties the paper claims beyond basic
scheduling:

* "adaptive in adding/removing resources at runtime" (Section IV-A) --
  a node leaves mid-execution and its tasks are re-queued; a new node
  joins later and absorbs the backlog;
* the Section III-A fallback -- soft cores provisioned on idle fabric
  soak up a GPP burst;
* the streaming scenario (Section VI future work) -- a Stream clause
  pipelines a 3-stage chain over data chunks;
* Figure 9 services -- QoS-checked submission with cost accounting.

Run with::

    python examples/dynamic_grid.py
"""

from repro.core.application import Application, Stream
from repro.core.execreq import Artifacts, ExecReq
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.rms import ResourceManagementSystem
from repro.grid.services import CostModel, QoSRequirement, UserServices
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.hardware.softcore import RHO_VEX_4ISSUE
from repro.hardware.taxonomy import PEClass
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import InMemorySink, Tracer


def gpp_task(task_id, t=3.0):
    return simple_task(
        task_id,
        ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
        t,
        workload_mi=t * 1_000.0,
    )


def node_churn_demo() -> None:
    print("--- Node churn: leave mid-task, join later ---")
    alpha = Node(node_id=0, name="Alpha")
    alpha.add_gpp(GPPSpec(cpu_model="XeonA", mips=1_000))
    rms = ResourceManagementSystem()
    rms.register_node(alpha)
    sink = InMemorySink()
    sim = DReAMSim(rms, tracer=Tracer(sink))
    sim.submit_workload([(0.0, gpp_task(0, t=10.0)), (0.0, gpp_task(1, t=10.0))])

    beta = Node(node_id=1, name="Beta")
    beta.add_gpp(GPPSpec(cpu_model="XeonB", mips=2_000))
    sim.schedule_node_leave(4.0, 0)   # Alpha dies 4 s in
    sim.schedule_node_join(6.0, beta)  # Beta arrives at 6 s

    report = sim.run()
    print(f"  completed {report.completed}/2, re-queued {sim.requeues} task(s)")
    print(f"  makespan {report.makespan_s:.1f} s (restart on Beta at t=6, 2x faster CPU)")
    for event in sink.events:
        if event.kind in ("requeue", "node-join", "node-leave"):
            print(f"    t={event.time:5.2f}  {event.kind}")


def softcore_fallback_demo() -> None:
    print("\n--- Section III-A: soft-core fallback under a GPP burst ---")
    results = {}
    for use_softcores in (False, True):
        node = Node(node_id=0)
        node.add_gpp(GPPSpec(cpu_model="Xeon", mips=1_000))
        node.add_rpe(device_by_model("XC5VLX330"), regions=4)
        rms = ResourceManagementSystem()
        rms.register_node(node)
        if use_softcores:
            for _ in range(4):
                rms.virtualization.provisioner.provision(node.rpes[0], RHO_VEX_4ISSUE)
        sim = DReAMSim(rms)
        sim.submit_workload([(0.05 * i, gpp_task(i, t=2.0)) for i in range(30)])
        results[use_softcores] = sim.run()
    for flag, r in results.items():
        label = "with soft cores   " if flag else "GPPs only         "
        print(
            f"  {label} wait {r.mean_wait_s:7.3f} s   makespan {r.makespan_s:7.2f} s   "
            f"by PE: {r.tasks_by_pe_kind}"
        )


def streaming_demo() -> None:
    print("\n--- Streaming (Section VI future work): 3-stage pipeline ---")
    node = Node(node_id=0)
    for i in range(3):
        node.add_gpp(GPPSpec(cpu_model=f"cpu{i}", mips=1_000))
    rms = ResourceManagementSystem()
    rms.register_node(node)
    tasks = {i: gpp_task(i, t=3.0) for i in range(3)}
    for chunks in (1, 6):
        sim = DReAMSim(rms)
        app = Application(clauses=(Stream(0, 1, 2),))
        sim.submit_application(app, tasks, stream_chunks=chunks)
        report = sim.run()
        print(f"  {chunks} chunk(s): makespan {report.makespan_s:5.2f} s")
    print("  (9 s of serial work pipelines down toward 3 s as chunks grow)")


def qos_services_demo() -> None:
    print("\n--- Figure 9 services: QoS admission, cost, monitoring ---")
    node = Node(node_id=0)
    node.add_gpp(GPPSpec(cpu_model="Xeon", mips=4_000))
    rms = ResourceManagementSystem()
    rms.register_node(node)
    services = UserServices(rms, cost_model=CostModel(gpp_rate_per_s=2.0))
    job = services.submit(gpp_task(0, t=4.0), QoSRequirement(deadline_s=30.0, budget=10.0))
    makespan = services.execute(job)
    response = services.query(job.job_id)
    print(f"  job {job.job_id}: {response.status.value} in {makespan:.2f} s, cost {response.accrued_cost:.2f}")
    print("  event log:")
    for event in response.events:
        print(f"    t={event.time:6.3f}  {event.kind.value}")


def main() -> None:
    print("=== Dynamic grid demo ===\n")
    node_churn_demo()
    softcore_fallback_demo()
    streaming_demo()
    qos_services_demo()


if __name__ == "__main__":
    main()
