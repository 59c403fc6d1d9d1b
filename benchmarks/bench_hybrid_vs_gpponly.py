"""The paper's headline claim: hybrid GPP+RPE grids beat GPP-only grids.

"More performance can be achieved by utilizing reconfigurable hardware
[...] The resources can be utilized in a more effective manner when the
processing elements are both GPPs and RPEs.  Those grid applications
which contain more parallelism can get more benefit if executed on the
reconfigurable hardware." (Section I)

Three comparisons on one grid:

1. a mixed workload under the hybrid scheduler vs the traditional
   GPP-only scheduler (which cannot express RPE tasks at all);
2. the *accelerable* workload run entirely in software vs on fabric --
   the turnaround speedup from acceleration;
3. the Section III-A soft-core fallback: GPP-class tasks flooding a
   grid whose GPPs are saturated, with and without RPEs allowed to
   host soft cores.

The mixed-workload spec lives in :mod:`repro.bench.cases` (case
``hybrid-vs-gpponly``).
"""

from repro.bench import standalone_main
from repro.bench.cases import HYBRID
from repro.core.execreq import Artifacts, ExecReq
from repro.core.task import simple_task
from repro.hardware.softcore import RHO_VEX_8ISSUE
from repro.hardware.taxonomy import PEClass
from repro.sim.experiment import build_grid, run_experiment
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import DReAMSim

TASKS = HYBRID.tasks


def run_softcore_fallback(allow_softcores: bool):
    """Saturating GPP-class burst; RPEs may host soft cores (III-A)."""
    rms = build_grid(HYBRID)
    if allow_softcores:
        for _ in range(3):
            rms.virtualization.provisioner.provision(
                rms.node(0).rpes[0], RHO_VEX_8ISSUE
            )
    tasks = [
        (
            0.1 * i,
            simple_task(
                i,
                ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")),
                2.0,
                workload_mi=2_000.0,
            ),
        )
        for i in range(40)
    ]
    sim = DReAMSim(rms)
    sim.submit_workload(tasks)
    return sim.run()


def bench_hybrid_vs_gpponly(benchmark):
    hybrid, gpp_only, sw_world = (
        result.report
        for result in ExperimentRunner(progress=False).run([
            HYBRID,
            HYBRID.with_(strategy="gpp-only"),
            HYBRID.with_(gpp_fraction=1.0),
        ])
    )

    print("\nHybrid GPP+RPE grid vs traditional GPP-only grid (200 tasks)")
    print(f"{'configuration':28s} {'completed':>9s} {'pending':>8s} {'turnd s':>8s} {'makespan':>9s}")
    for label, r in (
        ("hybrid, mixed workload", hybrid),
        ("gpp-only, mixed workload", gpp_only),
        ("hybrid, all-software", sw_world),
    ):
        print(
            f"{label:28s} {r.completed:9d} {r.pending:8d} "
            f"{r.mean_turnaround_s:8.3f} {r.makespan_s:9.2f}"
        )

    # A traditional grid cannot run RPE tasks at all.
    assert hybrid.completed == TASKS
    assert gpp_only.completed < TASKS
    assert gpp_only.pending > 0
    # Acceleration: the mixed workload (half of it 8-25x hardware
    # kernels) turns around faster than an all-software world.
    assert hybrid.mean_turnaround_s < sw_world.mean_turnaround_s

    soft = run_softcore_fallback(True)
    hard = run_softcore_fallback(False)
    print("\nSection III-A soft-core fallback (GPP burst, 40 tasks)")
    print(f"  with soft cores:    wait {soft.mean_wait_s:7.3f} s  makespan {soft.makespan_s:7.2f} s")
    print(f"  without soft cores: wait {hard.mean_wait_s:7.3f} s  makespan {hard.makespan_s:7.2f} s")
    assert soft.completed == hard.completed == 40
    # Extra (slower) capacity still cuts queueing delay under burst.
    assert soft.mean_wait_s < hard.mean_wait_s

    report = benchmark(run_experiment, HYBRID).report
    assert report.completed == TASKS


if __name__ == "__main__":
    raise SystemExit(standalone_main("hybrid-vs-gpponly"))
