"""Grid scaling: one workload across growing grids.

The paper's setting is a *grid* -- "computing resources that are
geographically distributed over the globe" (Section I).  The basic
scaling question for any grid manager: how do makespan and utilization
respond as nodes join?  This bench submits one fixed 240-task workload
to grids of 1..6 identical hybrid nodes.

Expected shape: makespan falls roughly hyperbolically until the
arrival process (not capacity) limits progress, and mean utilization
falls as capacity outgrows the workload -- the standard weak-scaling
picture.

The spec lives in :mod:`repro.bench.cases` (case ``grid-scaling``),
so this bench, ``repro bench``, and the standalone script all time the
same code.
"""

from repro.bench import standalone_main
from repro.bench.cases import GRID_SCALING
from repro.sim.experiment import NodeSpec, run_experiment
from repro.sim.runner import ExperimentRunner

NODE_COUNTS = (1, 2, 4, 6)
TASKS = GRID_SCALING.tasks


def regenerate():
    grids = [(NodeSpec(),) * n for n in NODE_COUNTS]
    results = ExperimentRunner(progress=False).sweep(GRID_SCALING, "nodes", grids)
    return {n: result.report for n, result in zip(NODE_COUNTS, results)}


def bench_grid_scaling(benchmark):
    reports = regenerate()
    print("\nGrid scaling: 240 tasks, 1..6 hybrid nodes")
    print(f"{'nodes':>6s} {'makespan s':>11s} {'mean wait s':>12s} {'utilization':>12s}")
    for n, r in reports.items():
        print(
            f"{n:6d} {r.makespan_s:11.2f} {r.mean_wait_s:12.3f} {r.mean_utilization:12.1%}"
        )

    makespans = [reports[n].makespan_s for n in NODE_COUNTS]
    waits = [reports[n].mean_wait_s for n in NODE_COUNTS]
    # Everyone completes everywhere.
    for n, r in reports.items():
        assert r.completed == TASKS, n
    # Adding nodes never hurts makespan or waiting time.
    assert makespans == sorted(makespans, reverse=True)
    assert waits == sorted(waits, reverse=True)
    # Real speedup from 1 -> 4 nodes on a saturated single node.
    assert reports[1].makespan_s > 1.5 * reports[4].makespan_s

    report = benchmark(run_experiment, GRID_SCALING).report
    assert report.completed == TASKS


if __name__ == "__main__":
    raise SystemExit(standalone_main("grid-scaling"))
