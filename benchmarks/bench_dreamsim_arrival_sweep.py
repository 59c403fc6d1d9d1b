"""DReAMSim ablation: waiting time vs arrival rate (load sweep).

The canonical queueing figure from the DReAMSim studies [20]: mean
task waiting time as a function of the Poisson arrival rate, one curve
per grid configuration.  Expected shape: waits stay near zero while
the grid is under-subscribed, then grow sharply as the arrival rate
approaches the grid's service capacity -- and the hybrid GPP+RPE grid
sustains a higher rate than the GPP-only grid before the knee, because
accelerated tasks release resources ~10x sooner.

The spec lives in :mod:`repro.bench.cases` (case ``arrival-sweep``).
"""

from dataclasses import replace

from repro.bench import standalone_main
from repro.bench.cases import ARRIVAL
from repro.sim.experiment import run_experiment
from repro.sim.runner import ExperimentRunner

RATES = (0.5, 1.0, 2.0, 4.0)
TASKS = ARRIVAL.tasks

#: The same node without its fabric: hardware tasks are resubmitted as
#: plain software tasks, so both grids face the same logical workload.
GPP_ONLY = ARRIVAL.with_(
    nodes=tuple(replace(node, rpe_models=()) for node in ARRIVAL.nodes),
    gpp_fraction=1.0,
)


def regenerate():
    """All (rate, grid) sample points, run wide across processes."""
    specs = [
        grid.with_(arrival_rate_per_s=rate)
        for rate in RATES
        for grid in (ARRIVAL, GPP_ONLY)
    ]
    reports = [r.report for r in ExperimentRunner(progress=False).run(specs)]
    return list(zip(RATES, reports[0::2], reports[1::2]))


def bench_arrival_rate_sweep(benchmark):
    rows = regenerate()
    print("\nDReAMSim load sweep: mean wait vs Poisson arrival rate")
    print(f"{'rate/s':>7s} {'hybrid wait s':>14s} {'gpp-only wait s':>16s}")
    for rate, hybrid, gpp in rows:
        print(f"{rate:7.1f} {hybrid.mean_wait_s:14.3f} {gpp.mean_wait_s:16.3f}")

    hybrid_waits = [h.mean_wait_s for _, h, _ in rows]
    gpp_waits = [g.mean_wait_s for _, _, g in rows]
    # Waits grow with load (monotone within noise: compare ends).
    assert hybrid_waits[-1] > hybrid_waits[0]
    assert gpp_waits[-1] > gpp_waits[0]
    # At every load point the hybrid grid waits no longer; at high load
    # the gap is large (the GPP-only knee has passed).
    for (rate, h, g) in rows:
        assert h.mean_wait_s <= g.mean_wait_s + 1e-9, rate
    assert gpp_waits[-1] > 3 * hybrid_waits[-1]
    # Everyone eventually finishes (the sweep measures waits, not loss).
    for _, h, g in rows:
        assert h.completed == TASKS and g.completed == TASKS

    report = benchmark(run_experiment, ARRIVAL).report
    assert report.completed == TASKS


if __name__ == "__main__":
    raise SystemExit(standalone_main("arrival-sweep"))
