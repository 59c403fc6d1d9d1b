"""DReAMSim ablation: scheduling strategies.

Section V: "The mapping decisions are based on a particular scheduling
strategy ... that takes into account various parameters, such as area
slices, reconfiguration delays, and the time required to send
configuration bitstreams, the availability and current status of the
nodes."  DReAMSim [20] exists to compare such strategies.

This bench runs an identical Poisson workload under every registered
strategy and tabulates mean wait, turnaround, makespan, reconfiguration
count and configuration-reuse rate.  The expected shape: the hybrid
cost model (which weighs all the Section V parameters) never loses to
FCFS on waiting time, and reuse-aware strategies reconfigure less.

The spec lives in :mod:`repro.bench.cases` (case
``dreamsim-strategies``).
"""

from repro.bench import standalone_main
from repro.bench.cases import STRATEGIES
from repro.scheduling import ALL_STRATEGIES
from repro.sim.experiment import run_experiment
from repro.sim.runner import ExperimentRunner

TASKS = STRATEGIES.tasks


def regenerate() -> dict[str, object]:
    """One report per strategy, run wide across worker processes.

    Every run is independently seeded, so the parallel runner returns
    byte-identical reports to a serial loop (pinned by
    ``tests/sim/test_runner.py``).
    """
    names = [name for name in ALL_STRATEGIES if name != "gpp-only"]
    results = ExperimentRunner(progress=False).sweep(STRATEGIES, "strategy", names)
    return {name: result.report for name, result in zip(names, results)}


def bench_dreamsim_strategy_sweep(benchmark):
    reports = regenerate()
    print("\nDReAMSim strategy sweep (identical Poisson workload, 250 tasks)")
    print(f"{'strategy':15s} {'wait s':>8s} {'turnd s':>8s} {'makespan':>9s} {'reconf':>7s} {'reuse':>7s}")
    for name, r in reports.items():
        print(
            f"{name:15s} {r.mean_wait_s:8.3f} {r.mean_turnaround_s:8.3f} "
            f"{r.makespan_s:9.2f} {r.reconfigurations:7d} {r.reuse_rate:7.1%}"
        )

    # Every strategy clears the whole workload on this grid.
    for name, r in reports.items():
        assert r.completed == TASKS, name
        assert r.discarded == 0, name
    # The full cost model does not lose to FCFS on queueing delay.
    assert reports["hybrid-cost"].mean_wait_s <= reports["fcfs"].mean_wait_s + 1e-9
    # Reuse-aware strategies reconfigure no more than naive FCFS.
    assert reports["first-fit"].reconfigurations <= reports["fcfs"].reconfigurations
    assert reports["hybrid-cost"].reconfigurations <= reports["fcfs"].reconfigurations

    report = benchmark(run_experiment, STRATEGIES).report
    assert report.completed == TASKS


if __name__ == "__main__":
    raise SystemExit(standalone_main("dreamsim-strategies"))
