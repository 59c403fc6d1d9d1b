"""DReAMSim ablation: reconfiguration mechanics.

Two knobs the paper highlights for reconfigurable nodes (refs [20][21]):

1. **Partial vs full reconfiguration** -- ref [21] added partial
   reconfiguration to DReAMSim's nodes; a partial bitstream only pays
   for the region it covers, a full swap always pays for the whole
   device.
2. **Configuration reuse** -- a small configuration pool relative to
   the task count means the required circuit is often already resident;
   a large pool defeats reuse.

The sweep tabulates total reconfiguration time and reuse rate across
both knobs; assertions pin the expected monotonicity.

The spec lives in :mod:`repro.bench.cases` (case ``reconfig-sweep``).
"""

from repro.bench import standalone_main
from repro.bench.cases import RECONFIG
from repro.sim.experiment import run_experiment
from repro.sim.runner import ExperimentRunner

TASKS = RECONFIG.tasks
POOL_SIZES = (2, 8, 32)


def regenerate():
    points = [(partial, size) for partial in (True, False) for size in POOL_SIZES]
    specs = [
        RECONFIG.with_(partial_reconfiguration=partial, configurations=size)
        for partial, size in points
    ]
    results = ExperimentRunner(progress=False).run(specs)
    return [(*point, result.report) for point, result in zip(points, results)]


def bench_dreamsim_reconfiguration_sweep(benchmark):
    rows = regenerate()
    print("\nDReAMSim reconfiguration ablation (150 hardware tasks)")
    print(f"{'mode':8s} {'pool':>5s} {'reconf':>7s} {'reconf s':>9s} {'reuse':>7s} {'wait s':>8s}")
    for partial, pool_size, r in rows:
        mode = "partial" if partial else "full"
        print(
            f"{mode:8s} {pool_size:5d} {r.reconfigurations:7d} "
            f"{r.total_reconfig_time_s:9.3f} {r.reuse_rate:7.1%} {r.mean_wait_s:8.3f}"
        )

    by = {(p, s): r for p, s, r in rows}
    for pool_size in POOL_SIZES:
        partial_r = by[(True, pool_size)]
        full_r = by[(False, pool_size)]
        assert partial_r.completed == full_r.completed == TASKS
        # Partial loads strictly less configuration data per event.  The
        # counts may differ: shorter reconfigurations free regions
        # sooner, which changes later placement decisions.
        if full_r.reconfigurations:
            assert (
                partial_r.total_reconfig_time_s < full_r.total_reconfig_time_s
            ), pool_size
    # Smaller pools -> more reuse, fewer reconfigurations.
    assert by[(True, 2)].reuse_rate > by[(True, 32)].reuse_rate
    assert by[(True, 2)].reconfigurations <= by[(True, 32)].reconfigurations

    report = benchmark(run_experiment, RECONFIG).report
    assert report.completed == TASKS


if __name__ == "__main__":
    raise SystemExit(standalone_main("reconfig-sweep"))
