"""The registered bench cases -- one per ``benchmarks/bench_*.py`` kernel.

This module is the single home of the benchmark *kernels*: the
``benchmarks/bench_*.py`` scripts import their run functions from here
(keeping their paper-shape assertions and pytest-benchmark timing),
and ``repro bench`` runs the same functions through the harness.  One
implementation, three front ends -- so a wall-time trend in the
``BENCH_*.json`` trajectory always refers to exactly the code the
benches assert about.

Every kernel is seeded and returns a flat metrics dict; the ``quick``
flag shrinks the workload for the CI regression gate without changing
its shape.  Constants (task counts, seeds, grids) are the historical
values from the scripts they were lifted out of -- changing them
invalidates cross-run comparisons, so treat them as frozen.
"""

from __future__ import annotations

from repro.bench.core import register
from repro.sim.metrics import SimulationReport

# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

#: SimulationReport fields every simulator-backed case exports.
REPORT_METRIC_FIELDS = (
    "completed",
    "discarded",
    "pending",
    "mean_wait_s",
    "p95_wait_s",
    "mean_turnaround_s",
    "makespan_s",
    "reconfigurations",
    "total_reconfig_time_s",
    "reuse_rate",
    "mean_utilization",
    "goodput_tasks_per_s",
)

#: Extra fields exported by fault/resilience cases.
RECOVERY_METRIC_FIELDS = (
    "failed",
    "fault_events",
    "retries",
    "gpp_fallbacks",
    "availability",
    "mttr_s",
    "wasted_work_s",
    "deadline_hard_misses",
    "quarantines",
    "checkpoints",
    "migrations",
)


def report_metrics(
    report: SimulationReport, *, recovery: bool = False
) -> dict[str, float]:
    """Flatten a report into the harness's metrics dict."""
    fields = REPORT_METRIC_FIELDS + (RECOVERY_METRIC_FIELDS if recovery else ())
    return {name: float(getattr(report, name)) for name in fields}


# ----------------------------------------------------------------------
# Kernels lifted from benchmarks/bench_grid_scaling.py
# ----------------------------------------------------------------------

GRID_SCALING_TASKS = 240
GRID_SCALING_SEED = 29


def run_grid_scaling(nodes: int, *, tasks: int = GRID_SCALING_TASKS):
    """One fixed workload on a grid of ``nodes`` identical hybrid nodes."""
    from repro.core.node import Node
    from repro.grid.network import Network
    from repro.grid.rms import ResourceManagementSystem
    from repro.hardware.catalog import device_by_model
    from repro.hardware.gpp import GPPSpec
    from repro.scheduling import HybridCostScheduler
    from repro.sim.simulator import DReAMSim
    from repro.sim.workload import (
        ConfigurationPool,
        PoissonArrivals,
        SyntheticWorkload,
        WorkloadSpec,
    )

    rms = ResourceManagementSystem(
        network=Network.fully_connected(
            list(range(nodes)), bandwidth_mbps=100.0, latency_s=0.005
        ),
        scheduler=HybridCostScheduler(),
    )
    for node_id in range(nodes):
        node = Node(node_id=node_id, name=f"Node_{node_id}")
        node.add_gpp(GPPSpec(cpu_model="Xeon", mips=1_500))
        node.add_rpe(device_by_model("XC5VLX220"), regions=2)
        rms.register_node(node)
    pool = ConfigurationPool(6, area_range=(3_000, 12_000), seed=5)
    pool.populate_repository(
        rms.virtualization.repository,
        [rpe.device for node in rms.nodes for rpe in node.rpes],
    )
    workload = SyntheticWorkload(
        WorkloadSpec(task_count=tasks, gpp_fraction=0.4,
                     required_time_range_s=(1.0, 4.0)),
        pool,
        PoissonArrivals(rate_per_s=4.0),
        seed=GRID_SCALING_SEED,
    )
    sim = DReAMSim(rms)
    sim.submit_workload(workload.generate())
    return sim.run()


@register("grid-scaling", "sim",
          description="240-task workload on a 2-node hybrid grid")
def _case_grid_scaling(quick: bool) -> dict[str, float]:
    report = run_grid_scaling(2, tasks=120 if quick else GRID_SCALING_TASKS)
    return report_metrics(report)


# ----------------------------------------------------------------------
# Kernels lifted from benchmarks/bench_dreamsim_strategies.py
# ----------------------------------------------------------------------

STRATEGY_TASKS = 250
STRATEGY_SEED = 11


def build_strategy_rms(scheduler):
    """The two-node strategy-ablation grid."""
    from repro.core.node import Node
    from repro.grid.network import Network
    from repro.grid.rms import ResourceManagementSystem
    from repro.hardware.catalog import device_by_model
    from repro.hardware.gpp import GPPSpec

    n0 = Node(node_id=0, name="Node_0")
    n0.add_gpp(GPPSpec(cpu_model="XeonA", mips=1_500))
    n0.add_rpe(device_by_model("XC5VLX330"), regions=3)
    n1 = Node(node_id=1, name="Node_1")
    n1.add_gpp(GPPSpec(cpu_model="XeonB", mips=1_500))
    n1.add_rpe(device_by_model("XC5VLX155"), regions=2)
    n1.add_rpe(device_by_model("XC5VLX110"), regions=2)
    net = Network.fully_connected([0, 1], bandwidth_mbps=100.0, latency_s=0.005)
    rms = ResourceManagementSystem(network=net, scheduler=scheduler)
    rms.register_node(n0)
    rms.register_node(n1)
    return rms


def run_strategy(name: str, *, tasks: int = STRATEGY_TASKS):
    """One identical Poisson workload under the named strategy."""
    from repro.scheduling import ALL_STRATEGIES, RandomScheduler
    from repro.sim.simulator import DReAMSim
    from repro.sim.workload import (
        ConfigurationPool,
        PoissonArrivals,
        SyntheticWorkload,
        WorkloadSpec,
    )

    cls = ALL_STRATEGIES[name]
    scheduler = cls(seed=STRATEGY_SEED) if cls is RandomScheduler else cls()
    rms = build_strategy_rms(scheduler)
    pool = ConfigurationPool(8, area_range=(3_000, 16_000), seed=5)
    devices = [rpe.device for node in rms.nodes for rpe in node.rpes]
    pool.populate_repository(rms.virtualization.repository, devices)
    workload = SyntheticWorkload(
        WorkloadSpec(task_count=tasks, gpp_fraction=0.35),
        pool,
        PoissonArrivals(rate_per_s=2.5),
        seed=STRATEGY_SEED,
    )
    sim = DReAMSim(rms)
    sim.submit_workload(workload.generate())
    return sim.run()


@register("dreamsim-strategies", "sim",
          description="hybrid-cost strategy on the ablation grid")
def _case_strategies(quick: bool) -> dict[str, float]:
    report = run_strategy("hybrid-cost", tasks=120 if quick else STRATEGY_TASKS)
    return report_metrics(report)


# ----------------------------------------------------------------------
# Kernels lifted from benchmarks/bench_dreamsim_arrival_sweep.py
# ----------------------------------------------------------------------

ARRIVAL_TASKS = 150
ARRIVAL_SEED = 13


def run_arrival_point(rate: float, with_fabric: bool, *, tasks: int = ARRIVAL_TASKS):
    """One (rate, grid) sample of the load sweep.  Without fabric,
    hardware tasks are resubmitted as plain software tasks so both
    grids face the same logical workload."""
    from repro.core.node import Node
    from repro.grid.rms import ResourceManagementSystem
    from repro.hardware.catalog import device_by_model
    from repro.hardware.gpp import GPPSpec
    from repro.scheduling import HybridCostScheduler
    from repro.sim.simulator import DReAMSim
    from repro.sim.workload import (
        ConfigurationPool,
        PoissonArrivals,
        SyntheticWorkload,
        WorkloadSpec,
    )

    node = Node(node_id=0)
    node.add_gpp(GPPSpec(cpu_model="XeonA", mips=1_000))
    node.add_gpp(GPPSpec(cpu_model="XeonB", mips=1_000))
    if with_fabric:
        node.add_rpe(device_by_model("XC5VLX330"), regions=3)
    rms = ResourceManagementSystem(scheduler=HybridCostScheduler())
    rms.register_node(node)
    pool = ConfigurationPool(
        5, area_range=(4_000, 15_000), speedup_range=(8.0, 15.0), seed=3
    )
    if with_fabric:
        pool.populate_repository(
            rms.virtualization.repository, [device_by_model("XC5VLX330")]
        )
    workload = SyntheticWorkload(
        WorkloadSpec(
            task_count=tasks,
            gpp_fraction=1.0 if not with_fabric else 0.5,
            required_time_range_s=(0.5, 2.0),
        ),
        pool,
        PoissonArrivals(rate_per_s=rate),
        seed=ARRIVAL_SEED,
    )
    sim = DReAMSim(rms)
    sim.submit_workload(workload.generate())
    return sim.run()


@register("arrival-sweep", "sim",
          description="hybrid grid at the 2/s load-sweep point")
def _case_arrival(quick: bool) -> dict[str, float]:
    report = run_arrival_point(2.0, True, tasks=80 if quick else ARRIVAL_TASKS)
    return report_metrics(report)


# ----------------------------------------------------------------------
# Kernels lifted from benchmarks/bench_dreamsim_reconfig.py
# ----------------------------------------------------------------------

RECONFIG_TASKS = 150
RECONFIG_SEED = 23


def run_reconfig(*, partial: bool, pool_size: int, tasks: int = RECONFIG_TASKS):
    """Partial-vs-full reconfiguration under one configuration pool."""
    from repro.core.node import Node
    from repro.grid.rms import ResourceManagementSystem
    from repro.hardware.catalog import device_by_model
    from repro.scheduling import HybridCostScheduler
    from repro.sim.simulator import DReAMSim
    from repro.sim.workload import (
        ConfigurationPool,
        PoissonArrivals,
        SyntheticWorkload,
        WorkloadSpec,
    )

    node = Node(node_id=0)
    node.add_rpe(device_by_model("XC5VLX330"), regions=4)
    rms = ResourceManagementSystem(
        scheduler=HybridCostScheduler(), partial_reconfiguration=partial
    )
    rms.register_node(node)
    pool = ConfigurationPool(pool_size, area_range=(3_000, 12_000), seed=7)
    pool.populate_repository(rms.virtualization.repository, [node.rpes[0].device])
    workload = SyntheticWorkload(
        WorkloadSpec(task_count=tasks, gpp_fraction=0.0),
        pool,
        PoissonArrivals(rate_per_s=1.5),
        seed=RECONFIG_SEED,
    )
    sim = DReAMSim(rms)
    sim.submit_workload(workload.generate())
    return sim.run()


@register("reconfig-sweep", "sim",
          description="partial reconfiguration, 8-configuration pool")
def _case_reconfig(quick: bool) -> dict[str, float]:
    report = run_reconfig(
        partial=True, pool_size=8, tasks=80 if quick else RECONFIG_TASKS
    )
    return report_metrics(report)


# ----------------------------------------------------------------------
# Kernels lifted from benchmarks/bench_hybrid_vs_gpponly.py
# ----------------------------------------------------------------------

HYBRID_TASKS = 200
HYBRID_SEED = 31


def build_hybrid_rms(scheduler):
    """The single-node hybrid grid of the headline comparison."""
    from repro.core.node import Node
    from repro.grid.rms import ResourceManagementSystem
    from repro.hardware.catalog import device_by_model
    from repro.hardware.gpp import GPPSpec

    node = Node(node_id=0)
    node.add_gpp(GPPSpec(cpu_model="XeonA", mips=1_000))
    node.add_gpp(GPPSpec(cpu_model="XeonB", mips=1_000))
    node.add_rpe(device_by_model("XC5VLX330"), regions=3)
    rms = ResourceManagementSystem(scheduler=scheduler)
    rms.register_node(node)
    return rms


def run_mixed(scheduler, gpp_fraction: float, *, tasks: int = HYBRID_TASKS):
    """The mixed workload under one scheduler (the headline kernel)."""
    from repro.hardware.catalog import device_by_model
    from repro.sim.simulator import DReAMSim
    from repro.sim.workload import (
        ConfigurationPool,
        PoissonArrivals,
        SyntheticWorkload,
        WorkloadSpec,
    )

    rms = build_hybrid_rms(scheduler)
    pool = ConfigurationPool(
        6, area_range=(4_000, 15_000), speedup_range=(8.0, 25.0), seed=9
    )
    pool.populate_repository(
        rms.virtualization.repository, [device_by_model("XC5VLX330")]
    )
    workload = SyntheticWorkload(
        WorkloadSpec(task_count=tasks, gpp_fraction=gpp_fraction),
        pool,
        PoissonArrivals(rate_per_s=1.2),
        seed=HYBRID_SEED,
    )
    sim = DReAMSim(rms)
    sim.submit_workload(workload.generate())
    return sim.run()


@register("hybrid-vs-gpponly", "sim",
          description="mixed workload on the hybrid grid (headline claim)")
def _case_hybrid(quick: bool) -> dict[str, float]:
    from repro.scheduling import HybridCostScheduler

    report = run_mixed(
        HybridCostScheduler(), 0.5, tasks=100 if quick else HYBRID_TASKS
    )
    return report_metrics(report)


# ----------------------------------------------------------------------
# Kernels lifted from benchmarks/bench_fabric_allocation.py
# ----------------------------------------------------------------------

FABRIC_REQUESTS = 400
FABRIC_SEED = 17


def fabric_traffic(seed: int = FABRIC_SEED, *, requests: int = FABRIC_REQUESTS):
    """Random (size, hold_steps) allocation requests."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sizes = rng.integers(1_000, 20_000, size=requests)
    holds = rng.integers(1, 12, size=requests)
    return list(zip(sizes.tolist(), holds.tolist()))


def run_fixed_fabric(regions: int, *, requests: int = FABRIC_REQUESTS):
    """Fixed-region fabric under the random traffic; (admitted, rejected)."""
    from repro.hardware.bitstream import Bitstream
    from repro.hardware.catalog import device_by_model
    from repro.hardware.fabric import Fabric, RegionState

    device = device_by_model("XC5VLX330")
    fabric = Fabric.for_device(device, regions=regions)
    admitted = rejected = 0
    live: list[tuple] = []  # (region, remaining_steps)
    for i, (size, hold) in enumerate(fabric_traffic(requests=requests)):
        live = [(r, left - 1) for r, left in live if left - 1 > 0] or []
        held = {r.region_id for r, _ in live}
        for region in fabric.regions:
            if region.state is RegionState.BUSY and region.region_id not in held:
                fabric.vacate(region)
                fabric.clear(region)
        region = fabric.find_placeable(size)
        if region is None:
            rejected += 1
            continue
        if region.state is RegionState.CONFIGURED:
            fabric.clear(region)
        bs = Bitstream(
            10_000 + i, device.model, device.bitstream_size_bytes(size), size,
            implements=f"f{i}",
        )
        fabric.begin_reconfiguration(region, bs)
        fabric.finish_reconfiguration(region)
        fabric.occupy(region)
        live.append((region, hold))
        admitted += 1
    return admitted, rejected


def run_flexible_fabric(
    *, compact_every: int | None, requests: int = FABRIC_REQUESTS
):
    """Slice-granular fabric under the same traffic;
    (admitted, rejected, mean fragmentation, relocations, compaction s)."""
    import numpy as np

    from repro.hardware.catalog import device_by_model
    from repro.hardware.flexfabric import AllocationError, FlexibleFabric

    fabric = FlexibleFabric(device_by_model("XC5VLX330"))
    admitted = rejected = 0
    frag_samples = []
    compaction_s = 0.0
    live: list[tuple] = []  # (span, remaining)
    for i, (size, hold) in enumerate(fabric_traffic(requests=requests)):
        next_live = []
        for span, left in live:
            if left - 1 > 0:
                next_live.append((span, left - 1))
            else:
                fabric.release(span)
        live = next_live
        if compact_every and i % compact_every == 0 and i:
            compaction_s += fabric.compaction_time_s()
            fabric.compact()
        try:
            span = fabric.allocate(size, implements=f"f{i}")
            live.append((span, hold))
            admitted += 1
        except AllocationError:
            rejected += 1
        frag_samples.append(fabric.external_fragmentation())
    return admitted, rejected, float(np.mean(frag_samples)), fabric.relocations, compaction_s


@register("fabric-allocation", "hardware",
          description="slice-granular allocator with periodic compaction")
def _case_fabric(quick: bool) -> dict[str, float]:
    requests = 150 if quick else FABRIC_REQUESTS
    admitted, rejected, frag, relocations, compaction_s = run_flexible_fabric(
        compact_every=50, requests=requests
    )
    return {
        "admitted": admitted,
        "rejected": rejected,
        "mean_fragmentation": frag,
        "relocations": relocations,
        "compaction_s": compaction_s,
    }


# ----------------------------------------------------------------------
# Kernels lifted from benchmarks/bench_fig1_taxonomy.py
# ----------------------------------------------------------------------

def taxonomy_specimens():
    """One instance of every hardware model (the Figure 1 population)."""
    from repro.hardware.catalog import DEVICE_CATALOG
    from repro.hardware.gpp import GPPSpec
    from repro.hardware.gpu import GPUSpec
    from repro.hardware.softcore import (
        RHO_VEX_2ISSUE,
        RHO_VEX_4ISSUE,
        RHO_VEX_8ISSUE,
    )

    return (
        [GPPSpec(cpu_model="Xeon", mips=10_000),
         GPPSpec(cpu_model="Opteron", mips=8_000)]
        + [GPUSpec(model="Tesla", shader_cores=240)]
        + [RHO_VEX_2ISSUE, RHO_VEX_4ISSUE, RHO_VEX_8ISSUE]
        + list(DEVICE_CATALOG.values())
    )


@register("taxonomy-classify", "figures",
          description="classify every modeled PE into the Figure 1 tree")
def _case_taxonomy(quick: bool) -> dict[str, float]:
    from repro.hardware.taxonomy import PEClass, classify

    pool = taxonomy_specimens()
    rounds = 20 if quick else 100
    classes = []
    for _ in range(rounds):
        classes = [classify(s) for s in pool]
    return {
        "specimens": len(pool),
        "rpe_count": classes.count(PEClass.RPE),
        "rounds": rounds,
    }


# ----------------------------------------------------------------------
# Kernel lifted from benchmarks/bench_quipu_estimates.py
# ----------------------------------------------------------------------

def quipu_predict():
    """One full Quipu prediction: metric extraction + linear model."""
    import importlib

    from repro.profiling.metrics import measure_closure
    from repro.profiling.quipu import calibrated_model

    pairalign = importlib.import_module("repro.bioinfo.pairalign").pairalign
    return calibrated_model().predict(measure_closure(pairalign))


@register("quipu-predict", "profiling",
          description="full Quipu slice prediction for pairalign")
def _case_quipu(quick: bool) -> dict[str, float]:
    estimate = quipu_predict()
    return {"pairalign_slices": estimate.slices}


# ----------------------------------------------------------------------
# Table II / case-study kernels
# ----------------------------------------------------------------------

@register("table2-mappings", "figures",
          description="regenerate Table II from the case-study models")
def _case_table2(quick: bool) -> dict[str, float]:
    from repro.casestudy.mappings import matches_paper, table2
    from repro.casestudy.nodes import build_case_study_nodes
    from repro.casestudy.tasks import build_case_study_tasks

    tasks = build_case_study_tasks()
    nodes = build_case_study_nodes()
    rounds = 5 if quick else 25
    rows = []
    for _ in range(rounds):
        rows = table2(tasks, nodes)
    return {
        "rows": len(rows),
        "matches_paper": float(matches_paper(tasks, nodes)),
        "rounds": rounds,
    }


@register("clustalw-align", "bioinfo",
          description="ClustalW alignment of a synthetic family")
def _case_clustalw(quick: bool) -> dict[str, float]:
    from repro.bioinfo.clustalw import clustalw
    from repro.bioinfo.sequences import synthetic_family

    family, length = (6, 60) if quick else (8, 80)
    sequences = synthetic_family(family, length, seed=0)
    result = clustalw(sequences)
    return {
        "sequences": len(sequences),
        "alignment_length": result.length,
        "sp_score": result.sp_score,
    }


# ----------------------------------------------------------------------
# ExperimentSpec-based cases (baseline, faults, resilience, telemetry)
# ----------------------------------------------------------------------

def baseline_spec(*, tasks: int):
    """The canonical two-node reference experiment (CLI defaults)."""
    from repro.sim.experiment import ExperimentSpec, NodeSpec

    return ExperimentSpec(
        tasks=tasks,
        nodes=(
            NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",),
                     regions_per_rpe=3),
            NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",),
                     regions_per_rpe=2),
        ),
        arrival_rate_per_s=2.0,
        gpp_fraction=0.4,
        area_range=(2_000, 12_000),
        seed=0,
    )


@register("sim-baseline", "sim",
          description="canonical 200-task reference experiment")
def _case_sim_baseline(quick: bool) -> dict[str, float]:
    from repro.sim.experiment import run_experiment

    report = run_experiment(baseline_spec(tasks=100 if quick else 200)).report
    return report_metrics(report)


@register("fault-chaos", "sim",
          description="chaos fault preset with bounded-backoff recovery")
def _case_fault_chaos(quick: bool) -> dict[str, float]:
    from repro.sim.experiment import run_experiment
    from repro.sim.faults import FAULT_PRESETS

    spec = baseline_spec(tasks=80 if quick else 160).with_(
        faults=FAULT_PRESETS["chaos"]
    )
    report = run_experiment(spec).report
    return report_metrics(report, recovery=True)


@register("resilience-chaos", "sim",
          description="chaos preset with breakers+deadlines+checkpoints")
def _case_resilience(quick: bool) -> dict[str, float]:
    from repro.grid.health import HealthPolicy
    from repro.sim.experiment import run_experiment
    from repro.sim.faults import FAULT_PRESETS
    from repro.sim.resilience import (
        CheckpointSpec,
        DeadlineSpec,
        ResilienceSpec,
    )

    spec = baseline_spec(tasks=80 if quick else 160).with_(
        faults=FAULT_PRESETS["chaos"],
        resilience=ResilienceSpec(
            breaker=HealthPolicy(),
            deadlines=DeadlineSpec(soft_factor=4.0, hard_factor=12.0),
            checkpoint=CheckpointSpec(interval_s=0.25),
        ),
    )
    report = run_experiment(spec).report
    return report_metrics(report, recovery=True)


@register("telemetry-instrumented", "sim",
          description="fully instrumented run (telemetry registry attached)")
def _case_telemetry(quick: bool) -> dict[str, float]:
    from repro.sim.experiment import run_experiment
    from repro.sim.telemetry import TelemetryRegistry

    telemetry = TelemetryRegistry()
    report = run_experiment(
        baseline_spec(tasks=100 if quick else 200), telemetry=telemetry
    ).report
    metrics = report_metrics(report)
    metrics["instruments"] = len(telemetry.instruments)
    return metrics


@register("traced-invariants", "sim",
          description="traced run with online invariant checking")
def _case_traced(quick: bool) -> dict[str, float]:
    from repro.sim.experiment import run_experiment
    from repro.sim.tracing import Tracer

    tracer = Tracer.with_invariants()
    report = run_experiment(
        baseline_spec(tasks=100 if quick else 200), tracer=tracer
    ).report
    metrics = report_metrics(report)
    metrics["trace_events"] = tracer.events_emitted
    metrics["events_checked"] = tracer.checker.events_checked
    return metrics


@register("energy-audit", "sim",
          description="reference experiment with the energy audit enabled")
def _case_energy(quick: bool) -> dict[str, float]:
    from repro.sim.experiment import run_experiment

    result = run_experiment(
        baseline_spec(tasks=100 if quick else 200), audit_energy=True
    )
    metrics = report_metrics(result.report)
    energy = result.energy
    if energy is not None:
        metrics["total_energy_j"] = energy.total_j
    return metrics


#: Extra fields exported by the overload case.
OVERLOAD_METRIC_FIELDS = (
    "shed",
    "admission_deferrals",
    "placements_gated",
    "brownout_degraded",
    "brownout_transitions",
    "brownout_max_stage",
    "brownout_time_s",
    "overload_goodput_tasks_per_s",
)

OVERLOAD_TASKS = 250
OVERLOAD_SEED = 41


def run_overload(*, tasks: int = OVERLOAD_TASKS):
    """A 6x flash crowd against the canonical grid with bounded-queue
    admission and a staged brownout armed: the protected half of
    ``repro overload``.  Thresholds sit below the preset's so even the
    quick (120-task) variant sheds and transitions -- the gate must
    cover the overload code paths, not just pass through them."""
    from repro.sim.admission import AdmissionSpec, BrownoutSpec, QueueBoundSpec
    from repro.sim.experiment import run_experiment

    spec = baseline_spec(tasks=tasks).with_(
        seed=OVERLOAD_SEED,
        arrival_rate_per_s=4.0,
        flash_crowd=(3.0, 12.0, 6.0),
        low_priority_fraction=0.3,
        admission=AdmissionSpec(
            queue=QueueBoundSpec(max_pending=48),
            brownout=BrownoutSpec(
                enter_pending=24, exit_pending=8, dwell_s=0.5
            ),
        ),
    )
    return run_experiment(spec).report


@register("sim-overload", "sim",
          description="6x flash crowd under the brownout admission preset")
def _case_sim_overload(quick: bool) -> dict[str, float]:
    report = run_overload(tasks=120 if quick else OVERLOAD_TASKS)
    metrics = report_metrics(report)
    for name in OVERLOAD_METRIC_FIELDS:
        metrics[name] = float(getattr(report, name))
    return metrics


#: Extra fields exported by the SLO case.
SLO_METRIC_FIELDS = (
    "slo_objectives",
    "slo_breaches",
    "slo_alerts_fired",
    "slo_alerts_resolved",
)

SLO_TASKS = 250
SLO_SEED = 47


def run_slo(*, tasks: int = SLO_TASKS):
    """The overload flash crowd with the online SLO monitor armed over
    three tenants: tight latency/queue targets so breaches and
    burn-rate alerts actually fire even in the quick variant -- the
    gate must cover the monitor's code paths, not just pass through
    them."""
    from repro.sim.admission import AdmissionSpec, BrownoutSpec, QueueBoundSpec
    from repro.sim.experiment import run_experiment
    from repro.sim.slo import SLOObjective, SLOSpec

    spec = baseline_spec(tasks=tasks).with_(
        seed=SLO_SEED,
        arrival_rate_per_s=4.0,
        flash_crowd=(3.0, 12.0, 6.0),
        low_priority_fraction=0.3,
        tenants=3,
        admission=AdmissionSpec(
            queue=QueueBoundSpec(max_pending=48),
            brownout=BrownoutSpec(
                enter_pending=24, exit_pending=8, dwell_s=0.5
            ),
        ),
        slo=SLOSpec(objectives=(
            SLOObjective("latency", 1.5, percentile=95.0, window_s=10.0),
            SLOObjective("queue-depth", 24.0, window_s=10.0),
            SLOObjective("availability", 0.99, window_s=10.0),
            SLOObjective("latency", 2.0, percentile=90.0, window_s=10.0,
                         tenant="tenant0"),
        )),
    )
    return run_experiment(spec).report


@register("sim-slo", "sim",
          description="flash crowd with the online SLO monitor armed "
                      "(3 tenants)")
def _case_sim_slo(quick: bool) -> dict[str, float]:
    report = run_slo(tasks=120 if quick else SLO_TASKS)
    metrics = report_metrics(report)
    for name in SLO_METRIC_FIELDS:
        metrics[name] = float(getattr(report, name))
    metrics["slo_violated"] = float(len(report.slo_violated))
    for name, value in report.slo_attainment.items():
        metrics[f"attainment:{name}"] = float(value)
    for name, value in report.slo_error_budget_remaining.items():
        metrics[f"error_budget_remaining:{name}"] = float(value)
    return metrics


#: Extra fields exported by the failover case.
FAILOVER_METRIC_FIELDS = (
    "rms_crashes",
    "rms_gray_events",
    "failovers",
    "control_plane_downtime_s",
    "detections",
    "detection_latency_p50_s",
    "detection_latency_p95_s",
    "false_suspicions",
    "leases_expired",
    "orphaned_tasks",
    "orphans_recovered",
)

FAILOVER_TASKS = 250
FAILOVER_SEED = 43


def run_failover(*, tasks: int = FAILOVER_TASKS):
    """An RMS-crash storm against the canonical grid with the
    ``replicated`` failover preset armed: heartbeat detection,
    one-standby promotion, leased placements.  Long tasks against
    generous downtime draws so orphan recovery actually fires --
    the gate must cover the failover code paths, not just pass
    through them."""
    from repro.sim.experiment import run_experiment
    from repro.sim.failover import FAILOVER_PRESETS
    from repro.sim.faults import FaultSpec

    spec = baseline_spec(tasks=tasks).with_(
        seed=FAILOVER_SEED,
        arrival_rate_per_s=4.0,
        required_time_range_s=(2.0, 10.0),
        faults=FaultSpec(
            rms_crash_rate_per_s=0.05,
            rms_downtime_range_s=(4.0, 9.0),
            rms_gray_rate_per_s=0.02,
            rms_gray_duration_range_s=(2.0, 5.0),
            heartbeat_loss_prob=0.05,
            horizon_s=50.0,
        ),
        failover=FAILOVER_PRESETS["replicated"],
    )
    return run_experiment(spec).report


@register("sim-failover", "sim",
          description="RMS-crash storm under the replicated failover preset")
def _case_sim_failover(quick: bool) -> dict[str, float]:
    report = run_failover(tasks=120 if quick else FAILOVER_TASKS)
    metrics = report_metrics(report)
    for name in FAILOVER_METRIC_FIELDS:
        metrics[name] = float(getattr(report, name))
    return metrics


# ----------------------------------------------------------------------
# Engine microbench + million-task scale cases
# (kernels shared with benchmarks/bench_engine_scaling.py)
# ----------------------------------------------------------------------

ENGINE_MICRO_EVENTS = 200_000
ENGINE_MICRO_SEED = 37


def run_engine_micro(engine: str, *, n: int = ENGINE_MICRO_EVENTS):
    """The simulator-shaped event kernel on one engine.

    ``n`` Poisson-like arrivals are bulk-scheduled up front (the
    ``submit_workload_columns`` shape); every arrival callback then
    schedules one dynamic completion event (the ``_finish`` shape).
    Returns ``(processed_events, final_clock)`` -- both deterministic,
    so the harness's repetition check holds and only wall time varies.
    """
    import numpy as np

    from repro.sim.engine import make_engine

    rng = np.random.default_rng(ENGINE_MICRO_SEED)
    arrivals = np.cumsum(rng.exponential(0.5, n))
    service = rng.uniform(0.1, 2.0, n)
    eng = make_engine(engine)
    done = [0]
    cursor = [0]
    service_list = service.tolist()

    def finish() -> None:
        done[0] += 1

    def arrive() -> None:
        eng.schedule(service_list[cursor[0]], finish)
        cursor[0] += 1
    eng.schedule_batch(arrivals, [arrive] * n, handles=False)
    eng.run()
    return eng.processed_events, eng.now


def run_engine_drain(engine: str, *, n: int = ENGINE_MICRO_EVENTS):
    """Pure queue throughput: bulk-schedule ``n`` random times, drain.

    The widest heap-vs-calendar gap (no callback work at all); used by
    ``benchmarks/bench_engine_scaling.py`` for the speedup assertion.
    """
    import numpy as np

    from repro.sim.engine import make_engine

    rng = np.random.default_rng(ENGINE_MICRO_SEED)
    times = rng.uniform(0.0, 1_000.0, n)
    eng = make_engine(engine)
    eng.schedule_batch(times, [lambda: None] * n, handles=False)
    eng.run()
    return eng.processed_events, eng.now


@register("engine-micro-heap", "engine",
          description="simulator-shaped event kernel on the heap engine")
def _case_engine_heap(quick: bool) -> dict[str, float]:
    n = 20_000 if quick else ENGINE_MICRO_EVENTS
    events, now = run_engine_micro("heap", n=n)
    return {"events": events, "final_clock_s": now}


@register("engine-micro-calendar", "engine",
          description="simulator-shaped event kernel on the calendar queue")
def _case_engine_calendar(quick: bool) -> dict[str, float]:
    n = 20_000 if quick else ENGINE_MICRO_EVENTS
    events, now = run_engine_micro("calendar", n=n)
    return {"events": events, "final_clock_s": now}


def run_scale(tasks: int):
    """One end-to-end scale run of the canonical two-node grid."""
    from repro.sim.experiment import run_experiment

    return run_experiment(baseline_spec(tasks=tasks)).report


def _scale_metrics(tasks: int) -> dict[str, float]:
    report = run_scale(tasks)
    metrics = report_metrics(report)
    metrics["tasks"] = report.completed + report.discarded + report.pending
    return metrics


@register("sim-scale-1e5", "scale", quick_eligible=False,
          description="100k-task end-to-end run through the scale path")
def _case_scale_1e5(quick: bool) -> dict[str, float]:
    return _scale_metrics(100_000)


@register("sim-scale-1e6", "scale", quick_eligible=False,
          description="1e6-task end-to-end run through the scale path")
def _case_scale_1e6(quick: bool) -> dict[str, float]:
    return _scale_metrics(1_000_000)


@register("parallel-runner", "harness", quick_eligible=False,
          description="strategy sweep through the ProcessPool runner")
def _case_parallel_runner(quick: bool) -> dict[str, float]:
    from repro.scheduling import ALL_STRATEGIES
    from repro.sim.experiment import ExperimentSpec
    from repro.sim.runner import ExperimentRunner

    base = ExperimentSpec(
        tasks=120, configurations=6, arrival_rate_per_s=2.5, seed=23
    )
    runner = ExperimentRunner(progress=False)
    results = runner.sweep(base, "strategy", sorted(ALL_STRATEGIES))
    return {
        "strategies": len(results),
        "executed": runner.last_stats.executed,
        "total_completed": sum(r.report.completed for r in results),
    }
