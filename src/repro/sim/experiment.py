"""Declarative DReAMSim experiments.

The paper: "The DReAMSim can be used to investigate the desired system
scenario(s) for a particular scheduling strategy and a given number of
tasks, grid nodes, configurations, task arrival distributions, area
ranges, and task required times etc." (Section V).

:class:`ExperimentSpec` is exactly that parameter list as one
declarative object; :func:`run_experiment` builds the grid, workload
and simulator from it and returns the metrics (plus, optionally, the
energy audit).  Everything is seeded, so a spec is a complete,
reproducible description of an experiment -- specs can be compared,
swept (:func:`sweep`), and serialized into papers' method sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.node import Node
from repro.grid.network import Link, Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.scheduling import ALL_STRATEGIES, RandomScheduler
from repro.sim.admission import AdmissionSpec
from repro.sim.energy import EnergyAuditor, EnergyReport
from repro.sim.failover import FailoverSpec
from repro.sim.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.sim.metrics import SimulationReport
from repro.sim.resilience import ResilienceSpec
from repro.sim.simulator import DReAMSim
from repro.sim.slo import SLOSpec
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import Tracer
from repro.sim.workload import (
    ArrivalProcess,
    ConfigurationPool,
    FlashCrowdArrivals,
    PoissonArrivals,
    SyntheticWorkload,
    WorkloadSpec,
    check_range,
    require_int,
)


@dataclass(frozen=True)
class NodeSpec:
    """One grid node: GPP count/speed and RPE devices/regions."""

    gpps: int = 1
    gpp_mips: float = 1_500.0
    rpe_models: tuple[str, ...] = ("XC5VLX220",)
    regions_per_rpe: int = 2

    def __post_init__(self) -> None:
        if self.gpps < 0:
            raise ValueError("GPP count must be non-negative")
        if self.gpps == 0 and not self.rpe_models:
            raise ValueError("a node needs at least one processing element")
        if self.regions_per_rpe <= 0:
            raise ValueError("regions per RPE must be positive")


@dataclass(frozen=True)
class ExperimentSpec:
    """The Section V parameter list, as data.

    =====================  =============================================
    Paper's knob           Field
    =====================  =============================================
    scheduling strategy    ``strategy`` (a key of ``ALL_STRATEGIES``)
    number of tasks        ``tasks``
    grid nodes             ``nodes`` (list of :class:`NodeSpec`)
    configurations         ``configurations`` (pool size)
    arrival distribution   ``arrival_rate_per_s`` (Poisson) or a custom
                           process via :func:`run_experiment`'s override
    area ranges            ``area_range``
    task required times    ``required_time_range_s``
    =====================  =============================================
    """

    strategy: str = "hybrid-cost"
    tasks: int = 200
    nodes: tuple[NodeSpec, ...] = (NodeSpec(), NodeSpec())
    configurations: int = 8
    arrival_rate_per_s: float = 2.0
    area_range: tuple[int, int] = (2_000, 12_000)
    speedup_range: tuple[float, float] = (5.0, 25.0)
    required_time_range_s: tuple[float, float] = (0.5, 3.0)
    gpp_fraction: float = 0.5
    bandwidth_mbps: float = 100.0
    latency_s: float = 0.005
    discard_after_s: float | None = None
    seed: int = 0
    #: Fault scenario injected alongside the workload (None = fault-free).
    #: The fault streams split off the experiment seed (see
    #: :func:`repro.sim.workload.independent_rng`), so adding faults
    #: never changes the arrival sequence.
    faults: FaultSpec | None = None
    #: Recovery policy; None uses :class:`RetryPolicy`'s defaults.
    retry: RetryPolicy | None = None
    #: Adaptive resilience layer (circuit breakers, deadlines,
    #: checkpointing, speculation); None = the exact PR 2 behavior.
    #: None of its mechanisms draws randomness, so enabling it never
    #: perturbs the seeded workload or fault streams.
    resilience: ResilienceSpec | None = None
    #: Discrete-event scheduler: ``"calendar"`` (the default O(1)
    #: calendar queue) or ``"heap"`` (the reference binary heap, kept
    #: as the oracle of the differential tests).  Both produce
    #: identical event orders -- locked by differential property tests
    #: and the golden byte-identity suite -- so this is purely a
    #: performance knob.
    engine: str = "calendar"
    #: Overload protection (:mod:`repro.sim.admission`); None = the
    #: exact unprotected simulator.  No admission policy draws
    #: randomness, so arming one never perturbs the seeded streams.
    admission: AdmissionSpec | None = None
    #: Fraction of tasks tagged ``priority=-1`` (first candidates for
    #: brownout degradation and shedding).  0 keeps the workload's RNG
    #: consumption byte-identical to pre-overload runs.
    low_priority_fraction: float = 0.0
    #: Tenant tags cycled over tasks (``tenant{i % tenants}``); 1 keeps
    #: every task untagged.
    tenants: int = 1
    #: ``(surge_start_s, surge_duration_s, surge_multiplier)``: replace
    #: the Poisson arrivals with a :class:`~repro.sim.workload.
    #: FlashCrowdArrivals` whose base rate is ``arrival_rate_per_s``
    #: and which multiplies it by the given factor inside the window --
    #: the overload study's forcing function.
    flash_crowd: tuple[float, float, float] | None = None
    #: Control-plane fault tolerance (:mod:`repro.sim.failover`):
    #: heartbeat failure detection, replicated-RMS failover, and
    #: lease-based orphan recovery.  ``None`` (or an inert spec with no
    #: heartbeat and no standbys) keeps the simulator byte-identical to
    #: pre-failover runs -- locked by the golden-trace suite.  The only
    #: randomness it can introduce is the ``heartbeat_loss_prob`` draw,
    #: which lives on its own fault stream.
    failover: FailoverSpec | None = None
    #: Online SLO monitoring (:mod:`repro.sim.slo`): declarative
    #: latency/throughput/availability/queue objectives with burn-rate
    #: alerting, evaluated while the run executes.  Purely
    #: observational -- ``None`` (or an empty spec) and an armed
    #: monitor both leave simulated behavior byte-identical; arming one
    #: only *adds* ``slo-*`` trace events and report/telemetry rollups.
    slo: SLOSpec | None = None

    def __post_init__(self) -> None:
        if self.strategy not in ALL_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from "
                + ", ".join(sorted(ALL_STRATEGIES))
            )
        for name in ("tasks", "configurations", "seed"):
            require_int(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.nodes:
            raise ValueError("an experiment needs at least one node")
        Link(self.bandwidth_mbps, self.latency_s)  # validates the network parameters
        if self.flash_crowd is not None:
            if len(self.flash_crowd) != 3:
                raise ValueError(
                    "flash_crowd must be (surge_start_s, surge_duration_s, "
                    "surge_multiplier)"
                )
            if self.flash_crowd[2] < 1.0:
                raise ValueError("surge multiplier must be >= 1")
        # The builders validate what they read: the arrival process its
        # rate and surge window, the workload its counts and fractions.
        _spec_arrivals(self)
        _spec_workload(self)
        if self.configurations <= 0:
            raise ValueError("configurations must be positive")
        check_range("area_range", self.area_range)
        check_range("speedup_range", self.speedup_range)
        if self.discard_after_s is not None and not (
            math.isfinite(self.discard_after_s) and self.discard_after_s > 0
        ):
            raise ValueError(
                f"discard_after_s must be finite and positive, got {self.discard_after_s!r}"
            )
        from repro.sim.engine import ENGINES

        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from "
                + ", ".join(sorted(ENGINES))
            )

    def with_(self, **overrides) -> "ExperimentSpec":
        """A modified copy -- the sweep primitive."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one run produced."""

    spec: ExperimentSpec
    report: SimulationReport
    energy: EnergyReport | None


def build_grid(spec: ExperimentSpec) -> ResourceManagementSystem:
    """Materialize the spec's grid (nodes, network, scheduler)."""
    cls = ALL_STRATEGIES[spec.strategy]
    scheduler = cls(seed=spec.seed) if cls is RandomScheduler else cls()
    network = Network.fully_connected(
        list(range(len(spec.nodes))),
        bandwidth_mbps=spec.bandwidth_mbps,
        latency_s=spec.latency_s,
    )
    rms = ResourceManagementSystem(network=network, scheduler=scheduler)
    for node_id, node_spec in enumerate(spec.nodes):
        node = Node(node_id=node_id, name=f"Node_{node_id}")
        for g in range(node_spec.gpps):
            node.add_gpp(GPPSpec(cpu_model=f"gpp{node_id}.{g}", mips=node_spec.gpp_mips))
        for model in node_spec.rpe_models:
            node.add_rpe(device_by_model(model), regions=node_spec.regions_per_rpe)
        rms.register_node(node)
    return rms


def _spec_arrivals(spec: ExperimentSpec) -> ArrivalProcess:
    """The spec's arrival process: flash-crowd surge when configured,
    otherwise the plain Poisson stream."""
    if spec.flash_crowd is not None:
        start, duration, multiplier = spec.flash_crowd
        return FlashCrowdArrivals(
            spec.arrival_rate_per_s,
            surge_start_s=start,
            surge_duration_s=duration,
            surge_multiplier=multiplier,
        )
    return PoissonArrivals(rate_per_s=spec.arrival_rate_per_s)


def _spec_workload(spec: ExperimentSpec) -> WorkloadSpec:
    return WorkloadSpec(
        task_count=spec.tasks,
        gpp_fraction=spec.gpp_fraction,
        required_time_range_s=spec.required_time_range_s,
        low_priority_fraction=spec.low_priority_fraction,
        tenants=spec.tenants,
    )


def _build(
    spec: ExperimentSpec,
    *,
    arrivals: ArrivalProcess | None = None,
    tracer: Tracer | None = None,
    telemetry: TelemetryRegistry | None = None,
) -> tuple[DReAMSim, SyntheticWorkload]:
    """The simulator and workload *spec* describes: grid, configuration
    pool, arrival stream, fault injector."""
    rms = build_grid(spec)
    pool = ConfigurationPool(
        spec.configurations,
        area_range=spec.area_range,
        speedup_range=spec.speedup_range,
        seed=spec.seed,
    )
    pool.populate_repository(
        rms.virtualization.repository,
        [rpe.device for node in rms.nodes for rpe in node.rpes],
    )
    workload = SyntheticWorkload(
        _spec_workload(spec),
        pool,
        arrivals or _spec_arrivals(spec),
        seed=spec.seed,
    )
    injector = (
        FaultInjector(spec.faults, seed=spec.seed) if spec.faults is not None else None
    )
    sim = DReAMSim(
        rms,
        discard_after_s=spec.discard_after_s,
        tracer=tracer,
        faults=injector,
        retry=spec.retry,
        resilience=spec.resilience,
        admission=spec.admission,
        failover=spec.failover,
        slo=spec.slo,
        telemetry=telemetry,
        engine=spec.engine,
    )
    return sim, workload


def run_experiment(
    spec: ExperimentSpec,
    *,
    arrivals: ArrivalProcess | None = None,
    audit_energy: bool = False,
    tracer: Tracer | None = None,
    telemetry: TelemetryRegistry | None = None,
) -> ExperimentResult:
    """Build, run, and report one experiment.

    The workload is drawn as numpy columns
    (:meth:`~repro.sim.workload.SyntheticWorkload.generate_columns`)
    and bulk-scheduled; each :class:`~repro.core.task.Task` is built at
    its arrival instant, so the same driver serves a 14-task golden
    trace and a 1e6-task scale run.

    ``arrivals`` overrides the Poisson process (e.g. with
    :class:`~repro.sim.workload.TraceArrivals` for trace-driven runs).
    ``tracer`` receives the structured event stream (and, when it
    carries a :class:`~repro.sim.tracing.TraceInvariantChecker`,
    validates the run online).  ``telemetry`` receives sim-time series
    (:class:`~repro.sim.telemetry.TelemetryRegistry`); after the run
    its ``meta`` carries the spec's headline knobs for the dashboard.
    """
    sim, workload = _build(spec, arrivals=arrivals, tracer=tracer, telemetry=telemetry)
    sim.submit_workload_columns(workload.generate_columns())
    report = sim.run()
    if telemetry is not None:
        from repro.provenance import run_provenance

        telemetry.meta.update(
            provenance=run_provenance(spec),
            strategy=spec.strategy,
            tasks=spec.tasks,
            seed=spec.seed,
            arrival_rate_per_s=spec.arrival_rate_per_s,
            nodes=len(sim.rms.nodes),
            faults=spec.faults is not None,
            resilience=(
                spec.resilience.describe() if spec.resilience is not None else {}
            ),
            admission=(
                spec.admission.describe() if spec.admission is not None else {}
            ),
            failover=(
                spec.failover.describe() if spec.failover is not None else {}
            ),
            slo=(spec.slo.describe() if spec.slo is not None else {}),
            horizon_s=report.horizon_s,
            summary=report.summary_lines(),
        )
    energy = EnergyAuditor(sim.rms).audit(sim) if audit_energy else None
    return ExperimentResult(spec=spec, report=report, energy=energy)


#: The former scale driver's name; the repository benchmark calls it.
run_scale_experiment = run_experiment


def sweep(base: ExperimentSpec, field_name: str, values) -> list[ExperimentResult]:
    """Run *base* once per value of one knob (the ablation primitive)."""
    return [run_experiment(base.with_(**{field_name: value})) for value in values]


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean and standard deviation of the headline metrics over seeds.

    A single seeded run is a point estimate; papers report intervals.
    """

    seeds: tuple[int, ...]
    mean_wait_s: float
    std_wait_s: float
    mean_turnaround_s: float
    std_turnaround_s: float
    mean_makespan_s: float
    std_makespan_s: float
    mean_reuse_rate: float

    def summary_lines(self) -> list[str]:
        return [
            f"replications        {len(self.seeds)} seeds",
            f"mean wait           {self.mean_wait_s:8.4f} +/- {self.std_wait_s:.4f} s",
            f"mean turnaround     {self.mean_turnaround_s:8.4f} +/- {self.std_turnaround_s:.4f} s",
            f"mean makespan       {self.mean_makespan_s:8.2f} +/- {self.std_makespan_s:.2f} s",
            f"mean reuse rate     {self.mean_reuse_rate:8.2%}",
        ]


def summarize_replications(
    seeds: list[int], reports: list[SimulationReport]
) -> ReplicationSummary:
    """Aggregate per-seed reports into a :class:`ReplicationSummary`.

    Shared by the serial :func:`replicate` and the parallel runner
    (:mod:`repro.sim.runner`), so both paths summarize identically.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if len(seeds) != len(reports):
        raise ValueError("one report per seed required")
    import numpy as np

    waits = np.array([r.mean_wait_s for r in reports])
    turnarounds = np.array([r.mean_turnaround_s for r in reports])
    makespans = np.array([r.makespan_s for r in reports])
    reuse = np.array([r.reuse_rate for r in reports])
    return ReplicationSummary(
        seeds=tuple(seeds),
        mean_wait_s=float(waits.mean()),
        std_wait_s=float(waits.std()),
        mean_turnaround_s=float(turnarounds.mean()),
        std_turnaround_s=float(turnarounds.std()),
        mean_makespan_s=float(makespans.mean()),
        std_makespan_s=float(makespans.std()),
        mean_reuse_rate=float(reuse.mean()),
    )


def replicate(base: ExperimentSpec, seeds: list[int]) -> ReplicationSummary:
    """Run *base* under each seed and aggregate (mean +/- std)."""
    reports = [run_experiment(base.with_(seed=s)).report for s in seeds]
    return summarize_replications(seeds, reports)
