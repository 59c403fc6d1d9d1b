"""The four seeded benchmark workloads and the checks every run passes.

Each workload is an :class:`~repro.sim.experiment.ExperimentSpec` built
here from the seed and driven through a public entry point a user of the
reproduction calls: ``run_experiment`` or ``run_scale_experiment``, plus
``analyze_events`` for chaos-observed.  The program only ever sees the
generated spec.  Simulated arrivals are open-loop (Poisson or a flash
crowd) in simulated time; the benchmark itself is a closed loop with one
client, so host time is the only thing load changes.

Why each workload exists, and which layer it isolates, is in
``perf/README.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import zlib
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

from repro.sim import analysis, experiment
from repro.sim.admission import AdmissionSpec, BrownoutSpec, QueueBoundSpec
from repro.sim.experiment import ExperimentSpec, NodeSpec
from repro.sim.failover import FAILOVER_PRESETS
from repro.sim.faults import FAULT_PRESETS
from repro.sim.metrics import SimulationReport
from repro.sim.resilience import RESILIENCE_PRESETS
from repro.sim.simulator import DReAMSim
from repro.sim.slo import SLOObjective, SLOSpec
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import InMemorySink, Tracer

#: ``--smoke`` shrinks every workload's task count by this factor.
SMOKE_FACTOR = 0.02

#: Distinct inputs one ``--seed`` expands into.  How much work a
#: simulation does depends on its input (when outages or surges pile up
#: the queue), so a run takes its median over this many inputs rather
#: than repeating one.
INPUTS_PER_SEED = 8

#: Report fields that describe the host, not the simulated system.
HOST_FIELDS = frozenset({"host_phase_s", "host_phase_calls"})

#: Simulated statistics copied into the results file beside the digest.
HEADLINE_FIELDS = (
    "completed",
    "failed",
    "shed",
    "discarded",
    "mean_wait_s",
    "mean_turnaround_s",
    "makespan_s",
    "mean_utilization",
)


class CheckFailed(RuntimeError):
    """A run finished but broke one of the benchmark's correctness checks."""


def canonical_grid() -> tuple[NodeSpec, ...]:
    """The two-node reference grid of the CLI defaults and ``sim-scale``."""
    return (
        NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
        NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
    )


def canonical_spec(seed: int, tasks: int) -> ExperimentSpec:
    return ExperimentSpec(
        tasks=tasks,
        nodes=canonical_grid(),
        arrival_rate_per_s=2.0,
        gpp_fraction=0.4,
        area_range=(2_000, 12_000),
        seed=seed,
    )


def scale_steady_spec(seed: int, tasks: int) -> ExperimentSpec:
    return canonical_spec(seed, tasks).with_(engine="calendar")


WIDE_GRID_MODELS = ("XC5VLX330", "XC5VLX155", "XC5VLX220", "XC5VLX110")


def wide_grid_spec(seed: int, tasks: int) -> ExperimentSpec:
    # 16 nodes x (2 GPPs + 2 RPEs x 3 regions) = 96 processing elements;
    # GPP speeds vary so the pricing cannot tie-break on node order.
    nodes = tuple(
        NodeSpec(
            gpps=2,
            gpp_mips=1_500 + 250 * (i % 3),
            rpe_models=(WIDE_GRID_MODELS[i % 4],) * 2,
            regions_per_rpe=3,
        )
        for i in range(16)
    )
    return canonical_spec(seed, tasks).with_(
        nodes=nodes, configurations=24, arrival_rate_per_s=15.0
    )


def flash_crowd_spec(seed: int, tasks: int) -> ExperimentSpec:
    return canonical_spec(seed, tasks).with_(
        flash_crowd=(20.0, 400.0, 4.0),
        low_priority_fraction=0.3,
        tenants=3,
        admission=AdmissionSpec(
            queue=QueueBoundSpec(max_pending=256),
            brownout=BrownoutSpec(enter_pending=128, exit_pending=32, dwell_s=1.0),
        ),
        slo=SLOSpec(objectives=(
            SLOObjective("latency", 1.5, percentile=95.0, window_s=10.0),
            SLOObjective("queue-depth", 64.0, window_s=10.0),
            SLOObjective("availability", 0.99, window_s=10.0),
            SLOObjective("latency", 2.0, percentile=90.0, window_s=10.0,
                         tenant="tenant0"),
        )),
    )


def chaos_observed_spec(seed: int, tasks: int) -> ExperimentSpec:
    # The fault horizon covers the whole arrival window (2 tasks/s).
    return canonical_spec(seed, tasks).with_(
        faults=dataclasses.replace(FAULT_PRESETS["chaos"], horizon_s=tasks / 2.0),
        resilience=RESILIENCE_PRESETS["defensive"],
        failover=FAILOVER_PRESETS["replicated"],
    )


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: int
    spec: Callable[[int, int], ExperimentSpec]
    #: Run through ``run_scale_experiment`` instead of ``run_experiment``.
    scale: bool = False
    #: Attach a checked tracer and telemetry, then fold the trace with
    #: ``analyze_events``.
    observed: bool = False

    def size(self, smoke: bool) -> int:
        return max(20, round(self.tasks * SMOKE_FACTOR)) if smoke else self.tasks


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("scale-steady", 13_000, scale_steady_spec, scale=True),
        Workload("wide-grid", 1_500, wide_grid_spec),
        Workload("flash-crowd", 1_400, flash_crowd_spec),
        Workload("chaos-observed", 4_500, chaos_observed_spec, observed=True),
    )
}


class RunClock:
    """Times ``DReAMSim.run`` from outside, at class level.

    This is the only wrapper an untraced run carries; it reads the
    engine's event count once the run has returned.
    """

    def __init__(self) -> None:
        self.wall_ns = 0
        self.calls = 0
        self.events = 0
        self._original = None

    def install(self) -> None:
        original = DReAMSim.run
        clock = self

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return original(sim, *args, **kwargs)
            finally:
                clock.wall_ns += perf_counter_ns() - t0
                clock.calls += 1
                clock.events = sim.engine.processed_events

        self._original = original
        DReAMSim.run = run

    def uninstall(self) -> None:
        DReAMSim.run = self._original

    def reset(self) -> None:
        self.wall_ns = self.calls = self.events = 0


@dataclass(frozen=True)
class Outcome:
    """Host timings and simulated results of one checked run."""

    tasks: int
    #: Wall of the whole entry-point call plus, when observed, the analysis.
    total_ns: int
    #: Wall inside ``DReAMSim.run``.
    run_ns: int
    analysis_ns: int
    events: int
    trace_events: int
    digest: str
    headline: dict

    @property
    def setup_s(self) -> float:
        return (self.total_ns - self.run_ns - self.analysis_ns) / 1e9

    @property
    def host_us_per_task(self) -> float:
        return (self.run_ns + self.analysis_ns) / 1e3 / self.tasks


def _simulated_fields(report: SimulationReport) -> dict:
    return {
        k: v for k, v in dataclasses.asdict(report).items() if k not in HOST_FIELDS
    }


def _non_finite(value, path: str = "") -> list[str]:
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    return []


def input_seeds(seed: int) -> list[int]:
    """The experiment seeds ``--seed`` stands for, in run order."""
    return [seed * 1_000 + i for i in range(INPUTS_PER_SEED)]


def sim_digest(report: SimulationReport) -> str:
    """CRC-32 of every simulated report field, sorted by name."""
    text = json.dumps(_simulated_fields(report), sort_keys=True)
    return f"{zlib.crc32(text.encode()):08x}"


def combined_digest(digests) -> str:
    """One CRC-32 over several runs' digests, in the order given."""
    return f"{zlib.crc32(','.join(digests).encode()):08x}"


def check_report(report: SimulationReport, tasks: int) -> None:
    """Conservation and finiteness; raises :class:`CheckFailed`."""
    accounted = (
        report.completed + report.failed + report.discarded + report.shed
        + report.pending
    )
    if accounted != tasks:
        raise CheckFailed(
            f"conservation: completed+failed+discarded+shed+pending = "
            f"{accounted}, submitted {tasks}"
        )
    bad = _non_finite(_simulated_fields(report))
    if bad:
        raise CheckFailed(f"non-finite report fields: {', '.join(bad[:5])}")


def execute(workload: Workload, seed: int, tasks: int, clock: RunClock) -> Outcome:
    """One checked run; ``clock`` must be installed.  Raises on failure."""
    spec = workload.spec(seed, tasks)
    tracer = telemetry = None
    if workload.observed:
        sink = InMemorySink()
        tracer = Tracer.with_invariants(sink)
        telemetry = TelemetryRegistry()
    clock.reset()
    t0 = perf_counter_ns()
    if workload.scale:
        result = experiment.run_scale_experiment(spec)
    else:
        result = experiment.run_experiment(spec, tracer=tracer, telemetry=telemetry)
    t1 = perf_counter_ns()
    trace_events = 0
    if tracer is not None:
        events = list(sink.events)
        trace_events = len(events)
        run_analysis = analysis.analyze_events(events)
    t2 = perf_counter_ns()
    if clock.calls != 1:
        raise CheckFailed(f"DReAMSim.run called {clock.calls} times, expected 1")
    report = result.report
    check_report(report, tasks)
    if tracer is not None:
        checker = tracer.checker
        checker.assert_conservation()
        checker.assert_no_lost_tasks()
        checker.assert_slo_closed()
        if checker.events_checked != tracer.events_emitted:
            raise CheckFailed("the invariant checker missed trace events")
        violations = run_analysis.conservation_violations()
        if violations:
            raise CheckFailed(
                f"phase ledger breaks conservation for {len(violations)} task(s)"
            )
    return Outcome(
        tasks=tasks,
        total_ns=t2 - t0,
        run_ns=clock.wall_ns,
        analysis_ns=t2 - t1,
        events=clock.events,
        trace_events=trace_events,
        digest=sim_digest(report),
        headline={name: getattr(report, name) for name in HEADLINE_FIELDS},
    )
