"""DReAMSim: Dynamic Reconfigurable Autonomous Many-task Simulator.

Section V closes by introducing DReAMSim [20][21], the authors'
"simulation framework ... for the purpose of testing task scheduling
strategies and resource management for dynamic reconfigurable
processing nodes in a distributed environment", which "can be used to
investigate the desired system scenario(s) for a particular scheduling
strategy and a given number of tasks, grid nodes, configurations, task
arrival distributions, area ranges, and task required times".

This package is that simulator, rebuilt in Python:

* :mod:`repro.sim.engine` -- deterministic discrete-event core.
* :mod:`repro.sim.workload` -- task arrival distributions (Poisson /
  uniform / deterministic) and synthetic task generators parameterized
  by area ranges, required-time ranges, configuration pools, and PE mix.
* :mod:`repro.sim.metrics` -- per-task and per-resource metrics:
  wait/turnaround, utilization, reconfiguration counts, configuration
  reuse rate.
* :mod:`repro.sim.simulator` -- the DReAMSim facade wiring engine +
  RMS + JSS + workload, including application (Seq/Par) execution,
  task-graph execution, streaming pipelines, and node join/leave.
* :mod:`repro.sim.tracing` -- typed event stream (submit/dispatch/
  reconfigure/complete, node membership, slice occupancy) with
  pluggable sinks and an online invariant checker.
* :mod:`repro.sim.runner` -- parallel experiment execution across
  worker processes with spec-hash result caching.
"""

from repro.sim.engine import SimulationEngine, EventHandle
from repro.sim.workload import (
    ArrivalProcess,
    PoissonArrivals,
    UniformArrivals,
    DeterministicArrivals,
    TraceArrivals,
    ConfigurationPool,
    SyntheticWorkload,
    WorkloadSpec,
    independent_rng,
)
from repro.sim.metrics import MetricsCollector, SimulationReport, TaskMetrics
from repro.sim.energy import EnergyAuditor, EnergyReport
from repro.sim.faults import FAULT_PRESETS, FaultInjector, FaultSpec, RetryPolicy
from repro.sim.resilience import (
    RESILIENCE_PRESETS,
    CheckpointSpec,
    DeadlineSpec,
    ResilienceSpec,
    SpeculationSpec,
)
from repro.sim.trace import (
    export_report_json,
    export_task_records,
    load_report_json,
    load_task_records,
)
from repro.sim.experiment import (
    ExperimentResult,
    ExperimentSpec,
    NodeSpec,
    ReplicationSummary,
    replicate,
    run_experiment,
    summarize_replications,
    sweep,
)
from repro.sim.runner import (
    ExperimentRunner,
    RunnerStats,
    parallel_map,
    parallel_replicate,
    parallel_sweep,
    run_many,
    spec_cache_key,
)
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import (
    InMemorySink,
    InvariantViolation,
    JsonlSink,
    TraceEvent,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
    read_jsonl,
    verify_jsonl,
    verify_trace,
)

__all__ = [
    "SimulationEngine",
    "EventHandle",
    "ArrivalProcess",
    "PoissonArrivals",
    "UniformArrivals",
    "DeterministicArrivals",
    "TraceArrivals",
    "ConfigurationPool",
    "SyntheticWorkload",
    "WorkloadSpec",
    "independent_rng",
    "MetricsCollector",
    "SimulationReport",
    "TaskMetrics",
    "EnergyAuditor",
    "EnergyReport",
    "FAULT_PRESETS",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "RESILIENCE_PRESETS",
    "ResilienceSpec",
    "DeadlineSpec",
    "CheckpointSpec",
    "SpeculationSpec",
    "export_report_json",
    "export_task_records",
    "load_report_json",
    "load_task_records",
    "DReAMSim",
    "ExperimentSpec",
    "ExperimentResult",
    "NodeSpec",
    "run_experiment",
    "sweep",
    "ReplicationSummary",
    "replicate",
    "summarize_replications",
    "ExperimentRunner",
    "RunnerStats",
    "parallel_map",
    "parallel_replicate",
    "parallel_sweep",
    "run_many",
    "spec_cache_key",
    "TraceEvent",
    "Tracer",
    "InMemorySink",
    "JsonlSink",
    "TraceInvariantChecker",
    "InvariantViolation",
    "canonical_events",
    "read_jsonl",
    "verify_trace",
    "verify_jsonl",
]
