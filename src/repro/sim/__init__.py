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
