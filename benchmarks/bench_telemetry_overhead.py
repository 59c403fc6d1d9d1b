"""Telemetry layer: zero cost when disabled, cheap when enabled.

The telemetry registry (PR 4) hangs off a single attribute: the RMS,
JSS, and health tracker hooks are each guarded by one ``if
self.telemetry is not None`` check, and the simulator's transitions
reach the registry through ``_emit``, which does nothing when neither a
tracer nor a registry listens.  This bench pins the
zero-cost-when-disabled guarantee and keeps the enabled path honest:

* **Disabled overhead.**  A simulator constructed without a registry
  must run within 5% of the pre-telemetry wall-clock (the guards are
  all that remains of the feature) and behave identically -- the
  telemetry hooks schedule no events and draw no randomness, so the
  report is byte-for-byte the same object either way.

* **Enabled overhead.**  With a registry attached, change-driven gauge
  sampling and histogram observes are bookkeeping, not simulation:
  the instrumented run must stay within 50% of the plain one (measured
  ~29% on the reference grid) and must still produce the identical
  report.
"""

import time

from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.telemetry import TelemetryRegistry

#: The resilience bench's grid shape at 400 tasks: long fabric tasks
#: keep the event engine busy so the ratio is measured over ~100 ms of
#: real work rather than scheduler-noise territory.
SPEC = ExperimentSpec(
    tasks=400,
    nodes=(
        NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
        NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
    ),
    arrival_rate_per_s=2.0,
    area_range=(2_000, 12_000),
    gpp_fraction=0.2,
    required_time_range_s=(4.0, 10.0),
    speedup_range=(2.0, 5.0),
    seed=0,
)


def timed(repeats: int = 7, *, instrument: bool = False):
    """(best wall-clock seconds, report) over *repeats* fresh runs."""
    best = float("inf")
    report = None
    for _ in range(repeats):
        telemetry = TelemetryRegistry() if instrument else None
        start = time.perf_counter()
        report = run_experiment(SPEC, telemetry=telemetry).report
        best = min(best, time.perf_counter() - start)
    return best, report


def bench_disabled_overhead(benchmark):
    plain_s, plain = timed()
    on_s, observed = timed(instrument=True)

    overhead = on_s / plain_s - 1.0
    print("\ntelemetry overhead (400 tasks, best of 7)")
    print(f"  telemetry disabled   {plain_s * 1e3:8.2f} ms")
    print(f"  telemetry enabled    {on_s * 1e3:8.2f} ms  ({overhead:+.1%})")

    # Observation never perturbs the simulation...
    assert observed == plain
    assert plain.completed == SPEC.tasks
    # ...and the enabled path is bounded bookkeeping.
    assert overhead < 0.50, f"enabled telemetry overhead {overhead:.1%} >= 50%"

    report = benchmark(lambda: run_experiment(SPEC).report)
    assert report.completed == SPEC.tasks


def bench_disabled_guard_cost(benchmark):
    """Bound the *disabled* path directly: all that remains of
    telemetry in an uninstrumented run is the grid-sampling guard and
    the no-listener ``_emit``.  Timing those no-op hooks themselves and
    scaling by a generous per-task call count proves the guard budget
    is far under the 5% acceptance bar, without depending on run-to-run
    machine noise."""
    from repro.sim.experiment import build_grid
    from repro.sim.simulator import DReAMSim

    sim = DReAMSim(build_grid(SPEC))
    assert sim.telemetry is None and sim.tracer is None

    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        sim._telemetry_sample()
    sample_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        sim._emit("retry", 0, attempt=2)
    emit_s = time.perf_counter() - start
    per_call_s = (sample_s + emit_s) / (2 * calls)

    plain_s, plain = timed(repeats=3)
    assert plain.completed == SPEC.tasks
    # ~20 guarded hook sites firing per task is far beyond reality.
    guard_budget_s = per_call_s * 20 * SPEC.tasks
    share = guard_budget_s / plain_s
    print("\ndisabled-telemetry guard cost")
    print(f"  per no-op hook call  {per_call_s * 1e9:8.1f} ns")
    print(f"  20 calls/task budget {guard_budget_s * 1e3:8.3f} ms "
          f"of a {plain_s * 1e3:.2f} ms run ({share:.2%})")
    assert share < 0.05, f"guard budget {share:.2%} >= 5% of wall time"

    report = benchmark(lambda: run_experiment(SPEC).report)
    assert report.completed == SPEC.tasks


if __name__ == "__main__":
    from repro.bench import standalone_main

    raise SystemExit(standalone_main("telemetry-instrumented"))
