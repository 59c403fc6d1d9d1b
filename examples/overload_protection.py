"""Overload protection: a flash crowd with and without admission.

The RMS of the paper accepts every submission unconditionally; RC3E-
style virtualization only oversubscribes safely with explicit
admission at the resource manager.  This example drives the canonical
two-node grid through an 8x flash crowd (a non-homogeneous Poisson
surge, :class:`repro.sim.workload.FlashCrowdArrivals`) four times:

* **unprotected** -- the baseline: the pending queue grows without
  bound and every wait percentile inflates;
* **bounded** -- a bounded pending queue that sheds excess load at
  the front door;
* **backpressure** -- the same bound, but rejected submissions are
  parked and re-offered (defer) before being shed;
* **brownout** -- bounded queue plus the staged degradation
  controller: sustained pressure forces low-priority work onto GPPs,
  then sheds down to the recovery watermark -- and recovers with
  hysteresis once the surge passes.

All four runs share one seed, and admission decisions never draw
randomness, so the arrival stream is identical everywhere -- the runs
differ only where a policy acts.  Conservation
(``submitted == completed + failed + discarded + shed``) is checked
online by the trace invariant checker on every run.

Run with::

    python examples/overload_protection.py
"""

from repro.report import ascii_table
from repro.sim.admission import ADMISSION_PRESETS
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import InMemorySink, TraceInvariantChecker, Tracer

BASE = ExperimentSpec(
    tasks=400,
    nodes=(
        NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
        NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
    ),
    arrival_rate_per_s=4.0,
    flash_crowd=(5.0, 15.0, 8.0),  # 8x surge in [5 s, 20 s)
    area_range=(2_000, 12_000),
    gpp_fraction=0.3,
    low_priority_fraction=0.3,
    seed=17,
)


def run_protected(admission):
    """One surge run; returns (report, max pending depth observed)."""
    telemetry = TelemetryRegistry()
    tracer = Tracer(TraceInvariantChecker(), InMemorySink(capacity=1))
    result = run_experiment(
        BASE.with_(admission=admission), tracer=tracer, telemetry=telemetry
    )
    tracer.checker.assert_no_lost_tasks()
    tracer.checker.assert_conservation()
    depth = max(
        (v for series in telemetry.series("sim_queue_depth")
         for _, v in series.points),
        default=0.0,
    )
    return result.report, int(depth)


def main() -> None:
    rows = []
    for name in ("unprotected", "bounded", "backpressure", "brownout"):
        admission = None if name == "unprotected" else ADMISSION_PRESETS[name]
        report, depth = run_protected(admission)
        rows.append(
            (
                name,
                str(depth),
                f"{report.p95_wait_s:.2f}",
                str(report.completed),
                str(report.shed),
                str(report.admission_deferrals),
                str(report.brownout_transitions),
                f"{report.brownout_time_s:.1f}",
                f"{report.overload_goodput_tasks_per_s:.2f}",
            )
        )
    print(
        ascii_table(
            [
                "policy",
                "max depth",
                "p95 wait s",
                "done",
                "shed",
                "deferred",
                "transitions",
                "degraded s",
                "goodput/s",
            ],
            rows,
            title="8x flash crowd, 400 tasks, one seed (conservation checked)",
        )
    )


if __name__ == "__main__":
    main()
