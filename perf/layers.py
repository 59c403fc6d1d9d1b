"""Outside-in span recorder: per-layer host time, measured from the benchmark.

The recorder patches the public functions of each simulator layer at
class level (module level for ``analyze_events``) and restores them on
exit.  Nothing under ``src/`` knows it is there.  Each wrapper pushes a
frame on one stack, so a layer's self time excludes the wrapped calls
nested inside it: ``plan_placement -> find_candidates -> choose`` is
charged to the innermost layer.  A call into the layer already on top of
the stack (``schedule -> schedule_at``, a subclass calling ``super()``)
is part of that call and is not counted again.

Spans are not kept one by one -- a run makes millions.  They are folded
into per-(parent layer, layer, function) aggregates of calls, self time
and inclusive time, which are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter_ns

from repro.grid.health import HealthTracker
from repro.grid.jss import JobSubmissionSystem
from repro.grid.rms import ResourceManagementSystem
from repro.scheduling.hybrid import HybridCostScheduler
from repro.sim import analysis
from repro.sim.admission import AdmissionController
from repro.sim.engine import CalendarQueueEngine, SimulationEngine
from repro.sim.failover import HeartbeatMonitor, ReplicatedRMS
from repro.sim.faults import FaultInjector
from repro.sim.metrics import BulkMetricsCollector, MetricsCollector
from repro.sim.simulator import DReAMSim
from repro.sim.slo import SLOMonitor
from repro.sim.telemetry import Counter, Gauge, Histogram, TelemetryRegistry
from repro.sim.tracing import TraceInvariantChecker, Tracer
from repro.sim.workload import SyntheticWorkload

#: ``PUBLIC`` wraps every public plain function a class defines itself.
PUBLIC = None

ENGINE_API = ("schedule", "schedule_at", "schedule_batch")

#: (layer, owner, function names).  ``DReAMSim.run`` is the simulator's
#: own layer: its self time is the event pop loop plus the handler glue in
#: ``sim/simulator.py`` -- everything the other layers do not claim.
TARGETS = (
    ("matchmaking.plan", ResourceManagementSystem, ("plan_placement",)),
    ("matchmaking.candidates", ResourceManagementSystem, ("find_candidates",)),
    ("matchmaking.choose", HybridCostScheduler, ("choose",)),
    ("dispatch.rms", ResourceManagementSystem,
     ("commit", "begin_execution", "finish_execution", "abort_placement")),
    ("dispatch.jss", JobSubmissionSystem, PUBLIC),
    ("engine", SimulationEngine, ENGINE_API),
    ("engine", CalendarQueueEngine, ENGINE_API),
    ("simulator.residual", DReAMSim, ("run",)),
    ("metrics", MetricsCollector, PUBLIC),
    ("metrics", BulkMetricsCollector, PUBLIC),
    ("workload", SyntheticWorkload, ("generate", "generate_columns")),
    ("workload", DReAMSim, ("submit_workload", "submit_workload_columns")),
    ("tracing.emit", Tracer, ("emit",)),
    ("tracing.check", TraceInvariantChecker, ("emit",)),
    ("telemetry", Counter, ("inc",)),
    ("telemetry", Gauge, ("set", "inc", "dec")),
    ("telemetry", Histogram, ("observe",)),
    ("telemetry", TelemetryRegistry, ("counter", "gauge", "histogram")),
    ("admission", AdmissionController, PUBLIC),
    ("slo", SLOMonitor, PUBLIC),
    ("failover", HeartbeatMonitor, PUBLIC),
    ("failover", ReplicatedRMS, PUBLIC),
    ("resilience", HealthTracker, PUBLIC),
    ("faults", FaultInjector, PUBLIC),
    ("analysis", analysis, ("analyze_events",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

ROOT = "bench"


def _count_placed(recorder: "SpanRecorder", result) -> None:
    if result is not None:
        recorder.counts["placements"] += 1


def _count_candidates(recorder: "SpanRecorder", result) -> None:
    recorder.counts["candidates"] += len(result)


#: Result observers: counts measured where the work happens.
OBSERVERS = {
    "ResourceManagementSystem.plan_placement": _count_placed,
    "ResourceManagementSystem.find_candidates": _count_candidates,
}


def _functions(owner, names) -> list[str]:
    if names is PUBLIC:
        return [
            name
            for name, value in vars(owner).items()
            if not name.startswith("_") and inspect.isfunction(value)
        ]
    missing = [name for name in names if not inspect.isfunction(vars(owner).get(name))]
    if missing:
        raise AttributeError(
            f"{owner.__name__} no longer defines {', '.join(missing)}; "
            "update perf/layers.py in a benchmark-only change first"
        )
    return list(names)


class SpanRecorder:
    """Context manager: wrappers installed on enter, removed on exit.

    Aggregates accumulate across every ``with`` block, so several traced
    runs add up; ``aggregates`` maps ``(parent, layer, function)`` to
    ``[calls, self_ns, inclusive_ns]``.
    """

    def __init__(self) -> None:
        self.aggregates: dict[tuple[str, str, str], list[int]] = {}
        self.counts = {"placements": 0, "candidates": 0}
        self._stack: list[list] = [[ROOT, 0]]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        try:
            for layer, owner, names in TARGETS:
                for name in _functions(owner, names):
                    original = vars(owner)[name]
                    self._saved.append((owner, name, original))
                    setattr(owner, name, self._wrap(layer, original, owner, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        del self._stack[1:]

    def _wrap(self, layer: str, fn, owner, name: str):
        stack = self._stack
        aggregates = self.aggregates
        clock = perf_counter_ns
        qualname = f"{getattr(owner, '__name__', owner)}.{name}"
        observe = OBSERVERS.get(qualname)
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], layer, qualname)
                agg = aggregates.get(key)
                if agg is None:
                    agg = aggregates[key] = [0, 0, 0]
                agg[0] += 1
                agg[1] += elapsed - frame[1]
                agg[2] += elapsed
            if observe is not None:
                observe(recorder, result)
            return result

        return timed

    # -- folds ------------------------------------------------------------
    def layer_totals(self) -> dict[str, list[int]]:
        """layer -> [calls, self_ns] summed over parents and functions."""
        totals = {layer: [0, 0] for layer in LAYERS}
        for (_, layer, _), (calls, self_ns, _) in self.aggregates.items():
            totals[layer][0] += calls
            totals[layer][1] += self_ns
        return totals

    def inclusive_ns(self, *qualnames: str) -> int:
        return sum(
            agg[2] for (_, _, q), agg in self.aggregates.items() if q in qualnames
        )

    def metrics(
        self, *, repeats: int, tasks: int, wall_ns: int, events: int,
        trace_events: int,
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each averaged over ``repeats`` traced runs.

        ``wall_ns`` is the summed wall of those runs (entry-point call
        plus analysis), the denominator of every ``share``; ``tasks`` is
        the task count of one run and ``events``/``trace_events`` are
        summed over the runs.
        """
        totals = self.layer_totals()
        out: dict[str, tuple[float, str]] = {}
        for layer, (calls, self_ns) in totals.items():
            if layer == "simulator.residual":
                out["simulator.residual.s"] = (self_ns / 1e9 / repeats, "s")
                out["simulator.residual.share"] = (self_ns / wall_ns, "ratio")
                continue
            out[f"{layer}.calls"] = (calls / repeats, "count")
            out[f"{layer}.self_s"] = (self_ns / 1e9 / repeats, "s")
            out[f"{layer}.us_per_call"] = (self_ns / 1e3 / calls if calls else 0.0, "us")
            out[f"{layer}.share"] = (self_ns / wall_ns, "ratio")
        plans = totals["matchmaking.plan"][0]
        searches = totals["matchmaking.candidates"][0]
        analysis_ns = totals["analysis"][1]
        out["matchmaking.success_ratio"] = (
            self.counts["placements"] / plans if plans else 0.0, "ratio")
        out["matchmaking.plan_calls_per_task"] = (plans / (tasks * repeats), "1/task")
        out["matchmaking.candidates_per_call"] = (
            self.counts["candidates"] / searches if searches else 0.0, "1/call")
        out["engine.events"] = (events / repeats, "count")
        out["engine.events_per_task"] = (events / (tasks * repeats), "1/task")
        out["metrics.report_s"] = (
            self.inclusive_ns("MetricsCollector.report", "BulkMetricsCollector.report")
            / 1e9 / repeats, "s")
        out["workload.generate_s"] = (
            self.inclusive_ns("SyntheticWorkload.generate",
                              "SyntheticWorkload.generate_columns")
            / 1e9 / repeats, "s")
        out["workload.submit_s"] = (
            self.inclusive_ns("DReAMSim.submit_workload",
                              "DReAMSim.submit_workload_columns")
            / 1e9 / repeats, "s")
        out["analysis.us_per_event"] = (
            analysis_ns / 1e3 / trace_events if trace_events else 0.0, "us")
        return out

    def spans(self) -> list[dict]:
        """The aggregates as JSON rows, heaviest self time first."""
        rows = [
            {
                "parent": parent,
                "layer": layer,
                "function": qualname,
                "calls": calls,
                "self_s": self_ns / 1e9,
                "inclusive_s": incl_ns / 1e9,
            }
            for (parent, layer, qualname), (calls, self_ns, incl_ns)
            in self.aggregates.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        return rows
