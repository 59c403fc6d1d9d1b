"""Unit tests for the discrete-event engines.

Every behavioral test runs against both registered engines (heap and
calendar queue) -- the calendar queue is a drop-in replacement, so any
observable difference is a bug.  The calendar queue is the default at
every entry point; the heap engine stays as the oracle, and the last
section runs benchmark-shaped simulations on both.
"""

import dataclasses
import json
import math

import pytest

from repro.sim.admission import AdmissionSpec, BrownoutSpec, QueueBoundSpec
from repro.sim.engine import ENGINES, CalendarQueueEngine, SimulationError, make_engine
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.failover import FAILOVER_PRESETS
from repro.sim.faults import FAULT_PRESETS
from repro.sim.metrics import report_dump
from repro.sim.resilience import RESILIENCE_PRESETS
from repro.sim.slo import SLOObjective, SLOSpec
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import InMemorySink, Tracer, canonical_events


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    return make_engine(request.param)


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        fired = []
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self, engine):
        fired = []
        for tag in "abc":
            engine.schedule(1.0, lambda t=tag: fired.append(t))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self, engine):
        times = []
        engine.schedule(2.5, lambda: times.append(engine.now))
        engine.schedule(5.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [2.5, 5.0]
        assert engine.now == 5.0

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_callbacks_can_schedule_more(self, engine):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(1.0, lambda: chain(n + 1))

        engine.schedule(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0


class TestNonFiniteRejection:
    """Regression lock: non-finite times used to slip into the heap
    and silently corrupt its ordering (NaN compares false against
    everything, so heap invariants break downstream).  Both engines
    must reject them loudly at the boundary."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_at_rejects_non_finite(self, engine, bad):
        with pytest.raises(SimulationError):
            engine.schedule_at(bad, lambda: None)
        assert engine.peek_time() is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_rejects_non_finite_delay(self, engine, bad):
        with pytest.raises(SimulationError):
            engine.schedule(bad, lambda: None)
        assert engine.peek_time() is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_batch_rejects_non_finite(self, engine, bad):
        with pytest.raises(SimulationError):
            engine.schedule_batch([1.0, bad], [lambda: None, lambda: None])
        assert engine.peek_time() is None

    def test_engine_still_usable_after_rejection(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_at(math.nan, lambda: None)
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.run()
        assert fired == [1]


class TestBatchScheduling:
    def test_batch_fires_in_time_then_submission_order(self, engine):
        fired = []
        engine.schedule_batch(
            [2.0, 1.0, 1.0],
            [lambda: fired.append("late"),
             lambda: fired.append("a"),
             lambda: fired.append("b")],
        )
        engine.run()
        assert fired == ["a", "b", "late"]

    def test_batch_without_handles_fires_identically(self, engine):
        fired = []
        engine.schedule_batch(
            [2.0, 1.0],
            [lambda: fired.append("late"), lambda: fired.append("early")],
            handles=False,
        )
        engine.run()
        assert fired == ["early", "late"]

    def test_batch_handles_are_cancellable(self, engine):
        fired = []
        handles = engine.schedule_batch(
            [1.0, 2.0], [lambda: fired.append(1), lambda: fired.append(2)]
        )
        handles[0].cancel()
        engine.run()
        assert fired == [2]

    def test_batch_length_mismatch_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.schedule_batch([1.0, 2.0], [lambda: None])

    def test_batch_in_the_past_rejected(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_batch([1.0], [lambda: None])

    def test_empty_batch_is_a_no_op(self, engine):
        assert engine.schedule_batch([], []) == []
        assert engine.schedule_batch([], [], handles=False) is None
        assert engine.peek_time() is None

    def test_batch_interleaves_with_singles(self, engine):
        fired = []
        engine.schedule(1.5, lambda: fired.append("single"))
        engine.schedule_batch(
            [1.0, 2.0],
            [lambda: fired.append("b1"), lambda: fired.append("b2")],
            handles=False,
        )
        engine.run()
        assert fired == ["b1", "single", "b2"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_pending_events_excludes_cancelled(self, engine):
        fired = []
        h1 = engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(2.0, lambda: fired.append(2))
        h1.cancel()
        engine.run()
        assert fired == [2]
        assert engine.processed_events == 1

    def test_peek_skips_cancelled(self, engine):
        h1 = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        h1.cancel()
        assert engine.peek_time() == 2.0


class TestRunBounds:
    def test_until_stops_before_later_events(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.peek_time() == 10.0

    def test_until_past_everything_advances_clock(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_max_events_bounds_runaway(self, engine):
        def forever():
            engine.schedule(1.0, forever)

        engine.schedule(0.0, forever)
        engine.run(max_events=50)
        assert engine.processed_events == 50

    def test_step_returns_false_when_dry(self, engine):
        assert engine.step() is False
        engine.schedule(1.0, lambda: None)
        assert engine.step() is True
        assert engine.step() is False


def test_make_engine_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown engine"):
        make_engine("fibonacci")


# ---------------------------------------------------------------------------
# The default engine and its oracle
# ---------------------------------------------------------------------------
class TestDefaultEngine:
    def test_spec_defaults_to_the_calendar_queue(self):
        assert ExperimentSpec().engine == "calendar"

    def test_simulator_defaults_to_the_calendar_queue(self):
        from repro.grid.rms import ResourceManagementSystem
        from repro.sim.simulator import DReAMSim

        sim = DReAMSim(ResourceManagementSystem())
        assert type(sim.engine) is CalendarQueueEngine

    def test_simulate_without_engine_runs_the_calendar_queue(self, tmp_path, capsys):
        from repro.cli import main

        def run(tag, *extra):
            trace, dump = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.json"
            assert main([
                "simulate", "--tasks", "60", "--seed", "3", *extra,
                "--trace", str(trace), "--report-json", str(dump),
            ]) == 0
            return trace.read_text(), dump.read_text()

        default = run("default")
        calendar = run("calendar", "--engine", "calendar")
        heap = run("heap", "--engine", "heap")
        capsys.readouterr()
        assert default == calendar
        # The dump names the engine, so it tells the two apart; the
        # trace does not.
        assert json.loads(default[1])["spec"]["engine"] == "calendar"
        assert heap[0] == default[0] and heap[1] != default[1]

    def test_test_helpers_keep_the_heap_side(self):
        """Helpers whose callers compare against an explicit calendar
        run default to the heap oracle; with the calendar default they
        would compare the calendar engine with itself."""
        import inspect

        from tests.sim import test_failover, test_golden_traces, test_lifecycle_pins
        from tests.sim.test_slo import chaos_tenant_spec

        for helper in (
            test_golden_traces.generate_trace_lines,
            test_lifecycle_pins.run_scenario,
            test_failover.build_sim,
        ):
            default = inspect.signature(helper).parameters["engine"].default
            assert default == "heap", helper.__name__
        assert chaos_tenant_spec().engine == "heap"


_BASE = ExperimentSpec(
    tasks=200,
    nodes=(
        NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
        NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
    ),
    arrival_rate_per_s=2.0,
    gpp_fraction=0.4,
    area_range=(2_000, 12_000),
    seed=1,
)

#: Shaped like the repository benchmark's workloads, at 200 tasks.
BENCHMARK_SHAPED = {
    "flash-crowd": _BASE.with_(
        # An earlier, steeper surge and tighter bounds than the
        # benchmark's, so that 200 tasks reach shedding and brownout.
        flash_crowd=(5.0, 400.0, 6.0),
        low_priority_fraction=0.3,
        tenants=3,
        admission=AdmissionSpec(
            queue=QueueBoundSpec(max_pending=32),
            brownout=BrownoutSpec(enter_pending=12, exit_pending=4, dwell_s=1.0),
        ),
        slo=SLOSpec(objectives=(
            SLOObjective("latency", 1.5, percentile=95.0, window_s=10.0),
            SLOObjective("queue-depth", 16.0, window_s=10.0),
            SLOObjective("availability", 0.99, window_s=10.0),
            SLOObjective("latency", 2.0, percentile=90.0, window_s=10.0,
                         tenant="tenant0"),
        )),
    ),
    "chaos-observed": _BASE.with_(
        faults=dataclasses.replace(FAULT_PRESETS["chaos"], horizon_s=100.0),
        resilience=RESILIENCE_PRESETS["defensive"],
        failover=FAILOVER_PRESETS["replicated"],
    ),
}

#: Event kinds that show each spec reaches the layers it is shaped for.
BENCHMARK_KINDS = {
    "flash-crowd": {"shed", "degrade", "brownout", "slo-breach"},
    "chaos-observed": {"fault", "quarantine", "probe", "heartbeat-confirm", "timeout"},
}


def _observed_run(spec: ExperimentSpec) -> tuple[list[str], str, str]:
    sink = InMemorySink()
    tracer = Tracer.with_invariants(sink)
    telemetry = TelemetryRegistry()
    report = run_experiment(spec, tracer=tracer, telemetry=telemetry).report
    tracer.checker.assert_no_lost_tasks()
    series = {k: v for k, v in telemetry.to_json().items() if k != "meta"}
    dump = report_dump(spec, report)
    # The engine field, and the spec hash in the provenance stamp, are
    # the only parts meant to differ between the engines.
    dump.pop("provenance")
    dump["spec"].pop("engine")
    return (
        [event.to_json() for event in canonical_events(list(sink.events))],
        json.dumps(dump, sort_keys=True),
        json.dumps(series, sort_keys=True),
    )


@pytest.mark.parametrize("name", sorted(BENCHMARK_SHAPED))
def test_benchmark_shaped_runs_agree_on_both_engines(name):
    spec = BENCHMARK_SHAPED[name]
    heap = _observed_run(spec.with_(engine="heap"))
    calendar = _observed_run(spec.with_(engine="calendar"))
    kinds = {json.loads(line)["kind"] for line in heap[0]}
    missing = BENCHMARK_KINDS[name] - kinds
    assert not missing, f"{name} no longer reaches {sorted(missing)}"
    for part, a, b in zip(("trace", "report", "telemetry"), heap, calendar):
        assert a == b, f"{name}: the engines disagree on the {part}"
