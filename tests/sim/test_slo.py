"""Unit + integration tests for the online SLO layer (sim/slo.py).

The golden byte-identity locks (inert spec, armed observation-only)
live in test_golden_traces.py; the randomized battery in
tests/properties/test_prop_slo.py.  This file covers the declarative
spec/parsers, the monitor's windowed semantics on hand-made events,
the offline trace evaluator against the committed chaos golden, the
cached windowed values against a fresh computation and the evaluation
rule against evaluating every objective (hypothesis), the replay
against the live monitor, the monitor's queue against the simulator's,
the report/telemetry integration, the tenant-tag round trip (satellite:
workload -> trace -> metrics -> report, pinned reports), and the
``repro slo`` / ``repro trend`` / ``repro analyze --tenant`` CLI exits.
"""

import itertools
import json
import math
import struct
import zlib
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.slo import (
    SLO_PRESETS,
    SLOMonitor,
    SLOObjective,
    SLOSpec,
    _STALE,
    _percentile,
    evaluate_trace,
    parse_objective,
    parse_slo,
)
from repro.sim.tracing import TraceEvent
from tests.sim.test_lifecycle_pins import SPECS as LIFECYCLE

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
CHAOS_GOLDEN = DATA_DIR / "golden_trace_chaos.jsonl"


def read_chaos_events():
    lines = CHAOS_GOLDEN.read_text(encoding="ascii").splitlines()
    return [TraceEvent.from_json(line) for line in lines]


class TestParseObjective:
    def test_latency_percentile(self):
        obj = parse_objective("latency-p95:2.5")
        assert obj.kind == "latency"
        assert obj.metric == "turnaround"
        assert obj.percentile == 95.0
        assert obj.target == 2.5
        assert obj.name == "turnaround-p95"

    def test_wait_percentile_with_window_and_tenant(self):
        obj = parse_objective("wait-p99:0.5:60:tenant2")
        assert obj.metric == "wait"
        assert obj.percentile == 99.0
        assert obj.window_s == 60.0
        assert obj.tenant == "tenant2"
        assert obj.name == "wait-p99@tenant2"

    def test_explicit_name(self):
        obj = parse_objective("gold=availability:0.99")
        assert obj.name == "gold"
        assert obj.kind == "availability"

    def test_queue_and_throughput(self):
        assert parse_objective("queue:64").kind == "queue-depth"
        assert parse_objective("throughput:1.5").kind == "throughput"

    @pytest.mark.parametrize("bad", [
        "latency-p95",            # no target
        "nope:1.0",               # unknown kind
        "latency-pXX:1.0",        # bad percentile
        "queue:abc",              # bad target
        "queue:1:2:3:4",          # too many fields
        "availability:2.0",       # target outside (0, 1]
        "latency-p95:1.0:-3",     # negative window
        "latency-p95:nan",        # non-finite target
        "latency-p95:2.0:nan",    # non-finite window
        "queue:64:inf",
        "throughput:inf",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_objective(bad)

    @pytest.mark.parametrize("field", ["target", "window_s", "burn_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_objective_fields_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SLOObjective("latency", **{"target": 1.0, field: value})


    @pytest.mark.parametrize("scope", [{"tenant": "tenant0"}, {"priority": 0}])
    def test_queue_depth_objective_cannot_be_scoped(self, scope):
        with pytest.raises(ValueError, match="queue-depth objective cannot be scoped"):
            SLOObjective("queue-depth", 5.0, **scope)


class TestParseSlo:
    def test_empty_is_none(self):
        assert parse_slo(None) is None
        assert parse_slo([]) is None

    def test_single_preset_name(self):
        assert parse_slo(["default"]) is SLO_PRESETS["default"]
        assert parse_slo(["strict"]) is SLO_PRESETS["strict"]

    def test_objective_list(self):
        spec = parse_slo(["latency-p95:2.0", "queue:16"])
        assert [o.kind for o in spec.objectives] == ["latency", "queue-depth"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_slo(["latency-p95:2.0", "latency-p95:3.0"])

    def test_presets_are_enabled_and_describable(self):
        for name, spec in SLO_PRESETS.items():
            assert spec.enabled, name
            described = spec.describe()
            assert described["objectives"], name
            json.dumps(described)  # JSON-safe


class HandFed:
    """A monitor fed hand-made events, in time order; no simulator."""

    def __init__(self, objectives):
        self.emitted = []
        self.monitor = SLOMonitor(
            SLOSpec(objectives=tuple(objectives)),
            emit=lambda t, kind, key, payload: self.emitted.append(
                (t, kind, payload)
            ),
        )
        self.keys = itertools.count()
        self.state = self.monitor._states[0]

    def event(self, t, kind, key=None, **payload):
        self.monitor.observe(t, kind, key, payload)

    def submit(self, t, **payload):
        key = next(self.keys)
        self.event(t, "submit", key, **payload)
        return key

    def task(self, submitted, done, **payload):
        """A task submitted at *submitted*, dispatched at once and
        complete at *done*."""
        key = self.submit(submitted, **payload)
        self.event(submitted, "dispatch", key)
        self.event(done, "complete", key)

    def kinds(self):
        return [kind for _, kind, _ in self.emitted]


class TestMonitorSemantics:
    def test_latency_breach_opens_and_closes(self):
        obj = SLOObjective("latency", 1.0, percentile=50.0, window_s=2.0)
        run = HandFed([obj])
        run.task(0.0, 5.0)  # p50 = 5 > 1: breach
        assert run.emitted == []  # the instant is evaluated after its last event
        # The bad sample leaves the 2 s window at t=7, an instant no
        # event marks; the first later event evaluates it there.
        run.task(7.9, 8.0)
        assert [
            (t, p["action"]) for t, k, p in run.emitted if k == "slo-breach"
        ] == [(5.0, "begin"), (7.0, "end")]
        run.monitor.finalize(9.0)
        (r,) = run.monitor.results(9.0)
        assert r.breach_count == 1
        assert r.breach_seconds == pytest.approx(2.0)
        assert r.attainment == pytest.approx(1 - 2.0 / 9.0)

    def test_tenant_scope_filters_observations(self):
        obj = SLOObjective("latency", 1.0, percentile=50.0, tenant="gold")
        run = HandFed([obj])
        run.task(0.0, 99.0, tenant="bronze")
        assert run.state.observations == 0  # filtered out
        run.task(99.0, 99.5, tenant="gold")
        assert run.state.observations == 1

    def test_throughput_cold_start_is_not_a_breach(self):
        obj = SLOObjective("throughput", 10.0, window_s=5.0)
        run = HandFed([obj])
        run.task(0.5, 1.0)
        run.submit(2.0)
        assert not run.state.in_breach  # now < window_s
        run.submit(6.0)
        # The window's first fill at t=5 is an evaluation instant.
        assert run.state.in_breach  # 1/5 s << 10/s
        assert run.emitted[0][:2] == (5.0, "slo-breach")

    def test_alert_fires_and_resolves_with_hysteresis(self):
        obj = SLOObjective("queue-depth", 1.0, window_s=2.0,
                           budget_fraction=0.05)
        run = HandFed([obj])
        queued = [run.submit(1.0) for _ in range(5)]  # breach opens
        # Let the breach burn >5% of both windows.
        queued.append(run.submit(2.0))
        run.event(2.5, "start")  # no input: only closes the instant
        assert "slo-alert-fire" in run.kinds()
        # Drain the queue; burn decays below threshold/2 -> resolve.
        for key in queued:
            run.event(2.5, "dispatch", key)
        run.submit(30.0)
        run.monitor.finalize(30.0)
        assert run.kinds().count("slo-alert-fire") == 1
        resolves = [p for _, k, p in run.emitted if k == "slo-alert-resolve"]
        assert len(resolves) == 1 and "reason" not in resolves[0]

    def test_finalize_closes_and_is_idempotent(self):
        obj = SLOObjective("queue-depth", 1.0, window_s=2.0)
        run = HandFed([obj])
        for _ in range(10):
            run.submit(1.0)
        run.submit(2.0)
        run.monitor.finalize(2.0)
        run.monitor.finalize(2.0)  # idempotent: no duplicate closes
        kinds = run.kinds()
        assert kinds.count("slo-breach") == 2  # one begin + one end
        assert kinds.count("slo-alert-fire") == kinds.count("slo-alert-resolve")
        resolves = [p for _, k, p in run.emitted if k == "slo-alert-resolve"]
        assert all(p.get("reason") == "horizon" for p in resolves)

    def test_results_bounded_and_violation_rule(self):
        obj = SLOObjective("queue-depth", 1.0, window_s=2.0,
                           budget_fraction=0.1)
        run = HandFed([obj])
        for _ in range(10):
            run.submit(0.0)  # breach from t=0
        results = run.monitor.finalize(10.0)
        assert results == run.monitor.results(10.0)
        (r,) = results
        assert r.attainment == pytest.approx(0.0)
        assert r.error_budget_remaining == pytest.approx(0.0)
        assert r.violated  # breach fraction 1.0 > budget 0.1
        assert 0.0 <= r.attainment <= 1.0
        assert 0.0 <= r.error_budget_remaining <= 1.0


TENANTS = ("", "gold")
OBSERVATIONS = st.one_of(
    st.tuples(
        st.just("completion"),
        st.sampled_from(TENANTS),
        st.one_of(st.none(), st.floats(0.0, 10.0)),
        st.floats(0.0, 10.0),
    ),
    st.tuples(st.just("error"), st.sampled_from(TENANTS)),
    st.tuples(st.just("queue"), st.integers(0, 50)),
)
#: (gap to the previous step, observation); repeated instants are common.
STEPS = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), OBSERVATIONS),
    max_size=60,
)
OBJECTIVES = (
    SLOObjective("latency", 1.0, percentile=95.0, window_s=2.0,
                 budget_fraction=0.2),
    SLOObjective("latency", 1.0, metric="wait", percentile=50.0,
                 window_s=5.0, tenant="gold"),
    SLOObjective("availability", 0.9, window_s=1.0, budget_fraction=0.2),
    SLOObjective("availability", 0.9, window_s=3.0, tenant="gold"),
    SLOObjective("throughput", 1.0, window_s=2.0),
    SLOObjective("queue-depth", 10.0, window_s=2.0, budget_fraction=0.2),
)


def stream(steps, start=10.0):
    """Time-ordered events that make *steps* happen from *start* on: a
    completion of the given wait and turnaround (submitted and
    dispatched before), a shed, or a queue depth (set by submitting or
    discarding tasks that never complete)."""
    keys = itertools.count()
    events = []
    queued = []
    now = start
    for gap, (kind, *args) in steps:
        now += gap
        key = next(keys)
        if kind == "completion":
            tenant, wait, turnaround = args
            submitted = now - turnaround
            events.append(TraceEvent(submitted, "submit", key, {"tenant": tenant}))
            if wait is not None:
                dispatched = submitted + min(wait, turnaround)
                events.append(TraceEvent(dispatched, "dispatch", key, {}))
            events.append(TraceEvent(now, "complete", key, {}))
        elif kind == "error":
            events.append(TraceEvent(now, "submit", key, {"tenant": args[0]}))
            events.append(TraceEvent(now, "shed", key, {}))
        else:
            while len(queued) < args[0]:
                queued.append(next(keys))
                events.append(TraceEvent(now, "submit", queued[-1], {}))
            while len(queued) > args[0]:
                events.append(TraceEvent(now, "discard", queued.pop(), {}))
    return sorted(events, key=lambda e: e.time)  # stable: a key's order holds


def feed(monitor, events) -> None:
    for event in events:
        monitor.observe(event.time, event.kind, event.key, event.payload)


class TestWindowValueCache:
    """Differential check of the cached windowed values: after every
    event, each latency and availability objective's cache holds what a
    fresh percentile or ok-ratio over its current samples gives."""

    @staticmethod
    def fresh(state):
        samples = state.samples
        if not samples:
            return None
        if state.obj.kind == "latency":
            return _percentile([v for _, v in samples], state.obj.percentile)
        return sum(1 for _, good in samples if good) / len(samples)

    @settings(max_examples=60, deadline=None)
    @given(queue_objective=st.booleans(), steps=STEPS)
    def test_cache_equals_a_fresh_computation(self, queue_objective, steps):
        objectives = OBJECTIVES if queue_objective else OBJECTIVES[:-1]
        monitor = SLOMonitor(SLOSpec(objectives=objectives))
        cached = [s for s in monitor._states
                  if s.obj.kind in ("latency", "availability")]
        for event in stream(steps):
            feed(monitor, [event])
            for state in cached:
                expected = self.fresh(state)
                if state.window_value is not _STALE:
                    assert state.window_value == expected
                assert state.current_value(event.time) == expected


class TestSortedLatencyWindow:
    """A latency window keeps its values sorted across adds and prunes,
    so its percentile is bit-equal to sorting the live samples again."""

    @staticmethod
    def bits(value):
        return None if value is None else struct.pack("<d", value)

    @settings(max_examples=100, deadline=None)
    @given(
        percentile=st.floats(0.0, 100.0, exclude_min=True, exclude_max=True),
        window=st.sampled_from([0.5, 1.0, 3.0]),
        stream=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),
                # Few distinct values: ties (and a signed zero) are the
                # cases a sorted window can get wrong.
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                st.booleans(),
            ),
            max_size=60,
        ),
    )
    def test_window_value_is_the_sorted_percentile(self, percentile, window, stream):
        from repro.sim.slo import _ObjectiveState

        state = _ObjectiveState(
            SLOObjective("latency", 1.0, percentile=percentile, window_s=window)
        )
        now = 0.0
        for gap, value, prune in stream:
            now += gap
            state.add((now, value))
            if prune:
                state._prune(now)
            live = [v for _, v in state.samples]
            assert state.ordered == sorted(live)
            expected = _percentile(sorted(live), percentile)
            assert self.bits(state.current_value(now)) == self.bits(expected)


class EveryObjective(SLOMonitor):
    """Evaluates every objective at each instant the monitor evaluates."""

    def _settle(self, now):
        moved = self._queue_states and len(self._queued) != self._depth
        if moved or self._dirty or self._due <= now:
            for state in self._states:
                state.dirty = True
            self._dirty = True
        super()._settle(now)


def outcome(monitor, events, horizon):
    emitted = []
    monitor.emit = lambda t, kind, key, payload: emitted.append((t, kind, payload))
    feed(monitor, events)
    results = monitor.finalize(horizon)
    return emitted, [r.to_json() for r in results]


class TestEvaluationRule:
    """An objective is evaluated only where its inputs changed, a sample
    left its window, or it is in breach or alerting; the events that
    change none of that make no difference."""

    @settings(max_examples=60, deadline=None)
    @given(steps=STEPS, tail=st.floats(0.0, 12.0))
    def test_skipping_clean_objectives_changes_nothing(self, steps, tail):
        events = stream(steps)
        horizon = max([10.0, *(e.time for e in events)]) + tail
        runs = [
            outcome(monitor(SLOSpec(objectives=OBJECTIVES)), events, horizon)
            for monitor in (SLOMonitor, EveryObjective)
        ]
        assert runs[0] == runs[1]

    @settings(max_examples=60, deadline=None)
    @given(
        steps=STEPS,
        others=st.lists(
            st.tuples(st.floats(10.0, 60.0),
                      st.sampled_from(["start", "slice-alloc", "reconfigure",
                                       "fault", "brownout", "slo-breach"])),
            max_size=20,
        ),
    )
    def test_events_that_are_no_inputs_change_nothing(self, steps, others):
        events = stream(steps)
        noisy = sorted(
            [*events, *(TraceEvent(t, kind, None, {}) for t, kind in others)],
            key=lambda e: e.time,
        )
        horizon = max(e.time for e in noisy) if noisy else 10.0
        runs = [
            outcome(SLOMonitor(SLOSpec(objectives=OBJECTIVES)), trace, horizon)
            for trace in (events, noisy)
        ]
        assert runs[0] == runs[1]


class TestEvaluateTraceChaosGolden:
    """Offline evaluation against the committed chaos golden."""

    def test_permissive_objective_holds(self):
        results, emitted = evaluate_trace(
            read_chaos_events(), parse_slo(["latency-p95:1000"])
        )
        (r,) = results
        assert not r.violated
        assert r.attainment == 1.0
        assert r.observations > 0
        assert emitted == []

    def test_tight_objective_is_violated_with_paired_alerts(self):
        results, emitted = evaluate_trace(
            read_chaos_events(),
            parse_slo(["latency-p95:0.05:5"]),
        )
        (r,) = results
        assert r.violated
        assert r.breach_count >= 1
        assert r.breach_seconds > 0
        kinds = [k for _, k, _ in emitted]
        assert kinds.count("slo-alert-fire") == kinds.count(
            "slo-alert-resolve"
        ) == r.alerts_fired == r.alerts_resolved
        begins = sum(
            1 for _, k, p in emitted
            if k == "slo-breach" and p.get("action") == "begin"
        )
        ends = sum(
            1 for _, k, p in emitted
            if k == "slo-breach" and p.get("action") == "end"
        )
        assert begins == ends == r.breach_count

    def test_emitted_events_are_time_ordered(self):
        _, emitted = evaluate_trace(
            read_chaos_events(), parse_slo(["latency-p95:0.05:5", "queue:0"])
        )
        times = [t for t, _, _ in emitted]
        assert times == sorted(times)


class TestEvaluateTraceRetries:
    def test_wait_runs_to_the_latest_dispatch(self):
        """A retried task waits until the dispatch that completed it,
        as the live monitor and the metrics collector count it."""
        events = [
            TraceEvent(t, kind, 0, {})
            for t, kind in ((0.0, "submit"), (1.0, "dispatch"), (2.0, "fault"),
                            (3.0, "retry"), (4.0, "dispatch"), (5.0, "complete"))
        ]
        (r,), emitted = evaluate_trace(events, parse_slo(["wait-p95:2:10"]))
        assert r.observations == 1
        assert r.breach_count == 1
        assert emitted[0][1] == "slo-breach" and emitted[0][2]["value"] == 4.0


ARMED_SPEC_OBJECTIVES = (
    SLOObjective("latency", 0.5, percentile=95.0, window_s=5.0),
    SLOObjective("availability", 0.999, window_s=5.0),
    SLOObjective("queue-depth", 2.0, window_s=5.0),
    SLOObjective("latency", 0.5, percentile=90.0, window_s=5.0,
                 tenant="tenant0"),
)


def chaos_tenant_spec(engine="heap"):
    """Three tenants under crashes, configuration faults and SEUs;
    *engine* defaults to the heap oracle, not the spec's default."""
    from repro.sim.experiment import ExperimentSpec
    from repro.sim.faults import FaultSpec

    return ExperimentSpec(
        tasks=40, configurations=4, arrival_rate_per_s=8.0,
        area_range=(2_000, 14_000), gpp_fraction=0.2, seed=7,
        engine=engine, tenants=3,
        faults=FaultSpec(
            crash_rate_per_s=0.25, downtime_range_s=(1.0, 3.0),
            config_fault_prob=0.35, seu_rate_per_s=0.2, horizon_s=8.0,
        ),
    )


def flash_crowd_spec(seed=2, tasks=400):
    """A 4x surge with a queue-depth objective the surge breaches.  A
    bounded queue and a brownout controller are armed, but at the
    default seed the queue never holds 128 deep for the brownout's
    dwell: the stage stays 0 (``brownout_max_stage == 0``)."""
    from repro.sim.admission import AdmissionSpec, BrownoutSpec, QueueBoundSpec
    from repro.sim.experiment import ExperimentSpec, NodeSpec

    return ExperimentSpec(
        tasks=tasks,
        nodes=(
            NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",),
                     regions_per_rpe=3),
            NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",),
                     regions_per_rpe=2),
        ),
        gpp_fraction=0.4,
        seed=seed,
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


def backpressure_spec():
    """The flash crowd against the deferring queue bound instead of
    brownout: parked submissions are re-offered and deferred again, and
    a 48-deep queue objective sits under the 64-deep bound."""
    from repro.sim.admission import ADMISSION_PRESETS

    spec = flash_crowd_spec()
    objectives = tuple(
        SLOObjective("queue-depth", 48.0, window_s=10.0)
        if o.kind == "queue-depth" else o
        for o in spec.slo.objectives
    )
    return spec.with_(admission=ADMISSION_PRESETS["backpressure"],
                      slo=SLOSpec(objectives=objectives))


def traced_run(spec):
    """Run *spec* under an in-memory tracer: (simulator, events)."""
    from repro.sim.experiment import _build
    from repro.sim.tracing import InMemorySink, Tracer

    sink = InMemorySink()
    sim, workload = _build(spec, tracer=Tracer(sink))
    sim.submit_workload_columns(workload.generate_columns())
    sim.run()
    return sim, list(sink.events)


#: The flags of the CI step that compares runs with and without a tracer.
CI_FLAGS = (
    "simulate --tasks 200 --seed 5 --faults chaos --breaker "
    "--checkpoint-interval 0.25 --deadlines 4:12 --admission brownout "
    "--failover replicated --slo default --tenants 3 --low-priority 0.3"
).split()

#: The SLO-armed scenarios whose live monitor the replay must equal.
SCENARIOS = {
    "chaos": lambda: chaos_tenant_spec().with_(
        slo=SLOSpec(objectives=ARMED_SPEC_OBJECTIVES)),
    "flash-crowd": flash_crowd_spec,
    "backpressure": backpressure_spec,
    "lifecycle-flash": lambda: LIFECYCLE["flash"],
    "lifecycle-churn": lambda: LIFECYCLE["churn"],
}


def assert_live_equals_replay(sim, events, slo) -> None:
    """The replay of *events* gives the live monitor's results, and its
    ``slo-*`` events at the same times with the same payloads."""
    results, emitted = evaluate_trace(events, slo)
    live = sim.slo.results(sim.engine.now)
    assert [asdict(r) for r in results] == [asdict(r) for r in live]
    assert emitted == [
        (e.time, e.kind, e.payload) for e in events if e.kind.startswith("slo-")
    ]
    assert any(r.breach_count for r in live)  # there is something to compare


class TestReplayMatchesLive:
    """``evaluate_trace`` over a run's trace gives the live monitor's
    results and ``slo-*`` events exactly: both fold the same stream."""

    @pytest.mark.parametrize("engine", ["heap", "calendar"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_live_equals_replay(self, scenario, engine):
        spec = SCENARIOS[scenario]().with_(engine=engine)
        sim, events = traced_run(spec)
        if scenario == "backpressure":
            # Re-offered submissions are deferred again.
            assert any(e.kind == "defer" and e.payload["attempt"] > 1 for e in events)
        assert_live_equals_replay(sim, events, spec.slo)

    @pytest.mark.parametrize("engine", ["heap", "calendar"])
    def test_ci_flags(self, engine, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.sim.simulator import DReAMSim
        from repro.sim.tracing import read_jsonl

        sims = []
        run = DReAMSim.run

        def capture(self, *args, **kwargs):
            sims.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(DReAMSim, "run", capture)
        trace = tmp_path / "run.jsonl"
        assert main([*CI_FLAGS, "--engine", engine, "--trace", str(trace)]) == 0
        capsys.readouterr()
        (sim,) = sims
        assert_live_equals_replay(sim, read_jsonl(trace), SLO_PRESETS["default"])

    @pytest.mark.parametrize("scenario", ["chaos", "lifecycle-churn"])
    def test_a_tracer_changes_no_slo_field(self, scenario):
        """A tracer and a registry turn on events that are no inputs
        (``slice-alloc``, ``slice-free``, ``reconfigure``)."""
        from repro.sim.experiment import run_experiment
        from repro.sim.telemetry import TelemetryRegistry
        from repro.sim.tracing import InMemorySink, Tracer

        def slo_fields(report):
            return {k: v for k, v in asdict(report).items() if k.startswith("slo_")}

        spec = SCENARIOS[scenario]()
        bare = run_experiment(spec).report
        observed = run_experiment(
            spec, tracer=Tracer(InMemorySink()), telemetry=TelemetryRegistry()
        ).report
        assert bare.slo_breaches > 0
        assert slo_fields(bare) == slo_fields(observed)


class TestQueueMembership:
    """The monitor rebuilds the pending queue from events; after every
    dispatch pass its depth is the simulator's own queue length."""

    @pytest.mark.parametrize("scenario", ["lifecycle-chaos", "backpressure"])
    def test_monitor_depth_is_the_pending_queue(self, scenario, monkeypatch):
        from repro.sim.experiment import _build
        from repro.sim.simulator import DReAMSim

        spec = {
            # Failover with orphans that recovery puts back in the queue.
            "lifecycle-chaos": lambda: LIFECYCLE["chaos"].with_(
                slo=SLO_PRESETS["strict"]),
            "backpressure": backpressure_spec,
        }[scenario]()
        depths = []
        dispatch = DReAMSim._dispatch_pending

        def checked(self):
            dispatch(self)
            depths.append((len(self.slo._queued), len(self.pending)))

        monkeypatch.setattr(DReAMSim, "_dispatch_pending", checked)
        sim, workload = _build(spec)
        sim.submit_workload_columns(workload.generate_columns())
        sim.run()
        assert any(queued for queued, _ in depths)
        assert all(queued == pending for queued, pending in depths)


class TestSimulatorIntegration:
    def test_report_and_telemetry_carry_slo_results(self):
        from repro.sim.experiment import run_experiment
        from repro.sim.telemetry import TelemetryRegistry

        spec = chaos_tenant_spec().with_(
            slo=SLOSpec(objectives=ARMED_SPEC_OBJECTIVES)
        )
        telemetry = TelemetryRegistry()
        report = run_experiment(spec, telemetry=telemetry).report
        assert report.slo_objectives == len(ARMED_SPEC_OBJECTIVES)
        names = {o.name for o in ARMED_SPEC_OBJECTIVES}
        assert set(report.slo_attainment) == names
        assert set(report.slo_error_budget_remaining) == names
        assert set(report.slo_breach_seconds) == names
        for value in report.slo_attainment.values():
            assert 0.0 <= value <= 1.0
        assert set(report.slo_violated) <= names
        # Gauges published per objective.
        for gauge in ("slo_attainment", "slo_error_budget_remaining",
                      "slo_breach_seconds"):
            labels = {
                s.labels.get("objective") for s in telemetry.series(gauge)
            }
            assert labels == names, gauge
        # Telemetry meta + summary surface the armed contract.
        assert telemetry.meta["slo"] == spec.slo.describe()
        lines = "\n".join(report.summary_lines())
        assert "SLO" in lines and "attainment" in lines

    def test_unarmed_report_has_empty_slo_fields(self):
        from repro.sim.experiment import run_experiment

        report = run_experiment(chaos_tenant_spec()).report
        assert report.slo_objectives == 0
        assert report.slo_attainment == {}
        assert report.slo_violated == []

    def test_provenance_stamps_armed_slo(self):
        from repro.provenance import run_provenance

        spec = chaos_tenant_spec().with_(
            slo=SLOSpec(objectives=ARMED_SPEC_OBJECTIVES)
        )
        stamp = run_provenance(spec)
        assert stamp["slo"] == spec.slo.describe()
        assert "slo" not in run_provenance(chaos_tenant_spec())


class TestTenantRoundTrip:
    """Satellite lock: workload tenant tags must round-trip through the
    trace (``extra['tenant']`` on submit), the metrics collector, and
    the per-tenant report section -- on both engines, under faults,
    with a pinned report."""

    @pytest.mark.parametrize("engine", ["heap", "calendar"])
    def test_tenants_flow_from_workload_to_trace_and_report(self, engine):
        from repro.sim.experiment import run_experiment
        from repro.sim.tracing import InMemorySink, TraceInvariantChecker, Tracer

        sink = InMemorySink()
        report = run_experiment(
            chaos_tenant_spec(engine),
            tracer=Tracer(TraceInvariantChecker(), sink),
        ).report
        tags = {
            e.payload["tenant"] for e in sink.events
            if e.kind == "submit" and "tenant" in e.payload
        }
        assert tags == {"tenant0", "tenant1", "tenant2"}
        assert set(report.per_tenant) == tags
        # Every task is attributed to exactly one tenant.
        total = sum(
            row["completed"] + row["shed"] + row["failed"]
            for row in report.per_tenant.values()
        )
        assert total == report.completed + report.failed + report.shed
        for row in report.per_tenant.values():
            assert row["p95_wait_s"] >= 0.0
            assert row["p99_turnaround_s"] >= row["p50_turnaround_s"] >= 0.0
        lines = "\n".join(report.summary_lines())
        for tag in sorted(tags):
            assert tag in lines

    @pytest.mark.parametrize(
        "objectives, pinned_crc",
        [
            (ARMED_SPEC_OBJECTIVES, "8ee838d5"),
            # The live monitor's wait samples: dispatch - arrival, from
            # the latest dispatch after a retry.
            ((parse_objective("wait-p95:0.2:5"),
              parse_objective("wait-p90:0.2:5:tenant1")), "986651d0"),
        ],
        ids=["armed", "wait"],
    )
    def test_tenant_report_is_pinned(self, objectives, pinned_crc):
        """CRC-32 over every report field, sorted by name."""
        from repro.sim.experiment import run_experiment

        for engine in ("heap", "calendar"):
            spec = chaos_tenant_spec(engine).with_(slo=SLOSpec(objectives=objectives))
            report = run_experiment(spec).report
            assert list(report.per_tenant) == ["tenant0", "tenant1", "tenant2"]
            assert report.slo_breaches > 0
            text = json.dumps(asdict(report), sort_keys=True)
            assert f"{zlib.crc32(text.encode()):08x}" == pinned_crc, engine

    def test_untagged_run_has_no_per_tenant_section(self):
        from repro.sim.experiment import run_experiment

        report = run_experiment(chaos_tenant_spec().with_(tenants=1)).report
        assert report.per_tenant == {}


class TestCli:
    def test_slo_trace_mode_permissive_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["slo", str(CHAOS_GOLDEN), "-o", "latency-p95:1000"]) == 0
        out = capsys.readouterr().out
        assert "attainment" in out and "ok" in out

    def test_slo_trace_mode_violated_exits_one(self, capsys):
        from repro.cli import main

        assert main(["slo", str(CHAOS_GOLDEN), "-o", "latency-p95:0.05:5"]) == 1
        captured = capsys.readouterr()
        assert "VIOLATED" in captured.out
        assert "objectives violated" in captured.err

    def test_slo_trace_mode_loads_no_numpy(self, tmp_path):
        """Replaying a trace builds no spec, so nothing imports the
        simulator, and numpy with it -- also where ``--json`` stamps
        the result with its provenance."""
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = tmp_path / "slo.json"
        for extra in ([], ["--json", str(out)]):
            code = (
                "import sys; from repro.cli import main; "
                f"main(['slo', {str(CHAOS_GOLDEN)!r}, '-o', 'latency-p95:1000', "
                f"*{extra!r}]); "
                "print('numpy' in sys.modules)"
            )
            done = subprocess.run([sys.executable, "-c", code], check=True,
                                  capture_output=True, text=True, env=env)
            assert done.stdout.splitlines()[-1] == "False", extra
        import numpy

        stamp = json.loads(out.read_text())["provenance"]
        assert stamp["numpy"] == numpy.__version__

    @pytest.mark.parametrize("flag", [["--strategy", "bogus"], ["--seed", "3"]])
    def test_slo_trace_mode_refuses_live_flags(self, flag, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["slo", str(CHAOS_GOLDEN), "-o", "latency-p95:1000", *flag])
        assert exc.value.code == 2
        assert "applies to a live run only" in capsys.readouterr().err

    def test_slo_unreadable_trace_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["slo", str(tmp_path / "missing.jsonl"),
                     "-o", "queue:1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_slo_bad_objective_exits_two(self, capsys):
        from repro.cli import main

        assert main(["slo", str(CHAOS_GOLDEN), "-o", "bogus:1"]) == 2
        assert "unknown objective kind" in capsys.readouterr().err

    def test_slo_scoped_queue_objective_exits_two(self, capsys):
        from repro.cli import main

        argv = ["slo", "-o", "queue:1:5:tenant9", "--tasks", "60",
                "--tenants", "3", "--rate", "4"]
        assert main(argv) == 2
        assert "cannot be scoped" in capsys.readouterr().err

    def test_simulate_scoped_queue_objective_exits_two(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tasks", "10", "--slo", "queue:1:5:tenant9"])
        assert exc.value.code == 2
        assert "cannot be scoped" in capsys.readouterr().err

    def test_slo_live_mode_writes_diffable_artifact(self, tmp_path, capsys):
        from repro.bench.diff import diff_artifacts
        from repro.cli import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["slo", "--tasks", "30", "--tenants", "2",
                "-o", "latency-p95:1000", "--json"]
        assert main(argv + [str(a)]) == 0
        capsys.readouterr()
        assert main(argv + [str(b)]) == 0
        capsys.readouterr()
        document = json.loads(a.read_text())
        assert document["kind"] == "slo-eval"
        assert "spec_hash" in document["provenance"]
        verdict = diff_artifacts(a, b)
        assert verdict.exit_code == 0
        assert verdict.flavor == "slo"

    def test_analyze_tenant_filter(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        assert main(["simulate", "--tasks", "30", "--tenants", "3",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(trace), "--tenant", "tenant1"]) == 0
        filtered = capsys.readouterr().out
        assert main(["analyze", str(trace)]) == 0
        unfiltered = capsys.readouterr().out

        def analyzed(text):
            for line in text.splitlines():
                if line.startswith("tasks analyzed"):
                    return int(line.split()[2])
            raise AssertionError("no 'tasks analyzed' line")

        assert 0 < analyzed(filtered) < analyzed(unfiltered)

    def test_trend_flags_attainment_regression(self, tmp_path, capsys):
        from repro.cli import main

        def snapshot(stem, attainment):
            (tmp_path / f"BENCH_{stem}.json").write_text(json.dumps({
                "format": 1, "kind": "bench-suite", "mode": "quick",
                "cases": [{
                    "name": "sim-slo",
                    "metrics": {"attainment:turnaround-p95": attainment},
                }],
            }))

        snapshot("20260101T000000Z", 0.95)
        snapshot("20260102T000000Z", 0.80)
        assert main(["trend", "--dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "trajectory regressions" in captured.err
        # A recovering trajectory is healthy.
        snapshot("20260103T000000Z", 0.95)
        assert main(["trend", "--dir", str(tmp_path)]) == 0

    def test_trend_on_committed_snapshots(self, capsys):
        from repro.cli import main

        assert main(["trend"]) == 0
        assert "snapshots" in capsys.readouterr().out
