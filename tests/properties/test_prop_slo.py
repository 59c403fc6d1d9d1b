"""Property-based battery for the online SLO monitor.

Randomized objective bundles (all four kinds, tenant/priority scopes,
random windows and budgets) run against randomized admission policies
and fault schedules on both event engines.  Three invariants:

* **Pairing** -- every ``slo-alert-fire`` has a matching resolve and
  every ``slo-breach`` begin a matching end in the finalized trace
  (checked both by counting and by the online checker's
  ``assert_slo_closed``), and the report's counters agree with the
  event stream exactly.
* **Bounded results** -- attainment and error-budget-remaining are in
  ``[0, 1]``, breach seconds are non-negative and never exceed the
  simulated horizon.
* **Observation-only** -- stripping ``slo-*`` events from an armed
  run's canonical trace reproduces the unarmed run byte-for-byte, and
  the two engines agree on the armed trace byte-for-byte (alert
  timing depends on event order, so this is a real behavioral lock).
"""

from hypothesis import given, settings, strategies as st

from repro.sim.admission import AdmissionSpec, BrownoutSpec, QueueBoundSpec
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.faults import FaultSpec
from repro.sim.slo import OBJECTIVE_KINDS, SLOObjective, SLOSpec
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
)

SLO_KINDS = frozenset({"slo-breach", "slo-alert-fire", "slo-alert-resolve"})


@st.composite
def slo_specs(draw):
    count = draw(st.integers(1, 4))
    objectives = []
    for i in range(count):
        kind = draw(st.sampled_from(OBJECTIVE_KINDS))
        target = draw({
            "latency": st.floats(0.05, 5.0),
            "throughput": st.floats(0.1, 20.0),
            "availability": st.floats(0.5, 1.0),
            "queue-depth": st.floats(0.0, 16.0),
        }[kind])
        # The queue is one shared resource: a queue-depth objective
        # has no scope.
        scoped = kind != "queue-depth"
        objectives.append(SLOObjective(
            kind, target, name=f"obj{i}",
            metric=draw(st.sampled_from(("turnaround", "wait"))),
            percentile=draw(st.floats(50.0, 99.0)),
            window_s=draw(st.floats(0.5, 20.0)),
            tenant=draw(st.sampled_from(("", "tenant0", "tenant1"))) if scoped else "",
            priority=draw(st.sampled_from((None, 0, 1))) if scoped else None,
            budget_fraction=draw(st.floats(0.01, 0.5)),
            burn_threshold=draw(st.floats(0.5, 2.0)),
        ))
    return SLOSpec(objectives=tuple(objectives))


admission_specs = st.one_of(
    st.none(),
    st.builds(
        AdmissionSpec,
        queue=st.one_of(st.none(), st.builds(
            QueueBoundSpec, max_pending=st.integers(1, 12),
        )),
        brownout=st.one_of(st.none(), st.builds(
            BrownoutSpec,
            enter_pending=st.integers(8, 20),
            exit_pending=st.integers(0, 7),
            dwell_s=st.floats(0.1, 1.5),
        )),
    ),
)

fault_specs = st.one_of(
    st.none(),
    st.builds(
        FaultSpec,
        crash_rate_per_s=st.floats(0.0, 0.08),
        downtime_range_s=st.just((2.0, 8.0)),
        config_fault_prob=st.floats(0.0, 0.4),
        seu_rate_per_s=st.floats(0.0, 0.1),
        horizon_s=st.just(40.0),
    ),
)


def run_monitored(slo, admission, faults, seed, tasks, engine):
    """One seeded bursty multi-tenant run with the monitor armed;
    returns (report, checker, raw events)."""
    spec = ExperimentSpec(
        tasks=tasks, configurations=4, arrival_rate_per_s=8.0,
        area_range=(2_000, 14_000), gpp_fraction=0.3, seed=seed,
        engine=engine, tenants=3, low_priority_fraction=0.3,
        faults=faults, admission=admission, slo=slo,
    )
    checker = TraceInvariantChecker()
    sink = InMemorySink()
    report = run_experiment(spec, tracer=Tracer(checker, sink)).report
    return report, checker, list(sink.events)


def canonical_lines(events, *, strip_slo=False):
    events = canonical_events(list(events))
    if strip_slo:
        events = [e for e in events if e.kind not in SLO_KINDS]
    return [e.to_json() for e in events]


@given(
    slo=slo_specs(),
    admission=admission_specs,
    faults=fault_specs,
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(1, 20),
    engine=st.sampled_from(["heap", "calendar"]),
)
@settings(max_examples=20, deadline=None)
def test_alert_pairing_and_bounded_results(
    slo, admission, faults, seed, tasks, engine
):
    report, checker, events = run_monitored(
        slo, admission, faults, seed, tasks, engine
    )
    # The online checker's closure invariant after finalize.
    checker.assert_slo_closed()
    # Per-objective pairing, recounted independently from the stream.
    for obj in slo.objectives:
        mine = [e for e in events if e.kind in SLO_KINDS
                and e.payload.get("objective") == obj.name]
        begins = sum(1 for e in mine if e.kind == "slo-breach"
                     and e.payload.get("action") == "begin")
        ends = sum(1 for e in mine if e.kind == "slo-breach"
                   and e.payload.get("action") == "end")
        fires = sum(1 for e in mine if e.kind == "slo-alert-fire")
        resolves = sum(1 for e in mine if e.kind == "slo-alert-resolve")
        assert begins == ends, obj.name
        assert fires == resolves, obj.name
    # Report counters agree with the event stream exactly.
    assert report.slo_objectives == len(slo.objectives)
    assert report.slo_breaches == sum(
        1 for e in events if e.kind == "slo-breach"
        and e.payload.get("action") == "begin"
    )
    assert report.slo_alerts_fired == sum(
        1 for e in events if e.kind == "slo-alert-fire"
    )
    assert report.slo_alerts_resolved == report.slo_alerts_fired
    # Bounded results for every objective.
    names = {o.name for o in slo.objectives}
    assert set(report.slo_attainment) == names
    for name in names:
        assert 0.0 <= report.slo_attainment[name] <= 1.0
        assert 0.0 <= report.slo_error_budget_remaining[name] <= 1.0
        assert 0.0 <= report.slo_breach_seconds[name] <= report.horizon_s + 1e-9
    assert set(report.slo_violated) <= names


@given(
    slo=slo_specs(),
    admission=admission_specs,
    faults=fault_specs,
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_armed_monitor_is_observation_only(slo, admission, faults, seed):
    """Stripping slo-* events from the armed trace reproduces the
    unarmed run byte-for-byte: the monitor never perturbs simulated
    behavior, whatever is armed alongside it."""
    *_, armed = run_monitored(slo, admission, faults, seed, 12, "heap")
    *_, unarmed = run_monitored(None, admission, faults, seed, 12, "heap")
    assert canonical_lines(armed, strip_slo=True) == canonical_lines(unarmed)


@given(
    slo=slo_specs(),
    admission=admission_specs,
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_engines_agree_on_armed_traces(slo, admission, seed):
    """The calendar engine must replay the heap engine's armed run
    byte-for-byte *including* the slo-* events -- breach and alert
    timing depend on observation order, so agreement here proves the
    monitor sees the identical event sequence on both engines."""
    *_, heap = run_monitored(slo, admission, None, seed, 12, "heap")
    *_, calendar = run_monitored(slo, admission, None, seed, 12, "calendar")
    assert canonical_lines(heap) == canonical_lines(calendar)
