"""Golden-trace regression lock.

Small JSONL traces for one FCFS and one hybrid-cost scenario are
committed under ``tests/data/``; seeded reruns must reproduce them
byte-for-byte.  This pins the *entire* simulation pipeline -- workload
generation, matchmaking, the cost model, scheduler tie-breaking, the
event engine's ordering, and the trace serialization itself.  Any
future PR that changes simulated behaviour (even a reordering of
simultaneous events) trips these tests and must regenerate the goldens
deliberately::

    PYTHONPATH=src python tests/sim/test_golden_traces.py --write

Traces are canonicalized (dense job ids) before comparison, so they
are independent of process history and test execution order.
"""

import sys
from pathlib import Path

import pytest

from repro.grid.health import HealthPolicy
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.faults import FaultSpec
from repro.sim.resilience import CheckpointSpec, DeadlineSpec, ResilienceSpec, SpeculationSpec
from repro.sim.tracing import (
    InMemorySink,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
    verify_trace,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

#: One small, contended scenario (both strategies share it).  The high
#: arrival rate forces queueing so fcfs and hybrid-cost actually make
#: different placement decisions and the two goldens differ.
SPEC = ExperimentSpec(
    tasks=14,
    configurations=4,
    arrival_rate_per_s=8.0,
    area_range=(2_000, 14_000),
    gpp_fraction=0.2,
    seed=0,
)

#: The same scenario under an aggressive seeded fault schedule: a node
#: crash with rejoin, certain-to-fire configuration faults, and a hot
#: SEU hazard.  Locks the crash-recovery path -- fault, backoff, retry,
#: re-placement with node exclusion, and GPP fallback -- byte for byte.
#: Seed 7 is the first seed from 0 whose trace exercises the fallback.
CHAOS_SPEC = SPEC.with_(
    seed=7,
    faults=FaultSpec(
        crash_rate_per_s=0.25,
        downtime_range_s=(1.0, 3.0),
        config_fault_prob=0.35,
        seu_rate_per_s=0.2,
        horizon_s=8.0,
    ),
)

#: The chaos scenario with the full adaptive resilience layer armed:
#: tight deadlines (so the watchdog requeues and fails tasks), dense
#: checkpoints (so a fault resumes from a snapshot and migrates), and a
#: twitchy breaker (so the crashing node gets quarantined and probed).
#: Seed 16 is the first seed from 11 whose trace exercises quarantine,
#: probe, timeout, checkpoint, and migrate events in one file.
RESILIENCE_SPEC = CHAOS_SPEC.with_(
    seed=16,
    resilience=ResilienceSpec(
        breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=4.0),
        deadlines=DeadlineSpec(soft_factor=2.0, hard_factor=6.0, slack_s=0.25),
        checkpoint=CheckpointSpec(interval_s=0.1),
        speculation=SpeculationSpec(slowdown_factor=1.5),
    ),
)

#: The locked scenarios: name -> (spec, golden file).
GOLDEN = {
    "fcfs": (SPEC.with_(strategy="fcfs"), "golden_trace_fcfs.jsonl"),
    "hybrid-cost": (SPEC, "golden_trace_hybrid.jsonl"),
    "chaos": (CHAOS_SPEC, "golden_trace_chaos.jsonl"),
    "resilience": (RESILIENCE_SPEC, "golden_trace_resilience.jsonl"),
}


def generate_trace_lines(name: str, *, engine: str = "heap") -> list[str]:
    """Run the locked scenario and return canonical JSONL lines.

    The default is the heap oracle, not the simulator's calendar
    default, so the tests that name ``engine="calendar"`` compare the
    two engines."""
    spec, _ = GOLDEN[name]
    sink = InMemorySink()
    tracer = Tracer(TraceInvariantChecker(), sink)
    run_experiment(spec.with_(engine=engine), tracer=tracer)
    events = canonical_events(list(sink.events))
    return [event.to_json() for event in events]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_rerun_reproduces_golden_trace(name):
    golden_path = DATA_DIR / GOLDEN[name][1]
    golden = golden_path.read_text(encoding="ascii").splitlines()
    fresh = generate_trace_lines(name)
    assert fresh == golden, (
        f"{name} trace diverged from {golden_path.name}; if the "
        "behaviour change is intentional, regenerate with "
        "`python tests/sim/test_golden_traces.py --write`"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_calendar_engine_reproduces_golden_trace_byte_identically(name):
    """The engine-swap lock: the calendar queue must replay every
    committed golden byte-for-byte.  The goldens pin the full event
    *order* (simultaneous events included), so this proves the two
    engines are behaviorally indistinguishable on real scenarios --
    workload, scheduling, faults, and the resilience layer."""
    golden_path = DATA_DIR / GOLDEN[name][1]
    golden = golden_path.read_text(encoding="ascii").splitlines()
    fresh = generate_trace_lines(name, engine="calendar")
    assert fresh == golden, (
        f"{name}: calendar-queue engine diverged from {golden_path.name}; "
        "the engines must be byte-identical"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_inert_admission_spec_reproduces_golden_trace_byte_identically(name):
    """The zero-cost-when-disabled lock for overload protection: an
    explicit all-``None`` :class:`AdmissionSpec` must take the exact
    pre-admission code paths on every golden scenario -- no extra
    events, no reordering, byte for byte."""
    from repro.sim.admission import AdmissionSpec

    spec, filename = GOLDEN[name]
    golden = (DATA_DIR / filename).read_text(encoding="ascii").splitlines()
    sink = InMemorySink()
    run_experiment(
        spec.with_(admission=AdmissionSpec()),
        tracer=Tracer(TraceInvariantChecker(), sink),
    )
    fresh = [e.to_json() for e in canonical_events(list(sink.events))]
    assert fresh == golden, (
        f"{name}: an inert AdmissionSpec changed the trace; the "
        "admission layer must be zero-cost when disabled"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_inert_failover_spec_reproduces_golden_trace_byte_identically(name):
    """The zero-cost-when-disabled lock for control-plane fault
    tolerance: a :class:`FailoverSpec` with no heartbeat and no
    standbys must take the exact pre-failover code paths on every
    golden scenario -- no ticks, no extra events, byte for byte."""
    from repro.sim.failover import FailoverSpec

    spec, filename = GOLDEN[name]
    golden = (DATA_DIR / filename).read_text(encoding="ascii").splitlines()
    sink = InMemorySink()
    run_experiment(
        spec.with_(failover=FailoverSpec()),
        tracer=Tracer(TraceInvariantChecker(), sink),
    )
    fresh = [e.to_json() for e in canonical_events(list(sink.events))]
    assert fresh == golden, (
        f"{name}: an inert FailoverSpec changed the trace; the "
        "failover layer must be zero-cost when disabled"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_inert_slo_spec_reproduces_golden_trace_byte_identically(name):
    """The zero-cost-when-disabled lock for SLO monitoring: an empty
    :class:`SLOSpec` (no objectives) must take the exact pre-SLO code
    paths on every golden scenario -- no extra events, no reordering,
    byte for byte."""
    from repro.sim.slo import SLOSpec

    spec, filename = GOLDEN[name]
    golden = (DATA_DIR / filename).read_text(encoding="ascii").splitlines()
    sink = InMemorySink()
    run_experiment(
        spec.with_(slo=SLOSpec()),
        tracer=Tracer(TraceInvariantChecker(), sink),
    )
    fresh = [e.to_json() for e in canonical_events(list(sink.events))]
    assert fresh == golden, (
        f"{name}: an inert SLOSpec changed the trace; the SLO layer "
        "must be zero-cost when disabled"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("engine", ["heap", "calendar"])
def test_armed_slo_monitor_is_observation_only(name, engine):
    """The observation-only lock: arming the monitor with aggressive
    objectives may only *add* ``slo-*`` events.  Stripping those from
    the armed trace must reproduce the committed golden byte for byte
    on both engines -- the monitor never schedules events, never draws
    randomness, never perturbs simulated state."""
    from repro.sim.slo import SLOObjective, SLOSpec

    spec, filename = GOLDEN[name]
    golden = (DATA_DIR / filename).read_text(encoding="ascii").splitlines()
    armed = spec.with_(engine=engine, slo=SLOSpec(objectives=(
        SLOObjective("latency", 0.05, percentile=95.0, window_s=2.0),
        SLOObjective("availability", 0.999, window_s=2.0),
        SLOObjective("queue-depth", 1.0, window_s=2.0),
    )))
    sink = InMemorySink()
    tracer = Tracer(TraceInvariantChecker(), sink)
    run_experiment(armed, tracer=tracer)
    tracer.checker.assert_slo_closed()
    events = canonical_events(list(sink.events))
    slo_kinds = {"slo-breach", "slo-alert-fire", "slo-alert-resolve"}
    stripped = [e.to_json() for e in events if e.kind not in slo_kinds]
    assert stripped == golden, (
        f"{name}/{engine}: an armed SLO monitor perturbed the trace "
        "beyond adding slo-* events; it must be observation-only"
    )
    assert any(e.kind in slo_kinds for e in events), (
        f"{name}/{engine}: aggressive objectives emitted no slo-* "
        "events -- the lock is vacuous"
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_traces_satisfy_invariants(name):
    from repro.sim.tracing import TraceEvent

    lines = (DATA_DIR / GOLDEN[name][1]).read_text(encoding="ascii").splitlines()
    events = [TraceEvent.from_json(line) for line in lines]
    assert verify_trace(events) == len(events) > 0


def test_generation_is_stable_within_process():
    first = generate_trace_lines("fcfs")
    second = generate_trace_lines("fcfs")
    assert first == second


#: The event kinds each committed golden must contain, so regenerating
#: one can never silently drop a code path: the chaos golden locks
#: crash recovery (faults, retries, a crash/rejoin pair and the GPP
#: fallback), the resilience golden the adaptive layer (quarantine and
#: probe, deadline timeouts, checkpoint and post-fault migration).
_LIFECYCLE = {"submit", "dispatch", "start", "complete", "reconfigure",
              "slice-alloc", "slice-free"}
GOLDEN_KINDS = {
    "fcfs": _LIFECYCLE,
    "hybrid-cost": _LIFECYCLE,
    "chaos": _LIFECYCLE | {"fault", "retry", "fallback", "node-leave",
                           "node-join"},
    "resilience": _LIFECYCLE | {"fault", "retry", "node-leave", "node-join",
                                "quarantine", "probe", "timeout",
                                "checkpoint", "migrate", "task-failed"},
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_contains_its_event_kinds(name):
    from repro.sim.tracing import TraceEvent

    lines = (DATA_DIR / GOLDEN[name][1]).read_text(encoding="ascii").splitlines()
    kinds = {TraceEvent.from_json(line).kind for line in lines}
    missing = GOLDEN_KINDS[name] - kinds
    assert not missing, f"{name} golden lacks {sorted(missing)} events"


def write_goldens() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, (_, filename) in GOLDEN.items():
        lines = generate_trace_lines(name)
        (DATA_DIR / filename).write_text("\n".join(lines) + "\n", encoding="ascii")
        print(f"wrote {DATA_DIR / filename} ({len(lines)} events)")


if __name__ == "__main__":
    if "--write" in sys.argv:
        write_goldens()
    else:
        print(__doc__)
