"""Liveness: nothing runs on a node that died silently.

Under the heartbeat detector a node crash is silent.  The node stops at
once, but the RMS keeps it registered, and may place work on it, until
the detector confirms the loss.  A task placed there must stall until
that confirmation or the node's reboot scraps it: a dead node can
neither start work nor finish it.

Each run is checked two ways: by the trace checker's ``node-dead``
rule, and by a ground-truth probe on the RMS that no placement begins
execution on a node the simulator knows is dead.
"""

import pytest

from repro.sim.experiment import _build
from repro.sim.failover import FailoverSpec, HeartbeatSpec
from repro.sim.tracing import InvariantViolation, TraceEvent, Tracer, verify_trace
from tests.sim.test_lifecycle_pins import DETECTED_SPEC
from tests.sim.test_resilience import checked_sim, gpp_rms, gpp_task
from tests.sim.test_telemetry import CHAOS_FAILOVER_SPEC

SPECS = {"detected": DETECTED_SPEC, "chaos": CHAOS_FAILOVER_SPEC}


def watch_dead_starts(sim) -> list[tuple[float, int]]:
    """Record the (time, node) of every execution that begins on a node
    *sim* knows to be silently dead."""
    on_dead = []
    begin = sim.rms.begin_execution

    def begin_execution(placement):
        node = placement.candidate.node_id
        if node in sim._dead_nodes:
            on_dead.append((sim.engine.now, node))
        begin(placement)

    sim.rms.begin_execution = begin_execution
    return on_dead


def run_checked(spec) -> list[tuple[float, int]]:
    """Run *spec* under the invariant checker; returns the executions
    that began on a silently dead node."""
    tracer = Tracer.with_invariants()
    sim, workload = _build(spec, tracer=tracer)
    on_dead = watch_dead_starts(sim)
    sim.submit_workload_columns(workload.generate_columns())
    sim.run()
    tracer.checker.assert_no_lost_tasks()
    return on_dead


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize(
    "name,seed", [("detected", 2), ("detected", 11), ("detected", 14), ("chaos", 17)]
)
def test_nothing_runs_on_a_silently_dead_node(name, seed, engine):
    assert run_checked(SPECS[name].with_(seed=seed, engine=engine)) == []


@pytest.mark.slow
@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_liveness_sweep(name, engine):
    for seed in range(100):
        spec = SPECS[name].with_(seed=seed, engine=engine)
        assert run_checked(spec) == [], f"seed {seed}"


def test_a_dead_node_that_left_and_rejoined_is_alive():
    # Node 1 dies silently at 1 s, leaves gracefully at 2 s, and its
    # crash rejoin brings it back at 21 s with healthy hardware: it
    # heartbeats again, and the task placed on it finishes there.
    heartbeat = HeartbeatSpec(interval_s=1.0, suspect_after=3.0, confirm_after=6.0)
    sim, tracer = checked_sim(
        gpp_rms(nodes=2), None, failover=FailoverSpec(heartbeat=heartbeat)
    )
    sim.submit_workload([(25.0 + 0.1 * i, gpp_task(i, t=2.0)) for i in range(2)])
    sim.schedule_node_crash(1.0, 1, rejoin_after_s=20.0)
    sim.schedule_node_leave(2.0, 1)
    report = sim.run()
    tracer.checker.assert_no_lost_tasks()
    events = tracer.sinks[1].events
    kinds = {e.kind for e in events}
    assert "heartbeat-suspect" not in kinds and "fault" not in kinds
    assert report.completed == 2
    assert sorted(e.payload["node"] for e in events if e.kind == "complete") == [0, 1]


def _dead_node_trace(*tail: TraceEvent) -> list[TraceEvent]:
    """Task 1 is dispatched to node 0, which dies at t=1 and reboots
    at t=3; *tail* follows."""
    return [
        TraceEvent(0.0, "submit", 1, {}),
        TraceEvent(0.5, "dispatch", 1, {"node": 0}),
        TraceEvent(1.0, "node-dead", None, {"node": 0, "reboot_at": 3.0}),
        *tail,
    ]


class TestDeadNodeRule:
    @pytest.mark.parametrize(
        "event",
        [
            TraceEvent(2.0, "start", 1, {"node": 0}),
            # Still dead just before its reboot.
            TraceEvent(2.999, "start", 1, {"node": 0}),
        ],
    )
    def test_work_on_a_dead_node_is_rejected(self, event):
        with pytest.raises(InvariantViolation, match="node 0 is dead"):
            verify_trace(_dead_node_trace(event))

    def test_complete_on_a_dead_node_is_rejected(self):
        started = [TraceEvent(0.8, "start", 1, {"node": 0})]
        trace = _dead_node_trace(TraceEvent(2.0, "complete", 1, {"node": 0}))
        with pytest.raises(InvariantViolation, match="node 0 is dead"):
            verify_trace(trace[:2] + started + trace[2:])

    def test_other_nodes_stay_live(self):
        verify_trace(_dead_node_trace(TraceEvent(2.0, "start", 1, {"node": 1})))

    def test_reboot_lifts_the_rule(self):
        verify_trace(_dead_node_trace(TraceEvent(3.0, "start", 1, {"node": 0})))

    @pytest.mark.parametrize(
        "membership",
        [
            [TraceEvent(2.0, "node-leave", None, {"node": 0, "detected": True})],
            [
                TraceEvent(1.5, "node-leave", None, {"node": 0}),
                TraceEvent(2.0, "node-join", None, {"node": 0}),
            ],
        ],
        ids=["detected-leave", "leave-and-join"],
    )
    def test_membership_lifts_the_rule(self, membership):
        start = TraceEvent(2.5, "start", 1, {"node": 0})
        verify_trace(_dead_node_trace(*membership, start))

    def test_graceful_leave_alone_keeps_the_rule(self):
        trace = _dead_node_trace(
            TraceEvent(1.5, "node-leave", None, {"node": 0}),
            TraceEvent(2.5, "start", 1, {"node": 0}),
        )
        with pytest.raises(InvariantViolation, match="node 0 is dead"):
            verify_trace(trace)

    def test_without_a_reboot_the_node_stays_dead(self):
        trace = [
            TraceEvent(0.0, "submit", 1, {}),
            TraceEvent(0.5, "dispatch", 1, {"node": 0}),
            TraceEvent(1.0, "node-dead", None, {"node": 0, "reboot_at": None}),
            TraceEvent(99.0, "start", 1, {"node": 0}),
        ]
        with pytest.raises(InvariantViolation, match="node 0 is dead"):
            verify_trace(trace)
