"""Property-based tests for the adaptive resilience layer.

Two headline invariants, whatever the seed draws:

* **An open breaker never receives a placement.**  Replayed offline
  from the trace (independent of the online checker's bookkeeping):
  between a ``quarantine``/open and the matching close, the only thing
  that may lift the embargo is an explicit sanctioned ``probe``.
* **No task is ever lost**, even with every resilience mechanism armed
  at once -- deadlines failing tasks, checkpoints shrinking them.
  Terminal accounting stays exact and the online invariant checker
  stays satisfied.
"""

from hypothesis import given, settings, strategies as st

from repro.core.node import Node
from repro.grid.health import HealthPolicy
from repro.grid.network import Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.sim.faults import FaultInjector, FaultSpec, RetryPolicy
from repro.sim.resilience import CheckpointSpec, DeadlineSpec, ResilienceSpec
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import InMemorySink, TraceInvariantChecker, Tracer, canonical_events
from repro.sim.workload import (
    ConfigurationPool,
    PoissonArrivals,
    SyntheticWorkload,
    WorkloadSpec,
)

fault_specs = st.builds(
    FaultSpec,
    crash_rate_per_s=st.floats(0.0, 0.08),
    downtime_range_s=st.just((2.0, 8.0)),
    config_fault_prob=st.floats(0.0, 0.4),
    seu_rate_per_s=st.floats(0.0, 0.1),
    link_fault_rate_per_s=st.floats(0.0, 0.08),
    degrade_factor=st.floats(0.05, 1.0),
    horizon_s=st.just(60.0),
)

health_policies = st.builds(
    HealthPolicy,
    ewma_alpha=st.floats(0.2, 0.9),
    open_threshold=st.floats(0.3, 0.9),
    min_events=st.integers(1, 4),
    open_duration_s=st.floats(2.0, 15.0),
    half_open_probes=st.integers(1, 2),
    close_after=st.integers(1, 3),
)

#: soft factors top out below the hard floors, so hard >= soft holds.
deadline_specs = st.builds(
    DeadlineSpec,
    soft_factor=st.floats(2.0, 6.0),
    hard_factor=st.floats(8.0, 30.0),
    slack_s=st.floats(0.0, 2.0),
    reschedule=st.booleans(),
)

resilience_specs = st.builds(
    ResilienceSpec,
    breaker=st.one_of(st.none(), health_policies),
    deadlines=st.one_of(st.none(), deadline_specs),
    checkpoint=st.one_of(
        st.none(),
        st.builds(
            CheckpointSpec,
            interval_s=st.floats(0.1, 1.0),
            overhead_s=st.floats(0.0, 0.05),
        ),
    ),
)


def run_resilient_chaos(faults, resilience, seed, tasks):
    """One seeded chaotic run with the resilience layer armed over a
    2-node hybrid grid; returns (report, checker, events, lines)."""
    network = Network.fully_connected([0, 1])
    rms = ResourceManagementSystem(network=network)
    for node_id in range(2):
        node = Node(node_id=node_id)
        node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=1_500))
        node.add_rpe(device_by_model("XC5VLX155"), regions=2)
        rms.register_node(node)
    pool = ConfigurationPool(4, area_range=(2_000, 12_000), seed=seed)
    pool.populate_repository(
        rms.virtualization.repository,
        [rpe.device for node in rms.nodes for rpe in node.rpes],
    )
    workload = SyntheticWorkload(
        WorkloadSpec(task_count=tasks, gpp_fraction=0.5,
                     required_time_range_s=(0.2, 1.5)),
        pool,
        PoissonArrivals(rate_per_s=2.0),
        seed=seed,
    )
    checker = TraceInvariantChecker()
    sink = InMemorySink()
    sim = DReAMSim(
        rms,
        tracer=Tracer(checker, sink),
        faults=FaultInjector(faults, seed=seed),
        retry=RetryPolicy(backoff_base_s=0.2),
        resilience=resilience,
    )
    sim.submit_workload(workload.generate())
    report = sim.run()
    events = list(sink.events)
    lines = [e.to_json() for e in canonical_events(events)]
    return report, checker, events, lines


def assert_open_breaker_never_dispatched(events):
    """Offline replay of the quarantine windows: a dispatch may not
    target an embargoed node.  A ``probe`` is the one sanctioned
    exception -- it lifts the embargo for the placement it announces
    (and a re-open re-imposes it)."""
    embargoed: set[int] = set()
    for event in events:
        if event.kind == "quarantine":
            node = event.payload["node"]
            if event.payload["phase"] == "open":
                embargoed.add(node)
            else:
                embargoed.discard(node)
        elif event.kind == "probe":
            embargoed.discard(event.payload["node"])
        elif event.kind == "dispatch":
            node = event.payload["node"]
            assert node not in embargoed, (
                f"dispatch to node {node} at t={event.time} while its "
                f"circuit breaker was open"
            )


@given(
    faults=fault_specs,
    resilience=resilience_specs,
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(1, 18),
)
@settings(max_examples=20, deadline=None)
def test_no_task_lost_and_no_dispatch_to_open_breaker(
    faults, resilience, seed, tasks
):
    report, checker, events, _ = run_resilient_chaos(
        faults, resilience, seed, tasks
    )
    # Exact accounting: every submission reaches a terminal state, even
    # when watchdogs fail tasks.
    assert report.completed + report.discarded + report.failed == tasks
    assert report.pending == 0
    checker.assert_quiescent()
    checker.assert_no_lost_tasks()
    assert_open_breaker_never_dispatched(events)
    assert 0.0 <= report.availability <= 1.0
    assert report.wasted_work_s >= 0.0
    assert report.wasted_work_saved_s >= 0.0
    assert report.checkpoint_overhead_s >= 0.0
    assert 0.0 <= report.deadline_miss_rate <= 1.0
    if resilience.breaker is None:
        assert report.quarantines == 0
        assert report.quarantine_time_s == 0.0
    if resilience.deadlines is None:
        assert report.deadline_soft_misses == 0
        assert report.deadline_hard_misses == 0


@given(
    faults=fault_specs,
    resilience=resilience_specs,
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=10, deadline=None)
def test_identical_resilient_runs_reproduce_traces(faults, resilience, seed):
    *_, first = run_resilient_chaos(faults, resilience, seed, tasks=10)
    *_, second = run_resilient_chaos(faults, resilience, seed, tasks=10)
    assert first == second
