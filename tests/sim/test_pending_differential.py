"""The grouped pending queue against the plain FIFO walk, byte for byte.

:class:`~repro.sim.pending.PendingQueue` skips declined match-key
groups, re-offers only newcomers while nothing was released, and moves
the counters of every request it skips in bulk.  A private seam swaps
its grouped walk for the plain FIFO walk, which offers every entry on
every pass.  On every scenario below, on both engines, the canonical
trace, the report dump and the telemetry registry of the two walks must
be identical.
"""

import json
from contextlib import contextmanager
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core.execreq import Artifacts, ExecReq
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.health import HealthPolicy
from repro.grid.network import USER_SITE, Link, Network
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.hardware.softcore import RHO_VEX_4ISSUE
from repro.hardware.taxonomy import PEClass
from repro.sim.admission import (
    AdmissionSpec,
    BrownoutSpec,
    QueueBoundSpec,
    UtilizationSpec,
)
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.failover import FAILOVER_PRESETS
from repro.sim.faults import FaultSpec
from repro.sim.metrics import report_dump
from repro.sim.pending import PendingQueue
from repro.sim.resilience import ResilienceSpec
from repro.sim.simulator import DReAMSim
from repro.sim.slo import SLO_PRESETS
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import InMemorySink, TraceEvent, Tracer, canonical_events
from tests.sim import test_admission
from tests.sim.test_faults import gpp_req, gpp_task, hw_task, hybrid_rms
from tests.sim.test_golden_traces import GOLDEN
from tests.sim.test_lifecycle_pins import SPECS as LIFECYCLE, run_scenario

ENGINES = ("heap", "calendar")


@contextmanager
def fifo_walk():
    """Every pass offers every entry in arrival order, as a queue
    without groups or arrival-only passes does."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            PendingQueue,
            "_grouped",
            lambda self, rms, try_dispatch, degrade, *_, **__: self._fifo(
                rms, try_dispatch, degrade, skippable=True
            ),
        )
        yield


@contextmanager
def counting_plans(counts):
    real = ResourceManagementSystem.plan_placement

    def plan(self, task, **kwargs):
        counts["plans"] += 1
        return real(self, task, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ResourceManagementSystem, "plan_placement", plan)
        yield


def observed(run) -> tuple[list[str], str, str]:
    """(canonical trace lines, report, telemetry) of ``run(tracer,
    telemetry)``, which returns ``(spec, report)``; a scripted run
    without a spec returns ``(None, report)``."""
    sink = InMemorySink()
    telemetry = TelemetryRegistry()
    spec, report = run(Tracer(sink), telemetry)
    lines = [event.to_json() for event in canonical_events(list(sink.events))]
    series = {k: v for k, v in telemetry.to_json().items() if k != "meta"}
    dump = asdict(report) if spec is None else report_dump(spec, report)
    return (
        lines,
        json.dumps(dump, sort_keys=True),
        json.dumps(series, sort_keys=True),
    )


def assert_same_as_fifo(run) -> None:
    grouped = observed(run)
    with fifo_walk():
        plain = observed(run)
    for part, a, b in zip(("trace", "report", "telemetry"), grouped, plain):
        assert a == b, f"the grouped walk changed the {part}"


def experiment(spec: ExperimentSpec, engine: str):
    spec = spec.with_(engine=engine)

    def run(tracer, telemetry):
        return spec, run_experiment(spec, tracer=tracer, telemetry=telemetry).report

    return run


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_goldens(name, engine):
    assert_same_as_fifo(experiment(GOLDEN[name][0], engine))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(LIFECYCLE))
def test_lifecycle_scenarios(name, engine):
    def run(tracer, telemetry):
        report = run_scenario(name, engine=engine, tracer=tracer, telemetry=telemetry)
        return LIFECYCLE[name], report

    assert_same_as_fifo(run)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", sorted(test_admission.TestOverloadReportPins.PINNED_CRC))
def test_overload_scenarios(scenario, engine):
    spec = test_admission.TestOverloadReportPins().spec(scenario)
    assert_same_as_fifo(experiment(spec, engine))


#: The CI overload smoke's composed run: gate, brownout, quarantine,
#: suspects and link faults in one.
COMPOSED = (
    "simulate --tasks 300 --rate 8 --flash-crowd 3:8:6 --low-priority 0.3 "
    "--admission brownout --utilization-gate 0.9 --faults chaos --breaker "
    "--failover replicated --slo default"
).split()


@pytest.mark.parametrize("engine", ENGINES)
def test_composed_ci_run(engine, tmp_path, capsys):
    def run(tag: str) -> tuple[list[str], str, str]:
        paths = {f: tmp_path / f"{tag}.{f}" for f in ("trace", "report", "telemetry")}
        assert main([
            *COMPOSED, "--engine", engine,
            "--trace", str(paths["trace"]),
            "--report-json", str(paths["report"]),
            "--telemetry", str(paths["telemetry"]),
        ]) == 0
        events = [
            TraceEvent.from_json(line)
            for line in paths["trace"].read_text().splitlines()
        ]
        telemetry = json.loads(paths["telemetry"].read_text())
        telemetry.pop("meta", None)
        return (
            [event.to_json() for event in canonical_events(events)],
            paths["report"].read_text(),
            json.dumps(telemetry, sort_keys=True),
        )

    grouped = run("grouped")
    with fifo_walk():
        plain = run("plain")
    capsys.readouterr()
    for part, a, b in zip(("trace", "report", "telemetry"), grouped, plain):
        assert a == b, f"the grouped walk changed the {part}"
    kinds = {json.loads(line)["kind"] for line in grouped[0]}
    assert {"brownout", "degrade", "heartbeat-suspect", "link-fault"} <= kinds
    report = json.loads(grouped[1])["report"]
    assert report["placements_gated"] > 0 and report["quarantines"] > 0


def small_node(node_id: int) -> Node:
    node = Node(node_id=node_id)
    node.add_rpe(device_by_model("XC5VLX155"), regions=2)
    node.add_gpp(GPPSpec(cpu_model=f"cpu{node_id}", mips=1_000))
    return node


@pytest.mark.parametrize("engine", ENGINES)
def test_graceful_leave_opens_the_gate(engine):
    # Tasks 3 and 4 wait behind the utilization gate.  Node 1 leaves
    # with its work at t=5, which lowers the grid's occupancy and opens
    # the gate although no placement finished or aborted: the waiting
    # tasks must be offered before the requeued ones.
    def run(tracer, telemetry):
        rms = ResourceManagementSystem()
        rms.register_node(small_node(1))
        sim = DReAMSim(
            rms,
            tracer=tracer,
            telemetry=telemetry,
            admission=AdmissionSpec(utilization=UtilizationSpec(0.5)),
            engine=engine,
        )
        sim.schedule_node_join(1.0, small_node(0))
        sim.submit_workload([
            (0.0, gpp_task(0, t=100.0)),
            (0.0, hw_task(1, t=100.0)),
            (0.0, hw_task(2, function="fir", t=100.0)),
            (1.5, gpp_task(3, t=100.0)),
            (2.0, hw_task(4, function="aes", t=5.0)),
        ])
        sim.schedule_node_leave(5.0, 1)
        return None, sim.run()

    assert_same_as_fifo(run)
    lines = [json.loads(line) for line in observed(run)[0]]
    at_leave = [e["key"] for e in lines if e["kind"] == "dispatch" and e["t"] == 5.0]
    assert [key[1] for key in at_leave] == [3, 4]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("suspect", [False, True], ids=["plain", "suspect"])
def test_partition_heal_reoffers_a_consumer(engine, suspect):
    # Node 1 reaches the producer's output on node 0 only over the link
    # the partition cuts, and node 0 stays busy.  The consumer's offer
    # at t=10 prices its input at infinity; the heal at t=50 releases
    # nothing, yet the consumer must be offered then.  With *suspect*
    # that t=10 pass runs while node 0 is (falsely) suspected.
    def run(tracer, telemetry):
        rms = hybrid_rms(nodes=2)
        rms.network = Network()
        rms.network.connect(USER_SITE, 0, Link(100.0, 0.01))
        rms.network.connect(0, 1, Link(100.0, 0.01))
        sim = DReAMSim(rms, tracer=tracer, telemetry=telemetry, engine=engine)
        sim.submit_graph([
            simple_task(0, gpp_req(), 1.0, out_bytes=10**7),
            simple_task(1, gpp_req(), 1.0, sources=(0,), in_bytes=10**7),
        ])
        sim.submit_workload([
            (0.0, simple_task(2, gpp_req(), 10.0)),
            (0.5, simple_task(3, gpp_req(), 300.0)),
        ])
        sim.schedule_partition(1.5, [0], [1], heal_at_s=50.0)
        if suspect:
            sim.engine.schedule_at(5.0, lambda: sim._suspected_targets.add(0))
            sim.engine.schedule_at(30.0, lambda: sim._suspected_targets.discard(0))
        return None, sim.run()

    assert_same_as_fifo(run)
    lines = observed(run)[0]
    dispatched = [json.loads(line) for line in lines if '"dispatch"' in line]
    assert [d["t"] for d in dispatched][-1] == 50.0


@pytest.mark.parametrize("engine", ENGINES)
def test_freed_regions_serve_their_classes(engine):
    # Task 2 (GPP class) waits: the GPP is busy and so is the soft core
    # task 1 provisioned.  When task 1 finishes, its region frees with
    # the soft core still hosted, which serves GPP-class work: task 2
    # must be offered then, not when the GPP frees at t=100.  Task 4
    # (soft core) then waits for a region, and task 3's region, freed
    # at t=5, must be offered to it.
    soft = ExecReq(
        node_type=PEClass.SOFTCORE,
        artifacts=Artifacts(application_code="x", softcore=RHO_VEX_4ISSUE),
    )

    def run(tracer, telemetry):
        sim = DReAMSim(
            hybrid_rms(nodes=1), tracer=tracer, telemetry=telemetry, engine=engine
        )
        sim.submit_workload([
            (0.0, simple_task(0, gpp_req(), 100.0)),
            (0.0, simple_task(1, soft, 1.0, workload_mi=1_000.0)),
            (0.0, hw_task(3, t=5.0)),
            (0.5, simple_task(2, gpp_req(), 1.0, workload_mi=1_000.0)),
            (0.6, simple_task(4, soft, 1.0, workload_mi=1_000.0)),
        ])
        return None, sim.run()

    assert_same_as_fifo(run)
    lines = [json.loads(line) for line in observed(run)[0]]
    at = {e["key"][1]: e["t"] for e in lines if e["kind"] == "dispatch"}
    done = {e["key"][1]: e["t"] for e in lines if e["kind"] == "complete"}
    assert at[2] == done[1] < 100.0
    assert at[4] == done[3] < done[2]


def test_the_seam_changes_the_work():
    # Without this the differential tests above could compare the FIFO
    # walk with itself.
    spec = test_admission.TestOverloadReportPins().spec("brownout")
    grouped, plain = {"plans": 0}, {"plans": 0}
    with counting_plans(grouped):
        run_experiment(spec)
    with fifo_walk(), counting_plans(plain):
        run_experiment(spec)
    assert grouped["plans"] < 0.75 * plain["plans"]


NODES = (
    NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
    NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
)

FAULTS = st.one_of(
    st.none(),
    st.builds(
        FaultSpec,
        crash_rate_per_s=st.sampled_from([0.0, 0.1]),
        downtime_range_s=st.just((1.0, 4.0)),
        config_fault_prob=st.sampled_from([0.0, 0.3]),
        seu_rate_per_s=st.sampled_from([0.0, 0.2]),
        link_fault_rate_per_s=st.sampled_from([0.0, 0.1]),
        degrade_factor=st.just(0.1),
        rms_crash_rate_per_s=st.sampled_from([0.0, 0.05]),
        rms_downtime_range_s=st.just((1.0, 3.0)),
        # Lost heartbeats raise suspicions that are lifted again.
        heartbeat_loss_prob=st.sampled_from([0.0, 0.3]),
        # A partition prices the inputs at infinity until it heals.
        partition_window=st.sampled_from([None, (3.0, 9.0)]),
        horizon_s=st.just(20.0),
    ),
)

ADMISSION = st.builds(
    AdmissionSpec,
    queue=st.one_of(st.none(), st.builds(QueueBoundSpec, max_pending=st.sampled_from([12, 30]))),
    utilization=st.one_of(st.none(), st.builds(UtilizationSpec, st.sampled_from([0.5, 0.9]))),
    brownout=st.one_of(
        st.none(),
        st.builds(
            BrownoutSpec,
            enter_pending=st.just(10),
            exit_pending=st.just(4),
            dwell_s=st.sampled_from([0.25, 1.0]),
        ),
    ),
)

BREAKER = ResilienceSpec(
    breaker=HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=2.0)
)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    # gpp-only declines the RPE tasks' non-empty candidate lists.
    strategy=st.sampled_from(["hybrid-cost", "first-fit", "gpp-only"]),
    faults=FAULTS,
    breaker=st.booleans(),
    admission=ADMISSION,
    failover=st.sampled_from([None, "detect", "replicated"]),
    slo=st.sampled_from([None, "default", "strict"]),
)
def test_composed_sweep(seed, strategy, faults, breaker, admission, failover, slo):
    spec = ExperimentSpec(
        strategy=strategy,
        tasks=50,
        nodes=NODES,
        arrival_rate_per_s=4.0,
        gpp_fraction=0.4,
        area_range=(2_000, 12_000),
        seed=seed,
        flash_crowd=(2.0, 6.0, 4.0),
        low_priority_fraction=0.3,
        tenants=2,
        faults=faults,
        resilience=BREAKER if breaker else None,
        admission=admission,
        failover=FAILOVER_PRESETS[failover] if failover else None,
        slo=SLO_PRESETS[slo] if slo else None,
    )
    for engine in ENGINES:
        assert_same_as_fifo(experiment(spec, engine))
