"""Lifecycle pins: every task and node transition, byte for byte.

The four goldens never reach most fault paths: graceful leave/join,
detected crashes, a reboot before the detector confirms, orphans and
lease expiry, discard, shed, gray recovery and cold restart.  These
scenarios do.  Each one pins a CRC-32 of its canonical trace lines, of
its report and of its telemetry registry on both engines, and asserts
that the branches it exists for were actually reached (by event kind
and payload flag), so a refactor of those paths that changes anything
simulated or observed trips here.
"""

import json
import zlib
from dataclasses import asdict, replace

import pytest

from repro.core.application import Application, Stream
from repro.core.node import Node
from repro.grid.health import HealthPolicy
from repro.grid.jss import JobStatus
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.sim.experiment import ExperimentSpec, NodeSpec, _build
from repro.sim.failover import FailoverSpec, HeartbeatSpec
from repro.sim.faults import FaultSpec, RetryPolicy
from repro.sim.resilience import CheckpointSpec, DeadlineSpec, ResilienceSpec
from repro.sim.slo import SLO_PRESETS
from repro.sim.telemetry import TelemetryRegistry
from repro.sim.tracing import InMemorySink, Tracer, canonical_events
from tests.sim.test_resilience import checked_sim, gpp_rms, gpp_task
from tests.sim.test_telemetry import CHAOS_FAILOVER_SPEC, FLASH_SPEC

BREAKER = HealthPolicy(min_events=2, open_threshold=0.4, open_duration_s=4.0)

#: Heavy checkpoint overhead stretches every fabric execution.
_STRAGGLERS = ResilienceSpec(
    checkpoint=CheckpointSpec(interval_s=0.25, overhead_s=0.6),
)

#: Detector-free node churn with a discard deadline, an omniscient
#: standby failover, gray recovery and a cold restart, under a breaker
#: (a crash rejoin keeps the node's health record) and the strict SLO
#: contract (a discard is no error).  Seed 7 is the first seed from 0
#: that reaches every branch listed in ``REACHED``.
CHURN_SPEC = ExperimentSpec(
    tasks=80,
    configurations=4,
    speedup_range=(2.0, 5.0),
    required_time_range_s=(2.0, 6.0),
    discard_after_s=6.0,
    seed=7,
    faults=FaultSpec(
        crash_rate_per_s=0.06,
        downtime_range_s=(4.0, 12.0),
        rms_crash_rate_per_s=0.04,
        rms_downtime_range_s=(4.0, 8.0),
        rms_gray_rate_per_s=0.04,
        rms_gray_duration_range_s=(1.0, 3.0),
        horizon_s=40.0,
    ),
    resilience=replace(_STRAGGLERS, breaker=BREAKER),
    failover=FailoverSpec(standbys=1, takeover_delay_s=0.5),
    slo=SLO_PRESETS["strict"],
)

#: Node crashes under the heartbeat detector, some short enough that
#: the node reboots before its loss is confirmed, and a gray primary
#: with no standby that recovers on its own.  Seed 9 is the first seed
#: from 0 that reaches every branch listed in ``REACHED``.
DETECTED_SPEC = CHURN_SPEC.with_(
    discard_after_s=None,
    seed=9,
    resilience=_STRAGGLERS,
    slo=None,
    faults=FaultSpec(
        crash_rate_per_s=0.08,
        downtime_range_s=(0.5, 6.0),
        rms_gray_rate_per_s=0.04,
        rms_gray_duration_range_s=(0.5, 2.0),
        horizon_s=40.0,
    ),
    failover=FailoverSpec(
        heartbeat=HeartbeatSpec(interval_s=0.25, suspect_after=2.0, confirm_after=4.0)
    ),
)

#: The grid of the scripted run, shaped like ``examples/dynamic_grid.py``:
#: a fresh node joins mid-run, then nodes 0 and 1 leave.
SCRIPTED_SPEC = ExperimentSpec(
    tasks=60,
    nodes=(NodeSpec(), NodeSpec(), NodeSpec()),
    configurations=4,
    arrival_rate_per_s=3.0,
    seed=5,
    resilience=ResilienceSpec(breaker=BREAKER),
    failover=FailoverSpec(heartbeat=HeartbeatSpec(interval_s=0.5)),
)

SPECS = {
    "chaos": CHAOS_FAILOVER_SPEC,
    # The strict contract observes every shed as an error and re-reads
    # the queue depth after it.
    "flash": FLASH_SPEC.with_(slo=SLO_PRESETS["strict"]),
    "churn": CHURN_SPEC,
    "detected": DETECTED_SPEC,
    "scripted": SCRIPTED_SPEC,
}


def run_scenario(
    name: str,
    *,
    engine: str = "heap",
    tracer: Tracer | None = None,
    telemetry: TelemetryRegistry | None = None,
):
    """Run one scenario; returns its report.  *engine* defaults to the
    heap oracle, not the simulator's calendar default."""
    spec = SPECS[name].with_(engine=engine)
    sim, workload = _build(spec, tracer=tracer, telemetry=telemetry)
    sim.submit_workload_columns(workload.generate_columns())
    if name == "scripted":
        shape = NodeSpec()
        newcomer = Node(node_id=3, name="Node_3")
        newcomer.add_gpp(GPPSpec(cpu_model="gpp3.0", mips=shape.gpp_mips))
        for model in shape.rpe_models:
            newcomer.add_rpe(device_by_model(model), regions=shape.regions_per_rpe)
        sim.schedule_node_join(10.0, newcomer, site=2)
        # With spare capacity after the join, a departing node's tasks
        # are placed again in the same instant.
        sim.schedule_node_leave(12.0, 0)
        sim.schedule_node_leave(14.0, 1)
    return sim.run()


def branches(events) -> set[str]:
    """The lifecycle branches a trace reached, named by event kind and
    the payload flag that tells the copies of a transition apart."""
    reached = set()
    for event in events:
        p = event.payload
        kind = event.kind
        if kind in ("node-leave", "node-join"):
            flags = [f for f in ("crash", "detected", "rejoin") if p.get(f)]
            reached.add(f"{kind}{{{','.join(flags)}}}")
        elif kind == "rms-restore":
            reached.add(f"rms-restore:{p['reason']}")
        elif kind == "fault" and "rebooted" in p["reason"]:
            reached.add("fault:rebooted")
        elif kind == "timeout" and p["action"] == "fail" and "node" not in p:
            reached.add("timeout:fail-queued")
        else:
            reached.add(kind)
    return reached


#: The branches each scenario exists to reach.
REACHED = {
    "chaos": {
        "node-dead", "node-leave{crash,detected}", "node-join{rejoin}",
        "failover-begin", "lease-expire", "orphan-recovered", "rms-restore:cold-restart",
        "fallback", "timeout:fail-queued",
    },
    "flash": {"shed", "degrade", "defer", "brownout"},
    "churn": {
        "slo-breach", "quarantine", "probe", "node-leave{crash}", "node-join{rejoin}", "discard", "failover-begin",
        "rms-restore:cold-restart", "rms-restore:gray-recovered",
    },
    "detected": {
        "node-dead", "node-leave{crash,detected}", "node-join{rejoin}", "fault:rebooted",
        "heartbeat-rejoin", "rms-restore:gray-recovered",
    },
    "scripted": {"node-leave{}", "node-join{}", "requeue", "slice-free"},
}

#: name -> CRC-32 of (the canonical trace lines, the report, the
#: telemetry registry dump).
PINNED = {
    "chaos": ("2e01283b", "944f58df", "ddab625b"),
    "flash": ("1fe9abb2", "01cd50e5", "ad368dde"),
    "churn": ("514c65af", "8a85b3ef", "c5ba377e"),
    "detected": ("284de70a", "29cd1169", "8b2284f7"),
    "scripted": ("b526f0f3", "cdb7ca57", "8118eca5"),
}


def _crc(text: str) -> str:
    return f"{zlib.crc32(text.encode()):08x}"


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_lifecycle_is_pinned(name, engine):
    sink = InMemorySink()
    telemetry = TelemetryRegistry()
    report = run_scenario(
        name, engine=engine, tracer=Tracer(sink), telemetry=telemetry
    )
    events = canonical_events(list(sink.events))
    missing = REACHED[name] - branches(events)
    assert not missing, f"{name} no longer reaches {sorted(missing)}"
    lines = "\n".join(event.to_json() for event in events)
    series = {k: v for k, v in telemetry.to_json().items() if k != "meta"}
    crcs = (
        _crc(lines),
        _crc(json.dumps(asdict(report), sort_keys=True)),
        _crc(json.dumps(series, sort_keys=True)),
    )
    assert crcs == PINNED[name]


@pytest.mark.parametrize("engine", ["heap", "calendar"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_lifecycle_passes_the_invariant_checker(name, engine):
    tracer = Tracer.with_invariants()
    run_scenario(name, engine=engine, tracer=tracer)
    tracer.checker.assert_no_lost_tasks()


def test_failed_stream_chunk_fails_its_jss_task():
    # A stream chunk that is not the last is silent: a discard or shed
    # of it leaves the JSS task alone, but a terminal failure marks it.
    sim, _ = checked_sim(gpp_rms(), ResilienceSpec(deadlines=DeadlineSpec()))
    doomed = replace(gpp_task(0, t=3.0), soft_deadline_s=0.25, hard_deadline_s=0.5)
    job = sim.submit_application(
        Application(clauses=(Stream(0, 1),)),
        {0: doomed, 1: gpp_task(1, t=3.0)},
        stream_chunks=3,
    )
    sim.run()
    assert sim.jss.job(job).record(0).status is JobStatus.FAILED


def test_graceful_leave_returns_the_probe_slot():
    # Two crashes trip node 0's breaker; once half-open it takes one
    # probe, and its graceful departure returns the slot unjudged.
    policy = HealthPolicy(
        ewma_alpha=0.6,
        open_threshold=0.5,
        min_events=2,
        open_duration_s=5.0,
        half_open_probes=1,
        close_after=1,
    )
    sim, tracer = checked_sim(
        gpp_rms(nodes=2),
        ResilienceSpec(breaker=policy),
        retry=RetryPolicy(backoff_base_s=0.25),
    )
    workload = [(0.5 * i, gpp_task(i)) for i in range(4)]
    workload += [(5.9, gpp_task(20, t=30.0)), (8.0, gpp_task(10))]
    sim.submit_workload(workload)
    for crash_at in (0.25, 1.25):
        sim.schedule_node_crash(crash_at, 0, rejoin_after_s=0.3)
    sim.schedule_node_leave(8.5, 0)
    sim.run()
    probes = [e for e in tracer.sinks[1].events if e.kind == "probe"]
    assert [(e.time, e.payload["node"]) for e in probes] == [(8.0, 0)]
    assert sim.health.node(0).probes_in_flight == 0
