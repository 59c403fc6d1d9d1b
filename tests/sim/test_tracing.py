"""Tests for the structured trace layer: events, sinks, invariants."""

import re

import pytest

from repro.core.node import Node
from repro.grid.rms import ResourceManagementSystem
from repro.hardware.catalog import device_by_model
from repro.hardware.gpp import GPPSpec
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.simulator import DReAMSim
from repro.sim.tracing import (
    InMemorySink,
    InvariantViolation,
    JsonlSink,
    TraceEvent,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
    read_jsonl,
    verify_jsonl,
    verify_trace,
)
from repro.sim.workload import (
    ConfigurationPool,
    PoissonArrivals,
    SyntheticWorkload,
    WorkloadSpec,
)


def traced_run(spec: ExperimentSpec) -> tuple[Tracer, list[TraceEvent]]:
    sink = InMemorySink()
    tracer = Tracer(TraceInvariantChecker(), sink)
    run_experiment(spec, tracer=tracer)
    return tracer, list(sink.events)


SPEC = ExperimentSpec(tasks=25, configurations=4, seed=3)


class TestTraceEvent:
    def test_json_roundtrip_tuples_keys(self):
        event = TraceEvent(time=1.5, kind="dispatch", key=(3, 7),
                           payload={"node": 1, "reused": False})
        again = TraceEvent.from_json(event.to_json())
        assert again == event

    def test_json_roundtrip_none_key(self):
        event = TraceEvent(time=0.0, kind="node-join", payload={"node": 9})
        assert TraceEvent.from_json(event.to_json()) == event

    def test_json_lines_are_deterministic(self):
        event = TraceEvent(time=2.0, kind="submit", key=(0, 1),
                           payload={"function": "f", "pe_class": "RPE"})
        assert event.to_json() == event.to_json()
        assert '"kind": "submit"' in event.to_json()


MALFORMED_RECORDS = [
    ('[1, 2]', "expected a JSON object, got list"),
    ('{"t": 1.0, "key": 1}', "'kind' must be a non-empty string, got None"),
    ('{"t": 1.0, "kind": ""}', "'kind' must be a non-empty string, got ''"),
    ('{"t": 1.0, "kind": 7}', "'kind' must be a non-empty string, got 7"),
    ('{"kind": "submit"}', "'t' must be a finite number, got None"),
    ('{"t": "x", "kind": "submit"}', "'t' must be a finite number, got 'x'"),
    ('{"t": NaN, "kind": "submit"}', "'t' must be a finite number, got nan"),
    ('{"t": Infinity, "kind": "submit"}', "'t' must be a finite number, got inf"),
    ('{"t": true, "kind": "submit"}', "'t' must be a finite number, got True"),
    ('{"t": 1.0, "kind": "bogus"}', "unknown event kind 'bogus'"),
    ('{"t": 1.0, "kind": "speculate"}', "unknown event kind 'speculate'"),
]


class TestMalformedRecords:
    """A trace line that is not an event fails with ValueError, never a
    KeyError, a TypeError later on, or a silent NaN timestamp."""

    @pytest.mark.parametrize("line, message", MALFORMED_RECORDS)
    def test_from_json_rejects(self, line, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TraceEvent.from_json(line)

    def test_integer_time_accepted(self):
        assert TraceEvent.from_json('{"t": 2, "kind": "submit"}').time == 2

    @pytest.mark.parametrize("line, message", MALFORMED_RECORDS)
    def test_read_jsonl_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        good = TraceEvent(time=0.0, kind="submit", key=1).to_json()
        path.write_text(f"{good}\n\n{line}\n", encoding="ascii")
        with pytest.raises(ValueError) as exc:
            read_jsonl(path)
        assert str(exc.value) == f"line 3: {message}"


class TestSinks:
    def test_in_memory_ring_capacity(self):
        sink = InMemorySink(capacity=3)
        for i in range(10):
            sink.emit(TraceEvent(time=float(i), kind="submit", key=i))
        assert len(sink.events) == 3
        assert [e.key for e in sink.events] == [7, 8, 9]

    def test_ring_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            InMemorySink(capacity=0)

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        spec_sink = InMemorySink()
        tracer = Tracer(sink, spec_sink)
        run_experiment(SPEC, tracer=tracer)
        tracer.close()
        loaded = read_jsonl(path)
        assert loaded == list(spec_sink.events)
        assert sink.lines_written == len(loaded) > 0

    def test_unknown_kind_rejected(self):
        tracer = Tracer(InMemorySink())
        with pytest.raises(ValueError, match="unknown event kind"):
            tracer.emit(0.0, "teleport", key=1)


class TestSimulatorEmission:
    def test_event_kinds_cover_lifecycle(self):
        tracer, events = traced_run(SPEC)
        kinds = {e.kind for e in events}
        assert {"submit", "dispatch", "start", "complete"} <= kinds
        # Hardware tasks exist in this spec, so fabric events appear.
        assert {"slice-alloc", "slice-free", "reconfigure"} <= kinds
        assert tracer.events_emitted == len(events)

    def test_per_task_event_counts_match_report(self):
        result_events = traced_run(SPEC)[1]
        by_kind = {}
        for e in result_events:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + 1
        assert by_kind["submit"] == SPEC.tasks
        assert by_kind["complete"] == by_kind["dispatch"] == SPEC.tasks
        assert by_kind["slice-alloc"] == by_kind["slice-free"]

    def test_discard_events_emitted(self):
        # A starved single-GPP grid with an aggressive deadline discards.
        spec = ExperimentSpec(
            tasks=30,
            nodes=(NodeSpec(gpps=1, rpe_models=()),),
            gpp_fraction=1.0,
            arrival_rate_per_s=20.0,
            required_time_range_s=(1.0, 2.0),
            discard_after_s=0.5,
            seed=1,
        )
        tracer, events = traced_run(spec)
        assert any(e.kind == "discard" for e in events)
        # Still invariant-clean: discards fire only before dispatch.
        assert tracer.checker.events_checked == len(events)

    def test_untraced_run_unchanged(self):
        baseline = run_experiment(SPEC)
        traced = run_experiment(SPEC, tracer=Tracer(InMemorySink()))
        assert baseline.report == traced.report

    def test_node_join_leave_events(self):
        node0 = Node(node_id=0)
        node0.add_gpp(GPPSpec(cpu_model="a", mips=1_000))
        rms = ResourceManagementSystem()
        rms.register_node(node0)
        sink = InMemorySink()
        sim = DReAMSim(rms, tracer=Tracer(TraceInvariantChecker(), sink))

        late = Node(node_id=1)
        late.add_gpp(GPPSpec(cpu_model="b", mips=1_000))
        late.add_rpe(device_by_model("XC5VLX110"), regions=2)
        sim.schedule_node_join(1.0, late)
        sim.schedule_node_leave(5.0, 1)

        pool = ConfigurationPool(3, area_range=(2_000, 10_000), seed=2)
        pool.populate_repository(
            rms.virtualization.repository, [device_by_model("XC5VLX110")]
        )
        workload = SyntheticWorkload(
            WorkloadSpec(task_count=15, gpp_fraction=0.5,
                         required_time_range_s=(0.3, 1.0)),
            pool,
            PoissonArrivals(rate_per_s=4.0),
            seed=2,
        )
        sim.submit_workload(workload.generate())
        sim.run()
        kinds = [e.kind for e in sink.events]
        assert "node-join" in kinds
        assert "node-leave" in kinds
        # The leave's requeues (if any) preceded it and freed their slices.
        verify_trace(list(sink.events))


class TestInvariantChecker:
    def test_stock_run_passes_and_quiesces(self):
        tracer, events = traced_run(SPEC)
        checker = tracer.checker
        assert checker.events_checked == len(events) > 0
        checker.assert_quiescent()
        # The same stream verifies offline too.
        assert verify_trace(events) == len(events)

    def test_verify_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        run_experiment(SPEC, tracer=tracer)
        tracer.close()
        assert verify_jsonl(path) == tracer.events_emitted

    def test_missing_submit_rejected(self):
        events = traced_run(SPEC)[1]
        corrupted = [e for e in events if e.kind != "submit"]
        with pytest.raises(InvariantViolation, match="expected one of submitted"):
            verify_trace(corrupted)

    def test_complete_before_start_rejected(self):
        events = traced_run(SPEC)[1]
        corrupted = [
            TraceEvent(e.time, "complete", e.key, e.payload) if e.kind == "start" else e
            for e in events
        ]
        with pytest.raises(InvariantViolation):
            verify_trace(corrupted)

    def test_time_reversal_rejected(self):
        events = traced_run(SPEC)[1]
        last = events[-1]
        corrupted = events[:-1] + [
            TraceEvent(0.0, last.kind, last.key, last.payload)
        ]
        with pytest.raises(InvariantViolation, match="time moved backwards"):
            verify_trace(corrupted)

    def test_fake_reuse_rejected(self):
        events = traced_run(SPEC)[1]
        corrupted = []
        flipped = False
        for e in events:
            if (
                not flipped
                and e.kind == "dispatch"
                and e.payload.get("pe_kind") == "RPE"
                and not e.payload.get("reused")
            ):
                payload = dict(e.payload)
                payload["reused"] = True
                payload["reconfig_time"] = 0.0
                e = TraceEvent(e.time, e.kind, e.key, payload)
                flipped = True
            corrupted.append(e)
        assert flipped
        with pytest.raises(InvariantViolation, match="reuse"):
            verify_trace(corrupted)

    def test_reuse_with_reconfig_time_rejected(self):
        checker = TraceInvariantChecker()
        checker.emit(TraceEvent(0.0, "submit", (0, 0), {"function": "f"}))
        with pytest.raises(InvariantViolation, match="zero reconfiguration"):
            checker.emit(
                TraceEvent(
                    1.0,
                    "dispatch",
                    (0, 0),
                    {"pe_kind": "RPE", "node": 0, "resource": 0, "region": 0,
                     "function": "f", "reused": True, "reconfig_time": 0.5},
                )
            )

    def test_double_allocation_rejected(self):
        events = traced_run(SPEC)[1]
        corrupted = []
        duplicated = False
        for e in events:
            corrupted.append(e)
            if e.kind == "slice-alloc" and not duplicated:
                corrupted.append(e)
                duplicated = True
        assert duplicated
        with pytest.raises(InvariantViolation, match="already allocated"):
            verify_trace(corrupted)

    def test_free_without_alloc_rejected(self):
        checker = TraceInvariantChecker()
        with pytest.raises(InvariantViolation, match="not allocated"):
            checker.emit(
                TraceEvent(0.0, "slice-free", (0, 0),
                           {"node": 0, "resource": 1, "region": 0,
                            "slices": 100, "capacity": 200})
            )

    def test_over_capacity_rejected(self):
        checker = TraceInvariantChecker()
        checker.emit(
            TraceEvent(0.0, "slice-alloc", (0, 0),
                       {"node": 0, "resource": 1, "region": 0,
                        "slices": 150, "capacity": 200})
        )
        with pytest.raises(InvariantViolation, match="exceeds capacity"):
            checker.emit(
                TraceEvent(0.0, "slice-alloc", (0, 1),
                           {"node": 0, "resource": 1, "region": 1,
                            "slices": 100, "capacity": 200})
            )

    def test_truncated_run_not_quiescent(self):
        events = traced_run(SPEC)[1]
        checker = TraceInvariantChecker()
        # Cut the stream right after the first dispatch.
        for e in events:
            checker.emit(e)
            if e.kind == "dispatch":
                break
        with pytest.raises(InvariantViolation):
            checker.assert_quiescent()


class TestJsonlFlush:
    def test_flushes_every_n_events(self, tmp_path):
        """A crashed run (sink never closed) still leaves the flushed
        prefix readable on disk."""
        path = tmp_path / "partial.jsonl"
        sink = JsonlSink(path, flush_every=4)
        for i in range(10):
            sink.emit(TraceEvent(time=float(i), kind="submit", key=(i, 0)))
        # Two full flush windows (8 events) are durable before close.
        on_disk = read_jsonl(path)
        assert len(on_disk) == 8
        assert [e.key for e in on_disk] == [(i, 0) for i in range(8)]
        sink.close()
        assert len(read_jsonl(path)) == 10

    def test_explicit_flush(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, flush_every=None)
        sink.emit(TraceEvent(time=0.0, kind="submit", key=(0, 0)))
        sink.flush()
        assert len(read_jsonl(path)) == 1
        sink.close()
        sink.flush()  # no-op after close, never raises

    def test_bad_flush_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "t.jsonl", flush_every=0)


class TestResilienceRoundTrip:
    """PR 3's resilience event kinds must survive the full disk
    round-trip: emit -> JSONL -> read_jsonl -> canonical_events."""

    RESILIENCE_KINDS = ("quarantine", "probe", "timeout", "checkpoint",
                        "migrate")

    def _resilient_spec(self):
        from repro.grid.health import HealthPolicy
        from repro.sim.faults import FaultSpec
        from repro.sim.resilience import CheckpointSpec, DeadlineSpec, ResilienceSpec

        return ExperimentSpec(
            tasks=14,
            configurations=4,
            arrival_rate_per_s=8.0,
            area_range=(2_000, 14_000),
            gpp_fraction=0.2,
            seed=16,
            faults=FaultSpec(
                crash_rate_per_s=0.25,
                downtime_range_s=(1.0, 3.0),
                config_fault_prob=0.35,
                seu_rate_per_s=0.2,
                horizon_s=8.0,
            ),
            resilience=ResilienceSpec(
                breaker=HealthPolicy(
                    min_events=2, open_threshold=0.4, open_duration_s=4.0
                ),
                deadlines=DeadlineSpec(
                    soft_factor=2.0, hard_factor=6.0, slack_s=0.25
                ),
                checkpoint=CheckpointSpec(interval_s=0.1),
            ),
        )

    def test_kinds_survive_disk_roundtrip(self, tmp_path):
        path = tmp_path / "resilient.jsonl"
        memory = InMemorySink()
        tracer = Tracer(TraceInvariantChecker(), JsonlSink(path), memory)
        run_experiment(self._resilient_spec(), tracer=tracer)
        tracer.close()

        loaded = canonical_events(read_jsonl(path))
        direct = canonical_events(list(memory.events))
        assert loaded == direct
        kinds = {e.kind for e in loaded}
        for kind in self.RESILIENCE_KINDS:
            assert kind in kinds, f"run never emitted {kind!r}"

    def test_every_kind_roundtrips_synthetically(self, tmp_path):
        """Each resilience kind, with its real payload shape, survives
        JSONL -> read_jsonl -> canonical_events losslessly."""
        events = [
            TraceEvent(0.5, "quarantine", None,
                       {"node": 1, "phase": "open", "score": 0.25,
                        "episode": 1}),
            TraceEvent(1.0, "probe", (907, 3), {"node": 1}),
            TraceEvent(1.5, "timeout", (907, 3),
                       {"deadline": "soft", "action": "warn",
                        "budget_s": 2.0}),
            TraceEvent(2.0, "checkpoint", (907, 3),
                       {"node": 1, "region": 0, "frac": 0.5}),
            TraceEvent(2.5, "migrate", (908, 4),
                       {"node": 0, "from_node": 1}),
        ]
        path = tmp_path / "synthetic.jsonl"
        sink = JsonlSink(path)
        for event in events:
            sink.emit(event)
        sink.close()
        loaded = read_jsonl(path)
        assert loaded == events
        canon = canonical_events(loaded)
        assert [e.kind for e in canon] == [e.kind for e in events]
        assert [e.payload for e in canon] == [e.payload for e in events]
        # Job ids remapped densely (907 -> 0, 908 -> 1), subkeys kept.
        assert [e.key for e in canon] == [
            None, (0, 3), (0, 3), (0, 3), (1, 4),
        ]

    def test_payloads_preserved_exactly(self, tmp_path):
        path = tmp_path / "resilient.jsonl"
        tracer = Tracer(JsonlSink(path))
        run_experiment(self._resilient_spec(), tracer=tracer)
        tracer.close()
        loaded = read_jsonl(path)
        # Serialization is lossless line-by-line.
        for event in loaded:
            assert TraceEvent.from_json(event.to_json()) == event
        # Canonicalized resilience events keep tuple keys and payloads.
        for event in canonical_events(loaded):
            if event.kind in self.RESILIENCE_KINDS:
                assert event.payload
        # And the re-read stream still satisfies every invariant.
        assert verify_trace(loaded) == len(loaded)


class TestCanonicalization:
    def test_job_ids_remapped_densely(self):
        events = [
            TraceEvent(0.0, "submit", (1234, 0)),
            TraceEvent(0.1, "submit", (1235, 1)),
            TraceEvent(0.2, "dispatch", (1234, 0)),
        ]
        canon = canonical_events(events)
        assert [e.key for e in canon] == [(0, 0), (1, 1), (0, 0)]

    def test_two_runs_identical_after_canonicalization(self):
        first = canonical_events(traced_run(SPEC)[1])
        second = canonical_events(traced_run(SPEC)[1])
        assert [e.to_json() for e in first] == [e.to_json() for e in second]
