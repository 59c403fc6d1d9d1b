"""Causal run analysis: ledger conservation, exemplars, critical path."""

import json

import pytest

from repro.cli import main
from repro.sim.analysis import (
    CONSERVATION_TOL,
    PHASES,
    analyze_events,
    analyze_trace,
)
from repro.sim.slo import evaluate_trace, parse_slo
from repro.sim.tracing import (
    InMemorySink,
    JsonlSink,
    TraceEvent,
    TraceInvariantChecker,
    Tracer,
    canonical_events,
    read_jsonl,
)
from tests.sim.test_golden_traces import DATA_DIR, GOLDEN
from tests.sim.test_simulator import gpp_rms, gpp_task
from tests.sim.test_slo import backpressure_spec, flash_crowd_spec, traced_run


def golden_path(name):
    return DATA_DIR / GOLDEN[name][1]


class TestGoldenConservation:
    """The acceptance invariant on every committed golden: each task's
    phases sum to its turnaround within 1e-9."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_phases_sum_to_turnaround(self, name):
        analysis = analyze_trace(golden_path(name))
        assert analysis.ledgers, f"{name}: no tasks folded"
        assert analysis.conservation_violations() == []
        assert analysis.max_conservation_error <= CONSERVATION_TOL

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_dominant_p99_phase_is_named(self, name):
        analysis = analyze_trace(golden_path(name))
        dominant = analysis.dominant_phase("p99")
        assert dominant in PHASES

    def test_chaos_p99_is_dominated_by_recovery(self):
        """The chaos golden's slowest task loses most of its turnaround
        to fault recovery (retry backoff + re-placement) -- the exact
        diagnosis EXPERIMENTS.md walks through."""
        analysis = analyze_trace(golden_path("chaos"))
        assert analysis.dominant_phase("p99") == "recovery"

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_exemplars_are_deterministic(self, name):
        first = analyze_trace(golden_path(name))
        second = analyze_trace(golden_path(name))
        for bucket in ("p50", "p95", "p99"):
            assert (
                [l.key for l in first.exemplars.get(bucket, [])]
                == [l.key for l in second.exemplars.get(bucket, [])]
            )

    def test_render_names_every_section(self):
        analysis = analyze_trace(golden_path("chaos"))
        text = analysis.render()
        assert "Per-task phase ledger" in text
        assert "dominant p99 phase" in text
        assert "conservation         OK" in text
        assert "exemplars:" in text


class TestLedgerSemantics:
    def ev(self, t, kind, key=None, **payload):
        return TraceEvent(time=t, kind=kind, key=key, payload=payload)

    def test_queue_wait_under_brownout_splits_exactly(self):
        """Queue time inside a brownout window is attributed to the
        ``brownout`` phase; the split conserves by construction."""
        events = [
            self.ev(0.0, "submit", key=1, function="f", pe_class="GPP"),
            self.ev(1.0, "brownout", action="enter", stage=1, depth=9),
            self.ev(3.0, "brownout", action="exit", stage=0, depth=2),
            self.ev(4.0, "dispatch", key=1, node=0, reconfig_time=0.0),
            self.ev(4.0, "start", key=1, node=0),
            self.ev(5.0, "complete", key=1, node=0),
        ]
        analysis = analyze_events(events)
        ledger = analysis.ledgers[1]
        assert ledger.phases["brownout"] == pytest.approx(2.0)
        assert ledger.phases["queue"] == pytest.approx(2.0)
        assert ledger.phases["compute"] == pytest.approx(1.0)
        assert analysis.conservation_violations() == []
        assert analysis.brownout_windows == [(1.0, 3.0)]

    def test_queue_wait_ending_inside_an_open_window(self):
        """A queue interval that closes while the window is still open
        counts the overlap up to that event; a window the trace cuts off
        ends at the last event."""
        events = [
            self.ev(0.0, "submit", key=1, function="f", pe_class="GPP"),
            self.ev(1.0, "brownout", action="escalate", stage=1, depth=9),
            self.ev(2.5, "dispatch", key=1, node=0, reconfig_time=0.0),
            self.ev(2.5, "start", key=1, node=0),
            self.ev(4.0, "complete", key=1, node=0),
        ]
        analysis = analyze_events(events)
        ledger = analysis.ledgers[1]
        assert ledger.phases["brownout"] == 1.5
        assert ledger.phases["queue"] == 1.0
        assert analysis.conservation_violations() == []
        assert analysis.brownout_windows == [(1.0, 4.0)]

    def test_reconfig_split_out_of_placement(self):
        events = [
            self.ev(0.0, "submit", key=1, function="f", pe_class="RPE"),
            self.ev(0.5, "dispatch", key=1, node=0, reconfig_time=0.3),
            self.ev(1.5, "start", key=1, node=0),
            self.ev(2.0, "complete", key=1, node=0),
        ]
        ledger = analyze_events(events).ledgers[1]
        assert ledger.phases["queue"] == pytest.approx(0.5)
        assert ledger.phases["reconfig"] == pytest.approx(0.3)
        assert ledger.phases["placement"] == pytest.approx(0.7)
        assert ledger.phases["compute"] == pytest.approx(0.5)

    def test_fault_recovery_and_orphan_attribution(self):
        events = [
            self.ev(0.0, "submit", key=1, function="f", pe_class="GPP"),
            self.ev(0.0, "dispatch", key=1, node=0, reconfig_time=0.0),
            self.ev(0.0, "start", key=1, node=0),
            self.ev(1.0, "fault", key=1, node=0, reason="seu"),
            self.ev(1.5, "retry", key=1, attempt=2),
            self.ev(2.0, "dispatch", key=1, node=1, reconfig_time=0.0),
            self.ev(2.0, "start", key=1, node=1),
            self.ev(2.5, "lease-expire", key=1, node=1, expired_at=2.5),
            self.ev(3.5, "orphan-recovered", key=1, node=1, reason="x"),
            self.ev(4.0, "dispatch", key=1, node=0, reconfig_time=0.0),
            self.ev(4.0, "start", key=1, node=0),
            self.ev(5.0, "complete", key=1, node=0),
        ]
        ledger = analyze_events(events).ledgers[1]
        # In-flight execution scrapped by the fault + post-retry wait.
        assert ledger.phases["recovery"] == pytest.approx(2.0)
        # Lease lapse -> recovery -> re-dispatch is orphan limbo.
        assert ledger.phases["orphan"] == pytest.approx(1.5)
        assert ledger.phases["compute"] == pytest.approx(1.5)
        assert ledger.conservation_error <= CONSERVATION_TOL

    def test_pending_tasks_are_excluded_from_conservation(self):
        events = [
            self.ev(0.0, "submit", key=1, function="f", pe_class="GPP"),
        ]
        analysis = analyze_events(events)
        assert analysis.ledgers[1].outcome == "pending"
        assert analysis.ledgers[1].turnaround is None
        assert analysis.conservation_violations() == []

    def test_violation_is_reported(self):
        events = [
            self.ev(0.0, "submit", key=1, function="f", pe_class="GPP"),
            self.ev(0.0, "dispatch", key=1, node=0, reconfig_time=0.0),
            self.ev(0.0, "start", key=1, node=0),
            self.ev(1.0, "complete", key=1, node=0),
        ]
        analysis = analyze_events(events)
        assert analysis.conservation_violations() == []
        analysis.ledgers[1].phases["compute"] += 0.5  # corrupt the ledger
        violations = analysis.conservation_violations()
        assert violations and violations[0][0] == 1
        assert violations[0][1] == pytest.approx(0.5)


class TestCriticalPath:
    def run_graph(self, tasks):
        rms, _ = gpp_rms(gpps=3)
        sink = InMemorySink()
        from repro.sim.simulator import DReAMSim

        sim = DReAMSim(rms, tracer=Tracer(TraceInvariantChecker(), sink))
        sim.submit_graph(tasks)
        sim.run()
        return analyze_events(canonical_events(list(sink.events)))

    def test_chain_critical_path_covers_makespan(self):
        analysis = self.run_graph([
            gpp_task(0),
            gpp_task(1, sources=(0,), in_bytes=8),
            gpp_task(2, sources=(1,), in_bytes=8),
        ])
        cp = analysis.critical_path
        assert cp is not None
        assert [k[1] for k in cp.keys] == [0, 1, 2]
        # A pure chain IS the makespan.
        assert cp.share_of_makespan == pytest.approx(1.0, rel=1e-6)
        assert len(cp.nodes) == 3
        for _, dominant, phases in cp.nodes:
            assert dominant in PHASES
            assert set(phases) == set(PHASES)

    def test_diamond_picks_the_heavier_arm(self):
        analysis = self.run_graph([
            gpp_task(0),
            gpp_task(1, t=2.0, sources=(0,), in_bytes=8),
            gpp_task(2, t=0.5, sources=(0,), in_bytes=8),
            gpp_task(3, sources=(1, 2), in_bytes=8),
        ])
        cp = analysis.critical_path
        assert cp is not None
        assert [k[1] for k in cp.keys] == [0, 1, 3]

    def test_analyze_json_carries_the_critical_path(self, tmp_path, capsys):
        from repro.sim.simulator import DReAMSim

        trace = tmp_path / "graph.trace.jsonl"
        rms, _ = gpp_rms(gpps=3)
        sim = DReAMSim(rms, tracer=Tracer(TraceInvariantChecker(), JsonlSink(trace)))
        sim.submit_graph([
            gpp_task(0),
            gpp_task(1, sources=(0,), in_bytes=8),
            gpp_task(2, sources=(1,), in_bytes=8),
        ])
        sim.run()
        sim.tracer.close()
        out = tmp_path / "phases.json"
        assert main(["analyze", str(trace), "--json", str(out)]) == 0
        capsys.readouterr()
        cp = json.loads(out.read_text())["traces"][str(trace)]["critical_path"]
        assert [key[1] for key in cp["keys"]] == [0, 1, 2]
        assert cp["share_of_makespan"] == pytest.approx(1.0, rel=1e-6)
        assert cp["total_s"] == pytest.approx(cp["makespan_s"], rel=1e-6)
        assert [node["dominant_phase"] in PHASES for node in cp["nodes"]] == [True] * 3

    def test_synthetic_workloads_have_no_critical_path(self):
        analysis = analyze_trace(golden_path("hybrid-cost"))
        assert analysis.critical_path is None


def brownout_spec():
    """The flash crowd against a brownout controller that flaps: six
    degraded windows, with queue wait inside and between them."""
    from repro.sim.admission import AdmissionSpec, BrownoutSpec

    return flash_crowd_spec().with_(admission=AdmissionSpec(
        brownout=BrownoutSpec(enter_pending=8, exit_pending=2, dwell_s=0.2)
    ))


def _cut_in_brownout(events):
    """The trace cut off 60 events after its last brownout window opened."""
    opened = max(
        i for i, e in enumerate(events)
        if e.kind == "brownout" and e.payload["action"] == "escalate"
        and e.payload["stage"] == 1
    )
    return events[:opened + 60]


#: name -> callable giving the events of one trace.
ONE_PASS_TRACES = {
    **{
        f"golden-{name}": (lambda name=name: read_jsonl(golden_path(name)))
        for name in sorted(GOLDEN)
    },
    "backpressure": lambda: traced_run(backpressure_spec())[1],
    "brownout": lambda: traced_run(brownout_spec())[1],
    "cut-in-brownout": lambda: _cut_in_brownout(
        traced_run(brownout_spec())[1]
    ),
}


class TestOnePassFolds:
    """Both offline folds read their input once: a one-shot iterator
    gives exactly what the whole list gives."""

    @pytest.mark.parametrize("name", sorted(ONE_PASS_TRACES))
    def test_ledger_from_iterator_equals_list(self, name):
        events = ONE_PASS_TRACES[name]()
        for tenant in ("", "tenant1"):
            listed = analyze_events(events, tenant=tenant).to_json()
            streamed = analyze_events(iter(events), tenant=tenant).to_json()
            assert json.dumps(streamed) == json.dumps(listed), tenant
            assert listed["tasks"] > 0 or tenant

    @pytest.mark.parametrize("name", sorted(ONE_PASS_TRACES))
    def test_slo_replay_from_iterator_equals_list(self, name):
        events = ONE_PASS_TRACES[name]()
        spec = parse_slo(["queue:10:5", "latency-p95:0.5:5",
                          "availability:0.99:5"])
        assert repr(evaluate_trace(iter(events), spec)) == repr(
            evaluate_trace(events, spec)
        )

    def test_traces_cover_the_cases(self):
        """The backpressure run re-offers deferred submissions, and the
        cut trace ends inside a brownout window: the open window runs
        to the last event."""
        deferred = ONE_PASS_TRACES["backpressure"]()
        assert any(
            e.kind == "defer" and e.payload["attempt"] > 1 for e in deferred
        )
        full = analyze_events(ONE_PASS_TRACES["brownout"]())
        assert len(full.brownout_windows) == 6
        assert full.phase_totals()["brownout"] > 0
        cut = ONE_PASS_TRACES["cut-in-brownout"]()
        windows = analyze_events(iter(cut)).brownout_windows
        assert windows[:-1] == full.brownout_windows[:len(windows) - 1]
        assert windows[-1][1] == cut[-1].time > windows[-1][0]
        assert all(e.kind != "brownout" or e.payload["stage"] > 0
                   for e in cut if e.time >= windows[-1][0])


class TestAnalyzeCli:
    def test_analyze_all_goldens_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "analysis.json"
        code = main(
            ["analyze"]
            + [str(golden_path(name)) for name in sorted(GOLDEN)]
            + ["--json", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Per-task phase ledger" in text
        assert "dominant p99 phase" in text
        doc = json.loads(out.read_text())
        assert doc["kind"] == "analysis-suite"
        assert len(doc["traces"]) == len(GOLDEN)
        for entry in doc["traces"].values():
            assert entry["conservation"]["violations"] == []

    def test_unreadable_trace_exits_two(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
