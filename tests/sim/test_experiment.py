"""Unit tests for the declarative experiment API."""

import dataclasses
import json
import zlib

import pytest

from repro.bench.cases import RECONFIG
from repro.sim.admission import AdmissionSpec, QueueBoundSpec
from repro.sim.experiment import (
    ExperimentSpec,
    NodeSpec,
    build_grid,
    run_experiment,
    sweep,
)
from repro.sim.faults import FAULT_PRESETS
from repro.sim.resilience import RESILIENCE_PRESETS
from repro.sim.slo import SLOObjective, SLOSpec
from repro.sim.workload import TraceArrivals


class TestSpecValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ExperimentSpec(strategy="magic")

    def test_needs_nodes(self):
        with pytest.raises(ValueError, match="node"):
            ExperimentSpec(nodes=())

    def test_node_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(gpps=-1)
        with pytest.raises(ValueError):
            NodeSpec(gpps=0, rpe_models=())
        with pytest.raises(ValueError):
            NodeSpec(regions_per_rpe=0)

    @pytest.mark.parametrize(
        "network",
        [
            dict(bandwidth_mbps=float("nan")),
            dict(bandwidth_mbps=float("inf")),
            dict(latency_s=float("nan")),
            dict(latency_s=float("inf")),
        ],
    )
    def test_non_finite_network_rejected(self, network):
        with pytest.raises(ValueError):
            ExperimentSpec(tasks=20, **network)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tenants", 2.5),
            ("discard_after_s", float("nan")),
            ("discard_after_s", float("inf")),
            ("tasks", 2.5),
            ("tasks", float("nan")),
            ("seed", 1.5),
            ("speedup_range", (float("nan"), 2.0)),
            ("area_range", (float("nan"), 5_000)),
            ("partial_reconfiguration", 0),
            ("partial_reconfiguration", "no"),
        ],
        ids=lambda v: repr(v) if not isinstance(v, str) else v,
    )
    def test_malformed_values_rejected(self, field, value):
        """Every field reaches the run, so a bad one must fail here,
        not as a numpy TypeError or a SimulationError mid-run."""
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(tasks=20).with_(**{field: value})

    def test_with_creates_modified_copy(self):
        base = ExperimentSpec(tasks=10)
        changed = base.with_(tasks=20, seed=5)
        assert base.tasks == 10
        assert changed.tasks == 20 and changed.seed == 5


class TestBuildGrid:
    def test_grid_matches_spec(self):
        spec = ExperimentSpec(
            nodes=(
                NodeSpec(gpps=2, rpe_models=("XC5VLX110", "XC5VLX220")),
                NodeSpec(gpps=0, rpe_models=("XC5VLX330",)),
            )
        )
        rms = build_grid(spec)
        assert len(rms.nodes) == 2
        assert len(rms.nodes[0].gpps) == 2
        assert [r.device.model for r in rms.nodes[0].rpes] == ["XC5VLX110", "XC5VLX220"]
        assert len(rms.nodes[1].gpps) == 0


class TestRunExperiment:
    def small_spec(self, **overrides):
        params = dict(tasks=30, arrival_rate_per_s=4.0, seed=7)
        params.update(overrides)
        return ExperimentSpec(**params)

    def test_completes_and_reports(self):
        result = run_experiment(self.small_spec())
        assert result.report.completed == 30
        assert result.energy is None

    def test_energy_audit_optional(self):
        result = run_experiment(self.small_spec(), audit_energy=True)
        assert result.energy is not None
        assert result.energy.total_j > 0

    def test_reproducible(self):
        a = run_experiment(self.small_spec())
        b = run_experiment(self.small_spec())
        assert a.report == b.report

    def test_seed_changes_outcome(self):
        a = run_experiment(self.small_spec(seed=1))
        b = run_experiment(self.small_spec(seed=2))
        assert a.report != b.report

    def test_trace_arrivals_override(self):
        trace = TraceArrivals([0.1 * i for i in range(30)])
        result = run_experiment(self.small_spec(), arrivals=trace)
        assert result.report.completed == 30

    def test_discard_knob(self):
        # One slow node, instant arrivals, tight discard deadline.
        spec = self.small_spec(
            nodes=(NodeSpec(gpps=1, rpe_models=()),),
            gpp_fraction=1.0,
            discard_after_s=0.5,
            arrival_rate_per_s=100.0,
        )
        result = run_experiment(spec)
        assert result.report.discarded > 0
        assert (
            result.report.completed + result.report.discarded + result.report.pending
            == 30
        )

    def test_full_reconfiguration_costs_more_than_partial(self):
        partial, full = (
            run_experiment(
                RECONFIG.with_(configurations=8, partial_reconfiguration=mode)
            ).report
            for mode in (True, False)
        )
        assert partial.completed == full.completed == RECONFIG.tasks
        assert full.total_reconfig_time_s > partial.total_reconfig_time_s


class TestRunScaleExperiment:
    #: CRC-32 of every report field, sorted by name, for SCALE_SPEC.
    #: Recorded on the former scale driver, before run_experiment took
    #: its columnar path; a change here means the one driver simulates
    #: something else.
    PINNED_CRC = "2abdc35a"

    SCALE_SPEC = ExperimentSpec(
        tasks=2_000,
        nodes=(
            NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",),
                     regions_per_rpe=3),
            NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",),
                     regions_per_rpe=2),
        ),
        arrival_rate_per_s=2.0,
        gpp_fraction=0.4,
        area_range=(2_000, 12_000),
        flash_crowd=(200.0, 100.0, 3.0),
        faults=dataclasses.replace(FAULT_PRESETS["chaos"], horizon_s=1_000.0),
        resilience=RESILIENCE_PRESETS["defensive"],
        admission=AdmissionSpec(queue=QueueBoundSpec(max_pending=64)),
        slo=SLOSpec(objectives=(
            SLOObjective("latency", 2.0, percentile=95.0, window_s=50.0),
        )),
        engine="calendar",
        seed=2012,
    )

    def test_seeded_report_is_pinned(self):
        report = run_experiment(self.SCALE_SPEC).report
        # The spec reaches every layer the build path wires up.
        assert report.fault_events > 0 and report.quarantines > 0
        assert report.shed > 0 and report.slo_objectives == 1
        text = json.dumps(dataclasses.asdict(report), sort_keys=True)
        assert f"{zlib.crc32(text.encode()):08x}" == self.PINNED_CRC


class TestSweep:
    def test_strategy_sweep(self):
        base = ExperimentSpec(tasks=20, seed=3)
        results = sweep(base, "strategy", ["fcfs", "hybrid-cost"])
        assert [r.spec.strategy for r in results] == ["fcfs", "hybrid-cost"]
        assert all(r.report.completed == 20 for r in results)

    def test_load_sweep_waits_grow(self):
        base = ExperimentSpec(
            tasks=60,
            nodes=(NodeSpec(gpps=1, rpe_models=("XC5VLX220",)),),
            seed=11,
        )
        slow, fast = sweep(base, "arrival_rate_per_s", [0.5, 8.0])
        assert fast.report.mean_wait_s >= slow.report.mean_wait_s


class TestReplication:
    def test_aggregates_over_seeds(self):
        from repro.sim.experiment import replicate

        base = ExperimentSpec(tasks=25, arrival_rate_per_s=4.0)
        summary = replicate(base, seeds=[1, 2, 3])
        assert summary.seeds == (1, 2, 3)
        assert summary.mean_makespan_s > 0
        assert summary.std_makespan_s >= 0
        assert any("replications" in line for line in summary.summary_lines())

    def test_identical_seeds_zero_variance(self):
        from repro.sim.experiment import replicate

        base = ExperimentSpec(tasks=20)
        summary = replicate(base, seeds=[5, 5])
        assert summary.std_wait_s == 0.0
        assert summary.std_makespan_s == 0.0

    def test_needs_seeds(self):
        from repro.sim.experiment import replicate

        with pytest.raises(ValueError):
            replicate(ExperimentSpec(tasks=5), seeds=[])
