"""Matchmaking work gate: a seeded flash crowd matches each blocked
requirement once per dispatch round, and a pass looks only at what the
grid can place.

Under a surge the pending queue holds hundreds of tasks that share a
handful of requirements.  The RMS's round memo answers a requirement
that already found no candidate in this pass without matching it
again, until the next commit changes the grid.  The pending queue
groups entries by that requirement, skips a declined group at once,
and after a pass in which nothing was released offers only the
newcomers.  This test counts the work on a seeded flash-crowd run; a
count is deterministic, so the gate cannot flake the way a wall-clock
tolerance does, and it fails as soon as per-task rescans, per-entry
placement requests or per-entry visits come back.
"""

import json
import zlib
from dataclasses import replace

import pytest

from repro.grid.rms import ResourceManagementSystem
from repro.sim.admission import AdmissionSpec, BrownoutSpec, QueueBoundSpec
from repro.sim.experiment import ExperimentSpec, NodeSpec, run_experiment
from repro.sim.simulator import DReAMSim
from repro.sim.telemetry import TelemetryRegistry


def flash_crowd_spec() -> ExperimentSpec:
    """The two-node reference grid under a 4x surge, with a bounded
    queue and brownout: a long queue of blocked tasks builds up."""
    return ExperimentSpec(
        tasks=400,
        nodes=(
            NodeSpec(gpps=1, gpp_mips=2_000, rpe_models=("XC5VLX330",), regions_per_rpe=3),
            NodeSpec(gpps=1, gpp_mips=1_500, rpe_models=("XC5VLX155",), regions_per_rpe=2),
        ),
        arrival_rate_per_s=2.0,
        gpp_fraction=0.4,
        area_range=(2_000, 12_000),
        seed=0,
        flash_crowd=(20.0, 400.0, 4.0),
        low_priority_fraction=0.3,
        tenants=3,
        admission=AdmissionSpec(
            queue=QueueBoundSpec(max_pending=96),
            brownout=BrownoutSpec(enter_pending=48, exit_pending=16, dwell_s=1.0),
        ),
    )


def requirement(task, exclude_nodes) -> tuple:
    """What a scan depends on: the task's requirement and function
    (with the per-task input size zeroed out) and the excluded nodes."""
    req = task.exec_req
    return (
        replace(req, artifacts=replace(req.artifacts, input_data_bytes=0)),
        task.function,
        frozenset(exclude_nodes or ()),
    )


@pytest.fixture
def work(monkeypatch):
    """Counts placement requests, candidate scans and what the pass
    examines (offers, round-memo lookups, brownout rewrite checks), and
    logs (round epoch, match key) for every scan that found nothing; the
    epoch advances on every dispatch pass and every commit."""
    counts = {"plans": 0, "scans": 0, "offers": 0, "lookups": 0, "rewrites": 0}
    empty: list[tuple[int, tuple]] = []
    epoch = [0]
    excluded = [None]
    real_plan = ResourceManagementSystem.plan_placement
    real_scan = ResourceManagementSystem.find_candidates
    real_commit = ResourceManagementSystem.commit
    real_pass = DReAMSim._dispatch_pending
    real_offer = DReAMSim._try_dispatch
    real_rewrite = DReAMSim._degrade_low_priority

    def plan(self, task, **kwargs):
        counts["plans"] += 1
        excluded[0] = kwargs.get("exclude_nodes")
        return real_plan(self, task, **kwargs)

    def scan(self, task, **kwargs):
        counts["scans"] += 1
        found = real_scan(self, task, **kwargs)
        if not found:
            empty.append((epoch[0], requirement(task, excluded[0])))
        return found

    def commit(self, placement):
        epoch[0] += 1
        return real_commit(self, placement)

    def dispatch_pass(self):
        epoch[0] += 1
        return real_pass(self)

    def offer(self, entry):
        counts["offers"] += 1
        return real_offer(self, entry)

    def rewrite(self, entry):
        counts["rewrites"] += 1
        return real_rewrite(self, entry)

    class CountingMemo:
        """The round memo, counting membership tests."""

        def __init__(self, rms):
            self.rms = rms

        def _keys(self):
            return self.rms._infeasible or frozenset()

        def __contains__(self, key):
            counts["lookups"] += 1
            return key in self._keys()

        def __bool__(self):
            return bool(self._keys())

        def __len__(self):
            return len(self._keys())

    monkeypatch.setattr(ResourceManagementSystem, "plan_placement", plan)
    monkeypatch.setattr(ResourceManagementSystem, "find_candidates", scan)
    monkeypatch.setattr(ResourceManagementSystem, "commit", commit)
    monkeypatch.setattr(DReAMSim, "_dispatch_pending", dispatch_pass)
    monkeypatch.setattr(DReAMSim, "_try_dispatch", offer)
    monkeypatch.setattr(DReAMSim, "_degrade_low_priority", rewrite)
    monkeypatch.setattr(
        ResourceManagementSystem, "declined_keys", property(CountingMemo)
    )
    return counts, empty


def test_flash_crowd_matches_each_blocked_requirement_once_per_round(work):
    counts, empty = work
    report = run_experiment(flash_crowd_spec()).report
    assert report.completed + report.shed == 400
    assert report.brownout_max_stage >= 1  # the queue really did pile up
    assert empty  # some requirements really were blocked
    # No requirement came back empty twice between two grid changes.
    assert len(empty) == len(set(empty))
    # The memo holds the scans to 1,410.
    assert counts["scans"] <= 1_410
    # Re-offering every entry on every pass made 38.6 visits, 36.5 memo
    # lookups, 6.4 brownout rewrite checks and 3.5 placement requests
    # per task.  Group skips and newcomer-only passes after nothing was
    # released make 2.2 requests, 1.4 lookups and 0.2 checks.
    assert counts["plans"] <= 3 * 400
    examined = counts["offers"] + counts["lookups"] + counts["rewrites"]
    assert examined <= 8 * 400


def test_skipped_declines_move_the_counters_they_would_have():
    """The pass counts its skipped entries in one ``inc`` at one
    simulated instant; the counters, and the deferred counter's whole
    ``(time, value)`` step series, equal those of declining each entry
    inside ``plan_placement`` one at a time."""
    telemetry = TelemetryRegistry()
    run_experiment(flash_crowd_spec(), telemetry=telemetry)
    values = {series.name: series.value for series in telemetry.series()}
    assert values["rms_placements_deferred_total"] == 15_092
    assert values["rms_placements_planned_total"] == 346
    assert values["sim_degrades_total"] == 20
    points = telemetry.counter("rms_placements_deferred_total").points
    assert f"{zlib.crc32(json.dumps(points).encode()):08x}" == "0278c369"
