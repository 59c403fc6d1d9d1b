"""Static matching and pricing work gate on the seeded wide-grid run.

A task's requirement is matched against Table I descriptors that never
change, so the RMS answers each (requirement, PE spec) pair once and
reads only dynamic state after that.  The strategy prices candidates as
numbers, and only the chosen one becomes a
:class:`~repro.grid.rms.Placement`.  This test counts both on the
16-node, 200-task spec of ``test_routing_work.py``; a count is
deterministic, so the gate cannot flake the way a wall-clock tolerance
does, and it fails as soon as per-call matching or per-candidate
placements come back.

Matching interns each candidate on its node, and pricing reads what an
RPE's price class (device, resident reuse) shares once per plan, and
each site's staging time once per plan; the second test counts those.
"""

import pytest

from repro.core.execreq import ExecReq
from repro.core.matching import Candidate
from repro.grid.network import Network
from repro.grid.rms import Placement, ResourceManagementSystem
from repro.grid.virtualizer import VirtualizationLayer
from repro.sim.experiment import run_experiment
from tests.sim.test_routing_work import wide_spec


@pytest.fixture
def work(monkeypatch):
    """Counts ``ExecReq.matches`` calls, ``Placement`` constructions and
    successful ``plan_placement`` calls."""
    counts = {"matches": 0, "placements": 0, "planned": 0}
    real_matches = ExecReq.matches
    real_init = Placement.__init__
    real_plan = ResourceManagementSystem.plan_placement

    def matches(self, caps):
        counts["matches"] += 1
        return real_matches(self, caps)

    def init(self, *args, **kwargs):
        counts["placements"] += 1
        real_init(self, *args, **kwargs)

    def plan(self, task, **kwargs):
        placement = real_plan(self, task, **kwargs)
        counts["planned"] += placement is not None
        return placement

    monkeypatch.setattr(ExecReq, "matches", matches)
    monkeypatch.setattr(Placement, "__init__", init)
    monkeypatch.setattr(ResourceManagementSystem, "plan_placement", plan)
    return counts


def test_wide_grid_matches_statically_once_and_builds_one_placement_per_plan(work):
    report = run_experiment(wide_spec()).report
    assert report.completed == 200
    assert work["planned"] == 200
    # 24 hardware requirements x 4 device models, plus the software
    # requirement x 32 GPP specs (6,400 calls when every scan
    # re-matched every PE).
    assert work["matches"] <= 128
    # Only the chosen candidate becomes a Placement (4,847 when every
    # priced candidate did).
    assert work["placements"] <= work["planned"]


@pytest.fixture
def pricing(monkeypatch):
    """Counts ``Candidate`` constructions, configuration plans and
    network transfer quotes, and the distinct candidate sites of every
    plan."""
    counts = {"candidates": 0, "plans": 0, "transfers": 0, "sites": 0}

    def counting(cls, name, key):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(Candidate, "__init__", "candidates")
    counting(VirtualizationLayer, "plan_rpe_configuration", "plans")
    counting(Network, "transfer_time", "transfers")
    real_find = ResourceManagementSystem.find_candidates

    def find(self, task, **kwargs):
        candidates = real_find(self, task, **kwargs)
        counts["sites"] += len({self.site_of(c.node_id) for c in candidates})
        return candidates

    monkeypatch.setattr(ResourceManagementSystem, "find_candidates", find)
    return counts


def test_wide_grid_builds_each_candidate_once_and_prices_by_class(pricing):
    spec = wide_spec()
    report = run_experiment(spec).report
    assert report.completed == 200
    # One Candidate per (node, PE, resident reuse) at most, over the
    # whole run (4,847 when every scan built its own).
    pairs = sum(node.gpps + 2 * len(node.rpe_models) for node in spec.nodes)
    assert pairs == 96
    assert pricing["candidates"] <= pairs
    # One configuration plan per (device, reuse) class a plan sees: 344
    # on this spec (2,553 when every RPE candidate was planned).
    assert pricing["plans"] <= 400
    # Staging is quoted once per candidate site per plan; a site costs
    # at most its input stream and a user-shipped bitstream (4,847, one
    # per candidate, when every candidate was staged).
    assert pricing["transfers"] <= 2 * pricing["sites"]
