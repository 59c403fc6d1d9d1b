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
"""

import pytest

from repro.core.execreq import ExecReq
from repro.grid.rms import Placement, ResourceManagementSystem
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
