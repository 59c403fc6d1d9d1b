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
The third counts what a plan costs in full pricings, registry and PE
lookups and fabric region walks.

Pricing looks for a region only where the plan's matching did not
already prove one.  No synthetic workload reaches that search, so the
last tests build grids that do: a repository bitstream larger than the
task's ``slices`` requirement, a task with no area requirement, and GPU
and soft-core candidates.  Each plan must equal the cheapest fresh
quote of a priceable candidate, the earliest on ties.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.matching import Candidate
from repro.core.node import Node
from repro.core.task import simple_task
from repro.grid.network import Network
from repro.grid.rms import Placement, ResourceManagementSystem
from repro.grid.virtualizer import VirtualizationLayer
from repro.hardware.bitstream import Bitstream
from repro.hardware.catalog import device_by_model
from repro.hardware.fabric import Fabric
from repro.hardware.gpp import GPPSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.softcore import RHO_VEX_4ISSUE
from repro.hardware.taxonomy import PEClass
from repro.sim.experiment import run_experiment
from tests.properties.test_prop_static_matching import fresh_quote
from tests.sim.test_routing_work import wide_spec


def count_calls(monkeypatch, counts, cls, name, key):
    """Count every call of ``cls.name`` under ``counts[key]``."""
    real = getattr(cls, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, name, wrapper)


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
    count_calls(monkeypatch, counts, Candidate, "__init__", "candidates")
    count_calls(monkeypatch, counts, VirtualizationLayer, "plan_rpe_configuration", "plans")
    count_calls(monkeypatch, counts, Network, "transfer_time", "transfers")
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


@pytest.fixture
def lookups(monkeypatch):
    """Counts full pricings (``_components``), pins (``_resolve``),
    ``rms.node`` calls, ``Node._find`` scans and fabric region walks,
    plus the plans and the RPEs their matching visits."""
    counts = Counter()
    count_calls(monkeypatch, counts, ResourceManagementSystem, "_components", "pricings")
    count_calls(monkeypatch, counts, ResourceManagementSystem, "_resolve", "pins")
    count_calls(monkeypatch, counts, ResourceManagementSystem, "node", "nodes")
    # A staticmethod: the wrapper must stay one, or it binds the node.
    real_find = Node._find

    def find(*args):
        counts["finds"] += 1
        return real_find(*args)

    monkeypatch.setattr(Node, "_find", staticmethod(find))
    for name in ("find_resident", "find_placeable", "admit"):
        count_calls(monkeypatch, counts, Fabric, name, "walks")
    real_plan = ResourceManagementSystem.plan_placement

    def plan(self, task, **kwargs):
        counts["plans"] += 1
        if task.exec_req.node_type is PEClass.RPE:
            counts["visits"] += sum(len(node.rpes) for node in self.nodes)
        return real_plan(self, task, **kwargs)

    monkeypatch.setattr(ResourceManagementSystem, "plan_placement", plan)
    return counts


def test_wide_grid_prices_each_class_and_site_once_per_plan(lookups):
    report = run_experiment(wide_spec()).report
    assert report.completed == 200
    plans = lookups["plans"]
    assert plans == 200
    # One full pricing per price class a plan sees: 598 on this spec
    # (4,847, one per candidate, when every candidate was priced).
    assert lookups["pricings"] <= 3 * plans
    # A candidate carries its PE and a placement its region, so nothing
    # on the run path looks a node up per pin, or scans a node's PE
    # lists: 559 ``rms.node`` calls and as many ``Node._find`` scans on
    # this spec when the pin and the placement lifecycle resolved the
    # candidate's ids (5,339 when every pricing did).
    assert lookups["pins"] > 0
    assert lookups["nodes"] <= lookups["pins"]
    assert lookups["finds"] == 0
    # Matching walks each RPE it visits once, and pricing walks only
    # the chosen candidate's fabric: 3,795 on this spec (10,234 when
    # matching walked each fabric twice and pricing once per candidate).
    assert lookups["walks"] <= lookups["visits"] + plans


def cheapest_fresh_quote(rms, task):
    """The fresh quote of the cheapest priceable candidate, the earliest
    on ties (what the hybrid strategy picks), and the candidates whose
    quote raised."""
    best, unpriceable = None, []
    for candidate in rms.find_candidates(task):
        quote = fresh_quote(rms, task, candidate, None)
        if isinstance(quote, type):
            unpriceable.append(candidate)
        elif best is None or quote.total_time_s < best.total_time_s:
            best = quote
    return best, unpriceable


def assert_plans_cheapest(rms, task):
    expected, unpriceable = cheapest_fresh_quote(rms, task)
    placement = rms.plan_placement(task)
    assert placement is not None and expected is not None
    for field in dataclasses.fields(Placement):
        assert getattr(placement, field.name) == getattr(expected, field.name), field.name
    return placement, unpriceable


def split_fabrics_rms():
    """Two XC5VLX110 RPEs (17,280 slices) on two nodes: four regions on
    the first, one on the second, and a repository bitstream of
    ``fft`` that only the second can place."""
    rms = ResourceManagementSystem()
    for node_id, regions in ((0, 4), (1, 1)):
        node = Node(node_id=node_id, name=f"Node_{node_id}")
        node.add_rpe(device_by_model("XC5VLX110"), regions=regions)
        rms.register_node(node)
    rms.virtualization.repository.put(
        Bitstream(500, "XC5VLX110", 2_000_000, 9_000, implements="fft")
    )
    return rms


def fft_task(constraints=()):
    return simple_task(
        1,
        ExecReq(
            node_type=PEClass.RPE,
            constraints=constraints,
            artifacts=Artifacts(application_code="x"),
        ),
        1.0,
        function="fft",
    )


@pytest.mark.parametrize(
    "constraints",
    [(MinValue("slices", 2_000),), ()],
    ids=["bitstream-above-requirement", "no-area-requirement"],
)
def test_region_search_skips_an_unplaceable_candidate(constraints):
    """Matching admits both RPEs (2,000 slices fit a 4,320-slice region;
    with no requirement any available region does), but the repository
    bitstream needs 9,000.  Both candidates share one price class, so a
    plan that took the first as placeable would choose it and fail."""
    rms = split_fabrics_rms()
    placement, unpriceable = assert_plans_cheapest(rms, fft_task(constraints))
    assert [c.node_id for c in unpriceable] == [0]
    assert placement.candidate.node_id == 1
    assert placement.bitstream.required_slices == 9_000


def test_gpu_and_softcore_candidates_are_priced_one_by_one():
    """GPU candidates, hosted soft cores and soft cores still to be
    provisioned have no price class; each plan still equals the
    cheapest fresh quote."""
    rms = ResourceManagementSystem(
        network=Network.fully_connected([0, 1], bandwidth_mbps=50.0, latency_s=0.02)
    )
    node = Node(node_id=0, name="Node_0")
    node.add_gpu(GPUSpec(model="Tesla-C1060", shader_cores=240))
    node.add_gpu(GPUSpec(model="Tesla-C2050", shader_cores=448))
    node.add_gpp(GPPSpec(cpu_model="Atom", mips=300))
    rms.register_node(node)
    node = Node(node_id=1, name="Node_1")
    node.add_rpe(device_by_model("XC5VLX155"), regions=2).host_softcore(RHO_VEX_4ISSUE)
    node.add_rpe(device_by_model("XC5VLX330"), regions=2)
    rms.register_node(node)

    def task(task_id, node_type, softcore=None):
        req = ExecReq(
            node_type=node_type,
            artifacts=Artifacts(application_code="x", softcore=softcore),
        )
        return simple_task(task_id, req, 1.0, in_bytes=1_000_000, workload_mi=2_000.0)

    kinds = set()
    for requested in (
        task(1, PEClass.GPU),
        task(2, PEClass.GPP),
        task(3, PEClass.SOFTCORE, RHO_VEX_4ISSUE),
    ):
        candidates = rms.find_candidates(requested)
        assert len(candidates) >= 2
        kinds |= {(c.kind, c.region_id is not None) for c in candidates}
        assert_plans_cheapest(rms, requested)
    assert {
        (PEClass.GPU, False), (PEClass.SOFTCORE, True), (PEClass.SOFTCORE, False),
    } <= kinds
