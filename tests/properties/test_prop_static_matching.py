"""Oracle and differential tests for static matching and arithmetic pricing.

The RMS remembers, per requirement and per frozen PE spec, whether the
spec can ever run the requirement, and prices candidates as numbers,
building a :class:`~repro.grid.rms.Placement` only for the chosen one.
Two families of properties pin both shortcuts to their references:

* matching -- on a random grid mutated between calls, the memoized
  ``rms.find_candidates`` returns what a fresh, unmemoized match
  returns, and its static answers agree with the ClassAd substrate;
* pricing -- ``estimate_cost_s`` equals a fresh quote's
  ``total_time_s`` bit for bit, and ``plan_placement``'s placement
  equals a fresh quote of the same candidate, field by field, also
  where candidates of two nodes share a price class.

Matching also interns candidates: an unchanged grid answers with the
same objects, and a removed PE shifts the index its successors carry.
"""

import dataclasses
import struct
from dataclasses import replace

from hypothesis import event, given, settings, strategies as st

from repro.core.execreq import Artifacts, ExecReq
from repro.core.matching import find_candidates, task_required_slices
from repro.core.node import Node
from repro.core.state import PEState
from repro.core.task import DataIn, EXTERNAL_SOURCE, simple_task
from repro.grid.classad_bridge import classad_candidates
from repro.grid.network import USER_SITE, Network
from repro.grid.rms import Placement, ResourceManagementSystem, SchedulingError
from repro.grid.virtualizer import VirtualizationError
from repro.hardware.bitstream import Bitstream, HDLDesign
from repro.hardware.catalog import device_by_model
from repro.hardware.fabric import RegionState
from repro.hardware.gpp import GPPSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.softcore import RHO_VEX_4ISSUE, RHO_VEX_8ISSUE, SoftcoreSpec
from repro.hardware.taxonomy import PEClass
from repro.scheduling import (
    BestFitAreaScheduler,
    EnergyAwareScheduler,
    FirstFitScheduler,
    HybridCostScheduler,
)
from tests.grid.test_rms import FUNCTIONS, MODELS, grid_states, task_fields, task_from

#: A soft core that fits XC5VLX330 but not XC5VLX155 or XC5VLX110.
WIDE_CORE = SoftcoreSpec(
    name="rho-VEX-8issue-x3", issue_width=8, fu_mix=RHO_VEX_8ISSUE.fu_mix, clusters=3
)
#: Circuit areas between the modeled devices' sizes (17,280, 24,320 and
#: 51,840 slices), so the area rule sorts devices.
WIDE_SLICES = st.sampled_from((20_000, 30_000, 60_000))


def widened(draw, fields: dict) -> dict:
    """*fields* with, sometimes, artifacts larger than some devices:
    ``task_fields`` draws only circuits every modeled device fits."""
    fields = dict(fields)
    function = fields["function"]
    if draw(st.booleans()):
        fields["hdl_design"] = HDLDesign(
            "wide", "VHDL", 500, draw(WIDE_SLICES), implements=function
        )
    if draw(st.booleans()):
        fields["bitstream"] = Bitstream(
            9, draw(st.sampled_from(MODELS)), 1_000, draw(WIDE_SLICES), implements=function
        )
    if draw(st.booleans()):
        fields["softcore"] = draw(st.sampled_from((None, RHO_VEX_4ISSUE, WIDE_CORE)))
    return fields


MUTATIONS = (
    "add_gpp", "remove_gpp", "add_gpu", "add_rpe", "remove_rpe", "host_softcore",
    "busy_gpp", "configure_region", "busy_region", "offline_rpe", "add_node",
    "remove_node",
)


def mutate(rms, draw, fresh_ids) -> None:
    """Apply one drawn grid change: add or remove a PE or a node, host
    a soft core, or make a resource busy or offline."""
    kind = draw(st.sampled_from(MUTATIONS))
    event(f"mutation: {kind}")
    nodes = rms.nodes
    if kind == "add_node" or not nodes:
        node = Node(node_id=next(fresh_ids), name="Node_new")
        node.add_gpp(GPPSpec(cpu_model="y", mips=draw(st.sampled_from((800, 2_000)))))
        node.add_rpe(device_by_model(draw(st.sampled_from(MODELS))), regions=2)
        rms.register_node(node)
        return
    node = draw(st.sampled_from(nodes))
    rpes = [rpe for rpe in node.rpes if not rpe.offline]
    if kind == "remove_node":
        rms.unregister_node(node.node_id)
    elif kind == "add_gpp":
        node.add_gpp(GPPSpec(cpu_model="x", mips=draw(st.sampled_from((800, 2_000)))))
    elif kind == "remove_gpp" and node.gpps:
        node.remove_gpp(draw(st.sampled_from(node.gpps)).resource_id, force=True)
    elif kind == "add_gpu":
        node.add_gpu(GPUSpec(model="Tesla-C1060", shader_cores=240))
    elif kind == "add_rpe":
        node.add_rpe(device_by_model(draw(st.sampled_from(MODELS))), regions=draw(st.integers(1, 3)))
    elif kind == "remove_rpe" and node.rpes:
        node.remove_rpe(draw(st.sampled_from(node.rpes)).resource_id, force=True)
    elif kind == "host_softcore" and rpes:
        rpe = draw(st.sampled_from(rpes))
        core = RHO_VEX_4ISSUE
        if core.fits_on(rpe.device) and rpe.fabric.can_place(core.required_slices()):
            rpe.host_softcore(core)
    elif kind == "busy_gpp":
        idle = [gpp for gpp in node.gpps if gpp.state is PEState.IDLE]
        if idle:
            draw(st.sampled_from(idle)).assign(next(fresh_ids))
    elif kind == "configure_region" and rpes:
        rpe = draw(st.sampled_from(rpes))
        free = [r for r in rpe.fabric.regions if r.state is RegionState.FREE]
        if free:
            region = draw(st.sampled_from(free))
            bitstream = Bitstream(
                next(fresh_ids), rpe.device.model, 1_000,
                draw(st.integers(1_000, region.slices)),
                implements=draw(st.sampled_from(FUNCTIONS[1:])),
            )
            rpe.fabric.begin_reconfiguration(region, bitstream)
            rpe.fabric.finish_reconfiguration(region)
    elif kind == "busy_region" and rpes:
        rpe = draw(st.sampled_from(rpes))
        configured = [r for r in rpe.fabric.regions if r.state is RegionState.CONFIGURED]
        if configured:
            rpe.begin_task(draw(st.sampled_from(configured)), next(fresh_ids))
    elif kind == "offline_rpe" and rpes:
        draw(st.sampled_from(rpes)).set_offline()


def identity(candidate) -> tuple:
    """What the ClassAd path decides: which PE, not how it is reused."""
    return (candidate.node_id, candidate.kind.value, candidate.resource_id,
            -1 if candidate.region_id is None else candidate.region_id)


def classad_view(task, nodes, typed) -> tuple[list, list]:
    """Both static answers on the rules the two paths share.  The typed
    matcher also offers not-yet-hosted soft cores (no ClassAd offer
    exists for them) and drops devices smaller than the circuit (the
    ClassAd request carries no area), so each side loses what the other
    cannot express."""
    needed = task_required_slices(task) if task.exec_req.node_type is PEClass.RPE else 0
    devices = {
        (node.node_id, rpe.resource_id): rpe.device for node in nodes for rpe in node.rpes
    }
    via_ads = [
        c for c in classad_candidates(task, nodes)
        if c.kind is not PEClass.RPE or needed <= devices[c.node_id, c.resource_id].slices
    ]
    provisioned = [c for c in typed if c.kind is PEClass.SOFTCORE and c.region_id is None]
    kept = [c for c in typed if c not in provisioned]
    return sorted(map(identity, kept)), sorted(map(identity, via_ads))


@settings(max_examples=250, deadline=None)
@given(grid=grid_states(), data=st.data())
def test_memoized_matching_agrees_with_fresh_and_classad(grid, data):
    """Requirements and grid changes interleave, so a memo entry made
    for one requirement or one grid state is read by the next."""
    fresh_ids = iter(range(5_000, 6_000))
    fields = None
    for step in range(data.draw(st.integers(3, 8))):
        drawn = widened(data.draw, data.draw(task_fields()))
        if fields is not None and data.draw(st.booleans()):
            # The previous requirement with one field changed: the memo
            # must tell apart keys that differ in that field alone.
            name = data.draw(st.sampled_from(sorted(drawn)))
            fields = {**fields, name: drawn[name]}
        else:
            fields = drawn
        task = task_from(step + 1, fields)
        for require_available in (True, False):
            memoized = grid.find_candidates(task, require_available=require_available)
            fresh = find_candidates(task, grid.nodes, require_available=require_available)
            assert memoized == fresh, require_available
        typed, via_ads = classad_view(task, grid.nodes, memoized)
        assert typed == via_ads
        mutate(grid, data.draw, fresh_ids)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class Recording:
    """Delegates to *inner*, recording every candidate's memoized
    estimate first (unpriceable candidates record the exception)."""

    def __init__(self, inner):
        self.inner = inner
        self.estimates: list[tuple[object, object]] = []

    def choose(self, task, candidates, rms):
        for candidate in candidates:
            try:
                self.estimates.append((candidate, rms.estimate_cost_s(task, candidate)))
            except (SchedulingError, VirtualizationError) as exc:
                self.estimates.append((candidate, type(exc)))
        return self.inner.choose(task, candidates, rms)


STRATEGIES = (
    HybridCostScheduler, EnergyAwareScheduler, FirstFitScheduler, BestFitAreaScheduler,
)
PRODUCER = 7


def fresh_quote(rms, task, candidate, data_sites):
    """A quote from scratch under *data_sites*, outside any plan."""
    rms._data_sites = data_sites
    try:
        return rms._quote(task, candidate)
    except (SchedulingError, VirtualizationError) as exc:
        return type(exc)
    finally:
        rms._data_sites = None


@settings(max_examples=400, deadline=None)
@given(grid=grid_states(), fields=task_fields(), data=st.data())
def test_arithmetic_pricing_matches_fresh_quotes(grid, fields, data):
    draw = data.draw
    fields = widened(draw, fields)
    if draw(st.booleans()):
        fields["constraints"] = ()  # more candidates to price
    task = task_from(1, fields)
    shared = ()
    if task.exec_req.node_type is PEClass.RPE and task.function and draw(st.booleans()):
        # One device model on RPEs of two more nodes, the task's function
        # resident on the first only: two price classes of one device.
        model = draw(st.sampled_from(MODELS))
        shared = (10, 11)
        for node_id in shared:
            node = Node(node_id=node_id, name=f"Node_{node_id}")
            rpe = node.add_rpe(device_by_model(model), regions=2)
            if node_id == shared[0]:
                region = rpe.fabric.regions[0]
                rpe.fabric.begin_reconfiguration(region, Bitstream(
                    98, model, 1_000, draw(st.integers(1_000, region.slices)),
                    implements=task.function,
                ))
                rpe.fabric.finish_reconfiguration(region)
            grid.register_node(node)
    site_ids = [node.node_id for node in grid.nodes]
    grid.network = Network.fully_connected(site_ids, bandwidth_mbps=50.0, latency_s=0.02)
    if site_ids and draw(st.booleans()):
        # Sever every link of one site: staging data there costs inf.
        cut = draw(st.sampled_from(site_ids))
        for other in [USER_SITE, *site_ids]:
            if other != cut:
                grid.network.sever(cut, other)
        event("severed link")
    grid.partial_reconfiguration = draw(st.booleans())
    if draw(st.booleans()):
        # A repository hit for some (function, device) pair.
        grid.virtualization.repository.put(Bitstream(
            99, draw(st.sampled_from(MODELS)), 2_000, draw(st.integers(1_000, 9_000)),
            implements=draw(st.sampled_from(FUNCTIONS[1:])),
        ))
    data_sites = None
    if site_ids and draw(st.booleans()):
        # One input from a producer with a known location, one from the user.
        task = replace(task, data_in=(
            DataIn(PRODUCER, 0, draw(st.integers(0, 10**7))),
            DataIn(EXTERNAL_SOURCE, 0, draw(st.integers(0, 10**6))),
        ))
        data_sites = {PRODUCER: draw(st.sampled_from(site_ids))}
        event("data_sites")
    reusing = {
        c.reuses_resident for c in grid.find_candidates(task)
        if c.kind is PEClass.RPE and c.node_id in shared
    }
    if reusing == {True, False}:
        event("shared price class")

    # Outside a plan: the number equals the fresh placement's total.
    for candidate in grid.find_candidates(task):
        quote = fresh_quote(grid, task, candidate, data_sites)
        if isinstance(quote, type):
            continue
        event(f"candidate: {candidate.kind.value}"
              + (" hosted" if candidate.region_id is not None else ""))
        if quote.provision_softcore is not None:
            event("provisioned soft core")
        if quote.synthesis_time_s > 0:
            event("HDL synthesis")
        if quote.reused_configuration:
            event("resident reuse")
        if quote.total_time_s == float("inf"):
            event("inf cost")
        grid._data_sites = data_sites
        try:
            assert bits(grid.estimate_cost_s(task, candidate)) == bits(quote.total_time_s)
        finally:
            grid._data_sites = None

    # Inside a plan: every memoized estimate, and the chosen placement,
    # equal fresh quotes.
    recorder = Recording(draw(st.sampled_from(STRATEGIES))())
    grid.scheduler = recorder
    try:
        placement = grid.plan_placement(task, data_sites=data_sites)
    except SchedulingError:
        placement = None  # the strategy chose an unpriceable candidate
    for candidate, estimate in recorder.estimates:
        quote = fresh_quote(grid, task, candidate, data_sites)
        if isinstance(quote, type):
            assert estimate is quote
        else:
            assert bits(estimate) == bits(quote.total_time_s)
    if placement is None:
        return
    quote = fresh_quote(grid, task, placement.candidate, data_sites)
    for field in dataclasses.fields(Placement):
        planned, fresh = getattr(placement, field.name), getattr(quote, field.name)
        if isinstance(planned, float):
            assert bits(planned) == bits(fresh), field.name
        else:
            assert planned == fresh, field.name


@settings(max_examples=150, deadline=None)
@given(grid=grid_states(), fields=task_fields(), data=st.data())
def test_unchanged_grid_returns_the_same_candidates(grid, fields, data):
    """Matching interns candidates: a second scan of an unchanged grid,
    memoized or not, returns the very objects of the first."""
    task = task_from(1, widened(data.draw, fields))
    for require_available in (True, False):
        first = grid.find_candidates(task, require_available=require_available)
        for again in (
            grid.find_candidates(task, require_available=require_available),
            find_candidates(task, grid.nodes, require_available=require_available),
        ):
            assert len(again) == len(first)
            assert all(a is b for a, b in zip(again, first))


def test_removed_gpp_shifts_the_next_candidates_index():
    """``resource_index`` is part of an interned candidate's key: after
    ``remove_gpp`` the next GPP's candidate carries its new index."""
    rms = ResourceManagementSystem()
    node = Node(node_id=0, name="Node_0")
    gpps = [node.add_gpp(GPPSpec(cpu_model="x", mips=1_000)) for _ in range(3)]
    rms.register_node(node)
    task = simple_task(
        1, ExecReq(node_type=PEClass.GPP, artifacts=Artifacts(application_code="x")), 1.0
    )
    before = rms.find_candidates(task)
    assert [(c.resource_id, c.resource_index) for c in before] == [
        (gpp.resource_id, index) for index, gpp in enumerate(gpps)
    ]
    node.remove_gpp(gpps[0].resource_id)
    after = rms.find_candidates(task)
    assert [(c.resource_id, c.resource_index) for c in after] == [
        (gpps[1].resource_id, 0), (gpps[2].resource_id, 1)
    ]
    assert after[0].label == "GPP_0 <-> Node_0"
    assert after[0] == replace(before[1], resource_index=0)
