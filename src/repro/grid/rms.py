"""The Resource Management System (Section V).

"The RMS updates the statuses of all nodes in the grid.  It also
implements a task scheduler which assigns the user application tasks to
different nodes in the network.  The scheduling decisions are governed
by a task scheduling algorithm and the availability of nodes."

The RMS owns:

* the **node registry** (register/unregister at runtime -- the model is
  "adaptive in adding/removing resources", Section IV-A);
* the **status table** (Eq. 1 state snapshots per node);
* **matchmaking** (delegating to :mod:`repro.core.matching`);
* the **placement cost model** -- transfer, synthesis, reconfiguration
  and execution time per candidate (exactly the parameter list of
  Section V);
* the **placement lifecycle** -- reserving resources at dispatch,
  transitioning an RPE region through CONFIGURING -> CONFIGURED ->
  BUSY, and releasing on completion.  The discrete-event simulator
  (:mod:`repro.sim`) drives these transitions through time; the RMS can
  also run a placement instantaneously for untimed use.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from repro.core.matching import (
    Candidate, StaticMemo, match_nodes, static_entry, static_key,
)
from repro.core.node import Node
from repro.core.state import NodeStateSnapshot
from repro.core.task import Task
from repro.grid.network import Network, NetworkError, USER_SITE
from repro.grid.virtualizer import VirtualizationError, VirtualizationLayer
from repro.hardware.bitstream import Bitstream
from repro.hardware.fabric import Region, RegionState
from repro.hardware.softcore import SoftcoreSpec
from repro.hardware.taxonomy import PEClass


class SchedulingError(RuntimeError):
    """Raised when a placement cannot be planned or committed."""


@dataclass
class Placement:
    """A committed-or-plannable assignment of one task to one PE.

    Timing fields decompose the dispatch-to-completion delay the way
    Section V's parameter list does:

    ``transfer_time_s``
        Input data (always) plus the bitstream when it ships from the
        user's site (device-specific submissions).  Repository hits and
        provider-synthesized bitstreams are provider-local, so they pay
        no network transfer.
    ``synthesis_time_s``
        CAD-tool time when the task arrived as generic HDL (III-B2).
    ``reconfig_time_s``
        Configuration-port time; zero on configuration reuse.
    ``exec_time_s``
        Execution on the chosen PE.
    """

    task: Task
    candidate: Candidate
    region_id: int | None = None
    bitstream: Bitstream | None = None
    provision_softcore: SoftcoreSpec | None = None
    transfer_time_s: float = 0.0
    synthesis_time_s: float = 0.0
    reconfig_time_s: float = 0.0
    exec_time_s: float = 0.0
    reused_configuration: bool = False
    _committed: bool = field(default=False, repr=False)
    _executing: bool = field(default=False, repr=False)

    @property
    def setup_time_s(self) -> float:
        """Delay between dispatch and execution start."""
        return self.transfer_time_s + self.synthesis_time_s + self.reconfig_time_s

    @property
    def total_time_s(self) -> float:
        return self.setup_time_s + self.exec_time_s


class ResourceManagementSystem:
    """Node registry + matchmaker + scheduler + placement lifecycle."""

    def __init__(
        self,
        *,
        network: Network | None = None,
        virtualization: VirtualizationLayer | None = None,
        scheduler=None,
        reference_mips: float = 1000.0,
        partial_reconfiguration: bool = True,
    ):
        from repro.scheduling.hybrid import HybridCostScheduler

        self.network = network
        self.virtualization = virtualization or VirtualizationLayer()
        self.scheduler = scheduler if scheduler is not None else HybridCostScheduler()
        #: MIPS of the reference GPP against which ``Task.workload_mi``
        #: and bitstream speedups are defined.
        self.reference_mips = reference_mips
        #: When False, every reconfiguration pays the full-device
        #: bitstream time even for small circuits (the ref-[21]
        #: partial-reconfiguration ablation in bench_dreamsim_reconfig).
        self.partial_reconfiguration = partial_reconfiguration
        #: Optional :class:`repro.grid.health.HealthTracker` installed
        #: by the simulator's resilience layer; when present (and a
        #: ``now`` is passed to :meth:`plan_placement`), quarantined
        #: nodes are filtered out of matchmaking.
        self.health = None
        #: Optional :class:`repro.sim.telemetry.TelemetryRegistry`
        #: installed by the simulator; placement-lifecycle methods then
        #: sample per-RPE configured-slice gauges and matchmaking
        #: counters.  ``None`` keeps every path a single attribute check.
        self.telemetry = None
        #: Optional :class:`repro.sim.admission.AdmissionController`
        #: installed by the simulator; when its utilization policy is
        #: armed, :meth:`plan_placement` defers instead of matchmaking
        #: while the grid's live occupancy sits at/above the threshold.
        self.admission = None
        self._nodes: dict[int, Node] = {}
        self._sites: dict[int, int] = {}
        #: TaskID -> node_id of the producer's output location, valid
        #: for the duration of one plan_placement call (set from the
        #: simulator's completion records); drives locality pricing.
        self._data_sites: dict[int, int] | None = None
        #: The class parts (:meth:`_components`) and staging times
        #: (:meth:`_staging_time`) of one plan_placement call, keyed by
        #: price class and by (site, user-shipped bytes): grid state
        #: cannot change while the strategy chooses.  ``None`` outside
        #: a plan.
        self._classes: dict[tuple, tuple] | None = None
        self._staging: dict[tuple[int, int], float] | None = None
        #: ``(task, needed)`` of the open plan's matching: every RPE
        #: candidate it returned reuses a resident configuration or has
        #: an available region of *needed* slices
        #: (:func:`~repro.core.matching.match_nodes`).
        self._matched: tuple[Task, int] | None = None
        #: id(candidate) -> its pin (:meth:`_resolve`).  A pin holds its
        #: candidate, so the id is not reused while the pin lives, and
        #: resource ids are never reused, so only a registry change
        #: (:meth:`register_node`, :meth:`unregister_node`) drops pins.
        self._pins: dict[int, tuple] = {}
        #: Static feasibility of each requirement on each PE spec
        #: (:data:`repro.core.matching.StaticMemo`); specs are frozen,
        #: so it stays valid for the grid's lifetime.
        self._static: StaticMemo = {}
        #: Match keys (:meth:`_match_key`) that found no candidate,
        #: valid for one dispatch round (:meth:`open_round`) and
        #: emptied by :meth:`commit`; ``None`` outside a round.
        self._infeasible: set[tuple] | None = None
        #: Placement requests the utilization gate vetoed since the last
        #: :meth:`open_round` (the simulator reports each round's count).
        self.gated = 0

    # ------------------------------------------------------------------
    # Node registry (runtime add/remove, Section IV-A)
    # ------------------------------------------------------------------
    def register_node(self, node: Node, *, site: int | None = None) -> None:
        if node.node_id in self._nodes:
            raise SchedulingError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node
        self._sites[node.node_id] = node.node_id if site is None else site
        self._pins.clear()

    def unregister_node(self, node_id: int) -> Node:
        try:
            node = self._nodes.pop(node_id)
        except KeyError:
            raise SchedulingError(f"node {node_id} is not registered") from None
        self._sites.pop(node_id, None)
        self._pins.clear()
        return node

    @property
    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SchedulingError(f"node {node_id} is not registered") from None

    def site_of(self, node_id: int) -> int:
        return self._sites.get(node_id, node_id)

    def status(self) -> dict[int, NodeStateSnapshot]:
        """The RMS status table: fresh Eq. 1 snapshots for every node."""
        return {node_id: node.state() for node_id, node in self._nodes.items()}

    # ------------------------------------------------------------------
    # Matchmaking and cost model
    # ------------------------------------------------------------------
    def find_candidates(self, task: Task, *, require_available: bool = True) -> list[Candidate]:
        needed, table = static_entry(task, self._static)
        if require_available and self._classes is not None:
            self._matched = task, needed
        return match_nodes(task, self._nodes.values(), require_available, needed, table)

    def _transfer_time(self, size_bytes: int, dst: int, src: int = USER_SITE) -> float:
        """Seconds to move *size_bytes* from site *src* to site *dst*."""
        if self.network is None or size_bytes == 0:
            return 0.0
        try:
            return self.network.transfer_time(size_bytes, src, dst)
        except NetworkError:
            # Partitioned: the placement is currently unreachable, not
            # an error.  An infinite price keeps the task pending until
            # the link heals (cost strategies never pick inf over a
            # finite candidate; the simulator defers inf-cost choices).
            return float("inf")

    def _staging_time(self, task: Task, site: int, bitstream_bytes: int) -> float:
        """Time to stage *task*'s inputs, and *bitstream_bytes* of a
        user-shipped bitstream, on *site*.

        Inputs whose producer's location is known (``_data_sites``, set
        by the simulator per dispatch) ship producer-node -> consumer-
        node; everything else ships from the user's site.  Streams move
        concurrently, so the staging time is the slowest single stream --
        which makes the cost model *data-locality aware*: a candidate on
        the producer's node pays nothing for that edge.
        """
        if self.network is None:
            return 0.0
        sites = self._data_sites or {}
        slowest = 0.0
        for data in task.data_in:
            producer_node = sites.get(data.source_task_id)
            src = USER_SITE if producer_node is None else self.site_of(producer_node)
            slowest = max(slowest, self._transfer_time(data.size_bytes, site, src))
        if not bitstream_bytes:
            return slowest
        return max(slowest, self._transfer_time(bitstream_bytes, site))

    def estimate_cost_s(self, task: Task, candidate: Candidate) -> float:
        """Dispatch-to-completion time if *task* ran on *candidate* --
        the objective the hybrid scheduler minimizes.  Inside
        :meth:`plan_placement` it is the candidate's class part plus its
        site part, and a region is looked for only where the plan's
        matching did not already prove one (:meth:`_proven`)."""
        classes = self._classes
        if classes is None:
            return self._quote(task, candidate).total_time_s
        pin, part, transfer_time_s = self._parts(
            task, self._pins.get(id(candidate)) or self._pin(candidate),
            classes, self._staging,
        )
        bitstream, _, synthesis_time_s, reconfig_time_s, exec_time_s, _ = part
        if candidate.kind is PEClass.RPE and not self._proven(task, candidate, bitstream):
            self._region(task, candidate, pin[3], bitstream)
        # Placement.total_time_s's expression order, so the floats match.
        return (transfer_time_s + synthesis_time_s + reconfig_time_s) + exec_time_s

    def _price(self, task: Task, candidate: Candidate) -> Placement:
        """An (uncommitted) placement with all timing fields; inside
        :meth:`plan_placement` it reads the plan's class and site memos
        and locates only its own region."""
        classes = self._classes
        if classes is None:
            return self._quote(task, candidate)
        pin = self._pins.get(id(candidate)) or self._pin(candidate)
        return self._placement(task, *self._parts(task, pin, classes, self._staging))

    def _quote(self, task: Task, candidate: Candidate) -> Placement:
        """A freshly priced placement: no memo, no pin."""
        return self._placement(task, *self._parts(task, self._resolve(candidate), {}, {}))

    def _resolve(self, candidate: Candidate) -> tuple:
        """*candidate*'s pin: ``(candidate, site, class key, PE)``.

        An RPE's price class is its device and whether the task's
        function is resident on it (``reuses_resident``); a GPP's is its
        spec's speed.  GPU and soft-core candidates have no class key:
        they are priced one by one.  Raises :class:`SchedulingError`
        when the candidate's node is not registered."""
        node = self.node(candidate.node_id)
        kind = candidate.kind
        key = None
        if kind is PEClass.GPP:
            pe = node.gpp(candidate.resource_id)
            key = (pe.spec.mips, pe.spec.cores)
        elif kind is PEClass.GPU:
            pe = node.gpu(candidate.resource_id)
        else:
            pe = node.rpe(candidate.resource_id)
            if kind is PEClass.RPE:
                key = (id(pe.device), candidate.reuses_resident)
        return candidate, self.site_of(candidate.node_id), key, pe

    def _pin(self, candidate: Candidate) -> tuple:
        """:meth:`_resolve` *candidate* and keep the answer in
        :attr:`_pins`, which callers read first."""
        pin = self._pins[id(candidate)] = self._resolve(candidate)
        return pin

    def _parts(self, task: Task, pin: tuple, classes: dict, staging: dict) -> tuple:
        """``(pin, class part, staging seconds)`` of the candidate that
        *pin* resolves, read from or added to the memos *classes*
        (per class key) and *staging* (per site and user-shipped
        bytes)."""
        candidate, site, key, pe = pin
        if key is None:
            part = self._components(task, candidate, pe)
        else:
            part = classes.get(key)
            if part is None:
                part = classes[key] = self._components(task, candidate, pe)
        shipped = part[5]
        transfer_time_s = staging.get((site, shipped))
        if transfer_time_s is None:
            # Input streams and the user's bitstream move concurrently;
            # the staging delay is the slowest of them.
            transfer_time_s = staging[site, shipped] = self._staging_time(
                task, site, shipped
            )
        return pin, part, transfer_time_s

    def _components(self, task: Task, candidate: Candidate, pe) -> tuple:
        """The class part of *candidate*'s price on its PE *pe*:
        ``(bitstream, provision_softcore, synthesis seconds, reconfig
        seconds, exec seconds, bytes of a user-shipped bitstream)``.

        Everything here but a soft core's depends only on the price
        class (:meth:`_resolve`).  No region is looked for
        (:meth:`_region`).  :class:`~repro.grid.virtualizer.
        VirtualizationError` means the candidate cannot be priced.
        """
        kind = candidate.kind
        bitstream = provision_softcore = None
        synthesis_time_s = reconfig_time_s = 0.0
        bitstream_bytes = 0

        if kind is PEClass.RPE:
            # The open plan's matching already looked for the function
            # on this fabric; a candidate from elsewhere is looked up.
            matched = self._matched
            plan = self.virtualization.plan_rpe_configuration(
                task, pe,
                resident=candidate.reuses_resident
                if matched is not None and matched[0] is task else None,
            )
            bitstream = plan.bitstream
            synthesis_time_s = plan.synthesis_time_s
            if plan.needs_reconfiguration:
                reconfig_time_s = pe.fabric.reconfiguration_time_s(
                    bitstream, partial=self.partial_reconfiguration
                )
                # Only user-shipped bitstreams traverse the network.
                if task.exec_req.artifacts.bitstream is bitstream:
                    bitstream_bytes = bitstream.size_bytes
            # An accelerator runs for t_estimated, which is defined for
            # the ExecReq-matched PE (Section IV-B).
            exec_time_s = task.t_estimated
        elif kind is PEClass.GPP or kind is PEClass.GPU:
            exec_time_s = pe.spec.execution_time_s(task.effective_workload_mi)
        else:
            region_id = candidate.region_id
            spec = task.exec_req.artifacts.softcore
            if region_id is not None:
                spec = pe.hosted_softcores.get(region_id, spec)
            if spec is None:
                spec = self.virtualization.provisioner.default_core
            exec_time_s = task.effective_workload_mi / spec.effective_mips(pe.device)
            if region_id is None:
                # Soft core must be provisioned first (Section III-B1/III-A);
                # a hosted one executes in its region (``region_id``).
                provision_softcore = spec
                reconfig_time_s = pe.device.reconfiguration_time_s(
                    spec.required_slices()
                )
        return (
            bitstream, provision_softcore, synthesis_time_s, reconfig_time_s,
            exec_time_s, bitstream_bytes,
        )

    def _proven(self, task: Task, candidate: Candidate, bitstream: Bitstream | None) -> bool:
        """True when the open plan's matching already proved that an
        RPE *candidate* it returned has a region for *bitstream*: the
        candidate reuses a resident configuration, or the bitstream
        needs no more than the area matching found placeable.  A
        repository bitstream may need more than the task's ``slices``
        requirement, and matching with no area requirement proved only
        some available region."""
        matched = self._matched
        if matched is None or matched[0] is not task:
            return False
        if bitstream is None:
            return candidate.reuses_resident
        return 0 < bitstream.required_slices <= matched[1]

    @staticmethod
    def _region(task: Task, candidate: Candidate, rpe, bitstream: Bitstream | None) -> Region:
        """The region of *rpe* that *task* runs in: the resident
        configuration when *bitstream* is ``None``, else the best fit for
        it.  Raises :class:`SchedulingError` when there is none."""
        if bitstream is None:
            region = rpe.fabric.find_resident(task.function)
            if region is None:  # pragma: no cover - defensive
                raise SchedulingError(
                    f"task {task.task_id}: resident configuration vanished"
                )
            return region
        region = rpe.fabric.find_placeable(bitstream.required_slices)
        if region is None:
            raise SchedulingError(
                f"task {task.task_id}: no placeable region on RPE "
                f"{candidate.resource_id} of node {candidate.node_id}"
            )
        return region

    def _placement(
        self, task: Task, pin: tuple, part: tuple, transfer_time_s: float
    ) -> Placement:
        """The placement that :meth:`_parts`' answer describes; an RPE
        candidate's region is located here."""
        candidate, _, _, pe = pin
        (bitstream, provision_softcore, synthesis_time_s, reconfig_time_s,
         exec_time_s, _) = part
        region_id = candidate.region_id
        reused = False
        if candidate.kind is PEClass.RPE:
            region_id = self._region(task, candidate, pe, bitstream).region_id
            reused = bitstream is None
        return Placement(
            task, candidate, region_id, bitstream, provision_softcore,
            transfer_time_s, synthesis_time_s, reconfig_time_s, exec_time_s, reused,
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def open_round(self) -> bool:
        """Start a dispatch round: one pass over the pending queue at
        one simulated instant.  Until :meth:`close_round`, a request
        whose match key already found no candidate in this round is
        declined without matchmaking; :meth:`commit` forgets those
        answers, since a placement is the only grid change a pass can
        make.  Returns False when a round is already open -- a nested
        pass shares the outer round, which the outer caller closes."""
        if self._infeasible is not None:
            return False
        self._infeasible = set()
        self.gated = 0
        return True

    def close_round(self) -> None:
        """End the dispatch round opened by :meth:`open_round`."""
        self._infeasible = None

    @staticmethod
    def _match_key(
        task: Task, exclude_nodes: set[int] | frozenset[int] | None
    ) -> tuple:
        """Everything matchmaking reads from *task* -- the static part
        (:func:`~repro.core.matching.static_key`) and the function,
        which resident reuse reads -- plus the excluded nodes: equal
        keys get equal candidate lists from one grid state.  Not the
        ``ExecReq`` itself -- its ``input_data_bytes`` differs per task,
        and matching never reads it."""
        return (
            static_key(task),
            task.function,
            frozenset(exclude_nodes) if exclude_nodes else None,
        )

    @property
    def declined_keys(self) -> AbstractSet[tuple]:
        """Match keys (:meth:`_match_key`) that already found no
        candidate in the open round: :meth:`plan_placement` declines a
        request with one of them without matchmaking.  The admission
        gate needs no second look: a key enters the memo only past the
        gate, and the occupancy it reads changes only on a commit,
        which empties the memo.  A read-only view that stays current
        for the whole round (:meth:`commit` empties it in place); empty
        outside a round.  A caller that skips such a request counts it
        with :meth:`count_deferred`."""
        infeasible = self._infeasible
        return infeasible if infeasible is not None else frozenset()

    def count_deferred(self, requests: int = 1) -> None:
        """Count *requests* declined placement requests at once."""
        if self.telemetry is not None:
            self.telemetry.counter(
                "rms_placements_deferred_total",
                "placement requests the strategy declined",
            ).inc(requests)

    def decline(self, keys) -> None:
        """Put match *keys* in the open round's memo without matching
        them: for a caller that knows they still find no candidate."""
        self._infeasible.update(keys)

    def saturated(self) -> bool:
        """True when the utilization gate vetoes every request now."""
        return self.admission is not None and self.admission.saturated(
            self._nodes.values()
        )

    def count_gated(self, requests: int = 1) -> None:
        """Count *requests* placement requests the utilization gate
        vetoed at once."""
        self.gated += requests
        if self.telemetry is not None:
            self.telemetry.counter(
                "rms_placements_gated_total",
                "placement requests vetoed by the utilization gate",
            ).inc(requests)

    def plan_placement(
        self,
        task: Task,
        *,
        data_sites: dict[int, int] | None = None,
        exclude_nodes: set[int] | frozenset[int] | None = None,
        now: float | None = None,
    ) -> Placement | None:
        """Ask the strategy to place *task*; ``None`` defers it.

        ``data_sites`` maps producer TaskIDs to the node where their
        outputs reside; when given, input staging is priced producer ->
        candidate instead of user -> candidate, so every cost-driven
        strategy becomes data-locality aware for free.

        ``exclude_nodes`` removes nodes from consideration before the
        strategy chooses -- the retry policy's fault-aware re-placement.

        ``now`` (simulated seconds) activates the health-aware filter:
        when a :attr:`health` tracker is installed, nodes with an open
        circuit breaker are quarantined out of the candidate list
        *before* the strategy sees them.  The simulator always forwards
        its clock here; quarantine is never forgiven by the starvation
        guard, unlike fault exclusions.

        Inside a dispatch round (:meth:`open_round`) a request whose
        match key already came up empty is declined at once, counted
        as deferred like any other decline.
        """
        from repro.scheduling.base import filter_excluded, filter_quarantined

        admission = self.admission
        if admission is not None and admission.saturated(self._nodes.values()):
            # Utilization gate: the grid is saturated with in-flight
            # work, so defer rather than matchmake.  Occupancy counts
            # only in-flight placements, so a future completion event
            # is guaranteed to re-run the queue -- no deadlock.
            self.count_gated()
            return None

        # The key is built only when the memo can use it: a round where
        # every request succeeds never pays for one.
        infeasible = self._infeasible
        key = None
        if infeasible:
            key = self._match_key(task, exclude_nodes)
            if key in infeasible:
                self.count_deferred()
                return None

        self._data_sites = data_sites
        self._classes, self._staging = {}, {}
        try:
            candidates = filter_excluded(
                self.find_candidates(task, require_available=True), exclude_nodes
            )
            candidates = filter_quarantined(candidates, self.health, now)
            choice = self.scheduler.choose(task, candidates, self)
            if choice is None:
                if not candidates and infeasible is not None:
                    infeasible.add(key or self._match_key(task, exclude_nodes))
                self.count_deferred()
                return None
            try:
                if self.telemetry is not None:
                    self.telemetry.counter(
                        "rms_placements_planned_total",
                        "placements the strategy produced",
                    ).inc()
                return self._price(task, choice)
            except (SchedulingError, VirtualizationError) as exc:
                raise SchedulingError(
                    f"strategy {self.scheduler!r} chose an unpriceable candidate: {exc}"
                ) from exc
        finally:
            self._data_sites = self._matched = None
            self._classes = self._staging = None

    # ------------------------------------------------------------------
    # Placement lifecycle (driven by the simulator through time)
    # ------------------------------------------------------------------
    def _sample_fabric(self, placement: Placement) -> None:
        """Telemetry hook: re-sample the affected RPE's configured-slice
        gauge after a fabric-state transition (no-op for GPP/GPU
        placements and whenever no registry is installed)."""
        if self.telemetry is None or placement.candidate.kind in (
            PEClass.GPP,
            PEClass.GPU,
        ):
            return
        node_id = placement.candidate.node_id
        if node_id not in self._nodes:
            return  # node departed mid-teardown
        rpe = self._nodes[node_id].rpe(placement.candidate.resource_id)
        fabric = rpe.fabric
        self.telemetry.gauge(
            "rpe_configured_slices",
            "fabric slices currently allocated to configurations",
            node=node_id,
            rpe=placement.candidate.resource_id,
        ).set(fabric.total_slices - fabric.available_slices)

    def commit(self, placement: Placement) -> None:
        """Reserve the chosen resources at dispatch time."""
        if placement._committed:
            raise SchedulingError("placement already committed")
        if self._infeasible:
            self._infeasible.clear()
        if placement.bitstream is not None and placement.synthesis_time_s > 0:
            # Freshly synthesized: archive it so later tasks for the same
            # (function, device) skip synthesis entirely.
            self.virtualization.repository.put(placement.bitstream)
        node = self.node(placement.candidate.node_id)
        kind = placement.candidate.kind
        if kind is PEClass.GPP:
            node.gpp(placement.candidate.resource_id).assign(placement.task.task_id)
        elif kind is PEClass.GPU:
            node.gpu(placement.candidate.resource_id).assign(placement.task.task_id)
        else:
            rpe = node.rpe(placement.candidate.resource_id)
            if placement.provision_softcore is not None:
                # Provisioning performs its own (instant) reconfiguration;
                # the simulator charges reconfig_time_s before execution.
                region = rpe.host_softcore(placement.provision_softcore)
                placement.region_id = region.region_id
                rpe.begin_task(region, placement.task.task_id)
            elif placement.bitstream is not None:
                region = rpe.fabric.regions[self._region_index(rpe, placement.region_id)]
                if region.configuration is not None:
                    rpe.fabric.clear(region)
                    rpe.hosted_softcores.pop(region.region_id, None)
                rpe.fabric.begin_reconfiguration(region, placement.bitstream)
            else:
                # Configuration reuse, or an already-hosted soft core:
                # occupy the region immediately so no one else grabs it.
                region = rpe.fabric.regions[self._region_index(rpe, placement.region_id)]
                rpe.begin_task(region, placement.task.task_id)
        placement._committed = True
        self._sample_fabric(placement)

    def begin_execution(self, placement: Placement) -> None:
        """Transfer/synthesis/reconfiguration done; start executing."""
        if not placement._committed:
            raise SchedulingError("placement must be committed first")
        if placement._executing:
            raise SchedulingError("placement already executing")
        if (
            placement.candidate.kind not in (PEClass.GPP, PEClass.GPU)
            and placement.bitstream is not None
        ):
            node = self.node(placement.candidate.node_id)
            rpe = node.rpe(placement.candidate.resource_id)
            region = rpe.fabric.regions[self._region_index(rpe, placement.region_id)]
            rpe.fabric.finish_reconfiguration(region)
            rpe.begin_task(region, placement.task.task_id)
        placement._executing = True

    def finish_execution(self, placement: Placement) -> None:
        """Release resources; resident configurations stay for reuse."""
        if not placement._executing:
            raise SchedulingError("placement is not executing")
        node = self.node(placement.candidate.node_id)
        kind = placement.candidate.kind
        if kind is PEClass.GPP:
            node.gpp(placement.candidate.resource_id).release()
        elif kind is PEClass.GPU:
            node.gpu(placement.candidate.resource_id).release()
        else:
            rpe = node.rpe(placement.candidate.resource_id)
            region = rpe.fabric.regions[self._region_index(rpe, placement.region_id)]
            rpe.finish_task(region)
        placement._executing = False
        placement._committed = False
        self._sample_fabric(placement)

    def abort_placement(
        self, placement: Placement, *, clear_configuration: bool = False
    ) -> bool:
        """Release a fault-hit placement at any point of its lifecycle.

        Unlike :meth:`finish_execution`, this works both before
        execution starts (e.g. a configuration-port failure while the
        region is CONFIGURING -- the half-loaded bitstream is scrapped
        and the region returns to FREE) and mid-execution (e.g. an SEU
        or a node crash).  ``clear_configuration`` evicts the resident
        configuration too, modelling corrupted fabric state that must
        not be reused.

        Returns True when resources were actually released.  A
        placement whose node was already unregistered (crash teardown
        and failover reconciliation can race in either order) has
        nothing left to release: the flags are reset and the abort is
        a no-op returning False, so callers can attach a trace note
        instead of dying on a registry miss.
        """
        if not placement._committed:
            raise SchedulingError("placement is not committed")
        if placement.candidate.node_id not in self._nodes:
            placement._executing = False
            placement._committed = False
            return False
        node = self.node(placement.candidate.node_id)
        kind = placement.candidate.kind
        if kind is PEClass.GPP:
            node.gpp(placement.candidate.resource_id).release()
        elif kind is PEClass.GPU:
            node.gpu(placement.candidate.resource_id).release()
        else:
            rpe = node.rpe(placement.candidate.resource_id)
            region = rpe.fabric.regions[self._region_index(rpe, placement.region_id)]
            if region.state is RegionState.CONFIGURING:
                # Aborted mid-load: a partial configuration is unusable.
                rpe.fabric.finish_reconfiguration(region)
                rpe.fabric.clear(region)
                rpe.hosted_softcores.pop(region.region_id, None)
            else:
                rpe.finish_task(region)
                if clear_configuration:
                    rpe.fabric.clear(region)
                    rpe.hosted_softcores.pop(region.region_id, None)
        placement._executing = False
        placement._committed = False
        self._sample_fabric(placement)
        return True

    def run_placement(self, placement: Placement) -> float:
        """Run the full lifecycle instantly; returns total_time_s.

        Untimed convenience for examples/tests; the simulator spreads
        the same three calls over simulated time.
        """
        self.commit(placement)
        self.begin_execution(placement)
        self.finish_execution(placement)
        return placement.total_time_s

    @staticmethod
    def _region_index(rpe, region_id: int | None) -> int:
        for index, region in enumerate(rpe.fabric.regions):
            if region.region_id == region_id:
                return index
        raise SchedulingError(f"RPE {rpe.resource_id} has no region {region_id}")
