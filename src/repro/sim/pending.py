"""The simulator's pending queue: arrival order, grouped by match key.

A dispatch pass offers queued tasks to the RMS in arrival order, and a
long queue under a surge holds hundreds of tasks that share a handful
of requirements.  Offering each of them on every pass is what the
queue walk used to cost.  This queue offers only what the grid can
place:

* Filed entries are grouped by their match key (the RMS round-memo key
  of their task without exclusions).  A pass merges the group heads in
  arrival order.  Once a key is in the round memo, the rest of its
  group is skipped in O(1): a commit never adds capacity, so the key
  finds no candidate for the rest of the pass.
* Some entries are offered one by one, in arrival order, as a plain
  FIFO walk offers them: entries with their own exclusions (their
  requests use another key), entries still waiting for the brownout
  rewrite to the GPP path (it emits ``degrade`` and changes the key),
  the entries added since the previous pass, and every entry while the
  detector suspects a node (the suspects widen every request).
* An entry that found no candidate finds none until capacity of its
  requirement class is *released* (:meth:`PendingQueue.release`: a
  placement finish or abort frees one processing element, a joining
  node frees every class) or the quarantined nodes change.  After a
  pass that left only such entries, the next pass offers the groups of
  the released classes and the entries added since then.

Every counter that a skipped request would have moved moves in bulk at
the same simulated instant, so the trace, the report and the telemetry
are byte-identical to the plain FIFO walk's.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterator
from heapq import heapify, heappop, heappush

from repro.grid.rms import ResourceManagementSystem
from repro.hardware.taxonomy import PEClass

#: Every requirement class (by value: an enum member hashes in Python):
#: what a joining node, or a region hosting a soft core (which serves
#: GPP-class work too), can serve.
_ANY = frozenset(c.value for c in PEClass)
#: The requirement classes a freed GPP, GPU or plain fabric region can
#: serve (a region also serves a soft core to provision).
_SERVES = {
    PEClass.GPP: frozenset({PEClass.GPP.value}),
    PEClass.GPU: frozenset({PEClass.GPU.value}),
    PEClass.RPE: frozenset({PEClass.RPE.value, PEClass.SOFTCORE.value}),
}


class _Group:
    """Filed entries of one match key, in arrival order, and where the
    running pass stands in them."""

    __slots__ = ("key", "kind", "seqs", "entries", "pos", "skip_from")

    def __init__(self, key: object, kind: str = ""):
        self.key = key
        #: The requirement class the key asks for (``PEClass`` value).
        self.kind = kind
        self.seqs: list[int] = []
        self.entries: list = []
        #: The next entry the pass offers.
        self.pos = 0
        #: The first entry the pass skipped since the key was declined.
        self.skip_from = 0

    def insert(self, seq: int, entry) -> None:
        i = bisect_left(self.seqs, seq)
        self.seqs.insert(i, seq)
        self.entries.insert(i, entry)

    def drop(self, seq: int) -> None:
        i = bisect_left(self.seqs, seq)
        del self.seqs[i]
        del self.entries[i]


def _exclusion_key(entry) -> tuple:
    """The memo key of *entry*'s request with its own exclusions."""
    return ResourceManagementSystem._match_key(entry.task, entry.excluded_nodes)


class PendingQueue:
    """Live pending entries in arrival order.  *waits* tells which
    entries the brownout rewrite would still move to the GPP path."""

    def __init__(self, waits: Callable[[object], bool]):
        self._waits = waits
        #: entry -> arrival sequence number; iterates in arrival order.
        self._seq: dict = {}
        self._next = 0
        #: Entries added since the previous pass, not filed yet.
        self._fresh: list = []
        self._groups: dict[tuple, _Group] = {}
        #: Entries with their own exclusions: always visited.
        self._own = _Group(None)
        #: Filed entry -> the group holding it.
        self._home: dict = {}
        #: Filed entries the brownout rewrite would still move.
        self._waiting: dict = {}
        #: Requirement classes that capacity came back for since the
        #: previous pass.
        self._released: frozenset = _ANY
        #: The previous pass left only entries that found no candidate.
        self._settled = False
        #: The previous pass ended behind the utilization gate.
        self._gated = False
        #: The quarantined nodes the previous pass left (breaker armed).
        self._blocked: frozenset | None = None

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self) -> Iterator:
        return iter(self._seq)

    def add(self, entry) -> None:
        """Queue *entry* behind every entry already queued."""
        self._seq[entry] = self._next
        self._next += 1
        self._fresh.append(entry)

    def discard(self, entry) -> None:
        """Drop *entry* (a terminal outcome) if it is queued."""
        if entry not in self._seq:
            return
        if entry in self._home:
            self._unfile(entry)
        else:
            self._fresh.remove(entry)
        del self._seq[entry]

    def release(self, kind: PEClass | None = None) -> None:
        """A *kind* processing element came back (``SOFTCORE``: a region
        hosting a soft core; None: a whole node): the next pass offers
        again the requirements it can serve."""
        self._released |= _SERVES.get(kind, _ANY)

    # ------------------------------------------------------------------
    # Filing
    # ------------------------------------------------------------------
    def _file(self, entry) -> None:
        if entry.excluded_nodes:
            group = self._own
        else:
            key = entry.match_key()
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _Group(
                    key, entry.task.exec_req.node_type.value
                )
        group.insert(self._seq[entry], entry)
        self._home[entry] = group
        if self._waits(entry):
            self._waiting[entry] = None

    def _unfile(self, entry) -> None:
        group = self._home.pop(entry)
        group.drop(self._seq[entry])
        if not group.seqs and group is not self._own:
            del self._groups[group.key]
        self._waiting.pop(entry, None)

    # ------------------------------------------------------------------
    # The dispatch pass
    # ------------------------------------------------------------------
    def dispatch(
        self,
        rms: ResourceManagementSystem,
        try_dispatch: Callable[[object], bool],
        degrade: Callable[[object], None] | None,
        suspected: set,
        health,
        now: float,
    ) -> None:
        """One pass inside an open RMS round: offer the queue to
        *try_dispatch* (True = placed) in arrival order.  *degrade* is
        the brownout rewrite, called on an entry before its offer while
        the stage forces it.  *suspected* holds the failure detector's
        suspects ("rms" or node ids)."""
        released, self._released = self._released, frozenset()
        if not self._seq:
            self._settled, self._gated = True, False
            return
        fresh, self._fresh = self._fresh, []
        pulled: list = []
        if degrade is not None and self._waiting:
            pulled = sorted(self._waiting, key=self._seq.__getitem__)
            for entry in pulled:
                self._unfile(entry)
        if suspected and any(t != "rms" for t in suspected):
            # A suspect widens every request, so what declines now says
            # nothing about the next pass: it offers everything again.
            placed = self._fifo(rms, try_dispatch, degrade, skippable=False)
            self._settled = self._gated = False
        else:
            if pulled or not self._settled:
                released = _ANY
            placed = self._grouped(
                rms, try_dispatch, degrade, fresh, pulled, released, health, now
            )
        home, seq = self._home, self._seq
        for entry in placed:
            if entry in home:
                self._unfile(entry)
            del seq[entry]
        for entry in pulled:
            if entry in seq:
                self._file(entry)
        for entry in fresh:
            if entry in seq:
                self._file(entry)

    def _fifo(self, rms, try_dispatch, degrade, *, skippable: bool) -> list:
        """Offer every entry in arrival order.  An entry whose key the
        round memo already declined is skipped when *skippable* (no
        suspects widen its request)."""
        memo = rms.declined_keys
        placed = []
        skipped = 0
        for entry in list(self._seq):
            if degrade is not None:
                degrade(entry)
            if (
                skippable
                and memo
                and not entry.excluded_nodes
                and entry.match_key() in memo
            ):
                skipped += 1
            elif try_dispatch(entry):
                placed.append(entry)
        if skipped:
            rms.count_deferred(skipped)
        return placed

    def _grouped(
        self, rms, try_dispatch, degrade, fresh, pulled, released, health, now
    ) -> list:
        """The pass without suspects: the filed entries by group heads,
        then the fresh entries one by one.  When the previous pass left
        only entries without a candidate, the groups of requirement
        classes not in *released* still have none, and with *released*
        empty the filed entries are not walked at all.

        A key that found no candidate finds none for the rest of the
        pass, since a commit never adds capacity: its group is skipped
        from there on, and the key goes back into the round memo after
        every commit.  A commit that closes the utilization gate gates
        every later request instead."""
        memo = rms.declined_keys
        # Only a utilization gate can veto a request.
        saturated = rms.saturated if rms.admission is not None else None
        seq_of = self._seq.__getitem__
        own = self._own
        placed: list = []
        skipped = gated = 0
        settled = True
        gating = False
        # Set once a FIFO walk would have scanned at this instant, and
        # so read the quarantined nodes (a read that may move a breaker
        # to half-open): only then is taking the snapshot unobservable.
        scanned = False
        #: Keys declined in this pass, re-entered after each commit.
        dead: set = set()
        walk_filed = True
        #: The requirement classes whose groups are offered.
        offered = _ANY
        if released != _ANY and self._home:
            if saturated is not None and saturated():
                gating = True
                gated += len(self._home) + len(own.seqs)
            elif not self._gated:
                blocked = (
                    frozenset(health.blocked_nodes(now)) if health is not None else None
                )
                scanned = True
                if blocked == self._blocked:
                    offered = released
                    if not released:
                        walk_filed = False
                        for entry in own.entries:
                            dead.add(entry.match_key())
                            dead.add(_exclusion_key(entry))
                        skipped += len(self._home) + len(own.seqs)
                    dead.update(
                        g.key for g in self._groups.values() if g.kind not in offered
                    )
                    rms.decline(dead)

        if walk_filed and not gating and (self._home or pulled):
            heap = []
            declined: list[_Group] = []
            for group in self._groups.values():
                group.pos = group.skip_from = 0
                if group.kind in offered:
                    heap.append((group.seqs[0], group))
                else:
                    declined.append(group)
            heapify(heap)
            singles = sorted(
                [(seq, entry, False) for seq, entry in zip(own.seqs, own.entries)]
                + [(seq_of(entry), entry, True) for entry in pulled],
                key=lambda single: single[0],
            )
            group = None
            i = 0
            while heap or i < len(singles):
                if i < len(singles) and (not heap or singles[i][0] < heap[0][0]):
                    seq, entry, waiting = singles[i]
                    i += 1
                    group = None
                    if waiting:
                        degrade(entry)
                    if memo and not entry.excluded_nodes and entry.match_key() in memo:
                        skipped += 1
                        continue
                else:
                    seq, group = heappop(heap)
                    entry = group.entries[group.pos]
                    if memo and group.key in memo:
                        group.skip_from = group.pos
                        declined.append(group)
                        dead.add(group.key)
                        continue
                    group.pos += 1
                size = len(memo)
                ok = try_dispatch(entry)
                if ok:
                    placed.append(entry)
                    scanned = True
                if saturated is not None and saturated():
                    # Gated, or the commit closed the gate.
                    gating = True
                    break
                scanned = True
                if ok:
                    if dead:
                        rms.decline(dead)
                elif group is None:
                    settled = settled and self._cheap(entry, memo, size)
                elif len(memo) > size:
                    # No candidate: skip the rest of the group.
                    group.skip_from = group.pos
                    declined.append(group)
                    dead.add(group.key)
                    continue
                else:
                    settled = False
                if group is not None and group.pos < len(group.seqs):
                    heappush(heap, (group.seqs[group.pos], group))
            for skip in declined:
                j = len(skip.seqs)
                if gating:
                    j = bisect_left(skip.seqs, seq, skip.skip_from)
                    gated += len(skip.seqs) - j
                skipped += j - skip.skip_from
            if gating:
                # Nothing commits behind a closed gate: every remaining
                # request is gated, and the rewrites still happen.
                for _, entry, waiting in singles[i:]:
                    if waiting:
                        degrade(entry)
                    gated += 1 + bool(entry.excluded_nodes)
                rest = [pending for _, pending in heap]
                if group is not None:
                    rest.append(group)
                gated += sum(len(g.seqs) - g.pos for g in rest)

        for entry in fresh:
            if degrade is not None:
                degrade(entry)
            if gating:
                gated += 1 + bool(entry.excluded_nodes)
                continue
            if memo and not entry.excluded_nodes and entry.match_key() in memo:
                skipped += 1
                continue
            size = len(memo)
            ok = try_dispatch(entry)
            if ok:
                placed.append(entry)
                scanned = True
            if saturated is not None and saturated():
                gating = True
                continue
            scanned = True
            if ok:
                if dead:
                    rms.decline(dead)
            else:
                settled = settled and self._cheap(entry, memo, size)

        if skipped:
            rms.count_deferred(skipped)
        if gated:
            rms.count_gated(gated)
        self._settled = settled
        self._gated = gating
        if health is not None:
            self._blocked = (
                frozenset(health.blocked_nodes(now)) if scanned else None
            )
        return placed

    @staticmethod
    def _cheap(entry, memo, size: int) -> bool:
        """Whether *entry*'s declined offer only put its keys in the
        round memo (no candidate), so repeating it would change nothing
        but the deferred counter."""
        if entry.excluded_nodes:
            return entry.match_key() in memo and _exclusion_key(entry) in memo
        return len(memo) > size
