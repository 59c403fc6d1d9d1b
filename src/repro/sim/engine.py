"""Deterministic discrete-event simulation cores.

Two interchangeable event loops live here:

* :class:`SimulationEngine` -- the reference implementation: events are
  handles on a binary heap ordered by ``(time, seq)``; ``seq`` is a
  monotone counter so simultaneous events fire in scheduling order,
  making every run bit-reproducible for a given seed.  Cancellation is
  lazy (the handle is flagged and skipped when popped), the standard
  trick to keep the heap O(log n) per operation.

* :class:`CalendarQueueEngine` -- a calendar queue (Brown 1988) plus a
  slab run for bulk submissions, tuned for million-event runs.
  Simulated time is divided into fixed-width buckets ("days"); an
  event at time *t* lands in bucket ``int(t / width) % nbuckets`` and
  the dequeue cursor walks the calendar day by day, so enqueue and
  dequeue are O(1) amortized instead of O(log n).  Inside one bucket
  events sit on a *small* heap of plain ``(time, seq, handle,
  callback)`` tuples, which CPython's heapq compares entirely in C --
  no Python-level ``__lt__`` on the hot path -- and handles are
  ``__slots__`` flyweights rather than dataclasses.  Bulk submissions
  (:meth:`~CalendarQueueEngine.schedule_batch` with ``handles=False``)
  skip per-event objects entirely: the batch is stored as sorted
  parallel arrays (the slab) consumed by an index cursor and merged
  with the calendar on ``(time, seq)`` at pop time.  Because equal
  times always map to the same bucket, ``seq`` breaks ties within it,
  and the slab merge compares the same key, the global firing order is
  *identical* to the heap engine's; a differential property test and a
  golden byte-identity lock pin this.

Both engines expose the same API; :func:`make_engine` picks one by
name.  The calendar engine runs every simulation by default; the heap
engine is selected only with ``engine="heap"`` and serves as the
oracle the differential tests compare the calendar engine against.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np


class SimulationError(RuntimeError):
    """Illegal engine operation (scheduling in the past, etc.)."""


@dataclass(order=True)
class EventHandle:
    """Handle to a scheduled event; comparable by (time, seq)."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class SimulationEngine:
    """The reference binary-heap event loop: the differential oracle.

    Runs select it only with ``engine="heap"``; the differential tests
    replay every program on it and on :class:`CalendarQueueEngine`.
    ``now`` only moves forward; callbacks may schedule further events.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[EventHandle] = []
        self._seq = itertools.count()
        self.processed_events = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* to fire *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule *callback* at absolute simulation time *time*."""
        if not math.isfinite(time):
            # NaN compares False against everything, so without this
            # check a NaN time would sail past the past-guard below and
            # silently corrupt the heap's partial order; inf would hang
            # run(until=...) at an event that never becomes due.
            raise SimulationError(f"cannot schedule at non-finite time {time}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; simulation clock is at {self.now}"
            )
        handle = EventHandle(time=time, seq=next(self._seq), callback=callback)
        heapq.heappush(self._heap, handle)
        return handle

    def schedule_batch(
        self,
        times: Sequence[float],
        callbacks: Sequence[Callable[[], None]],
        *,
        handles: bool = True,
    ) -> list[EventHandle] | None:
        """Schedule many events at once; equivalent to a
        :meth:`schedule_at` loop (and implemented as one here -- the
        calendar engine overrides this with a slab insert).  With
        ``handles=False`` the events cannot be cancelled and nothing is
        returned, which lets optimized engines skip per-event handle
        allocation entirely.
        """
        if len(times) != len(callbacks):
            raise ValueError("need exactly one callback per time")
        # Validate the whole batch before touching the queue, so a bad
        # time mid-batch cannot leave a partial insert behind (the
        # calendar engine's batch is atomic the same way).
        for t in times:
            if not math.isfinite(t):
                raise SimulationError(f"cannot schedule at non-finite time {t}")
        out = [self.schedule_at(float(t), cb) for t, cb in zip(times, callbacks)]
        return out if handles else None

    @property
    def pending_events(self) -> int:
        return sum(1 for h in self._heap if not h.cancelled)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is dry."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = handle.time
            self.processed_events += 1
            handle.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the queue (optionally bounded); returns the final clock.

        ``until`` stops *before* firing any event later than it and
        advances the clock exactly to ``until``; ``max_events`` bounds
        the number of callbacks fired (guard against runaway feedback).
        """
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            self.step()
            fired += 1
        if until is not None and self.now < until:
            self.now = until
        return self.now


class SlabHandle:
    """Flyweight event handle for the calendar engine.

    ``__slots__`` keeps it to one compact allocation (no instance dict,
    no dataclass ``__lt__`` machinery); ordering lives entirely in the
    ``(time, seq, handle, callback)`` bucket tuples, whose comparison
    never reaches the handle because ``seq`` is unique.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


#: A bucket entry: ``(time, seq, handle, callback)``.  ``handle`` is
#: None for slab events spilled into the calendar (uncancellable).
_Entry = tuple[float, int, "SlabHandle | None", Callable[[], None]]

#: Bucket-count bounds.  The floor keeps the calendar meaningful on
#: tiny queues; the ceiling bounds the empty-lap scan and the resize
#: rebuild (beyond it buckets simply hold deeper heaps, which stay
#: cheap because tuple comparison is O(1) C calls).
_MIN_BUCKETS = 8
_MAX_BUCKETS = 1 << 16


class CalendarQueueEngine:
    """Calendar-queue + slab event loop; the default engine, firing
    events in exactly :class:`SimulationEngine`'s order.

    An event at time *t* has absolute day number ``int(t / width)`` and
    lives in bucket ``day % nbuckets``; one lap of the calendar (a
    "year") spans ``nbuckets * width`` seconds.  The dequeue cursor
    remembers the current day and only pops events whose own day number
    matches it -- comparing *integer* day numbers rather than a
    floating-point bucket-top sidesteps the classic boundary-drift bug
    where an event at the very edge of a bucket is skipped for a lap.
    After a fruitless full lap (sparse far-future events) the cursor
    jumps straight to the earliest bucket head.  The bucket count grows
    and shrinks with the queue, re-estimating the width from the live
    events' span so each day holds O(1) events regardless of the
    event-time distribution.

    Bulk submissions with ``handles=False`` bypass the buckets: the
    sorted times/callbacks live in parallel arrays (the slab run) and
    an index cursor walks them, merging with the calendar on
    ``(time, seq)``.  That is the 1e6-arrival fast path: submission
    allocates no per-event objects at all.
    """

    def __init__(self, *, width: float = 1.0, nbuckets: int = _MIN_BUCKETS) -> None:
        if not (math.isfinite(width) and width > 0):
            raise ValueError("bucket width must be positive and finite")
        if nbuckets < 1:
            raise ValueError("bucket count must be positive")
        self.now: float = 0.0
        self.processed_events = 0
        self._next_seq = 0
        n = _MIN_BUCKETS
        while n < min(nbuckets, _MAX_BUCKETS):
            n <<= 1
        self._width = width
        self._nbuckets = n
        self._mask = n - 1
        self._buckets: list[list[_Entry]] = [[] for _ in range(n)]
        #: Absolute day number of the dequeue cursor.
        self._day = 0
        #: Entries stored across all buckets, cancelled included (lazy
        #: cancellation cannot decrement it; pruning does).
        self._count = 0
        #: The slab run: parallel (times, seqs, callbacks) plus cursor.
        self._run_times: list[float] = []
        self._run_seqs: Sequence[int] = ()
        self._run_cbs: Sequence[Callable[[], None]] = ()
        self._run_i = 0
        self._run_len = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> SlabHandle:
        """Schedule *callback* to fire *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> SlabHandle:
        """Schedule *callback* at absolute simulation time *time*."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time {time}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; simulation clock is at {self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = SlabHandle(time, seq, callback)
        day = int(time / self._width)
        if day < self._day:
            # The cursor moved past this day (run(until=...) between
            # events, or a lap-jump over empty buckets); rewind so the
            # next scan starts no later than the new event.
            self._day = day
        heapq.heappush(self._buckets[day & self._mask], (time, seq, handle, callback))
        count = self._count + 1
        self._count = count
        if count > (self._nbuckets << 1) and self._nbuckets < _MAX_BUCKETS:
            self._resize(grow=True)
        return handle

    def schedule_batch(
        self,
        times: Sequence[float],
        callbacks: Sequence[Callable[[], None]],
        *,
        handles: bool = True,
    ) -> list[SlabHandle] | None:
        """Bulk insert; semantically identical to a :meth:`schedule_at`
        loop (``seq`` is assigned in submission order).

        With ``handles=False`` the batch becomes the slab run: after
        whole-array validation and an (only-if-needed) stable sort, the
        times and callbacks are kept as parallel arrays and no
        per-event object is allocated -- submission cost is a few numpy
        passes regardless of batch size.  Slab events cannot be
        cancelled.  With ``handles=True`` events go through the normal
        calendar (one flyweight handle each).
        """
        n = len(times)
        if n != len(callbacks):
            raise ValueError("need exactly one callback per time")
        if n == 0:
            return [] if handles else None
        t = np.ascontiguousarray(times, dtype=np.float64)
        if not np.isfinite(t).all():
            bad = float(t[~np.isfinite(t)][0])
            raise SimulationError(f"cannot schedule at non-finite time {bad}")
        t_min = float(t.min())
        if t_min < self.now:
            raise SimulationError(
                f"cannot schedule at {t_min}; simulation clock is at {self.now}"
            )
        seq0 = self._next_seq
        self._next_seq = seq0 + n

        if not handles:
            if self._run_i < self._run_len:
                self._spill_run()
            if n == 1 or bool((np.diff(t) >= 0).all()):
                # Already sorted (the common case: cumulative arrival
                # times): reference the caller's callbacks in place.
                self._run_times = t.tolist()
                self._run_seqs = range(seq0, seq0 + n)
                self._run_cbs = callbacks
            else:
                order = np.argsort(t, kind="stable")
                self._run_times = t[order].tolist()
                olist = order.tolist()
                self._run_seqs = [seq0 + j for j in olist]
                self._run_cbs = [callbacks[j] for j in olist]
            self._run_i = 0
            self._run_len = n
            return None

        # Handle path: pre-size the calendar for the post-insert
        # population so the loop never triggers an incremental rebuild.
        if self._count + n > (self._nbuckets << 1) and self._nbuckets < _MAX_BUCKETS:
            span = float(t.max()) - t_min
            live = self._count + n
            target = self._nbuckets
            while target < live and target < _MAX_BUCKETS:
                target <<= 1
            self._resize(
                nbuckets=target,
                width=max(2.0 * span / live, 1e-12) if span > 0 else None,
            )
        width = self._width
        mask = self._mask
        buckets = self._buckets
        days = (t / width).astype(np.int64)
        idx = (days & mask).tolist()
        tl = t.tolist()
        out = []
        append = out.append
        seq = seq0
        for tm, b, cb in zip(tl, idx, callbacks):
            handle = SlabHandle(tm, seq, cb)
            append(handle)
            buckets[b].append((tm, seq, handle, cb))
            seq += 1
        heapify = heapq.heapify
        for b in set(idx):
            heapify(buckets[b])
        first_day = int(days.min())
        if first_day < self._day:
            self._day = first_day
        self._count += n
        return out

    def _spill_run(self) -> None:
        """Move the unconsumed tail of the slab run into the calendar
        (needed before installing a new run); (time, seq) keys carry
        over, so ordering is unaffected."""
        times = self._run_times
        seqs = self._run_seqs
        cbs = self._run_cbs
        width = self._width
        mask = self._mask
        buckets = self._buckets
        touched = set()
        for j in range(self._run_i, self._run_len):
            tm = times[j]
            b = int(tm / width) & mask
            buckets[b].append((tm, seqs[j], None, cbs[j]))
            touched.add(b)
        for b in touched:
            heapq.heapify(buckets[b])
        spilled = self._run_len - self._run_i
        self._count += spilled
        first_day = int(times[self._run_i] / width)
        if first_day < self._day:
            self._day = first_day
        self._run_times = []
        self._run_seqs = ()
        self._run_cbs = ()
        self._run_i = self._run_len = 0
        if self._count > (self._nbuckets << 1) and self._nbuckets < _MAX_BUCKETS:
            self._resize(grow=True)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        bucketed = sum(
            1
            for bucket in self._buckets
            for _, _, h, _ in bucket
            if h is None or not h.cancelled
        )
        return bucketed + (self._run_len - self._run_i)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is dry."""
        bucket = self._advance_to_next()
        run_t = self._run_times[self._run_i] if self._run_i < self._run_len else None
        if bucket:
            head_t = bucket[0][0]
            if run_t is None or head_t <= run_t:
                return head_t
        return run_t

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        bucket = self._advance_to_next()
        ri = self._run_i
        use_run = False
        if ri < self._run_len:
            rt = self._run_times[ri]
            if not bucket:
                use_run = True
            else:
                head = bucket[0]
                use_run = rt < head[0] or (rt == head[0] and self._run_seqs[ri] < head[1])
        elif not bucket:
            return False
        if use_run:
            self._run_i = ri + 1
            self.now = rt
            self.processed_events += 1
            self._run_cbs[ri]()
        else:
            head = heapq.heappop(bucket)
            self._count -= 1
            self.now = head[0]
            self.processed_events += 1
            head[3]()
            if self._count < (self._nbuckets >> 2) and self._nbuckets > _MIN_BUCKETS:
                self._resize(grow=False)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the queue (optionally bounded); returns the final clock.

        Same contract as :meth:`SimulationEngine.run`.  The loop body
        inlines the common cases -- next event at the slab cursor or at
        the head of the current day's bucket -- and falls back to the
        full cursor scan otherwise.  Calendar attributes are re-read
        every iteration because callbacks may schedule (and thereby
        resize or install a new slab run).
        """
        heappop = heapq.heappop
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            # Calendar candidate: fast path is the current day's head.
            day = self._day
            bucket = self._buckets[day & self._mask]
            width = self._width
            while bucket:
                head = bucket[0]
                h = head[2]
                if h is not None and h.cancelled:
                    heappop(bucket)
                    self._count -= 1
                    continue
                if int(head[0] / width) != day:
                    bucket = None
                break
            if not bucket:
                bucket = self._advance_to_next()
            # Slab candidate, merged on (time, seq).
            ri = self._run_i
            use_run = False
            if ri < self._run_len:
                rt = self._run_times[ri]
                if not bucket:
                    use_run = True
                else:
                    head = bucket[0]
                    use_run = rt < head[0] or (
                        rt == head[0] and self._run_seqs[ri] < head[1]
                    )
            elif not bucket:
                break
            if use_run:
                if until is not None and rt > until:
                    self.now = until
                    break
                self._run_i = ri + 1
                self.now = rt
                self.processed_events += 1
                self._run_cbs[ri]()
            else:
                head = bucket[0]
                if until is not None and head[0] > until:
                    self.now = until
                    break
                heappop(bucket)
                self._count -= 1
                self.now = head[0]
                self.processed_events += 1
                head[3]()
                if self._count < (self._nbuckets >> 2) and self._nbuckets > _MIN_BUCKETS:
                    self._resize(grow=False)
            fired += 1
        if until is not None and self.now < until:
            self.now = until
        return self.now

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance_to_next(self) -> list[_Entry] | None:
        """Move the cursor to the bucket holding the next live bucketed
        event (slab run excluded -- the callers merge it).

        Returns that bucket (next event at its head) or None when the
        calendar is empty.  Cancelled heads are pruned along the way so
        lazy cancellation never accumulates at the front.
        """
        if self._count == 0:
            return None
        width = self._width
        mask = self._mask
        buckets = self._buckets
        heappop = heapq.heappop
        day = self._day
        for _ in range(self._nbuckets):
            bucket = buckets[day & mask]
            while bucket:
                head = bucket[0]
                h = head[2]
                if h is not None and h.cancelled:
                    heappop(bucket)
                    self._count -= 1
                    continue
                if int(head[0] / width) == day:
                    self._day = day
                    return bucket
                break
            if self._count == 0:
                self._day = day
                return None
            day += 1
        # A full lap found nothing due this year: every remaining event
        # is at least a year out.  Jump to the earliest bucket head.
        best = None
        best_bucket = None
        for bucket in buckets:
            while bucket:
                h = bucket[0][2]
                if h is not None and h.cancelled:
                    heappop(bucket)
                    self._count -= 1
                    continue
                break
            if bucket and (best is None or bucket[0] < best):
                best = bucket[0]
                best_bucket = bucket
        if best_bucket is None:
            return None
        self._day = int(best[0] / width)
        return best_bucket

    def _resize(
        self,
        *,
        grow: bool | None = None,
        nbuckets: int | None = None,
        width: float | None = None,
    ) -> None:
        """Rebuild the calendar, re-estimating the bucket width so live
        events average ~2 per day.

        ``grow=True`` doubles the bucket count, ``grow=False`` halves
        it; explicit ``nbuckets``/``width`` override (bulk pre-sizing,
        where the incoming batch's span is already known).
        """
        if nbuckets is None:
            nbuckets = self._nbuckets << 1 if grow else max(self._nbuckets >> 1, _MIN_BUCKETS)
        live = [
            entry
            for bucket in self._buckets
            for entry in bucket
            if entry[2] is None or not entry[2].cancelled
        ]
        if width is not None:
            self._width = width
        elif live:
            ts = [entry[0] for entry in live]
            span = max(ts) - min(ts)
            if span > 0:
                # ~2 events per occupied day keeps each bucket heap
                # shallow; the clamp stops the width collapsing to a
                # denormal under pathological spans.
                self._width = max(2.0 * span / len(live), 1e-12)
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._buckets = [[] for _ in range(nbuckets)]
        new_width = self._width
        mask = self._mask
        buckets = self._buckets
        for entry in live:
            buckets[int(entry[0] / new_width) & mask].append(entry)
        heapify = heapq.heapify
        for bucket in buckets:
            if bucket:
                heapify(bucket)
        self._count = len(live)
        if live:
            self._day = int(min(entry[0] for entry in live) / new_width)
        else:
            self._day = int(self.now / new_width)


#: Engine registry: ``ExperimentSpec.engine`` values -> factory.
ENGINES: dict[str, Callable[[], SimulationEngine | CalendarQueueEngine]] = {
    "heap": SimulationEngine,
    "calendar": CalendarQueueEngine,
}


def make_engine(name: str) -> SimulationEngine | CalendarQueueEngine:
    """Instantiate an event engine by registry name."""
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; choose from " + ", ".join(sorted(ENGINES))
        ) from None
    return factory()
