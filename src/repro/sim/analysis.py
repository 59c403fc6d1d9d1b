"""Causal run analysis: where every task's turnaround actually went.

The paper's quantitative story is overhead attribution -- queueing vs.
reconfiguration vs. compute vs. software fallback -- and this module
answers it from the typed trace stream alone, with no simulator state:

* **Per-task phase ledger** -- each task's turnaround decomposed into
  the nine :data:`PHASES` (admission backpressure, queue wait,
  placement/matchmaking, reconfiguration, compute, fault recovery,
  checkpoint/migration, orphan limbo, brownout degradation) by folding
  the event stream through one interval state machine.  Every interval
  between consecutive lifecycle events is attributed to exactly one
  phase, so the phases sum to the turnaround by construction; the
  conservation invariant (|sum - turnaround| <= 1e-9) is what
  ``repro analyze`` and the CI analyze smoke assert.
* **Percentile exemplars** -- the k worst tasks of the p50/p95/p99
  turnaround buckets, each with its phase breakdown and causal event
  chain, so slow-tail diagnosis ("why was p99 8x p50?") is one call.
* **Critical path** -- over task-graph runs (``submit`` events carry
  ``deps``), the longest dependency chain weighted by per-task
  turnaround, reported with per-task phase attribution and its share
  of the run's makespan.

Attribution conventions worth knowing:

* Post-retry queue wait counts as ``recovery`` (the task only waits
  again because a fault destroyed its placement), and the setup of a
  checkpoint-resume migration counts as ``checkpoint``.  Checkpoint
  *write* overhead stretches execution and stays in ``compute`` (the
  trace deliberately carries no per-snapshot overhead field).
* ``brownout`` is queue wait absorbed while the admission controller
  held any brownout stage > 0 -- the share of waiting attributable to
  the system being degraded, split out of ``queue`` exactly.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.sim.tracing import TraceEvent, iter_jsonl

#: Every phase a task's turnaround decomposes into, in display order.
PHASES = (
    "admission",   # submit -> admit: backpressure deferrals / parking
    "queue",       # admitted, waiting for a placement decision
    "placement",   # dispatch -> start minus reconfiguration
    "reconfig",    # partial-reconfiguration share of the setup
    "compute",     # start -> complete on the chosen PE
    "recovery",    # fault teardown, backoff, and re-queue wait
    "checkpoint",  # checkpoint-resume migration setup
    "orphan",      # control-plane dark: lease lapse -> re-dispatch
    "brownout",    # queue wait absorbed while browned out (stage > 0)
)

#: Layout version of ``repro analyze --json`` documents.
ANALYSIS_FORMAT = 1

#: Ledger outcomes that end a task's story (everything else is
#: ``pending``: the run's horizon cut the task off mid-flight).
TERMINAL_OUTCOMES = frozenset({"complete", "failed", "discarded", "shed"})

#: Conservation tolerance: phases must sum to turnaround within this.
CONSERVATION_TOL = 1e-9

#: Event kinds recorded into the causal chain (with a short detail).
_CHAIN_KINDS = frozenset({
    "submit", "admit", "defer", "shed", "degrade", "dispatch", "start",
    "reconfigure", "complete", "discard", "requeue", "fault", "retry",
    "fallback", "task-failed", "timeout", "checkpoint", "migrate",
    "probe", "lease-expire", "orphan-recovered",
})

#: Payload fields worth echoing in a chain entry, in display order.
_CHAIN_DETAILS = ("node", "from_node", "reason", "attempt", "action",
                  "deadline", "stage", "frac")


@dataclass
class TaskLedger:
    """One task's full causal story: phases, outcome, event chain."""

    key: object
    function: str
    submitted_at: float
    #: Owning tenant (from the submit event; "" for untagged tasks).
    tenant: str = ""
    finished_at: float | None = None
    outcome: str = "pending"
    phases: dict[str, float] = field(
        default_factory=lambda: {p: 0.0 for p in PHASES}
    )
    #: Producer task ids (same job) from the submit event's ``deps``.
    deps: tuple[int, ...] = ()
    #: Compact causal chain: ``"{t:.3f}s {kind}[ detail]"`` per event.
    chain: list[str] = field(default_factory=list)

    @property
    def turnaround(self) -> float | None:
        """Submit-to-terminal latency; None while the task is pending."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def phase_sum(self) -> float:
        return sum(self.phases.values())

    @property
    def conservation_error(self) -> float | None:
        """|sum(phases) - turnaround|; None for pending tasks."""
        turnaround = self.turnaround
        if turnaround is None:
            return None
        return abs(self.phase_sum - turnaround)

    @property
    def dominant_phase(self) -> str:
        """The phase that absorbed the most of this task's turnaround."""
        return max(PHASES, key=lambda p: (self.phases[p], p))

    def to_json(self) -> dict:
        return {
            "key": list(self.key) if isinstance(self.key, tuple) else self.key,
            "function": self.function,
            "tenant": self.tenant,
            "outcome": self.outcome,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "turnaround_s": self.turnaround,
            "phases_s": {p: self.phases[p] for p in PHASES},
            "dominant_phase": self.dominant_phase,
            "deps": list(self.deps),
            "chain": list(self.chain),
        }


@dataclass
class CriticalPath:
    """Longest turnaround-weighted dependency chain of a graph run."""

    #: Task keys along the path, producers first.
    keys: list[object]
    #: Sum of the path tasks' turnarounds.
    total_s: float
    #: Submit-of-first to finish-of-last span of the whole run.
    makespan_s: float
    #: Per-path-task (turnaround, dominant phase, phases dict).
    nodes: list[tuple[float, str, dict[str, float]]]

    @property
    def share_of_makespan(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.total_s / self.makespan_s

    def to_json(self) -> dict:
        return {
            "keys": [
                list(k) if isinstance(k, tuple) else k for k in self.keys
            ],
            "total_s": self.total_s,
            "makespan_s": self.makespan_s,
            "share_of_makespan": self.share_of_makespan,
            "nodes": [
                {
                    "turnaround_s": turnaround,
                    "dominant_phase": dominant,
                    "phases_s": {p: phases[p] for p in PHASES},
                }
                for turnaround, dominant, phases in self.nodes
            ],
        }


class _Fold:
    """Per-task interval state while folding the event stream."""

    __slots__ = ("ledger", "mark", "cur", "reconfig_s", "migrated")

    def __init__(self, ledger: TaskLedger):
        self.ledger = ledger
        self.mark = ledger.submitted_at
        self.cur = "queue"
        self.reconfig_s = 0.0
        self.migrated = False


def _overlap(windows: list[tuple[float, float]],
             starts: list[float], a: float, b: float) -> float:
    """Total overlap of [a, b) with the sorted disjoint *windows*."""
    if b <= a or not windows:
        return 0.0
    total = 0.0
    # The window before the insertion point may still cover ``a``.
    for i in range(max(0, bisect_right(starts, a) - 1), len(windows)):
        t0, t1 = windows[i]
        if t0 >= b:
            break
        lo, hi = max(a, t0), min(b, t1)
        if hi > lo:
            total += hi - lo
    return total


def _chain_entry(event: TraceEvent) -> str:
    bits = [f"{event.time:.3f}s {event.kind}"]
    for name in _CHAIN_DETAILS:
        if name in event.payload:
            bits.append(f"{name}={event.payload[name]}")
    return " ".join(bits)


@dataclass
class RunAnalysis:
    """The folded result: ledgers, percentiles, exemplars, critical path."""

    ledgers: dict[object, TaskLedger]
    brownout_windows: list[tuple[float, float]]
    #: Turnaround percentiles over completed tasks (p50 / p95 / p99).
    percentiles: dict[str, float]
    #: bucket -> k worst completed tasks (p50 = typical, p95 / p99 = tail).
    exemplars: dict[str, list[TaskLedger]]
    critical_path: CriticalPath | None

    # -- invariants -----------------------------------------------------
    def conservation_violations(
        self, tol: float = CONSERVATION_TOL
    ) -> list[tuple[object, float]]:
        """(key, |error|) of every terminal ledger that breaks the
        phases-sum-to-turnaround invariant; empty when all conserve."""
        out = []
        for ledger in self.ledgers.values():
            error = ledger.conservation_error
            if error is not None and error > tol:
                out.append((ledger.key, error))
        return out

    @property
    def max_conservation_error(self) -> float:
        errors = [
            l.conservation_error
            for l in self.ledgers.values()
            if l.conservation_error is not None
        ]
        return max(errors, default=0.0)

    # -- aggregates -----------------------------------------------------
    def phase_totals(self, keys=None) -> dict[str, float]:
        """Summed phase seconds, over all tasks or a key subset."""
        totals = {p: 0.0 for p in PHASES}
        ledgers = (
            self.ledgers.values()
            if keys is None
            else [self.ledgers[k] for k in keys]
        )
        for ledger in ledgers:
            for p in PHASES:
                totals[p] += ledger.phases[p]
        return totals

    def exemplar_pool(self, bucket: str) -> list[TaskLedger]:
        """Every completed task inside a percentile bucket (the
        exemplars are the k worst of this pool)."""
        completed = [
            l for l in self.ledgers.values()
            if l.outcome == "complete" and l.turnaround is not None
        ]
        if not completed or not self.percentiles:
            return []
        p50, p95, p99 = (
            self.percentiles["p50"], self.percentiles["p95"],
            self.percentiles["p99"],
        )
        lo, hi = {
            "p50": (p50, p95), "p95": (p95, p99), "p99": (p99, float("inf")),
        }[bucket]
        return [l for l in completed if lo <= l.turnaround and l.turnaround < hi]

    def dominant_phase(self, bucket: str = "p99") -> str | None:
        """The phase absorbing the most time across a bucket's tasks."""
        pool = self.exemplar_pool(bucket)
        if not pool:
            return None
        totals = self.phase_totals([l.key for l in pool])
        return max(PHASES, key=lambda p: (totals[p], p))

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict:
        outcomes: dict[str, int] = {}
        for ledger in self.ledgers.values():
            outcomes[ledger.outcome] = outcomes.get(ledger.outcome, 0) + 1
        violations = self.conservation_violations()
        return {
            "format": ANALYSIS_FORMAT,
            "kind": "run-analysis",
            "tasks": len(self.ledgers),
            "outcomes": dict(sorted(outcomes.items())),
            "phase_totals_s": self.phase_totals(),
            "percentiles_s": dict(self.percentiles),
            "dominant_phase": {
                bucket: self.dominant_phase(bucket)
                for bucket in ("p50", "p95", "p99")
            },
            "exemplars": {
                bucket: [l.to_json() for l in ledgers]
                for bucket, ledgers in self.exemplars.items()
            },
            "critical_path": (
                self.critical_path.to_json()
                if self.critical_path is not None
                else None
            ),
            "conservation": {
                "tolerance": CONSERVATION_TOL,
                "checked": sum(
                    1 for l in self.ledgers.values()
                    if l.conservation_error is not None
                ),
                "max_error": self.max_conservation_error,
                "violations": [
                    {"key": list(k) if isinstance(k, tuple) else k,
                     "error": e}
                    for k, e in violations
                ],
            },
            "brownout_windows": [list(w) for w in self.brownout_windows],
        }

    # -- rendering ------------------------------------------------------
    def phase_table(self, top: int = 10) -> str:
        """ASCII table of the worst-``top`` tasks by turnaround, one
        column per phase that absorbed any time in the run."""
        from repro.report import ascii_table

        totals = self.phase_totals()
        shown = [p for p in PHASES if totals[p] > 0] or ["queue", "compute"]
        terminal = sorted(
            (l for l in self.ledgers.values() if l.turnaround is not None),
            key=lambda l: (-l.turnaround, str(l.key)),
        )[:top]
        rows = [
            tuple(
                [str(l.key), l.outcome, f"{l.turnaround:.4f}"]
                + [f"{l.phases[p]:.4f}" for p in shown]
                + [l.dominant_phase]
            )
            for l in terminal
        ]
        return ascii_table(
            ["task", "outcome", "turnaround s"]
            + [f"{p} s" for p in shown] + ["dominant"],
            rows,
            title=f"Per-task phase ledger (worst {len(rows)} of "
                  f"{len(self.ledgers)} tasks by turnaround)",
        )

    def summary_lines(self) -> list[str]:
        lines = []
        completed = sum(
            1 for l in self.ledgers.values() if l.outcome == "complete"
        )
        lines.append(
            f"tasks analyzed       {len(self.ledgers)} "
            f"({completed} completed)"
        )
        totals = self.phase_totals()
        grand = sum(totals.values())
        if grand > 0:
            parts = ", ".join(
                f"{p} {totals[p] / grand:.1%}"
                for p in PHASES if totals[p] > 0
            )
            lines.append(f"time attribution     {parts}")
        if self.percentiles:
            lines.append(
                "turnaround           "
                f"p50 {self.percentiles['p50']:.4f}  "
                f"p95 {self.percentiles['p95']:.4f}  "
                f"p99 {self.percentiles['p99']:.4f} s"
            )
            for bucket in ("p50", "p95", "p99"):
                dominant = self.dominant_phase(bucket)
                if dominant is None:
                    continue
                pool = self.exemplar_pool(bucket)
                pool_totals = self.phase_totals([l.key for l in pool])
                pool_sum = sum(pool_totals.values())
                share = pool_totals[dominant] / pool_sum if pool_sum else 0.0
                lines.append(
                    f"dominant {bucket} phase   {dominant} "
                    f"({share:.1%} of the bucket's {len(pool)} task(s))"
                )
        if self.brownout_windows:
            degraded = sum(t1 - t0 for t0, t1 in self.brownout_windows)
            lines.append(
                f"brownout             {len(self.brownout_windows)} "
                f"window(s), {degraded:.2f} s degraded"
            )
        cp = self.critical_path
        if cp is not None:
            chain = " -> ".join(str(k) for k in cp.keys)
            lines.append(
                f"critical path        {len(cp.keys)} task(s), "
                f"{cp.total_s:.4f} s ({cp.share_of_makespan:.1%} of the "
                f"{cp.makespan_s:.4f} s makespan)"
            )
            lines.append(f"                     {chain}")
            for key, (turnaround, dominant, _) in zip(cp.keys, cp.nodes):
                lines.append(
                    f"                     {key}: {turnaround:.4f} s, "
                    f"mostly {dominant}"
                )
        violations = self.conservation_violations()
        if violations:
            lines.append(
                f"conservation         FAIL: {len(violations)} task(s) "
                f"break |phases - turnaround| <= {CONSERVATION_TOL:g}"
            )
            for key, error in violations[:5]:
                lines.append(f"                     {key}: error {error:.3e}")
        else:
            checked = sum(
                1 for l in self.ledgers.values()
                if l.conservation_error is not None
            )
            lines.append(
                f"conservation         OK: {checked} task(s), max error "
                f"{self.max_conservation_error:.3e} s"
            )
        return lines

    def exemplar_lines(self, chain_limit: int = 10) -> list[str]:
        lines = []
        for bucket in ("p50", "p95", "p99"):
            ledgers = self.exemplars.get(bucket, [])
            if not ledgers:
                continue
            lines.append(f"{bucket} exemplars:")
            for ledger in ledgers:
                breakdown = ", ".join(
                    f"{p} {ledger.phases[p]:.4f}"
                    for p in PHASES if ledger.phases[p] > 0
                )
                lines.append(
                    f"  {ledger.key} ({ledger.outcome}, "
                    f"{ledger.turnaround:.4f} s): {breakdown}"
                )
                chain = ledger.chain
                shown = chain[:chain_limit]
                tail = len(chain) - len(shown)
                for entry in shown:
                    lines.append(f"    {entry}")
                if tail > 0:
                    lines.append(f"    ... {tail} more event(s)")
        return lines

    def render(self, top: int = 10) -> str:
        sections = [self.phase_table(top=top), "\n".join(self.summary_lines())]
        exemplars = self.exemplar_lines()
        if exemplars:
            sections.append("\n".join(exemplars))
        return "\n\n".join(sections)


def _extract_critical_path(
    ledgers: dict[object, TaskLedger]
) -> CriticalPath | None:
    """Longest turnaround-weighted dependency chain, or None when the
    trace carries no task-graph edges (no ``deps`` on any submit)."""
    if not any(l.deps for l in ledgers.values()):
        return None
    finished = [l for l in ledgers.values() if l.turnaround is not None]
    if not finished:
        return None
    # Producers complete before their consumers submit (graph arrivals
    # are gated on producer completion), so submit order is a valid
    # topological order; ties break on the key for determinism.
    finished.sort(key=lambda l: (l.submitted_at, str(l.key)))
    best: dict[object, float] = {}
    parent: dict[object, object | None] = {}
    for ledger in finished:
        job_id = ledger.key[0] if isinstance(ledger.key, tuple) else None
        incoming = 0.0
        via: object | None = None
        for dep in ledger.deps:
            dep_key = (job_id, dep) if job_id is not None else dep
            score = best.get(dep_key)
            if score is not None and score > incoming:
                incoming, via = score, dep_key
        best[ledger.key] = incoming + ledger.turnaround
        parent[ledger.key] = via
    tail = max(best, key=lambda k: (best[k], str(k)))
    keys: list[object] = []
    cursor: object | None = tail
    while cursor is not None:
        keys.append(cursor)
        cursor = parent[cursor]
    keys.reverse()
    makespan = max(l.finished_at for l in finished) - min(
        l.submitted_at for l in finished
    )
    return CriticalPath(
        keys=keys,
        total_s=best[tail],
        makespan_s=makespan,
        nodes=[
            (
                ledgers[k].turnaround,
                ledgers[k].dominant_phase,
                dict(ledgers[k].phases),
            )
            for k in keys
        ],
    )


def analyze_events(
    events: Iterable[TraceEvent], *, exemplars_k: int = 3, tenant: str = ""
) -> RunAnalysis:
    """Fold a time-ordered trace into a :class:`RunAnalysis` in one pass
    (any iterable: a list, or :func:`iter_jsonl`'s stream).

    ``tenant`` restricts the ledger to tasks whose submit event carries
    that tenant tag -- the single-tenant drill-down behind
    ``repro analyze --tenant`` (global events like brownout windows
    still apply; other tenants' tasks are simply not folded).
    """
    # Closed brownout windows [t0, t1); ``opened`` starts the open one.
    windows: list[tuple[float, float]] = []
    window_starts: list[float] = []
    opened: float | None = None
    t = 0.0
    ledgers: dict[object, TaskLedger] = {}
    folds: dict[object, _Fold] = {}

    def close(f: _Fold, t: float, into: str) -> None:
        dt = t - f.mark
        f.mark = t
        if dt <= 0:
            return
        if into == "queue" and (windows or opened is not None):
            degraded = _overlap(windows, window_starts, t - dt, t)
            if opened is not None and opened < t:  # sorts, so sums, last
                degraded += t - max(t - dt, opened)
            if degraded > 0:
                f.ledger.phases["brownout"] += degraded
                dt -= degraded
        f.ledger.phases[into] += dt

    def finish(f: _Fold, t: float, into: str, outcome: str) -> None:
        close(f, t, into)
        f.ledger.finished_at = t
        f.ledger.outcome = outcome

    for event in events:
        kind = event.kind
        key = event.key
        t = event.time
        if kind == "brownout":
            stage = event.payload.get("stage", 0)
            if stage > 0 and opened is None:
                opened = t
            elif stage == 0 and opened is not None:
                windows.append((opened, t))
                window_starts.append(opened)
                opened = None
        if key is None:
            continue  # grid membership / control-plane / brownout events
        if kind == "submit":
            event_tenant = event.payload.get("tenant", "")
            if tenant and event_tenant != tenant:
                continue  # filtered out: no ledger, later events skip
            ledger = TaskLedger(
                key=key,
                function=event.payload.get("function", ""),
                submitted_at=event.time,
                tenant=event_tenant,
                deps=tuple(event.payload.get("deps", ())),
            )
            ledgers[key] = ledger
            folds[key] = _Fold(ledger)
            ledger.chain.append(_chain_entry(event))
            continue
        f = folds.get(key)
        if f is None:
            continue  # trace fragment: events before the first submit
        if kind in _CHAIN_KINDS:
            f.ledger.chain.append(_chain_entry(event))
        if kind == "defer":
            close(f, t, f.cur)
            f.cur = "admission"
        elif kind == "admit":
            close(f, t, f.cur)
            f.cur = "queue"
        elif kind == "shed":
            finish(f, t, f.cur, "shed")
        elif kind == "dispatch":
            close(f, t, f.cur)
            f.cur = "placement"
            f.reconfig_s = event.payload.get("reconfig_time", 0.0)
            f.migrated = False
        elif kind == "migrate":
            # Emitted at the dispatch timestamp: this placement resumes
            # checkpointed work, so its setup belongs to ``checkpoint``.
            f.migrated = True
        elif kind == "start":
            dt = t - f.mark
            f.mark = t
            if dt > 0:
                if f.migrated:
                    f.ledger.phases["checkpoint"] += dt
                else:
                    r = min(f.reconfig_s, dt)
                    f.ledger.phases["reconfig"] += r
                    f.ledger.phases["placement"] += dt - r
            f.migrated = False
            f.cur = "compute"
        elif kind == "complete":
            finish(f, t, f.cur, "complete")
        elif kind == "discard":
            finish(f, t, f.cur, "discarded")
        elif kind == "task-failed":
            finish(f, t, "recovery" if f.cur == "compute" else f.cur, "failed")
        elif kind == "fault":
            # The fault scrapped whatever the open interval was doing
            # (setup or execution): that time was lost to the fault.
            close(f, t, "recovery")
            f.cur = "recovery"
        elif kind in ("retry", "fallback"):
            close(f, t, "recovery")
            f.cur = "recovery"
        elif kind == "requeue":
            # Graceful placement teardown (node departure, orphan
            # re-queue): in-flight phases become recovery wait, except
            # inside the orphan flow which keeps its own attribution.
            if f.cur in ("placement", "compute"):
                close(f, t, "recovery")
            else:
                close(f, t, f.cur)
            if f.cur != "orphan":
                f.cur = "recovery"
        elif kind == "timeout":
            if (
                event.payload.get("action") in ("requeue", "fail")
                and f.cur in ("placement", "compute")
            ):
                close(f, t, "recovery")
                f.cur = "recovery"
        elif kind == "lease-expire":
            close(f, t, f.cur)
            f.cur = "orphan"
        elif kind == "orphan-recovered":
            close(f, t, "orphan")
            f.cur = "orphan"
        # Everything else (reconfigure, checkpoint, probe,
        # degrade, slice accounting) refines the chain, not the ledger.

    if opened is not None:
        windows.append((opened, max(t, opened)))  # cut off while browned out
    completed = [
        l for l in ledgers.values()
        if l.outcome == "complete" and l.turnaround is not None
    ]
    percentiles: dict[str, float] = {}
    exemplars: dict[str, list[TaskLedger]] = {}
    if completed:
        import numpy as np

        turnarounds = np.array([l.turnaround for l in completed])
        percentiles = {
            "p50": float(np.percentile(turnarounds, 50)),
            "p95": float(np.percentile(turnarounds, 95)),
            "p99": float(np.percentile(turnarounds, 99)),
        }
        p50, p95, p99 = (
            percentiles["p50"], percentiles["p95"], percentiles["p99"],
        )
        buckets = {
            "p50": (p50, p95), "p95": (p95, p99), "p99": (p99, float("inf")),
        }
        for bucket, (lo, hi) in buckets.items():
            pool = [l for l in completed if lo <= l.turnaround < hi]
            pool.sort(key=lambda l: (-l.turnaround, str(l.key)))
            exemplars[bucket] = pool[:exemplars_k]
    return RunAnalysis(
        ledgers=ledgers,
        brownout_windows=windows,
        percentiles=percentiles,
        exemplars=exemplars,
        critical_path=_extract_critical_path(ledgers),
    )


def analyze_trace(
    path: str | Path, *, exemplars_k: int = 3, tenant: str = ""
) -> RunAnalysis:
    """Stream a JSONL trace through the fold (``repro analyze``'s core)."""
    return analyze_events(
        iter_jsonl(path), exemplars_k=exemplars_k, tenant=tenant
    )


def write_analysis_json(path: str | Path, documents: dict[str, dict]) -> None:
    """Persist one or more analyses keyed by trace path (CI artifact)."""
    Path(path).write_text(
        json.dumps(
            {"format": ANALYSIS_FORMAT, "kind": "analysis-suite",
             "traces": documents},
            indent=2, sort_keys=True,
        ) + "\n",
        encoding="ascii",
    )
