"""The Job Submission System (Section V).

"A grid user submits his application tasks through a JSS.  [...] These
tasks are submitted to a certain JSS which analyzes the requirements of
each task and forwards it to the RMS."

The JSS is the user-facing half of the framework: it validates that a
submission carries the artifacts its abstraction level requires
(Figure 2 / Section III), wraps tasks into tracked :class:`Job` objects,
and forwards them to an RMS or a simulator.  Job status here is the
minimum Figure 9 service ("submit his application tasks and get
results"); the richer services stack on top in
:mod:`repro.grid.services`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.core.abstraction import AbstractionLevel, SubmissionError, validate_artifacts
from repro.core.application import Application
from repro.core.task import Task
from repro.core.taskgraph import TaskGraph
from repro.grid.virtualizer import VirtualizationLayer

_job_ids = itertools.count(1)


class JobStatus(enum.Enum):
    """Lifecycle of a job (and of each task within it)."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class TaskRecord:
    """Per-task bookkeeping within a job."""

    task: Task
    level: AbstractionLevel
    status: JobStatus = JobStatus.SUBMITTED
    submit_time: float = 0.0
    start_time: float | None = None
    finish_time: float | None = None
    node_id: int | None = None
    #: Why the task failed (fault description / SchedulingError text,
    #: or ``deadline_exceeded: ...`` when the resilience layer's hard
    #: deadline watchdog gave up on it); ``None`` while it has not
    #: failed.
    failure_reason: str | None = None
    #: Placement attempts consumed (faulted dispatches count; a task
    #: that completes first try has attempts == 1).
    attempts: int = 0
    #: Times a control-plane failure orphaned this task's running
    #: placement (lease expiry during failover, RMS cold restart) and
    #: it was recovered by requeueing rather than lost.
    orphaned: int = 0

    @property
    def turnaround_s(self) -> float | None:
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time


@dataclass
class Job:
    """One user submission: a single task, a task graph, or a full
    Eq. 3 application."""

    job_id: int
    records: dict[int, TaskRecord]
    application: Application | None = None
    graph: TaskGraph | None = None

    @property
    def status(self) -> JobStatus:
        statuses = {r.status for r in self.records.values()}
        if JobStatus.FAILED in statuses:
            return JobStatus.FAILED
        if statuses == {JobStatus.COMPLETED}:
            return JobStatus.COMPLETED
        if JobStatus.RUNNING in statuses or JobStatus.COMPLETED in statuses:
            return JobStatus.RUNNING
        return JobStatus.SUBMITTED

    def record(self, task_id: int) -> TaskRecord:
        try:
            return self.records[task_id]
        except KeyError:
            raise KeyError(f"job {self.job_id} has no task T{task_id}") from None


class JobSubmissionSystem:
    """Validates and tracks user submissions."""

    def __init__(self, *, virtualization: VirtualizationLayer | None = None):
        self.virtualization = virtualization or VirtualizationLayer()
        self.jobs: dict[int, Job] = {}
        self.rejected = 0
        #: Optional :class:`repro.sim.telemetry.TelemetryRegistry`
        #: installed by the simulator; submission and terminal status
        #: transitions then count into ``jss_tasks_*_total`` series.
        #: ``None`` keeps every path a single attribute check.
        self.telemetry = None

    def _count(self, name: str, help: str, amount: float = 1.0) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name, help).inc(amount)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self, task: Task) -> AbstractionLevel:
        """Analyze one task's requirements (the JSS's stated duty).

        The abstraction level is taken from the task when present,
        otherwise inferred from the artifacts; the level's mandatory
        artifacts are then checked.
        """
        level = task.abstraction_level
        if level is None:
            level = self.virtualization.required_abstraction_level(task)
        try:
            validate_artifacts(level, task.exec_req.artifacts)
        except SubmissionError:
            self.rejected += 1
            self._count("jss_tasks_rejected_total", "tasks failing validation")
            raise
        self._count("jss_tasks_submitted_total", "tasks accepted by the JSS")
        return level

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_task(self, task: Task, *, submit_time: float = 0.0) -> Job:
        """Submit a single independent task."""
        level = self._validate(task)
        job = Job(
            job_id=next(_job_ids),
            records={task.task_id: TaskRecord(task=task, level=level, submit_time=submit_time)},
        )
        self.jobs[job.job_id] = job
        return job

    def submit_graph(self, tasks: list[Task], *, submit_time: float = 0.0) -> Job:
        """Submit a set of data-dependent tasks (Figure 7 style).

        All tasks are validated before any is accepted, so a job is
        admitted atomically.
        """
        levels = {t.task_id: self._validate(t) for t in tasks}
        graph = TaskGraph(tasks)
        job = Job(
            job_id=next(_job_ids),
            records={
                t.task_id: TaskRecord(task=t, level=levels[t.task_id], submit_time=submit_time)
                for t in tasks
            },
            graph=graph,
        )
        self.jobs[job.job_id] = job
        return job

    def submit_application(
        self, application: Application, tasks: dict[int, Task], *, submit_time: float = 0.0
    ) -> Job:
        """Submit an Eq. 3 application with its task bodies.

        Every task referenced by a clause must be provided, and vice
        versa.
        """
        referenced = set(application.task_ids)
        provided = set(tasks)
        if referenced != provided:
            missing = sorted(referenced - provided)
            extra = sorted(provided - referenced)
            detail = []
            if missing:
                detail.append(f"missing task bodies for {['T%d' % t for t in missing]}")
            if extra:
                detail.append(f"unreferenced tasks {['T%d' % t for t in extra]}")
            raise SubmissionError("; ".join(detail))
        levels = {t.task_id: self._validate(t) for t in tasks.values()}
        job = Job(
            job_id=next(_job_ids),
            records={
                tid: TaskRecord(task=t, level=levels[tid], submit_time=submit_time)
                for tid, t in tasks.items()
            },
            application=application,
        )
        self.jobs[job.job_id] = job
        return job

    # ------------------------------------------------------------------
    # Status plumbing (called by the simulator / RMS)
    # ------------------------------------------------------------------
    def job(self, job_id: int) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id}") from None

    def mark_started(self, job_id: int, task_id: int, *, time: float, node_id: int) -> None:
        record = self.job(job_id).record(task_id)
        record.status = JobStatus.RUNNING
        record.start_time = time
        record.node_id = node_id
        record.attempts += 1

    def mark_completed(self, job_id: int, task_id: int, *, time: float) -> None:
        record = self.job(job_id).record(task_id)
        record.status = JobStatus.COMPLETED
        record.finish_time = time
        self._count("jss_tasks_completed_total", "tasks reaching COMPLETED")

    def mark_failed(
        self,
        job_id: int,
        task_id: int,
        *,
        time: float,
        reason: str | None = None,
        attempts: int | None = None,
    ) -> None:
        """Record a terminal failure, carrying the originating fault or
        :class:`~repro.grid.rms.SchedulingError` message and how many
        placement attempts were consumed before giving up."""
        record = self.job(job_id).record(task_id)
        record.status = JobStatus.FAILED
        record.finish_time = time
        if reason is not None:
            record.failure_reason = reason
        if attempts is not None:
            record.attempts = attempts
        self._count("jss_tasks_failed_total", "tasks reaching FAILED")

    def mark_orphaned(self, job_id: int, task_id: int, *, time: float) -> None:
        """A control-plane failure orphaned this task's placement and
        the recovery path requeued it.  Rewind the record to SUBMITTED
        (it is genuinely back in the queue) but keep the attempts
        already consumed -- an orphan is a detour, not a terminal
        state."""
        record = self.job(job_id).record(task_id)
        record.status = JobStatus.SUBMITTED
        record.start_time = None
        record.node_id = None
        record.orphaned += 1
        self._count(
            "jss_tasks_orphaned_total", "running tasks orphaned and requeued"
        )
