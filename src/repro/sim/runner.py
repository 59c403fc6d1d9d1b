"""Parallel, cached, deterministic execution of experiment grids.
Exposed on the CLI as ``--jobs N`` (worker processes; 1 = serial,
default = usable CPU count) and ``--cache-dir PATH`` (on-disk result
cache keyed by spec hash) on ``python -m repro simulate`` / ``sweep``.

DReAMSim sweeps (arrival-rate curves, strategy ablations, seed
replications) are embarrassingly parallel: every
:class:`~repro.sim.experiment.ExperimentSpec` is a complete, seeded
description of one run, so runs share no state and their reports are
identical whether executed serially or across worker processes.  This
module exploits that:

* :class:`ExperimentRunner` -- execute a list of
  specs across a ``ProcessPoolExecutor``, falling back to in-process
  serial execution when worker processes are unavailable (restricted
  sandboxes, ``jobs=1``, single-spec batches).  Results always come
  back in submission order, and a failing worker re-raises its
  exception in the caller instead of hanging the batch.
* **Spec-hash result caching** -- with a ``cache_dir``, each finished
  run is stored as JSON keyed by a SHA-256 of the spec's canonical
  form; re-running the same spec is a file read, which makes iterating
  on wide sweeps cheap.
  Its ``sweep`` and ``replicate`` are wide versions of
  :func:`~repro.sim.experiment.sweep` and
  :func:`~repro.sim.experiment.replicate`.
* :func:`parallel_map` -- the bare order-preserving process map, for
  benchmarks and examples whose scenarios are built in code rather
  than as specs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.sim.energy import EnergyReport
from repro.sim.experiment import (
    ExperimentResult,
    ExperimentSpec,
    ReplicationSummary,
    run_experiment,
    summarize_replications,
)
from repro.sim.metrics import SimulationReport

#: Bump when the cached JSON layout changes; stale entries then miss.
#: 2: fault-injection fields on ExperimentSpec and SimulationReport.
#: 3: resilience fields (breakers/deadlines/checkpoints/replicas).
#: 4: wait/turnaround percentile fields (p50/p99 wait, p50/p95/p99 turnaround).
#: 5: ``engine`` field on ExperimentSpec (heap vs calendar queue).
#: 6: overload protection (admission/brownout spec + flash-crowd knobs
#:    on ExperimentSpec; shed/brownout fields on SimulationReport).
#: 7: control-plane fault tolerance (failover spec on ExperimentSpec;
#:    detection/failover/orphan fields on SimulationReport).
#: 8: causal run analysis / host-phase profiler (per-phase host
#:    seconds and call counts on SimulationReport).
#: 9: online SLO monitoring (slo spec on ExperimentSpec; per-tenant
#:    and SLO attainment fields on SimulationReport).
#: 10: the host-phase profiler's two report fields removed from
#:     SimulationReport.
#: 11: run_experiment draws the columnar workload, so a spec and seed
#:     describe a different run than before.
#: 12: SimulationReport and ResilienceSpec lost the straggler-replica fields.
_CACHE_FORMAT = 12


def default_jobs() -> int:
    """Worker count when none is requested: the usable CPU count."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def spec_cache_key(spec: ExperimentSpec, *, audit_energy: bool = False) -> str:
    """SHA-256 over the spec's canonical JSON form (plus run options).

    Two specs hash equal iff every knob matches, so the cache can never
    serve a result produced under different parameters.
    """
    canonical = json.dumps(
        {"format": _CACHE_FORMAT, "audit_energy": audit_energy, "spec": asdict(spec)},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def _cache_load(cache_dir: Path, spec: ExperimentSpec, key: str) -> ExperimentResult | None:
    path = _cache_path(cache_dir, key)
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="ascii"))
        if data.get("format") != _CACHE_FORMAT:
            return None
        report = SimulationReport(**data["report"])
        energy = EnergyReport(**data["energy"]) if data.get("energy") else None
    except (ValueError, TypeError, KeyError, OSError):
        return None  # corrupt or stale entry: treat as a miss
    return ExperimentResult(spec=spec, report=report, energy=energy)


def _cache_store(cache_dir: Path, key: str, result: ExperimentResult) -> None:
    from repro.provenance import run_provenance

    payload = {
        "format": _CACHE_FORMAT,
        "spec": asdict(result.spec),
        "report": asdict(result.report),
        "energy": asdict(result.energy) if result.energy is not None else None,
        # Additive: _cache_load ignores it, so no _CACHE_FORMAT bump.
        "provenance": run_provenance(result.spec),
    }
    tmp = _cache_path(cache_dir, key).with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="ascii")
    tmp.replace(_cache_path(cache_dir, key))


def _execute_spec(payload: tuple[ExperimentSpec, bool]) -> ExperimentResult:
    """Worker entry point; must stay module-level (picklable)."""
    spec, audit_energy = payload
    return run_experiment(spec, audit_energy=audit_energy)


def parallel_map(fn: Callable, items: Sequence, *, jobs: int | None = None) -> list:
    """Order-preserving map of *fn* over *items* across processes.

    ``fn`` and every item must be picklable.  Falls back to a plain
    serial map when ``jobs`` resolves to one, the batch is trivially
    small, or worker processes cannot be created.  A worker exception
    propagates to the caller (the batch never hangs on a failure).
    """
    items = list(items)
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    jobs = min(jobs, len(items)) if items else 1
    if jobs <= 1:
        return [fn(item) for item in items]
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except (ImportError, NotImplementedError, OSError, PermissionError, ValueError):
        return [fn(item) for item in items]
    with pool:
        return list(pool.map(fn, items, chunksize=1))


@dataclass
class RunnerStats:
    """What the last :meth:`ExperimentRunner.run` actually did."""

    requested: int = 0
    executed: int = 0
    cache_hits: int = 0
    jobs: int = 1
    mode: str = "serial"
    wall_time_s: float = 0.0

    def summary_line(self) -> str:
        return (
            f"{self.requested} run(s): {self.executed} executed "
            f"({self.mode}, jobs={self.jobs}), {self.cache_hits} from cache, "
            f"{self.wall_time_s:.2f} s wall"
        )


class ExperimentRunner:
    """Executes spec batches wide, with optional on-disk result caching.

    One runner holds the execution policy (worker count, cache
    location, energy auditing); :meth:`run` applies it to any batch.
    ``last_stats`` describes the most recent batch -- how many runs
    executed, how many were cache hits, and the wall-clock spent.
    """

    def __init__(
        self,
        *,
        jobs: int | None = None,
        cache_dir: str | Path | None = None,
        audit_energy: bool = False,
        progress: bool | None = None,
    ):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = default_jobs() if jobs is None else jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.audit_energy = audit_energy
        #: Live per-spec progress lines on stderr.  ``None`` = auto:
        #: on only when stderr is a TTY, so pipelines, tests and CI logs
        #: stay byte-identical unless explicitly asked (``--progress``).
        self.progress = sys.stderr.isatty() if progress is None else progress
        self.last_stats = RunnerStats()

    @staticmethod
    def _spec_label(spec: ExperimentSpec) -> str:
        return (
            f"strategy={spec.strategy} tasks={spec.tasks} seed={spec.seed}"
        )

    def _progress_line(
        self, done: int, total: int, spec: ExperimentSpec,
        result: ExperimentResult, source: str,
    ) -> None:
        if not self.progress:
            return
        report = result.report
        print(
            f"[{done}/{total}] {self._spec_label(spec)}: "
            f"wait={report.mean_wait_s:.4f}s makespan={report.makespan_s:.2f}s "
            f"done={report.completed} ({source})",
            file=sys.stderr,
            flush=True,
        )

    def run(self, specs: Sequence[ExperimentSpec]) -> list[ExperimentResult]:
        """Run every spec; results are returned in input order."""
        specs = list(specs)
        started = time.perf_counter()
        results: list[ExperimentResult | None] = [None] * len(specs)
        keys: list[str | None] = [None] * len(specs)
        misses: list[int] = []

        done = 0
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            for i, spec in enumerate(specs):
                keys[i] = spec_cache_key(spec, audit_energy=self.audit_energy)
                results[i] = _cache_load(self.cache_dir, spec, keys[i])
                if results[i] is None:
                    misses.append(i)
                else:
                    done += 1
                    self._progress_line(done, len(specs), spec, results[i], "cached")
        else:
            misses = list(range(len(specs)))

        jobs = min(self.jobs, len(misses)) if misses else 1
        mode = "parallel" if jobs > 1 else "serial"
        for i, result in self._execute_misses(specs, misses, jobs):
            results[i] = result
            if self.cache_dir is not None:
                _cache_store(self.cache_dir, keys[i], result)
            done += 1
            self._progress_line(done, len(specs), specs[i], result, "run")

        self.last_stats = RunnerStats(
            requested=len(specs),
            executed=len(misses),
            cache_hits=len(specs) - len(misses),
            jobs=jobs,
            mode=mode,
            wall_time_s=time.perf_counter() - started,
        )
        return results  # type: ignore[return-value]

    def _execute_misses(self, specs, misses, jobs):
        """Yield ``(index, result)`` for every cache miss.

        Without progress, the batch goes through :func:`parallel_map`
        (completion order = submission order, the historical behavior).
        With progress and multiple workers, futures are drained
        as-completed so the live lines reflect real completion -- the
        caller indexes results by position, so order stays immaterial.
        """
        payloads = [(specs[i], self.audit_energy) for i in misses]
        if jobs <= 1 or not self.progress:
            yield from zip(misses, parallel_map(_execute_spec, payloads, jobs=jobs))
            return
        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
        except (ImportError, NotImplementedError, OSError, PermissionError,
                ValueError):
            for i, payload in zip(misses, payloads):
                yield i, _execute_spec(payload)
            return
        with pool:
            futures = {
                pool.submit(_execute_spec, payload): i
                for i, payload in zip(misses, payloads)
            }
            for future in as_completed(futures):
                yield futures[future], future.result()

    def sweep(
        self, base: ExperimentSpec, field_name: str, values: Sequence
    ) -> list[ExperimentResult]:
        """Wide version of :func:`repro.sim.experiment.sweep`."""
        return self.run([base.with_(**{field_name: value}) for value in values])

    def replicate(
        self, base: ExperimentSpec, seeds: Sequence[int]
    ) -> ReplicationSummary:
        """Wide version of :func:`repro.sim.experiment.replicate`."""
        seeds = list(seeds)
        results = self.run([base.with_(seed=s) for s in seeds])
        return summarize_replications(seeds, [r.report for r in results])
