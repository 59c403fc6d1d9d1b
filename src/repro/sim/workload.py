"""Synthetic workloads: arrival processes and task generators.

DReAMSim's inputs are "a given number of tasks, grid nodes,
configurations, task arrival distributions, area ranges, and task
required times" (Section V).  This module generates exactly those:

* :class:`PoissonArrivals` / :class:`UniformArrivals` /
  :class:`DeterministicArrivals` -- the task arrival distributions.
* :class:`ConfigurationPool` -- the "configurations": K distinct
  hardware functions with slice footprints drawn from an area range.
  The pool also pre-populates a bitstream repository for every catalog
  device a grid offers, so the virtualization layer can resolve any
  (function, device) pair and configuration *reuse* emerges naturally
  when the pool is small relative to the task count.
* :class:`SyntheticWorkload` -- draws task columns (PE class mix,
  required times, data sizes, functions) with a seeded generator;
  identical seeds give identical workloads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.core.execreq import Artifacts, ExecReq, MinValue
from repro.core.task import DataIn, DataOut, EXTERNAL_SOURCE, Task
from repro.grid.virtualizer import BitstreamRepository
from repro.hardware.bitstream import Bitstream
from repro.hardware.fpga import FPGADevice
from repro.hardware.taxonomy import PEClass

_bitstream_ids = itertools.count(10_000)


def independent_rng(seed: int, *, domain: int) -> np.random.Generator:
    """A generator statistically independent of ``default_rng(seed)``.

    Stream splitting: the workload generator consumes the *root* stream
    (``np.random.default_rng(seed)``); every other stochastic subsystem
    (fault injection, future noise models) must draw from a spawned
    child -- ``SeedSequence(seed, spawn_key=(domain,))`` -- so that
    enabling it never perturbs the arrival/task sequence.  Each distinct
    ``domain`` yields an independent stream; the assignments live in
    :mod:`repro.sim.faults` and are documented in EXPERIMENTS.md.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(domain,)))


def require_int(name: str, value: object) -> None:
    """Reject anything but an integer: a float count or seed would
    otherwise fail inside numpy, mid-run."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_finite(name: str, value: float) -> None:
    """Reject NaN and infinities, which pass every sign check (all
    comparisons with NaN are false)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def check_range(name: str, bounds: tuple[float, float]) -> None:
    """Reject a ``(lo, hi)`` range unless ``0 < lo <= hi``, both finite."""
    lo, hi = bounds
    # isfinite first: NaN bounds pass both order comparisons.
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} must be finite, got [{lo!r}, {hi!r}]")
    if lo <= 0 or hi < lo:
        raise ValueError(f"{name} needs 0 < lo <= hi, got [{lo!r}, {hi!r}]")


class ArrivalProcess(ABC):
    """A stochastic (or deterministic) task inter-arrival process."""

    @abstractmethod
    def interarrival(self, rng: np.random.Generator) -> float:
        """Draw the gap to the next arrival (seconds, >= 0)."""

    def arrival_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Cumulative arrival times of *n* tasks starting at t=0+gap."""
        if n < 0:
            raise ValueError("task count must be non-negative")
        gaps = np.array([self.interarrival(rng) for _ in range(n)])
        return np.cumsum(gaps)


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Poisson process: exponential inter-arrival with given rate."""

    rate_per_s: float

    def __post_init__(self) -> None:
        # isfinite first: NaN slips through every comparison below.
        if not math.isfinite(self.rate_per_s) or self.rate_per_s <= 0:
            raise ValueError(
                f"arrival rate must be finite and positive, got {self.rate_per_s!r}"
            )

    def interarrival(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(1.0 / self.rate_per_s))

    def arrival_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Vectorized: numpy's batched exponential consumes the bit
        # stream element-for-element like n scalar draws, so this is
        # bit-identical to the base-class loop (locked by tests).
        if n < 0:
            raise ValueError("task count must be non-negative")
        return np.cumsum(rng.exponential(1.0 / self.rate_per_s, n))


@dataclass(frozen=True)
class UniformArrivals(ArrivalProcess):
    """Uniform inter-arrival in [low, high]."""

    low_s: float
    high_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low_s) and math.isfinite(self.high_s)):
            raise ValueError(
                f"interarrival bounds must be finite, got [{self.low_s!r}, {self.high_s!r}]"
            )
        if self.low_s < 0 or self.high_s < self.low_s:
            raise ValueError("need 0 <= low <= high")

    def interarrival(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low_s, self.high_s))

    def arrival_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # Vectorized; bit-identical to the scalar loop (see tests).
        if n < 0:
            raise ValueError("task count must be non-negative")
        return np.cumsum(rng.uniform(self.low_s, self.high_s, n))


@dataclass(frozen=True)
class DeterministicArrivals(ArrivalProcess):
    """Fixed inter-arrival gap."""

    interval_s: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.interval_s) or self.interval_s < 0:
            raise ValueError(
                f"interval must be finite and non-negative, got {self.interval_s!r}"
            )

    def interarrival(self, rng: np.random.Generator) -> float:
        return self.interval_s

    def arrival_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # No randomness: the cumulative grid directly.
        if n < 0:
            raise ValueError("task count must be non-negative")
        return np.cumsum(np.full(n, float(self.interval_s)))


class TraceArrivals(ArrivalProcess):
    """Replay explicit arrival times (trace-driven simulation).

    Times must be non-decreasing; generating more tasks than the trace
    holds raises rather than inventing arrivals.
    """

    def __init__(self, times: list[float]):
        if not times:
            raise ValueError("a trace needs at least one arrival")
        # Element-wise finiteness first: a NaN anywhere in the list
        # defeats both order comparisons below (NaN < x is False).
        for i, t in enumerate(times):
            if not math.isfinite(t):
                raise ValueError(f"trace time at index {i} is not finite: {t!r}")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace times must be non-decreasing")
        if times[0] < 0:
            raise ValueError("trace times must be non-negative")
        self.times = list(times)
        self._cursor = 0
        self._last = 0.0

    def interarrival(self, rng: np.random.Generator) -> float:
        if self._cursor >= len(self.times):
            raise ValueError(
                f"trace exhausted after {len(self.times)} arrivals"
            )
        gap = self.times[self._cursor] - self._last
        self._last = self.times[self._cursor]
        self._cursor += 1
        return gap

    def arrival_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("task count must be non-negative")
        if n > len(self.times) - self._cursor:
            raise ValueError(
                f"trace has {len(self.times) - self._cursor} arrivals left; {n} requested"
            )
        # Return the absolute trace times directly (cumulating gaps
        # would lose the offset after partial interarrival consumption).
        out = np.asarray(self.times[self._cursor : self._cursor + n], dtype=float)
        self._cursor += n
        if n:
            self._last = float(out[-1])
        return out


class FlashCrowdArrivals(ArrivalProcess):
    """Poisson arrivals with a rate surge: the flash-crowd shape.

    The instantaneous rate is ``base_rate_per_s`` everywhere except the
    window ``[surge_start_s, surge_start_s + surge_duration_s)``, where
    it is multiplied by ``surge_multiplier`` -- a piecewise-constant
    non-homogeneous Poisson process.  Each arrival inverts one
    unit-rate exponential "mass" draw across the rate segments, so the
    process is exact (not thinned) and consumes exactly one RNG draw
    per arrival; the vectorized path batches those draws and is
    element-identical to the scalar one (same contract as
    :class:`PoissonArrivals`, locked by stream-identity tests).

    Stateful like :class:`TraceArrivals`: the process tracks absolute
    time internally because the rate depends on it.
    """

    def __init__(
        self,
        base_rate_per_s: float,
        *,
        surge_start_s: float,
        surge_duration_s: float,
        surge_multiplier: float,
    ):
        for name, value in (
            ("base_rate_per_s", base_rate_per_s),
            ("surge_start_s", surge_start_s),
            ("surge_duration_s", surge_duration_s),
            ("surge_multiplier", surge_multiplier),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if base_rate_per_s <= 0:
            raise ValueError("base rate must be positive")
        if surge_start_s < 0:
            raise ValueError("surge start must be non-negative")
        if surge_duration_s <= 0:
            raise ValueError("surge duration must be positive")
        if surge_multiplier <= 0:
            raise ValueError("surge multiplier must be positive")
        self.base_rate_per_s = base_rate_per_s
        self.surge_start_s = surge_start_s
        self.surge_duration_s = surge_duration_s
        self.surge_multiplier = surge_multiplier
        self._t = 0.0

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at absolute time *t*."""
        if self.surge_start_s <= t < self.surge_start_s + self.surge_duration_s:
            return self.base_rate_per_s * self.surge_multiplier
        return self.base_rate_per_s

    def _next_boundary(self, t: float) -> float:
        if t < self.surge_start_s:
            return self.surge_start_s
        end = self.surge_start_s + self.surge_duration_s
        if t < end:
            return end
        return math.inf

    def _advance(self, mass: float) -> float:
        """Consume one unit-rate exponential *mass* from the internal
        cursor; returns the gap to the resulting arrival."""
        t = self._t
        while True:
            rate = self.rate_at(t)
            boundary = self._next_boundary(t)
            segment_mass = (boundary - t) * rate
            if mass < segment_mass:
                t += mass / rate
                break
            mass -= segment_mass
            t = boundary
        gap = t - self._t
        self._t = t
        return gap

    def interarrival(self, rng: np.random.Generator) -> float:
        return self._advance(float(rng.exponential(1.0)))

    def arrival_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # One batched unit-exponential draw (element-identical to n
        # scalar draws), then the same deterministic inversion.
        if n < 0:
            raise ValueError("task count must be non-negative")
        masses = rng.exponential(1.0, n)
        start = self._t
        out = np.empty(n)
        for i in range(n):
            self._advance(float(masses[i]))
            out[i] = self._t - start
        return out


@dataclass(frozen=True)
class PoolEntry:
    """One hardware function in the configuration pool."""

    function: str
    required_slices: int
    speedup_vs_gpp: float


class ConfigurationPool:
    """K distinct hardware functions with slice footprints in a range.

    ``populate_repository`` synthesizes a bitstream of every function
    for every given device (provider-side, as in Section III-B2), so
    tasks can reference functions by name only.
    """

    def __init__(
        self,
        size: int,
        *,
        area_range: tuple[int, int] = (2_000, 20_000),
        speedup_range: tuple[float, float] = (5.0, 40.0),
        seed: int = 0,
    ):
        require_int("pool size", size)
        if size <= 0:
            raise ValueError("pool size must be positive")
        check_range("area_range", area_range)
        check_range("speedup_range", speedup_range)
        lo, hi = area_range
        slo, shi = speedup_range
        rng = np.random.default_rng(seed)
        self.entries: list[PoolEntry] = [
            PoolEntry(
                function=f"hwfunc_{i:03d}",
                required_slices=int(rng.integers(lo, hi + 1)),
                speedup_vs_gpp=float(rng.uniform(slo, shi)),
            )
            for i in range(size)
        ]

    def entry(self, function: str) -> PoolEntry:
        for e in self.entries:
            if e.function == function:
                return e
        raise KeyError(f"pool has no function {function!r}")

    def populate_repository(
        self, repository: BitstreamRepository, devices: list[FPGADevice]
    ) -> int:
        """Store a bitstream for every (function, device) pair that
        fits; returns the number stored.

        *devices* may repeat a device (a grid lists one per RPE): each
        distinct device is built once, at its last position, so every
        (function, model) key keeps the writer a pass over the whole
        list would leave."""
        stored = 0
        for device in list(dict.fromkeys(reversed(devices)))[::-1]:
            for entry in self.entries:
                if entry.required_slices > device.slices:
                    continue
                repository.put(
                    Bitstream(
                        bitstream_id=next(_bitstream_ids),
                        target_model=device.model,
                        size_bytes=device.bitstream_size_bytes(entry.required_slices),
                        required_slices=entry.required_slices,
                        implements=entry.function,
                        speedup_vs_gpp=entry.speedup_vs_gpp,
                    )
                )
                stored += 1
        return stored


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameter set for synthetic task generation (the DReAMSim knobs).

    ``gpp_fraction`` of tasks are software-only (GPP class); the rest
    are hardware tasks drawn from the configuration pool.  Required
    times are the *reference-GPP* times; hardware tasks run
    ``speedup_vs_gpp`` faster on fabric.

    ``low_priority_fraction`` tags that share of tasks with
    ``priority=-1`` (brownout degradation / shedding candidates); at
    the default 0.0 no priority draw is made, so pre-admission seed
    streams are untouched.  ``tenants`` > 1 round-robins tasks across
    that many tenant tags (no randomness consumed).
    """

    task_count: int = 100
    gpp_fraction: float = 0.5
    required_time_range_s: tuple[float, float] = (0.5, 5.0)
    data_size_range_bytes: tuple[int, int] = (1 << 16, 1 << 22)
    reference_mips: float = 1000.0
    low_priority_fraction: float = 0.0
    tenants: int = 1

    def __post_init__(self) -> None:
        require_int("task_count", self.task_count)
        require_int("tenants", self.tenants)
        if self.task_count < 0:
            raise ValueError("task count must be non-negative")
        if not 0.0 <= self.gpp_fraction <= 1.0:
            raise ValueError("gpp_fraction must be in [0, 1]")
        check_range("required_time_range_s", self.required_time_range_s)
        dlo, dhi = self.data_size_range_bytes
        if dlo < 0 or dhi < dlo:
            raise ValueError("need 0 <= data_lo <= data_hi")
        if not math.isfinite(self.reference_mips) or self.reference_mips <= 0:
            raise ValueError(
                f"reference_mips must be finite and positive, got {self.reference_mips!r}"
            )
        if not 0.0 <= self.low_priority_fraction <= 1.0:
            raise ValueError("low_priority_fraction must be in [0, 1]")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")


@dataclass
class WorkloadColumns:
    """A columnar workload: parallel arrays plus a lazy materializer.

    Produced by :meth:`SyntheticWorkload.generate_columns`.
    ``DReAMSim.submit_workload_columns`` bulk-schedules ``times`` and
    calls :meth:`task` once per arrival instant, so at no point do a
    million :class:`Task` trees exist simultaneously.
    """

    spec: WorkloadSpec
    pool: ConfigurationPool
    first_task_id: int
    times: np.ndarray       #: arrival times, non-decreasing (float64)
    ref_times: np.ndarray   #: reference-GPP required times (float64)
    data_bytes: np.ndarray  #: input sizes (int64)
    is_gpp: np.ndarray      #: software-only mask (bool)
    pool_idx: np.ndarray    #: pool entry per hardware task, -1 for GPP
    priority: np.ndarray    #: scheduling class per task (int64, 0 = normal)

    def __len__(self) -> int:
        return len(self.times)

    def _tenant(self, task_id: int) -> str:
        return f"tenant{task_id % self.spec.tenants}" if self.spec.tenants > 1 else ""

    def task(self, i: int) -> Task:
        """Materialize task *i*."""
        task_id = self.first_task_id + i
        ref_time = float(self.ref_times[i])
        data_bytes = int(self.data_bytes[i])
        workload_mi = ref_time * self.spec.reference_mips
        if self.is_gpp[i]:
            return Task(
                task_id=task_id,
                data_in=(DataIn(EXTERNAL_SOURCE, 0, data_bytes),),
                data_out=(DataOut(0, data_bytes // 2),),
                exec_req=ExecReq(
                    node_type=PEClass.GPP,
                    artifacts=Artifacts(application_code="synthetic", input_data_bytes=data_bytes),
                ),
                t_estimated=ref_time,
                workload_mi=workload_mi,
                function="",
                priority=int(self.priority[i]),
                tenant=self._tenant(task_id),
            )
        entry = self.pool.entries[int(self.pool_idx[i])]
        return Task(
            task_id=task_id,
            data_in=(DataIn(EXTERNAL_SOURCE, 0, data_bytes),),
            data_out=(DataOut(0, data_bytes // 2),),
            exec_req=ExecReq(
                node_type=PEClass.RPE,
                constraints=(MinValue("slices", entry.required_slices),),
                artifacts=Artifacts(application_code="synthetic", input_data_bytes=data_bytes),
            ),
            t_estimated=ref_time / entry.speedup_vs_gpp,
            workload_mi=workload_mi,
            function=entry.function,
            priority=int(self.priority[i]),
            tenant=self._tenant(task_id),
        )

    def materialize(self) -> list[tuple[float, Task]]:
        """Expand to the eager (time, Task) stream (tests, small runs)."""
        return [(float(self.times[i]), self.task(i)) for i in range(len(self))]


class SyntheticWorkload:
    """Seeded generator of (arrival_time, Task) streams."""

    def __init__(
        self,
        spec: WorkloadSpec,
        pool: ConfigurationPool,
        arrivals: ArrivalProcess,
        *,
        seed: int = 0,
        first_task_id: int = 0,
    ):
        self.spec = spec
        self.pool = pool
        self.arrivals = arrivals
        self.seed = seed
        self.first_task_id = first_task_id

    def generate(self) -> list[tuple[float, Task]]:
        """Produce the full arrival stream, deterministically: the
        columns of :meth:`generate_columns`, materialized eagerly."""
        return self.generate_columns().materialize()

    def generate_columns(self) -> WorkloadColumns:
        """The seeded workload, drawn as columns.

        Draws whole columns (arrivals, required times, data sizes,
        class mix, pool picks) in one numpy call each, in that order.
        This is the only draw order: ``generate()`` materializes these
        columns, and ``generate_columns_scalar()`` is its scalar
        reference, locked element-for-element by the stream-identity
        tests.
        """
        rng = np.random.default_rng(self.seed)
        n = self.spec.task_count
        times = self.arrivals.arrival_times(n, rng)
        lo, hi = self.spec.required_time_range_s
        dlo, dhi = self.spec.data_size_range_bytes
        ref_times = rng.uniform(lo, hi, n)
        data_bytes = rng.integers(dlo, dhi, n)
        is_gpp = rng.random(n) < self.spec.gpp_fraction
        pool_idx = np.full(n, -1, dtype=np.int64)
        hw = ~is_gpp
        hw_count = int(hw.sum())
        if hw_count:
            pool_idx[hw] = rng.integers(len(self.pool.entries), size=hw_count)
        # Gated: the default fraction of 0.0 draws nothing, keeping
        # pre-admission column streams byte-identical.
        priority = np.zeros(n, dtype=np.int64)
        if self.spec.low_priority_fraction > 0.0:
            priority = np.where(
                rng.random(n) < self.spec.low_priority_fraction, -1, 0
            ).astype(np.int64)
        return WorkloadColumns(
            spec=self.spec,
            pool=self.pool,
            first_task_id=self.first_task_id,
            times=times,
            ref_times=ref_times,
            data_bytes=np.asarray(data_bytes, dtype=np.int64),
            is_gpp=is_gpp,
            pool_idx=pool_idx,
            priority=priority,
        )

    def generate_columns_scalar(self) -> WorkloadColumns:
        """Scalar reference for ``generate_columns``: identical draw
        order, one value at a time.  Exists so tests can assert the
        vectorized path is stream-identical; never use it at scale."""
        rng = np.random.default_rng(self.seed)
        n = self.spec.task_count
        times = ArrivalProcess.arrival_times(self.arrivals, n, rng)
        lo, hi = self.spec.required_time_range_s
        dlo, dhi = self.spec.data_size_range_bytes
        ref_times = np.array([float(rng.uniform(lo, hi)) for _ in range(n)])
        data_bytes = np.array(
            [int(rng.integers(dlo, dhi)) for _ in range(n)], dtype=np.int64
        )
        is_gpp = np.array(
            [float(rng.random()) < self.spec.gpp_fraction for _ in range(n)],
            dtype=bool,
        )
        pool_idx = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            if not is_gpp[i]:
                pool_idx[i] = int(rng.integers(len(self.pool.entries)))
        priority = np.zeros(n, dtype=np.int64)
        if self.spec.low_priority_fraction > 0.0:
            priority = np.array(
                [
                    -1 if float(rng.random()) < self.spec.low_priority_fraction else 0
                    for _ in range(n)
                ],
                dtype=np.int64,
            )
        return WorkloadColumns(
            spec=self.spec,
            pool=self.pool,
            first_task_id=self.first_task_id,
            times=times,
            ref_times=ref_times,
            data_bytes=data_bytes,
            is_gpp=is_gpp,
            pool_idx=pool_idx,
            priority=priority,
        )
