"""BenchCase protocol, registry, runner, and the BENCH JSON schema.

One :class:`BenchCase` is a named, grouped benchmark kernel: a callable
that does a fixed amount of representative work and returns its
headline metrics as a flat ``{name: number}`` dict.  The harness owns
everything the old scripts copy-pasted -- warmup, repetitions,
percentile wall-time statistics, metric capture, environment
fingerprinting, and JSON serialization -- so a kernel is just the work.

Determinism contract: kernels are seeded, so their *metrics* are
identical across repetitions and across machines; the harness asserts
this (a kernel whose metrics drift between repetitions is a bug, not
noise).  Only wall-clock varies, which is exactly what the percentile
stats summarize.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

#: Layout version of the ``BENCH_*.json`` suite files; ``repro diff``
#: refuses files whose version it does not understand.
BENCH_FORMAT = 1

#: Kind tag distinguishing bench suites from report/telemetry dumps.
BENCH_KIND = "bench-suite"


@dataclass(frozen=True)
class BenchCase:
    """One registered benchmark kernel.

    ``fn(quick)`` performs the work and returns the metrics dict; the
    ``quick`` flag selects a smaller (but still representative)
    workload for the CI regression gate.  ``quick_eligible`` excludes
    kernels too heavy or too machine-dependent for the quick suite.
    """

    name: str
    group: str
    fn: Callable[[bool], dict[str, float]]
    description: str = ""
    quick_eligible: bool = True

    def run_once(self, *, quick: bool = False) -> tuple[float, dict[str, float]]:
        """(wall seconds, metrics) for one invocation."""
        start = time.perf_counter()
        metrics = self.fn(quick)
        elapsed = time.perf_counter() - start
        if not isinstance(metrics, dict):
            raise TypeError(
                f"bench case {self.name!r} must return a metrics dict, "
                f"got {type(metrics).__name__}"
            )
        return elapsed, {k: float(v) for k, v in metrics.items()}


#: The global case registry (name -> case), populated by
#: :mod:`repro.bench.cases` at import time.
_REGISTRY: dict[str, BenchCase] = {}


def register(
    name: str,
    group: str,
    *,
    description: str = "",
    quick_eligible: bool = True,
) -> Callable[[Callable], Callable]:
    """Decorator registering ``fn(quick) -> metrics`` as a bench case."""

    def wrap(fn: Callable[[bool], dict[str, float]]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"bench case {name!r} registered twice")
        _REGISTRY[name] = BenchCase(
            name=name, group=group, fn=fn,
            description=description or (fn.__doc__ or "").strip().split("\n")[0],
            quick_eligible=quick_eligible,
        )
        return fn

    return wrap


def all_cases() -> list[BenchCase]:
    """Every registered case, in sorted name order."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_case(name: str) -> BenchCase:
    """The registered case named *name*; ``KeyError`` with the full
    catalog otherwise."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown bench case {name!r}; choose from "
            + ", ".join(sorted(_REGISTRY))
        ) from None


def match_cases(pattern: str | None, *, quick: bool = False) -> list[BenchCase]:
    """Cases whose name or group matches *pattern* (regex, unanchored).

    ``quick=True`` additionally restricts to quick-eligible cases.
    """
    cases = all_cases()
    if quick:
        cases = [c for c in cases if c.quick_eligible]
    if pattern:
        rx = re.compile(pattern)
        cases = [c for c in cases if rx.search(c.name) or rx.search(c.group)]
    return cases


@dataclass
class BenchResult:
    """Wall-time statistics and metrics of one case under the harness."""

    name: str
    group: str
    repeat: int
    warmup: int
    quick: bool
    wall_times_s: list[float]
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def median_s(self) -> float:
        return statistics.median(self.wall_times_s)

    @property
    def p10_s(self) -> float:
        return _percentile(self.wall_times_s, 10.0)

    @property
    def p90_s(self) -> float:
        return _percentile(self.wall_times_s, 90.0)

    @property
    def best_s(self) -> float:
        return min(self.wall_times_s)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "group": self.group,
            "repeat": self.repeat,
            "warmup": self.warmup,
            "quick": self.quick,
            "wall_s": {
                "median": self.median_s,
                "p10": self.p10_s,
                "p90": self.p90_s,
                "best": self.best_s,
                "all": list(self.wall_times_s),
            },
            "metrics": dict(sorted(self.metrics.items())),
        }


def _percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile without a numpy dependency here."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def run_case(
    case: BenchCase,
    *,
    repeat: int = 5,
    warmup: int = 1,
    quick: bool = False,
) -> BenchResult:
    """Warm up, repeat, and collect one case's stats.

    The metrics of every repetition must agree (kernels are seeded);
    a mismatch raises, surfacing nondeterminism instead of averaging
    it away.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    for _ in range(warmup):
        case.run_once(quick=quick)
    walls: list[float] = []
    metrics: dict[str, float] | None = None
    for _ in range(repeat):
        elapsed, observed = case.run_once(quick=quick)
        walls.append(elapsed)
        if metrics is None:
            metrics = observed
        elif observed != metrics:
            raise AssertionError(
                f"bench case {case.name!r} is nondeterministic: metrics "
                f"changed between repetitions ({metrics} vs {observed})"
            )
    return BenchResult(
        name=case.name, group=case.group, repeat=repeat, warmup=warmup,
        quick=quick, wall_times_s=walls, metrics=metrics or {},
    )


def run_suite(
    cases: Iterable[BenchCase],
    *,
    repeat: int = 5,
    warmup: int = 1,
    quick: bool = False,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Run *cases* in order; ``progress`` receives one line per case."""
    results = []
    cases = list(cases)
    for index, case in enumerate(cases, 1):
        result = run_case(case, repeat=repeat, warmup=warmup, quick=quick)
        if progress is not None:
            progress(
                f"[{index}/{len(cases)}] {case.name}: "
                f"median {result.median_s * 1e3:.2f} ms "
                f"(p10 {result.p10_s * 1e3:.2f} / p90 {result.p90_s * 1e3:.2f}), "
                f"{len(result.metrics)} metrics"
            )
        results.append(result)
    return results


def suite_to_json(
    results: Sequence[BenchResult],
    *,
    quick: bool = False,
    created_utc: str | None = None,
) -> dict:
    """The schema-versioned ``BENCH_*.json`` document."""
    from repro.provenance import run_provenance

    return {
        "format": BENCH_FORMAT,
        "kind": BENCH_KIND,
        "mode": "quick" if quick else "full",
        "created_utc": created_utc,
        "env": run_provenance(),
        "cases": [r.to_json() for r in results],
    }


def write_bench_json(path: str | Path, document: dict) -> None:
    """Persist a :func:`suite_to_json` document (sorted, ascii)."""
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="ascii"
    )


def load_bench_json(path: str | Path) -> dict:
    """Read and validate a ``BENCH_*.json`` suite file."""
    data = json.loads(Path(path).read_text(encoding="ascii"))
    if not isinstance(data, dict) or data.get("kind") != BENCH_KIND:
        raise ValueError(f"{path}: not a bench suite file")
    if data.get("format") != BENCH_FORMAT:
        raise ValueError(
            f"{path}: unsupported bench format {data.get('format')!r} "
            f"(expected {BENCH_FORMAT})"
        )
    return data


def default_bench_filename(now: time.struct_time | None = None) -> str:
    """``BENCH_<UTC timestamp>.json`` -- the trajectory naming scheme."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", now or time.gmtime())
    return f"BENCH_{stamp}.json"


def summary_table(results: Sequence[BenchResult]) -> str:
    """The human table ``repro bench`` prints."""
    from repro.report import ascii_table

    rows = []
    for r in results:
        headline = ", ".join(
            f"{k}={v:g}" for k, v in sorted(r.metrics.items())[:3]
        )
        if len(r.metrics) > 3:
            headline += f" (+{len(r.metrics) - 3} more)"
        rows.append(
            (
                r.name,
                r.group,
                f"{r.median_s * 1e3:.2f}",
                f"{r.p10_s * 1e3:.2f}",
                f"{r.p90_s * 1e3:.2f}",
                headline,
            )
        )
    return ascii_table(
        ["case", "group", "median ms", "p10 ms", "p90 ms", "metrics"],
        rows,
        title=f"bench suite ({len(results)} case(s))",
    )


def standalone_main(case_name: str, argv: list[str] | None = None) -> int:
    """Shared ``__main__`` for the ``benchmarks/bench_*.py`` scripts.

    Replaces the per-script ad-hoc timing/printing blocks: every ported
    script runs its registered case through the harness with the same
    flags the ``repro bench`` subcommand takes (``--repeat``,
    ``--warmup``, ``--quick``, ``--json``).
    """
    import argparse

    import repro.bench.cases  # noqa: F401  (ensure registration)

    parser = argparse.ArgumentParser(
        description=f"run the {case_name!r} bench case through the harness"
    )
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="use the reduced CI workload")
    parser.add_argument("--json", metavar="PATH",
                        help="also write a single-case BENCH json")
    args = parser.parse_args(argv)
    case = get_case(case_name)
    result = run_case(
        case, repeat=args.repeat, warmup=args.warmup, quick=args.quick
    )
    print(summary_table([result]))
    for key, value in sorted(result.metrics.items()):
        print(f"  {key:32s} {value:g}")
    if args.json:
        write_bench_json(
            args.json, suite_to_json([result], quick=args.quick)
        )
        print(f"wrote {args.json}", file=sys.stderr)
    return 0
