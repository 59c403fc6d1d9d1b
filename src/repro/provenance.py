"""Run provenance: who produced a JSON artifact, from what code.

Every persisted observability artifact (telemetry dumps, report dumps,
``BENCH_*.json`` suites) self-describes the run that produced it: the
git commit and dirty state of the working tree, the repro and Python
versions, the result-cache format, and -- for simulation runs -- the
experiment's seed and spec hash.  ``repro diff`` reads these stamps to
refuse comparisons between incomparable runs (different spec, different
cache format) with a clear message instead of a misleading table.

The stamp is deliberately free of wall-clock timestamps and hostnames:
two runs of the same tree at the same commit produce byte-identical
provenance, so stamping never breaks determinism contracts (golden
traces, cache round-trips).  Timestamps belong to the artifact layer
(e.g. the ``BENCH_<timestamp>.json`` filename), not the stamp.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import repro

#: Keys of :func:`run_provenance` that must match for two simulation
#: artifacts to be comparable metric-for-metric.
COMPARABILITY_KEYS = ("spec_hash", "seed", "cache_format")

#: The result cache's format (:mod:`repro.sim.runner`), here so that a
#: stamp needs no simulator.  Bump when the cached JSON layout changes;
#: stale entries then miss.
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
CACHE_FORMAT = 12


@lru_cache(maxsize=1)
def git_revision() -> tuple[str, bool]:
    """``(sha, dirty)`` of the repository containing this package.

    Outside a git checkout (an installed wheel, a tarball) the SHA is
    ``"unknown"`` and the tree counts as clean; provenance is best
    effort, never a hard dependency on the git binary.
    """
    root = Path(__file__).resolve().parent
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown", False
    return (sha or "unknown"), bool(status.strip())


@lru_cache(maxsize=1)
def _numpy_version() -> str:
    """numpy's version, without importing it: a process that has not
    loaded numpy (an offline fold) reads the installed package's
    metadata instead."""
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        return numpy.__version__
    import importlib.metadata

    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:  # pragma: no cover
        return "unknown"


def environment_fingerprint() -> dict:
    """The machine/toolchain half of the stamp (shared by all runs).
    It imports neither numpy nor the simulator."""
    sha, dirty = git_revision()
    try:
        import os

        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        import os

        cpus = os.cpu_count() or 1
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "repro_version": getattr(repro, "__version__", "unknown"),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": cpus,
        "numpy": _numpy_version(),
        "cache_format": CACHE_FORMAT,
    }


def run_provenance(spec=None) -> dict:
    """The full stamp for one simulation run (or ``spec=None`` for
    artifacts not tied to a single experiment, e.g. bench suites)."""
    stamp = environment_fingerprint()
    if spec is not None:
        from repro.sim.runner import spec_cache_key

        stamp["seed"] = spec.seed
        stamp["spec_hash"] = spec_cache_key(spec)
        # Armed policy layers, so dashboards and diffs reading only the
        # stamp still know which contracts governed the run.  Inert
        # (None) layers stamp nothing: pre-SLO artifacts stay
        # byte-identical.
        for name in ("slo", "admission", "failover"):
            layer = getattr(spec, name, None)
            if layer is not None:
                stamp[name] = layer.describe()
    return stamp


def comparability_error(a: dict | None, b: dict | None, *, what: str) -> str | None:
    """Why two provenance stamps cannot be compared, or ``None``.

    Only the run-identity keys (:data:`COMPARABILITY_KEYS`) gate the
    comparison -- differing git SHAs or Python versions are exactly
    what a cross-run diff exists to measure, so they never refuse.
    Artifacts missing a stamp entirely (pre-provenance dumps) are
    allowed through: refusal needs positive evidence of a mismatch.
    """
    if not a or not b:
        return None
    for key in COMPARABILITY_KEYS:
        if key in a and key in b and a[key] != b[key]:
            return (
                f"{what} are not comparable: {key} differs "
                f"({a[key]!r} vs {b[key]!r}); re-run both sides from the "
                f"same spec/seed or pass --force to compare anyway"
            )
    return None
