"""Scale smoke: 1e5-task end-to-end runs through the one driver.

Marked ``slow`` and deselected by default (``addopts = -m 'not slow'``);
run with ``pytest -m slow`` locally or via the scheduled CI job.  The
quick suite locks *correctness* of the scale machinery (differential
battery, golden byte-identity, stream-identity, bulk-metrics
equivalence); this file locks that the machinery actually *survives*
scale -- every task accounted for, monotone clock, memory bounded well
below what 1e5 eager Task objects would cost, a traced run whose
phase ledger conserves every task, and offline folds that stream a
trace instead of holding it.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.sim.analysis import analyze_trace
from repro.sim.experiment import ExperimentSpec, run_experiment
from repro.sim.tracing import JsonlSink, Tracer

pytestmark = pytest.mark.slow

TASKS = 100_000
SPEC = ExperimentSpec(tasks=TASKS, seed=5, engine="calendar")

#: Peak *python-allocated* memory budget for the run.  Eagerly
#: materializing 1e5 Task trees costs ~0.5 KB each (>= 50 MB); the
#: columnar path keeps a few numpy arrays plus transient per-arrival
#: objects, so 64 MB is generous headroom while still catching any
#: regression back to per-task storage.
MEM_BUDGET_BYTES = 64 * 1024 * 1024


@pytest.fixture(scope="module")
def scale_result():
    tracemalloc.start()
    try:
        result = run_experiment(SPEC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_no_task_is_lost(scale_result):
    report = scale_result[0].report
    assert report.completed + report.discarded + report.pending == TASKS
    assert report.completed > 0


def test_clock_is_monotone_and_covers_the_run(scale_result):
    report = scale_result[0].report
    assert report.horizon_s > 0.0
    # The makespan is the final engine clock; arrivals at ~2/s for 1e5
    # tasks put it around 5e4 simulated seconds.
    assert report.horizon_s >= TASKS / 4.0
    # Waits are derived from (dispatch - arrival) pairs; a non-monotone
    # clock would surface as a negative wait.
    assert report.mean_wait_s >= 0.0
    assert report.p95_wait_s >= 0.0


def test_memory_stays_bounded(scale_result):
    peak = scale_result[1]
    assert peak < MEM_BUDGET_BYTES, (
        f"peak traced memory {peak / 1e6:.1f} MB exceeds the "
        f"{MEM_BUDGET_BYTES / 1e6:.0f} MB scale budget -- did per-task "
        "allocation creep back into the hot path?"
    )


def test_traced_run_conserves_the_phase_ledger(tmp_path):
    """The one driver traces at scale: a 1e5-task calendar run streams
    through a JSONL sink under the online invariant checker, and the
    phase ledger folded back from the file conserves every task."""
    path = tmp_path / "scale.trace.jsonl"
    tracer = Tracer.with_invariants(JsonlSink(path, flush_every=None))
    report = run_experiment(SPEC, tracer=tracer).report
    tracer.close()
    tracer.checker.assert_conservation()
    tracer.checker.assert_no_lost_tasks()
    run = analyze_trace(path)
    assert len(run.ledgers) == TASKS
    assert sum(1 for ledger in run.ledgers.values()
               if ledger.outcome == "complete") == report.completed
    assert run.conservation_violations() == []


#: Runs ``argv[1:]`` as its one child and prints that child's peak RSS.
_CHILD_PEAK_RSS = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)


def _peak_rss_kb(*args: str) -> int:
    """Peak resident set of ``python *args``, in KB (Linux units)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _CHILD_PEAK_RSS, sys.executable, *args],
        check=True, capture_output=True, text=True, env=env,
    )
    return int(done.stdout)


def test_offline_folds_stream_the_trace(tmp_path, capsys):
    """``repro slo`` and ``repro analyze`` on a 20k-task trace (109k
    events, 13 MB) peak near a child that only loads the CLI (``repro
    --help`` builds the parser every command builds): neither fold
    holds the event list, about 84 MB at this size."""
    path = tmp_path / "big.trace.jsonl"
    assert main(["simulate", "--tasks", "20000", "--trace", str(path)]) == 0
    capsys.readouterr()
    baseline = _peak_rss_kb("-m", "repro", "--help")
    slo = _peak_rss_kb("-m", "repro", "slo", str(path), "-o", "latency-p95:1000")
    analyze = _peak_rss_kb("-m", "repro", "analyze", str(path))
    assert slo <= 1.5 * baseline, f"repro slo {slo} KB vs CLI {baseline} KB"
    assert analyze <= 2.0 * baseline, (
        f"repro analyze {analyze} KB vs CLI {baseline} KB"
    )
