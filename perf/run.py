#!/usr/bin/env python3
"""The repository benchmark: host time per simulated task, end to end and per layer.

One workload, one process (the form a harness calls)::

    python3 perf/run.py --workload scale-steady --seed 0 --seconds 20 --trace 0

measures for ``--seconds`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.

The whole suite::

    python3 perf/run.py [--seed N] [--out FILE] [--seconds S] [--smoke]

runs every workload in a fresh child process, untraced and then traced,
one child at a time; prints every metric with its unit, the per-layer
table and each workload's ``sim_digest`` against ``perf/baseline.json``;
writes the results file that ``perf/compare.py`` reads.  It exits 1 if
any run failed.  Run from anywhere inside a checkout; the program is
imported from the checkout's ``src/``, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
BASELINE = PERF / "baseline.json"
DEFAULT_OUT = PERF / "out" / "results.json"
DETAIL_PREFIX = "DETAIL "
#: A child that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 180
RESULTS_FORMAT = 1


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it.

    Exits non-zero, printing no result, when the checkout has no program.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perf: no program source at {package}; run inside a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perf: imported repro from {repro.__file__}, not {package}")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class RunLog:
    """Counts attempted and failed runs of one workload.

    A run fails if it raises (an online invariant violation included),
    breaks a check in :func:`workloads.execute`, or reports a simulation
    that differs from an earlier run of the same input: the warm-up, a
    repeated cycle and every traced run must reproduce it exactly.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: input seed -> sim_digest of its first run
        self.digests: dict[int, str] = {}
        self.headline: dict = {}

    def attempt(self, run, seed: int):
        """The run's :class:`workloads.Outcome`, or None if it failed."""
        import workloads

        self.attempted += 1
        gc.collect()
        try:
            outcome = run(seed)
            first = self.digests.setdefault(seed, outcome.digest)
            if outcome.digest != first:
                raise workloads.CheckFailed(
                    f"input {seed}: sim_digest {outcome.digest} differs from "
                    f"the earlier run's {first}"
                )
            self.headline = self.headline or outcome.headline
            return outcome
        except Exception as exc:  # a failing run is counted; the suite goes on
            self.failed += 1
            if not self.errors:
                self.errors.append(traceback.format_exc())
            print(f"perf: {self.name} run {self.attempted} failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def sim_digest(self, seeds: list[int]) -> str | None:
        """One digest over every input of a cycle, None unless all ran."""
        import workloads

        if any(seed not in self.digests for seed in seeds):
            return None
        return workloads.combined_digest(self.digests[seed] for seed in seeds)


def _spread(values: list[float], unit: str) -> dict:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "samples": values,
    }


def measure(name: str, *, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Measure one workload in this process: ``(result, detail)``.

    ``seed`` expands into a cycle of distinct inputs
    (:func:`workloads.input_seeds`), so one run's median averages over
    several simulations instead of resting on one.  After an untimed
    warm-up on the first input, whole cycles run until the next would end
    past ``seconds`` (always at least one).  With ``trace`` each input is
    run untraced and then under the span recorder, which must reproduce
    its report, until the time is up.  Call :func:`load_program` first.
    """
    import calibration
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]
    tasks = workload.size(smoke)
    inputs = workloads.input_seeds(seed)
    log = RunLog(name)
    clock = workloads.RunClock()
    recorder = layers.SpanRecorder() if trace else None
    untraced: list = []
    traced: list = []
    #: host slowdown probes, one before each untraced run and one at the end
    probes: list[float] = []

    def plain(input_seed):
        probes.append(calibration.probe())
        return workloads.execute(workload, input_seed, tasks, clock)

    def under_recorder(input_seed):
        with recorder:
            return workloads.execute(workload, input_seed, tasks, clock)

    passes = [(plain, untraced)]
    if trace:
        passes.append((under_recorder, traced))

    def fits(began: float) -> bool:
        """Would another step as long as the one begun at ``began`` end in time?"""
        now = perf_counter()
        return now - start + (now - began) <= seconds

    clock.install()
    try:
        log.attempt(plain, inputs[0])
        start = perf_counter()
        going = log.failed == 0
        while going:
            cycle_began = perf_counter()
            for input_seed in inputs:
                began = perf_counter()
                for run, into in passes:
                    outcome = log.attempt(run, input_seed)
                    if outcome is None:
                        break
                    into.append(outcome)
                going = log.failed == 0 and (not trace or fits(began))
                if not going:
                    break
            going = going and fits(cycle_began)
        probes.append(calibration.probe())
    finally:
        clock.uninstall()

    computed: dict[str, tuple[float, str]] = {}
    samples: dict[str, dict] = {}
    if untraced:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # One host speed for the whole run: the median of all probes
        # tracks drift better than pairing each run with its own probe.
        factor = calibration.time_factor(probes)
        samples = {
            "host_us_per_task": _spread(
                [o.host_us_per_task / factor for o in untraced], "us"),
            "setup_s": _spread([o.setup_s / factor for o in untraced], "s"),
            "peak_rss_mb": _spread([rss_mb], "MB"),
        }
        computed.update({k: (v["median"], v["unit"]) for k, v in samples.items()})
        samples["host_us_per_task_unscaled"] = _spread(
            [o.host_us_per_task for o in untraced], "us")
        samples["host_slowdown"] = _spread(probes, "ratio")
    if traced:
        computed.update(recorder.metrics(
            repeats=len(traced),
            tasks=tasks,
            wall_ns=sum(o.total_ns for o in traced),
            events=sum(o.events for o in traced),
            trace_events=sum(o.trace_events for o in traced),
        ))
        plain_wall = sum(o.total_ns for o in untraced[:len(traced)])
        computed["trace.overhead_share"] = (
            sum(o.total_ns for o in traced) / plain_wall - 1.0, "ratio")

    wanted = load_benchmark()["per_layer" if trace else "end_to_end"]
    correct = log.failed == 0 and all(m["name"] in computed for m in wanted)
    result = {
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            m["name"]: {"value": computed[m["name"]][0], "unit": computed[m["name"]][1]}
            for m in wanted
            if m["name"] in computed
        },
    }
    detail = {
        "workload": name,
        "seed": seed,
        "tasks": tasks,
        "trace": int(trace),
        "untraced_runs": len(untraced),
        "traced_runs": len(traced),
        "sim_digest": log.sim_digest(inputs),
        "digests": {str(k): v for k, v in log.digests.items()},
        "sim": log.headline,
        "errors": log.errors,
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in computed.items()},
        "spans": recorder.spans() if traced else [],
    }
    return result, detail


# ----------------------------------------------------------------------
# The suite: one child process per (workload, traced) pair
# ----------------------------------------------------------------------

def _child(name: str, *, seed: int, seconds: float, trace: bool,
           smoke: bool) -> tuple[dict | None, dict | None, str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None, None, f"child timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(line[len(DETAIL_PREFIX):]) for line in lines
                   if line.startswith(DETAIL_PREFIX)), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, detail, f"child exited {proc.returncode} without a result"
    return result, detail, ""


def run_suite(*, seed: int, seconds: float, smoke: bool, child=_child) -> dict:
    """Every workload, untraced then traced, each in a fresh ``child``."""
    import workloads

    out = {
        "format": RESULTS_FORMAT,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "host": {
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    for name, workload in workloads.WORKLOADS.items():
        entry = {"tasks": workload.size(smoke), "attempted": 0, "failed": 0,
                 "errors": [], "sim_digest": None, "sim": {}, "metrics": {},
                 "layers": {}, "spans": []}
        digests: dict[str, str] = {}
        for trace in (False, True):
            print(f"perf: {name} {'traced' if trace else 'untraced'} ...",
                  file=sys.stderr)
            result, detail, error = child(name, seed=seed, seconds=seconds,
                                          trace=trace, smoke=smoke)
            if result is None:
                entry["attempted"] += 1
                entry["failed"] += 1
                entry["errors"].append(error)
            else:
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
            if detail is None:
                continue
            entry["errors"] += detail["errors"]
            changed = [k for k, v in detail["digests"].items()
                       if digests.setdefault(k, v) != v]
            if changed:
                entry["failed"] += 1
                entry["errors"].append(
                    f"traced run changed the simulation of input(s) {changed}")
            if trace:
                entry["layers"] = detail["metrics"]
                entry["spans"] = detail["spans"]
            else:
                entry["sim_digest"] = detail["sim_digest"]
                entry["sim"] = detail["sim"]
                entry["metrics"] = detail["samples"]
        share = entry["failed"] / entry["attempted"]
        entry["metrics"]["failed_run_share"] = _spread([share], "ratio")
        out["workloads"][name] = entry
    return out


def _fmt(cell: dict | None) -> str:
    if not cell:
        return "-"
    if cell["n"] == 1:
        return f"{cell['median']:.4g}"
    return f"{cell['median']:.4g} [{cell['min']:.4g}-{cell['max']:.4g}] n={cell['n']}"


def print_report(results: dict, verdicts: dict[str, str]) -> None:
    import layers

    bench = load_benchmark()
    metrics = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    metrics.append(("failed_run_share", "ratio"))
    print(f"seed {results['seed']}, {results['seconds']} s per run"
          + (", smoke sizes" if results["smoke"] else ""))
    for name, entry in results["workloads"].items():
        slowdown = entry["metrics"].get("host_slowdown", {}).get("median", 0.0)
        print(f"\n{name}  ({entry['tasks']} tasks, {entry['attempted']} runs, "
              f"host slowdown {slowdown:.2f}, "
              f"sim_digest {entry['sim_digest']} {verdicts[name]})")
        for metric, unit in metrics:
            print(f"  {metric:<18} {_fmt(entry['metrics'].get(metric)):<40} {unit}")
        for error in entry["errors"]:
            print("  error: " + error.strip().splitlines()[-1])
    print("\nper layer: share of traced wall (calls per run, us per call)")
    names = list(results["workloads"])
    print(f"  {'layer':<24}" + "".join(f"{n:>26}" for n in names))
    for layer in layers.LAYERS:
        cells = []
        for name in names:
            got = results["workloads"][name]["layers"]
            if layer == "simulator.residual":
                share = got.get(f"{layer}.share", {}).get("value")
                cells.append("-" if share is None else f"{share:6.1%}")
                continue
            share = got.get(f"{layer}.share", {}).get("value")
            calls = got.get(f"{layer}.calls", {}).get("value")
            per = got.get(f"{layer}.us_per_call", {}).get("value")
            cells.append("-" if share is None else
                         f"{share:6.1%} ({calls:.0f}, {per:.2f})")
        print(f"  {layer:<24}" + "".join(f"{c:>26}" for c in cells))
    extras = ("matchmaking.success_ratio", "matchmaking.plan_calls_per_task",
              "matchmaking.candidates_per_call", "engine.events_per_task",
              "analysis.us_per_event", "trace.overhead_share")
    for extra in extras:
        cells = [results["workloads"][n]["layers"].get(extra, {}).get("value")
                 for n in names]
        print(f"  {extra:<24}" + "".join(
            f"{'-' if c is None else format(c, '.4g'):>26}" for c in cells))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure one workload (harness form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="task counts x 0.02, for tests and quick checks")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="results file of the suite")
    args = parser.parse_args(argv)
    load_program()
    import compare
    import workloads

    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload is not None:
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         + ", ".join(workloads.WORKLOADS))
        result, detail = measure(args.workload, seed=args.seed,
                                 seconds=args.seconds, trace=bool(args.trace),
                                 smoke=args.smoke)
        print(DETAIL_PREFIX + json.dumps(detail))
        print(json.dumps(result))
        return 0
    results = run_suite(seed=args.seed, seconds=args.seconds, smoke=args.smoke)
    baseline = [json.loads(BASELINE.read_text())] if BASELINE.is_file() else []
    verdicts = {name: compare.digest_verdict(baseline, [results], name)
                for name in results["workloads"]}
    results["digest_vs_baseline"] = verdicts
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print_report(results, verdicts)
    print(f"\nresults written to {args.out}")
    failed = sum(entry["failed"] for entry in results["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
