"""Report every function in ``src/repro`` that no entry point calls.

Records the code objects that run under ``sys.setprofile`` (and
``threading.setprofile``) while it drives the repository's entry points:

* every ``repro`` subcommand, over its presets and ``choices``, the
  quick ``repro bench`` suite plus ``parallel-runner`` among them;
* ``verify_jsonl`` on a traced run, as CI calls it, and one
  ``benchmarks/bench_*.py`` script run on its own;
* all the example scripts;
* the four ``perf/`` workloads at smoke size, untraced and traced;
* every ``bench_*`` function in ``benchmarks/``, except the three that
  bound a wall-time ratio, which a profiler breaks.

Runner work stays in this process (``--jobs 1``, and the process pinned
to one CPU for the runner's default worker count), so the profiler sees
it.  Then it walks the AST of ``src/repro`` and prints each function
that never ran and that ``tools/reachability_keep.txt`` does not
explain.  It exits 1 when one remains, when a keep entry names no
function or only functions that ran, or when an entry point fails.
Stdlib only, no options::

    PYTHONPATH=src python tools/reachability.py

Keep-file lines are ``<path>[::<qualname>]  (a|b) <reason>``, the path
relative to ``src/repro``.  A qualname also covers what is nested in it
(a class covers its methods).  ``(a)``: a paper artifact or a test
oracle; ``(b)``: reachable only through the Python API or a hand-made
input, with the test that covers it.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import os
import runpy
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
KEEP_FILE = Path(__file__).resolve().parent / "reachability_keep.txt"

#: Wall-time ratio bounds that cannot hold under a profiler (19.8% against
#: 5%, 88% against 50%, and 5.9% against 5% on a busy host).
SKIPPED_BENCHES = ("bench_idle_overhead", "bench_disabled_overhead",
                   "bench_disabled_guard_cost")
#: ``repro sweep --values`` for each ``--field`` but strategy.
SWEEP_VALUES = {
    "tasks": "10,20", "configurations": "2,4", "arrival_rate_per_s": "1.5,3",
    "gpp_fraction": "0.2,0.6", "seed": "1,2", "discard_after_s": "0.5,1",
}
#: Extra arguments per example script.
EXAMPLE_ARGS = {"scheduling_comparison.py": ["--jobs", "1"]}


# ----------------------------------------------------------------------
# What is defined, and what the keep file explains (AST only)
# ----------------------------------------------------------------------

def _is_declaration(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """An abstract method or a ``raise NotImplementedError`` stub: an
    interface that runs only when a subclass forgets to override it."""
    if any(getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
           for d in node.decorator_list):
        return True
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (len(body) == 1 and isinstance(body[0], ast.Raise)
            and "NotImplementedError" in ast.unparse(body[0]))


def defined_functions() -> dict[tuple[str, int], str]:
    """``(path, first line) -> qualname`` for every def under ``src/repro``
    but interface declarations.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: dict[tuple[str, int], str] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    if not _is_declaration(child):
                        found[(rel, first)] = qualname
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return found


def read_keep(path: Path = KEEP_FILE) -> list[tuple[int, str, str]]:
    """``(line number, entry, reason)`` for each keep entry."""
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry, _, reason = line.partition(" ")
        entries.append((number, entry, reason.strip()))
    return entries


def _covers(entry: str, rel: str, qualname: str) -> bool:
    path, _, name = entry.partition("::")
    if path != rel:
        return False
    return not name or qualname == name or qualname.startswith(name + ".")


def keep_problems(functions: dict[tuple[str, int], str] | None = None,
                  path: Path = KEEP_FILE) -> list[str]:
    """Keep entries that name no function or give no ``(a)``/``(b)`` reason."""
    functions = defined_functions() if functions is None else functions
    problems = []
    for number, entry, reason in read_keep(path):
        where = f"{path.name}:{number}: {entry}"
        if not any(_covers(entry, rel, q) for (rel, _), q in functions.items()):
            problems.append(f"{where}: names no function under src/repro")
        if not reason.startswith(("(a) ", "(b) ")):
            problems.append(f"{where}: reason must start with (a) or (b)")
    return problems


# ----------------------------------------------------------------------
# The drive list
# ----------------------------------------------------------------------

def cli_invocations(tmp: Path) -> list[tuple[list[str], int]]:
    """``(argv, expected exit code)`` for every CLI step, in order."""
    from repro.cli import build_parser
    from repro.scheduling import ALL_STRATEGIES

    trace, telemetry = tmp / "run.trace.jsonl", tmp / "run.telemetry.json"
    report, bench, fasta = tmp / "run.report.json", tmp / "bench.json", tmp / "aligned.fasta"
    small = ["--tasks", "40", "--seed", "3"]
    steps: list[tuple[list[str], int]] = [
        (["catalog"], 0),
        (["catalog", "--family", "virtex-5"], 0),
        (["taxonomy"], 0),
        (["table2"], 0),
        (["casestudy", "--family-size", "4", "--length", "30"], 0),
        (["simulate", *small, "--faults", "chaos", "--breaker", "--deadlines",
          "--checkpoint-interval", "0.25", "--energy",
          "--flash-crowd", "3:8:6", "--low-priority", "0.3", "--tenants", "3",
          "--slo", "default", "--trace", str(trace), "--telemetry", str(telemetry),
          "--report-json", str(report)], 0),
        (["simulate", *small, "--admission", "brownout", "--max-pending", "8",
          "--defer", "--rate-limit", "4:8", "--utilization-gate", "0.9",
          "--brownout", "--failover", "replicated", "--standbys", "2",
          "--rate", "8", "--flash-crowd", "1:4:6"], 0),
        (["simulate", *small, "--replications", "2", "--jobs", "1",
          "--cache-dir", str(tmp / "cache"), "--progress"], 0),
        (["simulate", *small, "--replications", "2", "--jobs", "1",
          "--cache-dir", str(tmp / "cache")], 0),
        (["analyze", str(trace), "--json", str(tmp / "phases.json")], 0),
        (["analyze", str(trace), "--top", "3", "--exemplars", "2", "--tenant", "tenant-0"], 0),
        (["report", str(telemetry), str(trace), "-o", str(tmp / "dash.html"),
          "--perfetto", str(tmp / "run.perfetto.json"),
          "--openmetrics", str(tmp / "metrics.txt")], 0),
        (["sweep", "--tasks", "30", "--jobs", "1", "--progress"], 0),
        (["chaos", *small, "--jobs", "1", "--json", str(tmp / "chaos.json")], 0),
        (["chaos", "--control-plane", *small, "--jobs", "1", "--max-lost", "0"], 0),
        (["overload", "--tasks", "120", "--max-queue", "96",
          "--json", str(tmp / "overload.json")], 0),
        (["slo", str(trace), "-o", "latency-p95:1000", "--json", str(tmp / "slo.json")], 0),
        (["slo", str(trace), "-o", "latency-p95:0.05:5"], 1),
        (["bench", "--list"], 0),
        (["bench", "--quick", "--repeat", "1", "--warmup", "0", "--json", str(bench)], 0),
        (["bench", "--filter", "^parallel-runner$", "--repeat", "1", "--warmup", "0",
          "--json", str(tmp / "bench-runner.json")], 0),
        (["bench", "--filter", "^taxonomy-classify$", "--repeat", "1",
          "--warmup", "0", "--json"], 0),  # a BENCH_<UTC stamp>.json in the cwd
        (["diff", str(bench), str(bench), "--verbose", "--json", str(tmp / "verdict.json")], 0),
        (["diff", str(report), str(report)], 0),
        (["diff", str(telemetry), str(telemetry)], 0),
        (["diff", str(tmp / "slo.json"), str(tmp / "slo.json")], 0),
        (["diff", str(ROOT / "benchmarks" / "baseline.json"), str(bench),
          "--wall-tolerance", "1000"], 0),
        (["trend", "--dir", str(ROOT / "benchmarks" / "trajectory"), "--last", "0"], 0),
        (["clustalw", "--family-size", "4", "--length", "30", "--out", str(fasta)], 0),
        (["clustalw", "--fasta", str(fasta)], 2),  # an alignment is not input
    ]
    for name in sorted(ALL_STRATEGIES):
        steps.append((["simulate", *small, "--strategy", name], 0))
    # Every option that takes a fixed set of values, with each value.
    parser = build_parser()
    bases = {
        "simulate": ["simulate", *small],
        "chaos": ["chaos", "--tasks", "30", "--jobs", "1"],
        "overload": ["overload", "--tasks", "60"],
        "slo": ["slo", "--tasks", "40"],
        "sweep": ["sweep", "--tasks", "40", "--rate", "8", "--jobs", "1"],
        "clustalw": ["clustalw", "--family-size", "4", "--length", "30"],
    }
    sub = next(a for a in parser._actions if isinstance(a.choices, dict))
    for command, subparser in sorted(sub.choices.items()):
        for action in subparser._actions:
            if not action.choices or not action.option_strings:
                continue
            for choice in sorted(action.choices):
                argv = [*bases[command], action.option_strings[-1], choice]
                if command == "sweep" and choice in SWEEP_VALUES:
                    argv += ["--values", SWEEP_VALUES[choice]]
                steps.append((argv, 0))
    return steps


class _Benchmark:
    """The part of pytest-benchmark's fixture the bench bodies use."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def _case_study_grid():
    """``benchmarks/conftest.py``'s fixture of the same name."""
    from repro.casestudy.nodes import build_case_study_nodes, case_study_network
    from repro.grid.rms import ResourceManagementSystem

    rms = ResourceManagementSystem(network=case_study_network())
    for node in build_case_study_nodes():
        rms.register_node(node)
    return rms


def _run_script(path: Path, *args: str) -> None:
    saved = sys.argv
    sys.argv = [str(path), *args]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise
    finally:
        sys.argv = saved


def _run_cli(argv: list[str], expected: int) -> None:
    from repro.cli import main

    code = main(argv)
    if code != expected:
        raise RuntimeError(f"exited {code}, expected {expected}")


def _run_workload(name: str) -> None:
    result, _ = importlib.import_module("run").measure(
        name, seed=0, seconds=0, trace=True, smoke=True
    )
    if not result["correct"]:
        raise RuntimeError(f"perf workload {name} failed its checks")


def _run_bench(fn, tmp: Path) -> None:
    fixtures = {
        "benchmark": _Benchmark,
        "tmp_path": lambda: Path(tempfile.mkdtemp(dir=tmp)),
        "case_study_grid": _case_study_grid,
    }
    fn(**{name: fixtures[name]() for name in inspect.signature(fn).parameters})


def drive_steps(tmp: Path):
    """``(label, thunk)`` for every entry point, in run order."""
    from repro.sim.tracing import verify_jsonl

    for argv, expected in cli_invocations(tmp):
        yield "repro " + " ".join(argv), lambda a=argv, e=expected: _run_cli(a, e)
    # CI streams a traced run back through the invariant checker.
    trace = tmp / "run.trace.jsonl"
    yield f"verify_jsonl({trace.name})", lambda: verify_jsonl(trace)
    bench_script = ROOT / "benchmarks" / "bench_fig1_taxonomy.py"
    yield f"benchmarks/{bench_script.name} (standalone)", lambda: _run_script(
        bench_script, "--repeat", "1", "--warmup", "0", "--json", str(tmp / "fig1.json")
    )
    for path in sorted((ROOT / "examples").glob("*.py")):
        args = EXAMPLE_ARGS.get(path.name, [])
        yield f"examples/{path.name}", lambda p=path, a=args: _run_script(p, *a)
    sys.path.insert(0, str(ROOT / "perf"))
    for name in importlib.import_module("workloads").WORKLOADS:
        yield f"perf {name} --smoke, untraced and traced", lambda n=name: _run_workload(n)
    sys.path.insert(0, str(ROOT))
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        module = importlib.import_module(f"benchmarks.{path.stem}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("bench_") and fn.__module__ == module.__name__:
                label = f"benchmarks/{path.name}::{name}"
                if name in SKIPPED_BENCHES:
                    yield label + " (skipped)", lambda: None
                else:
                    yield label, lambda f=fn: _run_bench(f, tmp)


def drive(tmp: Path, log) -> list[str]:
    """Run every entry point; returns one line per step that failed."""
    failures: list[str] = []
    for label, thunk in drive_steps(tmp):
        began = time.perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                thunk()
        except (Exception, SystemExit) as exc:  # SystemExit: argparse errors
            failures.append(f"{label}: " + "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)))
        log(f"  {time.perf_counter() - began:6.1f} s  {label}")
    return failures


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------

def main() -> int:
    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    functions = defined_functions()
    problems = keep_problems(functions)
    called: set = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    began = time.perf_counter()
    log(f"reachability: driving the entry points ({len(functions)} functions defined)")
    # One usable CPU: the runner's default worker count is then one, so
    # every run stays in this process, where the profiler sees it.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        os.chdir(tmp)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            failures = drive(Path(tmp), log)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)

    reached = set()
    package = str(PACKAGE) + os.sep
    for code in called:
        if code.co_filename.startswith(package):
            rel = Path(code.co_filename).relative_to(PACKAGE).as_posix()
            reached.add((rel, code.co_firstlineno))
    kept = {entry: number for number, entry, _ in read_keep()}
    used: set[str] = set()
    unexplained = []
    for (rel, line), qualname in sorted(functions.items()):
        if (rel, line) in reached:
            continue
        covering = [entry for entry in kept if _covers(entry, rel, qualname)]
        used.update(covering)
        if not covering:
            unexplained.append(f"src/repro/{rel}:{line}: {qualname}")
    explained = len(functions) - len(reached & functions.keys()) - len(unexplained)
    problems += [f"{KEEP_FILE.name}:{number}: {entry}: every function it names ran"
                 for entry, number in kept.items() if entry not in used]

    print(f"reachability: {len(functions)} functions, {len(reached & functions.keys())} "
          f"called, {explained} uncalled and kept, {len(unexplained)} uncalled and "
          f"unexplained ({time.perf_counter() - began:.0f} s)")
    for line in unexplained:
        print(f"uncalled: {line}")
    for line in problems:
        print(f"keep: {line}")
    for line in failures:
        print(f"failed: {line}")
    return 1 if unexplained or problems or failures else 0


if __name__ == "__main__":
    sys.exit(main())
