#!/usr/bin/env python3
"""Compare results files of ``perf/run.py``, parent first::

    python3 perf/compare.py PARENT.json CHANGE.json
    python3 perf/compare.py 'parent-*.json' 'change-*.json'

Each argument is a results file or a glob pattern of several, one per
run.  For every (end-to-end metric, workload) pair the metric's
``bound`` from ``BENCHMARK.json`` is applied to the change of the
median:

* ``worse`` / ``better`` -- the medians differ by more than the bound;
* ``unchanged`` -- they differ by no more than the bound;
* ``unresolved`` -- either side's own min-max spread is wider than the
  bound, so the runs cannot tell, unless every run of the change reads
  better than every run of the parent (then ``better``).

With several files a side's runs are their medians; with one file its
timed simulations stand in for runs.  ``failed_run_share`` has no
relative bound: any failed run in the change is ``worse``.  Each
workload's ``sim_digest`` is ``MATCH`` or ``CHANGED`` over the inputs
(seed and size) both sides ran: a change meant only to speed up the
simulator must leave it unchanged.  Exits 1 if any pair is ``worse`` or
a workload is missing.
"""

from __future__ import annotations

import glob
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAILURE_METRIC = "failed_run_share"


def _cell(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def side_cells(runs: list[dict], workload: str, metric: str) -> dict | None:
    """One side's cell for a pair, or None if a run lacks it."""
    cells = [r["workloads"].get(workload, {}).get("metrics", {}).get(metric)
             for r in runs]
    if any(cell is None for cell in cells):
        return None
    if len(cells) == 1:
        return cells[0]
    return _cell([cell["median"] for cell in cells])


def _spread(cell: dict) -> float:
    return (cell["max"] - cell["min"]) / cell["median"] if cell["median"] else 0.0


def verdict(parent: dict, change: dict, *, bound: float, better: str) -> tuple[str, float]:
    """``(verdict, relative change of the median)`` for one pair of cells."""
    base = parent["median"]
    delta = (change["median"] - base) / base if base else 0.0
    sign = 1.0 if better == "lower" else -1.0
    if sign > 0:
        always_better = change["max"] < parent["min"]
    else:
        always_better = change["min"] > parent["max"]
    if max(_spread(parent), _spread(change)) > bound:
        return ("better" if always_better else "unresolved"), delta
    if sign * delta > bound:
        return "worse", delta
    if sign * delta < -bound:
        return "better", delta
    return "unchanged", delta


def failure_verdict(parent: dict, change: dict) -> str:
    if change["max"] > 0:
        return "worse"
    return "better" if parent["max"] > 0 else "unchanged"


def digest_verdict(parent: list[dict], change: list[dict], workload: str) -> str:
    """``MATCH``/``CHANGED`` over the (seed, size) inputs both sides ran."""
    def by_input(runs):
        return {(r["seed"], r["smoke"]): r["workloads"].get(workload, {}).get("sim_digest")
                for r in runs}

    a, b = by_input(parent), by_input(change)
    common = [key for key in a if key in b and a[key] and b[key]]
    if not common:
        return "n/a"
    return "MATCH" if all(a[k] == b[k] for k in common) else "CHANGED"


def compare(parent: list[dict], change: list[dict], bench: dict) -> tuple[list[dict], bool]:
    """One row per workload; the flag is True if anything got worse."""
    rows = []
    worse = False
    for name in parent[0]["workloads"]:
        row = {"workload": name, "cells": {}}
        rows.append(row)
        if any(name not in r["workloads"] for r in change):
            row["digest"] = "missing"
            worse = True
            continue
        row["digest"] = digest_verdict(parent, change, name)
        for metric in bench["end_to_end"]:
            a = side_cells(parent, name, metric["name"])
            b = side_cells(change, name, metric["name"])
            if a is None or b is None:
                row["cells"][metric["name"]] = ("missing", 0.0)
                worse = True
                continue
            cell = verdict(a, b, bound=metric["bound"], better=metric["better"])
            row["cells"][metric["name"]] = cell
            worse |= cell[0] == "worse"
        a = side_cells(parent, name, FAILURE_METRIC)
        b = side_cells(change, name, FAILURE_METRIC)
        if a is not None and b is not None:
            cell = (failure_verdict(a, b), b["max"] - a["max"])
            row["cells"][FAILURE_METRIC] = cell
            worse |= cell[0] == "worse"
    return rows, worse


def _load(pattern: str) -> list[dict]:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise SystemExit(f"compare: no results file matches {pattern!r}")
    return [json.loads(Path(p).read_text()) for p in paths]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = _load(argv[0]), _load(argv[1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("seconds", "smoke"):
        values = {r.get(key) for r in parent + change}
        if len(values) > 1:
            print(f"warning: the runs differ in {key}: {sorted(values, key=str)}")
    rows, worse = compare(parent, change, bench)
    names = [m["name"] for m in bench["end_to_end"]] + [FAILURE_METRIC]
    bounds = {m["name"]: f"bound {m['bound']:.0%}" for m in bench["end_to_end"]}
    bounds[FAILURE_METRIC] = "bound 0"
    print(f"{len(parent)} parent run(s), {len(change)} change run(s)")
    print(f"{'workload':<16}" + "".join(f"{n:>24}" for n in names) + f"{'sim_digest':>12}")
    print(f"{'':<16}" + "".join(f"{bounds[n]:>24}" for n in names))
    for row in rows:
        cells = []
        for n in names:
            got = row["cells"].get(n)
            cells.append("-" if got is None else f"{got[0]} {got[1]:+.1%}")
        print(f"{row['workload']:<16}" + "".join(f"{c:>24}" for c in cells)
              + f"{row['digest']:>12}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
