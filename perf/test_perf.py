"""Tests of the benchmark itself: ``python -m pytest perf -q``.

They run the workloads at smoke size (task counts x 0.02) with a short
measuring time, so the whole file takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import compare
import run

run.load_program()

import layers  # noqa: E402  (needs the program on the path)
import workloads  # noqa: E402
from repro.sim import experiment  # noqa: E402
from repro.sim.simulator import DReAMSim  # noqa: E402

BENCH = run.load_benchmark()
SCRIPT = str(run.PERF / "run.py")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json and the harness form
# ----------------------------------------------------------------------

def test_benchmark_json_names_the_workloads_and_command():
    assert BENCH["paths"] == ["perf"]
    assert BENCH["command"] == ["python3", "perf/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == {
        "host_us_per_task", "setup_s", "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_harness_form_prints_every_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--workload", "flash-crowd", "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "wide-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def test_smoke_suite_runs_every_workload_and_metric(tmp_path):
    out = tmp_path / "results.json"
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--smoke", "--seconds", "0.2", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = json.loads(out.read_text())
    assert list(results["workloads"]) == list(workloads.WORKLOADS)
    for name, entry in results["workloads"].items():
        for metric in BENCH["end_to_end"]:
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
        for metric in BENCH["per_layer"]:
            assert metric["name"] in entry["layers"], (name, metric["name"])
        assert entry["metrics"]["failed_run_share"]["median"] == 0.0
        assert entry["sim_digest"]
    layer_calls = {
        name: {layer: entry["layers"].get(f"{layer}.calls", {}).get("value", 0)
               for layer in layers.LAYERS}
        for name, entry in results["workloads"].items()
    }
    # The workloads isolate layers: observers fire only where armed.
    for name, calls in layer_calls.items():
        for layer in ("tracing.emit", "tracing.check", "telemetry", "analysis",
                      "failover", "resilience", "faults"):
            assert (calls[layer] > 0) == (name == "chaos-observed"), (name, layer)
        for layer in ("admission", "slo"):
            assert (calls[layer] > 0) == (name == "flash-crowd"), (name, layer)
    assert layer_calls["scale-steady"]["dispatch.jss"] == 0


def _in_process_child(name, *, seed, seconds, trace, smoke):
    result, detail = run.measure(name, seed=seed, seconds=seconds, trace=trace,
                                 smoke=smoke)
    return result, detail, ""


def test_a_failing_workload_is_counted_and_the_rest_still_run(monkeypatch, capsys):
    def broken(spec, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(experiment, "run_scale_experiment", broken)
    results = run.run_suite(seed=0, seconds=0.05, smoke=True, child=_in_process_child)
    shares = {name: entry["metrics"]["failed_run_share"]["median"]
              for name, entry in results["workloads"].items()}
    assert shares == {"scale-steady": 1.0, "wide-grid": 0.0, "flash-crowd": 0.0,
                      "chaos-observed": 0.0}
    broken_entry = results["workloads"]["scale-steady"]
    assert "injected failure" in broken_entry["errors"][0]
    assert broken_entry["sim_digest"] is None
    run.print_report(results, dict.fromkeys(results["workloads"], "n/a"))
    assert "injected failure" in capsys.readouterr().out


def test_measure_reports_a_broken_run_as_not_correct(monkeypatch):
    original = workloads.check_report

    def leaky(report, tasks):
        original(report, tasks + 1)

    monkeypatch.setattr(workloads, "check_report", leaky)
    result, detail = run.measure("wide-grid", seed=0, seconds=0.05, trace=False,
                                 smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"] == {}
    assert "conservation" in detail["errors"][0]


# ----------------------------------------------------------------------
# The span recorder
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ["wide-grid", "chaos-observed"])
def test_recorder_leaves_the_report_identical(name):
    workload = workloads.WORKLOADS[name]
    spec = workload.spec(3, workload.size(smoke=True))
    originals = {(owner, fn): vars(owner)[fn] for _, owner, names in layers.TARGETS
                 if names is not layers.PUBLIC for fn in names}
    plain = experiment.run_experiment(spec).report
    with layers.SpanRecorder() as recorder:
        traced = experiment.run_experiment(spec).report
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)
    assert recorder.layer_totals()["matchmaking.plan"][0] > 0
    for (owner, fn), original in originals.items():
        assert vars(owner)[fn] is original


def test_recorder_charges_nested_calls_to_the_innermost_layer():
    workload = workloads.WORKLOADS["wide-grid"]
    with layers.SpanRecorder() as recorder:
        experiment.run_experiment(workload.spec(0, 40))
    parents = {(parent, layer) for parent, layer, _ in recorder.aggregates}
    assert ("matchmaking.plan", "matchmaking.candidates") in parents
    assert ("matchmaking.plan", "matchmaking.choose") in parents
    assert ("simulator.residual", "matchmaking.plan") in parents
    for calls, self_ns, inclusive_ns in recorder.aggregates.values():
        assert calls > 0 and 0 <= self_ns <= inclusive_ns
    totals = recorder.layer_totals()
    assert totals["matchmaking.plan"][0] == totals["matchmaking.choose"][0] == 40


def test_recorder_refuses_a_renamed_function(monkeypatch):
    monkeypatch.delattr(DReAMSim, "submit_workload_columns")
    with pytest.raises(AttributeError, match="submit_workload_columns"):
        with layers.SpanRecorder():
            pass
    assert not any(hasattr(vars(o).get(f), "__wrapped__")
                   for _, o, names in layers.TARGETS if names is not layers.PUBLIC
                   for f in names)


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------

def _cell(*samples):
    values = sorted(samples)
    return {"median": values[len(values) // 2], "min": values[0],
            "max": values[-1], "n": len(values), "samples": list(samples)}


def _results(us, setup=(0.1, 0.1, 0.1), rss=(60.0,), failed=(0.0,), digest="abc"):
    return {"seed": 0, "seconds": 20, "smoke": False, "workloads": {"w": {
        "sim_digest": digest,
        "metrics": {"host_us_per_task": _cell(*us), "setup_s": _cell(*setup),
                    "peak_rss_mb": _cell(*rss), "failed_run_share": _cell(*failed)},
    }}}


B = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}["host_us_per_task"]


@pytest.mark.parametrize("parent_us, change_us, expected", [
    ((100, 101, 102), (100, 101, 103), "unchanged"),
    ((100, 101, 102), tuple(x * (1 + 2 * B) for x in (100, 101, 102)), "worse"),
    ((100, 101, 102), tuple(x * (1 - 2 * B) for x in (100, 101, 102)), "better"),
    # Spreads wider than the bound: the runs cannot tell ...
    ((100 * (1 - B), 100, 100 * (1 + B)), (95, 110, 130), "unresolved"),
    # ... unless every run of the change beats every run of the parent.
    ((100, 100 * (1 + B), 100 * (1 + 2 * B)), (50, 60, 99), "better"),
])
def test_compare_verdicts(parent_us, change_us, expected):
    rows, worse = compare.compare([_results(parent_us)], [_results(change_us)], BENCH)
    assert rows[0]["cells"]["host_us_per_task"][0] == expected
    assert rows[0]["cells"]["setup_s"][0] == "unchanged"
    assert worse == (expected == "worse")


def test_compare_uses_run_medians_when_given_several_runs():
    # Each run's own simulations spread past the bound, but the run
    # medians agree: several runs resolve what one run cannot.
    wide = 100 * (1 + 2 * B)
    parent = [_results((80, m, wide)) for m in (100, 101, 102)]
    change = [_results((80, m, wide)) for m in (101, 102, 103)]
    assert compare.compare(parent[:1], change[:1], BENCH)[0][0]["cells"][
        "host_us_per_task"][0] == "unresolved"
    rows, worse = compare.compare(parent, change, BENCH)
    assert rows[0]["cells"]["host_us_per_task"][0] == "unchanged" and not worse


def test_compare_flags_failures_digests_and_exit_status(tmp_path):
    parent = _results((100, 101, 102))
    change = _results((100, 101, 102), failed=(0.25,), digest="def")
    rows, worse = compare.compare([parent], [change], BENCH)
    assert worse and rows[0]["cells"]["failed_run_share"][0] == "worse"
    assert rows[0]["digest"] == "CHANGED"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(tmp_path / "[a].json")]) == 0
