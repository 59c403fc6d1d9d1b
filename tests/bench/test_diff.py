"""Tests for the run-diff engine: loading, tolerances, refusals."""

import json
from pathlib import Path

import pytest

from repro.bench.diff import (
    DEFAULT_METRIC_TOLERANCE,
    DEFAULT_WALL_TOLERANCE,
    Artifact,
    diff_artifacts,
    load_artifact,
)

PROV = {"spec_hash": "abc", "seed": 0, "cache_format": 4}


def make_bench_doc(*, median=0.010, makespan=100.0, mode="quick", env=None):
    return {
        "format": 1,
        "kind": "bench-suite",
        "mode": mode,
        "created_utc": None,
        "env": dict(env) if env else {"git_sha": "deadbeef", "cache_format": 4},
        "cases": [
            {
                "name": "sim-baseline",
                "group": "sim",
                "repeat": 3,
                "warmup": 0,
                "quick": mode == "quick",
                "wall_s": {"median": median, "p10": median, "p90": median,
                           "best": median, "all": [median] * 3},
                "metrics": {"makespan_s": makespan, "completed": 80.0},
            }
        ],
    }


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadArtifact:
    def test_bench_suite_namespaces_keys(self, tmp_path):
        art = load_artifact(write(tmp_path, "b.json", make_bench_doc()))
        assert art.flavor == "bench"
        assert art.mode == "quick"
        assert art.wall == {"sim-baseline/wall_median_s": 0.010}
        assert art.metrics == {"sim-baseline/makespan_s": 100.0,
                               "sim-baseline/completed": 80.0}

    def test_report_dump_takes_scalar_fields(self, tmp_path):
        doc = {"kind": "report-dump", "provenance": dict(PROV),
               "report": {"completed": 80, "makespan_s": 41.5,
                          "partial": True, "nodes": [1, 2]}}
        art = load_artifact(write(tmp_path, "r.json", doc))
        assert art.flavor == "report"
        assert art.provenance == PROV
        # booleans and non-scalars are skipped
        assert art.metrics == {"completed": 80.0, "makespan_s": 41.5}

    def test_telemetry_series_value_count_and_checksum(self, tmp_path):
        from repro.sim.telemetry import TELEMETRY_FORMAT

        doc = {
            "format": TELEMETRY_FORMAT,
            "meta": {"provenance": dict(PROV)},
            "series": [
                {"name": "queue", "labels": {}, "points": [[0, 1], [2, 7]]},
                {"name": "util", "labels": {"node": "n0"}, "points": [[1, 0.5]]},
                {"name": "empty", "labels": {}, "points": []},
            ],
        }
        art = load_artifact(write(tmp_path, "t.json", doc))
        assert art.flavor == "telemetry"
        assert art.metrics["queue"] == 7.0
        assert art.metrics["queue/samples"] == 2.0
        assert art.metrics["util{node=n0}"] == 0.5
        assert art.metrics["util{node=n0}/samples"] == 1.0
        assert set(art.metrics) == {
            "queue", "queue/samples", "queue/points_crc32",
            "util{node=n0}", "util{node=n0}/samples",
            "util{node=n0}/points_crc32",
        }

    def test_telemetry_mid_run_divergence_is_caught(self, tmp_path):
        # Same sample count, same final value -- only the trajectory
        # checksum distinguishes the runs.
        from repro.sim.telemetry import TELEMETRY_FORMAT

        def doc(points):
            return {
                "format": TELEMETRY_FORMAT,
                "meta": {"provenance": dict(PROV)},
                "series": [{"name": "queue", "labels": {}, "points": points}],
            }

        a = write(tmp_path, "a.json", doc([[0, 1], [1, 5], [2, 7]]))
        b = write(tmp_path, "b.json", doc([[0, 1], [1, 6], [2, 7]]))
        report = diff_artifacts(a, b)
        assert report.exit_code == 1
        assert [row.key for row in report.failures] == ["queue/points_crc32"]
        # Identical trajectories still diff clean.
        c = write(tmp_path, "c.json", doc([[0, 1], [1, 5], [2, 7]]))
        assert diff_artifacts(a, c).exit_code == 0

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json at all")
        with pytest.raises(ValueError, match="cannot read artifact"):
            load_artifact(path)
        path.write_text(json.dumps({"who": "knows"}))
        with pytest.raises(ValueError, match="unrecognized artifact"):
            load_artifact(path)
        with pytest.raises(ValueError, match="cannot read artifact"):
            load_artifact(tmp_path / "missing.json")


class TestDiffVerdicts:
    def test_identical_runs_zero_diff(self, tmp_path):
        a = write(tmp_path, "a.json", make_bench_doc())
        b = write(tmp_path, "b.json", make_bench_doc())
        report = diff_artifacts(a, b)
        assert report.verdict == "ok"
        assert report.exit_code == 0
        assert report.failures == []
        assert all(row.status == "ok" for row in report.rows)
        assert {row.key for row in report.rows} == {
            "sim-baseline/wall_median_s",
            "sim-baseline/makespan_s",
            "sim-baseline/completed",
        }

    def test_wall_tolerance_boundary(self, tmp_path):
        a = write(tmp_path, "a.json", make_bench_doc(median=0.100))
        inside = write(tmp_path, "in.json", make_bench_doc(median=0.120))
        outside = write(tmp_path, "out.json", make_bench_doc(median=0.200))
        assert diff_artifacts(a, inside,
                              wall_tolerance=0.25).exit_code == 0
        report = diff_artifacts(a, outside, wall_tolerance=0.25)
        assert report.exit_code == 1
        (row,) = report.failures
        assert row.status == "regression" and row.kind == "wall"
        assert row.rel_change == pytest.approx(1.0)

    def test_wall_is_one_sided_faster_never_fails(self, tmp_path):
        a = write(tmp_path, "a.json", make_bench_doc(median=0.100))
        b = write(tmp_path, "b.json", make_bench_doc(median=0.020))
        report = diff_artifacts(a, b, wall_tolerance=0.25)
        assert report.exit_code == 0
        (row,) = [r for r in report.rows if r.kind == "wall"]
        assert row.status == "improved"

    def test_metric_drift_is_two_sided(self, tmp_path):
        a = write(tmp_path, "a.json", make_bench_doc(makespan=100.0))
        for drifted in (101.0, 99.0):
            b = write(tmp_path, "b.json", make_bench_doc(makespan=drifted))
            report = diff_artifacts(a, b)
            assert report.exit_code == 1
            (row,) = report.failures
            assert row.status == "drift" and row.key == "sim-baseline/makespan_s"

    def test_tiny_absolute_difference_is_equal(self, tmp_path):
        a = write(tmp_path, "a.json", make_bench_doc(makespan=0.0))
        b = write(tmp_path, "b.json", make_bench_doc(makespan=1e-13))
        assert diff_artifacts(a, b).exit_code == 0

    def test_added_removed_keys_are_informational(self, tmp_path):
        base = make_bench_doc()
        cur = make_bench_doc()
        del cur["cases"][0]["metrics"]["completed"]
        cur["cases"][0]["metrics"]["extra"] = 5.0
        report = diff_artifacts(write(tmp_path, "a.json", base),
                                write(tmp_path, "b.json", cur))
        statuses = {row.key: row.status for row in report.rows}
        assert statuses["sim-baseline/extra"] == "added"
        assert statuses["sim-baseline/completed"] == "removed"
        assert report.exit_code == 0  # never fail on shape changes alone


class TestRefusals:
    def report_art(self, path, prov):
        return Artifact(path=path, flavor="report", provenance=prov,
                        metrics={"completed": 80.0})

    def test_mismatched_provenance_refused(self):
        a = self.report_art("a", dict(PROV))
        b = self.report_art("b", dict(PROV, seed=1))
        report = diff_artifacts(a, b)
        assert report.verdict == "incomparable"
        assert report.exit_code == 2
        assert "seed differs" in report.refusal
        assert "REFUSED" in report.render()

    def test_force_overrides_refusal(self):
        a = self.report_art("a", dict(PROV))
        b = Artifact(path="b", flavor="report",
                     provenance=dict(PROV, seed=1),
                     metrics={"completed": 79.0})
        report = diff_artifacts(a, b, force=True)
        assert report.refusal is None and report.forced
        assert report.exit_code == 1  # the drift is now visible

    def test_missing_provenance_is_allowed(self):
        # Pre-provenance dumps lack a stamp; refusal needs evidence.
        a = self.report_art("a", None)
        b = self.report_art("b", dict(PROV))
        assert diff_artifacts(a, b).exit_code == 0

    def test_flavor_mismatch_refused(self):
        a = Artifact(path="a", flavor="report", provenance=None)
        b = Artifact(path="b", flavor="telemetry", provenance=None)
        report = diff_artifacts(a, b)
        assert report.exit_code == 2
        assert "different flavors" in report.refusal

    def test_bench_mode_mismatch_refused(self, tmp_path):
        a = write(tmp_path, "a.json", make_bench_doc(mode="quick"))
        b = write(tmp_path, "b.json", make_bench_doc(mode="full"))
        report = diff_artifacts(a, b)
        assert report.exit_code == 2
        assert "different modes" in report.refusal


class TestRendering:
    def test_render_hides_ok_rows_unless_verbose(self, tmp_path):
        a = write(tmp_path, "a.json", make_bench_doc())
        b = write(tmp_path, "b.json", make_bench_doc())
        report = diff_artifacts(a, b)
        terse = report.render()
        assert "verdict: ok" in terse
        assert "makespan_s" not in terse
        verbose = report.render(verbose=True)
        assert "makespan_s" in verbose

    def test_to_json_verdict_document(self, tmp_path):
        a = write(tmp_path, "a.json", make_bench_doc(makespan=100.0))
        b = write(tmp_path, "b.json", make_bench_doc(makespan=150.0))
        doc = diff_artifacts(a, b).to_json()
        assert doc["verdict"] == "regression"
        assert doc["exit_code"] == 1
        assert doc["failures"] == 1
        assert doc["metric_tolerance"] == DEFAULT_METRIC_TOLERANCE
        assert doc["wall_tolerance"] == DEFAULT_WALL_TOLERANCE
        failing = [r for r in doc["rows"] if r["status"] == "drift"]
        assert failing and failing[0]["key"] == "sim-baseline/makespan_s"


class TestCommittedBaseline:
    """The CI gate diffs a fresh quick suite against
    ``benchmarks/baseline.json``; a baseline from another cache format
    or case list makes it refuse on every run."""

    BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"

    def test_cache_format_is_current(self):
        from repro.sim.runner import _CACHE_FORMAT

        doc = json.loads(self.BASELINE.read_text())
        assert doc["env"]["cache_format"] == _CACHE_FORMAT

    def test_cases_are_the_quick_suite(self):
        from repro.bench.core import match_cases

        doc = json.loads(self.BASELINE.read_text())
        assert doc["mode"] == "quick"
        assert sorted(case["name"] for case in doc["cases"]) == [
            case.name for case in match_cases(None, quick=True)
        ]
