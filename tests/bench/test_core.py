"""Tests for the bench harness core: registry, runner, BENCH schema."""

import json

import pytest

from repro.bench.core import (
    BENCH_FORMAT,
    BenchCase,
    all_cases,
    default_bench_filename,
    get_case,
    load_bench_json,
    match_cases,
    run_case,
    run_suite,
    suite_to_json,
    summary_table,
    write_bench_json,
    _percentile,
)


def _case(name="t", metrics=None, group="g", quick_eligible=True):
    return BenchCase(
        name=name, group=group,
        fn=lambda quick: dict(metrics if metrics is not None else {"x": 1.0}),
        quick_eligible=quick_eligible,
    )


class TestRegistry:
    def test_catalog_covers_the_acceptance_floor(self):
        quick = [c for c in all_cases() if c.quick_eligible]
        assert len(quick) >= 10
        names = {c.name for c in all_cases()}
        # The headline simulator cases are all registered.
        assert {"sim-baseline", "grid-scaling", "hybrid-vs-gpponly",
                "fault-chaos", "fabric-allocation"} <= names

    def test_every_case_has_group_and_description(self):
        for case in all_cases():
            assert case.group
            assert case.description

    def test_get_case_unknown_name(self):
        with pytest.raises(KeyError, match="unknown bench case"):
            get_case("no-such-case")

    def test_match_cases_by_name_group_and_quick(self):
        assert [c.name for c in match_cases("taxonomy")] == ["taxonomy-classify"]
        by_group = match_cases("^figures$")
        assert {c.name for c in by_group} == {"table2-mappings",
                                              "taxonomy-classify"}
        assert all(c.quick_eligible for c in match_cases(None, quick=True))
        assert match_cases("zzz-no-match") == []


class TestRunCase:
    def test_stats_over_repetitions(self):
        result = run_case(_case(), repeat=5, warmup=0)
        assert len(result.wall_times_s) == 5
        assert result.best_s == min(result.wall_times_s)
        assert result.p10_s <= result.median_s <= result.p90_s
        assert result.metrics == {"x": 1.0}

    def test_rejects_bad_repeat_and_warmup(self):
        with pytest.raises(ValueError):
            run_case(_case(), repeat=0)
        with pytest.raises(ValueError):
            run_case(_case(), warmup=-1)

    def test_nondeterministic_metrics_raise(self):
        ticker = iter(range(100))
        case = BenchCase(
            name="drift", group="g",
            fn=lambda quick: {"x": float(next(ticker))},
        )
        with pytest.raises(AssertionError, match="nondeterministic"):
            run_case(case, repeat=2, warmup=0)

    def test_non_dict_return_raises(self):
        case = BenchCase(name="bad", group="g", fn=lambda quick: 42)
        with pytest.raises(TypeError, match="metrics dict"):
            case.run_once()

    def test_percentile_interpolates(self):
        assert _percentile([1.0], 90) == 1.0
        assert _percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert _percentile([1.0, 2.0], 100) == 2.0


class TestSuiteJson:
    def test_schema_versioned_document(self, tmp_path):
        results = run_suite([_case("a"), _case("b", {"y": 2.0})],
                            repeat=2, warmup=0, quick=True)
        doc = suite_to_json(results, quick=True, created_utc="2026-01-01T00:00:00Z")
        assert doc["format"] == BENCH_FORMAT
        assert doc["kind"] == "bench-suite"
        assert doc["mode"] == "quick"
        # The environment fingerprint carries the run-identity keys.
        assert {"git_sha", "python", "cpu_count", "cache_format",
                "repro_version"} <= set(doc["env"])
        assert [c["name"] for c in doc["cases"]] == ["a", "b"]
        assert {"median", "p10", "p90", "best", "all"} <= set(
            doc["cases"][0]["wall_s"]
        )
        path = tmp_path / "BENCH_test.json"
        write_bench_json(path, doc)
        assert load_bench_json(path) == json.loads(path.read_text())

    def test_load_rejects_wrong_kind_and_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ValueError, match="not a bench suite"):
            load_bench_json(path)
        path.write_text(json.dumps({"kind": "bench-suite", "format": 99}))
        with pytest.raises(ValueError, match="unsupported bench format"):
            load_bench_json(path)

    def test_default_filename_shape(self):
        import time

        name = default_bench_filename(time.gmtime(0))
        assert name == "BENCH_19700101T000000Z.json"

    def test_summary_table_mentions_cases(self):
        results = run_suite([_case("tab-case")], repeat=1, warmup=0)
        table = summary_table(results)
        assert "tab-case" in table and "median ms" in table

    def test_progress_lines(self):
        lines = []
        run_suite([_case("p1"), _case("p2")], repeat=1, warmup=0,
                  progress=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("[1/2] p1:")


class TestRealCase:
    def test_quick_taxonomy_case_end_to_end(self):
        result = run_case(get_case("taxonomy-classify"), repeat=2, warmup=0,
                          quick=True)
        assert result.metrics["specimens"] > 0
        assert result.metrics["rounds"] == 20  # quick workload selected
        assert result.quick

    def test_scale_cases_run_the_scale_spec(self, monkeypatch):
        from repro.bench import cases

        # The path itself, at a size tier-1 can afford.
        metrics = cases._scale_metrics(300)
        assert metrics["tasks"] == 300
        assert cases.baseline_spec(tasks=300).engine == "calendar"
        # The registered cases only choose the size; neither is quick
        # eligible, so no quick size exists.
        sizes = []
        monkeypatch.setattr(cases, "_scale_metrics", lambda n: sizes.append(n) or {})
        for name in ("sim-scale-1e5", "sim-scale-1e6"):
            assert not get_case(name).quick_eligible
            get_case(name).fn(False)
        assert sizes == [100_000, 1_000_000]
