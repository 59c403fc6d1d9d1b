"""Tests for the parallel experiment runner and its result cache."""

import json
from dataclasses import asdict

import pytest

from repro.sim.experiment import ExperimentSpec, replicate, run_experiment, sweep
from repro.sim.runner import ExperimentRunner, parallel_map, spec_cache_key

BASE = ExperimentSpec(tasks=40, configurations=4, seed=9)
STRATEGIES = ["fcfs", "first-fit", "hybrid-cost", "best-fit-area"]


def report_bytes(result) -> bytes:
    """Canonical byte serialization of a report, for exact comparison."""
    return json.dumps(asdict(result.report), sort_keys=True).encode("ascii")


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"worker failure on {x}")


class TestParallelMap:
    def test_order_preserved(self):
        assert parallel_map(_square, range(10), jobs=2) == [x * x for x in range(10)]

    def test_serial_fallback_with_one_job(self):
        assert parallel_map(_square, [3, 4], jobs=1) == [9, 16]

    def test_worker_exception_surfaces(self):
        with pytest.raises(ValueError, match="worker failure"):
            parallel_map(_boom, [1, 2, 3], jobs=2)

    def test_worker_exception_surfaces_serially(self):
        with pytest.raises(ValueError, match="worker failure"):
            parallel_map(_boom, [1], jobs=1)

    def test_empty_batch(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1], jobs=0)


class TestParallelMatchesSerial:
    def test_strategy_sweep_byte_identical(self):
        specs = [BASE.with_(strategy=s) for s in STRATEGIES]
        serial = ExperimentRunner(jobs=1).run(specs)
        wide = ExperimentRunner(jobs=4).run(specs)
        assert [report_bytes(r) for r in serial] == [report_bytes(r) for r in wide]
        # And both match the plain serial experiment API.
        for spec, result in zip(specs, serial):
            assert report_bytes(result) == report_bytes(run_experiment(spec))

    def test_seed_replication_byte_identical(self):
        seeds = [1, 2, 3, 4]
        specs = [BASE.with_(seed=s) for s in seeds]
        serial = ExperimentRunner(jobs=1).run(specs)
        wide = ExperimentRunner(jobs=4).run(specs)
        assert [report_bytes(r) for r in serial] == [report_bytes(r) for r in wide]

    def test_parallel_sweep_matches_sweep(self):
        serial = sweep(BASE, "strategy", STRATEGIES)
        wide = ExperimentRunner(jobs=2).sweep(BASE, "strategy", STRATEGIES)
        assert [report_bytes(r) for r in serial] == [report_bytes(r) for r in wide]

    def test_parallel_replicate_matches_replicate(self):
        seeds = [5, 6, 7]
        assert ExperimentRunner(jobs=2).replicate(BASE, seeds) == replicate(BASE, seeds)

    def test_results_in_submission_order(self):
        specs = [BASE.with_(seed=s) for s in (30, 10, 20)]
        results = ExperimentRunner(jobs=3).run(specs)
        assert [r.spec.seed for r in results] == [30, 10, 20]


class TestCache:
    def test_cache_hit_skips_execution(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        specs = [BASE.with_(strategy=s) for s in STRATEGIES]
        first = runner.run(specs)
        assert runner.last_stats.executed == len(specs)
        assert runner.last_stats.cache_hits == 0

        again = runner.run(specs)
        assert runner.last_stats.executed == 0
        assert runner.last_stats.cache_hits == len(specs)
        assert [report_bytes(r) for r in first] == [report_bytes(r) for r in again]

    def test_cached_results_identical_across_runners(self, tmp_path):
        fresh = ExperimentRunner(jobs=1).run([BASE])[0]
        ExperimentRunner(jobs=1, cache_dir=tmp_path).run([BASE])
        cached = ExperimentRunner(jobs=1, cache_dir=tmp_path).run([BASE])[0]
        assert report_bytes(fresh) == report_bytes(cached)
        assert cached.spec == BASE

    def test_partial_cache_mixes_hits_and_misses(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        runner.run([BASE.with_(strategy="fcfs")])
        results = runner.run(
            [BASE.with_(strategy="fcfs"), BASE.with_(strategy="hybrid-cost")]
        )
        assert runner.last_stats.cache_hits == 1
        assert runner.last_stats.executed == 1
        assert [r.spec.strategy for r in results] == ["fcfs", "hybrid-cost"]

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        runner.run([BASE])
        key = spec_cache_key(BASE)
        (tmp_path / f"{key}.json").write_text("not json{", encoding="ascii")
        results = runner.run([BASE])
        assert runner.last_stats.executed == 1
        assert report_bytes(results[0]) == report_bytes(run_experiment(BASE))

    def test_energy_flag_partitions_the_cache(self, tmp_path):
        plain = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        audited = ExperimentRunner(jobs=1, cache_dir=tmp_path, audit_energy=True)
        plain.run([BASE])
        results = audited.run([BASE])
        assert audited.last_stats.executed == 1  # not served the plain entry
        assert results[0].energy is not None
        # Audited entries round-trip with their energy report.
        again = audited.run([BASE])
        assert audited.last_stats.cache_hits == 1
        assert again[0].energy == results[0].energy


class TestSpecCacheKey:
    def test_equal_specs_equal_keys(self):
        assert spec_cache_key(BASE) == spec_cache_key(BASE.with_())

    def test_any_knob_changes_the_key(self):
        assert spec_cache_key(BASE) != spec_cache_key(BASE.with_(seed=10))
        assert spec_cache_key(BASE) != spec_cache_key(BASE.with_(strategy="fcfs"))
        assert spec_cache_key(BASE) != spec_cache_key(BASE, audit_energy=True)


class TestRunnerConfig:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)

    def test_stats_describe_last_batch(self):
        runner = ExperimentRunner(jobs=2)
        runner.run([BASE.with_(seed=s) for s in (1, 2)])
        stats = runner.last_stats
        assert stats.requested == 2
        assert stats.executed == 2
        assert stats.mode == "parallel"
        assert stats.wall_time_s > 0
        assert "2 executed" in stats.summary_line()
