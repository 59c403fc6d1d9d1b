"""Unit tests for arrival processes and synthetic workloads."""

from dataclasses import replace

import numpy as np
import pytest

from repro.grid.virtualizer import BitstreamRepository
from repro.hardware.catalog import device_by_model
from repro.hardware.taxonomy import PEClass
from repro.sim.workload import (
    ConfigurationPool,
    DeterministicArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    SyntheticWorkload,
    UniformArrivals,
    WorkloadSpec,
)


class TestArrivalProcesses:
    def test_poisson_mean_matches_rate(self):
        rng = np.random.default_rng(0)
        process = PoissonArrivals(rate_per_s=4.0)
        gaps = [process.interarrival(rng) for _ in range(20_000)]
        assert np.mean(gaps) == pytest.approx(0.25, rel=0.05)

    def test_uniform_bounds(self):
        rng = np.random.default_rng(0)
        process = UniformArrivals(0.5, 1.5)
        gaps = [process.interarrival(rng) for _ in range(1_000)]
        assert all(0.5 <= g <= 1.5 for g in gaps)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        process = DeterministicArrivals(2.0)
        assert [process.interarrival(rng) for _ in range(3)] == [2.0, 2.0, 2.0]

    def test_arrival_times_cumulative_and_sorted(self):
        rng = np.random.default_rng(1)
        times = PoissonArrivals(1.0).arrival_times(100, rng)
        assert len(times) == 100
        assert (np.diff(times) >= 0).all()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PoissonArrivals(0),
            lambda: PoissonArrivals(float("nan")),
            lambda: PoissonArrivals(float("inf")),
            lambda: UniformArrivals(-1, 2),
            lambda: UniformArrivals(3, 2),
            lambda: UniformArrivals(0.5, float("inf")),
            lambda: DeterministicArrivals(-1),
            lambda: DeterministicArrivals(float("nan")),
        ],
    )
    def test_validation(self, factory):
        with pytest.raises(ValueError):
            factory()


class TestFlashCrowdArrivals:
    def make(self, **kw):
        params = dict(
            surge_start_s=5.0, surge_duration_s=10.0, surge_multiplier=6.0
        )
        params.update(kw)
        return FlashCrowdArrivals(2.0, **params)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"surge_start_s": -1.0},
            {"surge_duration_s": 0.0},
            {"surge_multiplier": 0.0},
            {"surge_start_s": float("nan")},
            {"surge_multiplier": float("inf")},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            self.make(**overrides)
        with pytest.raises(ValueError):
            FlashCrowdArrivals(
                0.0, surge_start_s=1.0, surge_duration_s=1.0, surge_multiplier=2.0
            )

    def test_rate_profile_is_piecewise_constant(self):
        process = self.make()
        assert process.rate_at(0.0) == 2.0
        assert process.rate_at(5.0) == 12.0  # surge window is half-open
        assert process.rate_at(14.999) == 12.0
        assert process.rate_at(15.0) == 2.0

    def test_surge_window_is_denser(self):
        times = self.make().arrival_times(600, np.random.default_rng(0))
        in_surge = np.count_nonzero((times >= 5.0) & (times < 15.0))
        before = np.count_nonzero(times < 5.0)
        # 10 s at 12/s vs 5 s at 2/s: expect ~120 vs ~10 arrivals.
        assert in_surge > 8 * before

    def test_arrival_times_non_decreasing(self):
        times = self.make().arrival_times(300, np.random.default_rng(3))
        assert (np.diff(times) >= 0).all()

    def test_vectorized_batch_matches_scalar_draws(self):
        """Stream identity for the stateful process: fresh instances,
        same seed, batched vs scalar must agree to the last bit."""
        vec = self.make().arrival_times(200, np.random.default_rng(9))
        scalar_process = self.make()
        rng = np.random.default_rng(9)
        ref = np.cumsum([scalar_process.interarrival(rng) for _ in range(200)])
        np.testing.assert_array_equal(vec, np.asarray(ref))

    def test_unit_multiplier_matches_plain_poisson(self):
        """A x1 surge is exactly a homogeneous Poisson process."""
        flash = FlashCrowdArrivals(
            3.0, surge_start_s=2.0, surge_duration_s=4.0, surge_multiplier=1.0
        )
        plain = PoissonArrivals(3.0)
        a = flash.arrival_times(500, np.random.default_rng(11))
        b = plain.arrival_times(500, np.random.default_rng(11))
        np.testing.assert_allclose(a, b)


class TestWorkloadPriorityAndTenants:
    def make(self, **spec_overrides):
        params = dict(task_count=200, gpp_fraction=0.4)
        params.update(spec_overrides)
        return SyntheticWorkload(
            WorkloadSpec(**params),
            ConfigurationPool(4, seed=2),
            PoissonArrivals(3.0),
            seed=77,
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(task_count=5, low_priority_fraction=1.5)
        with pytest.raises(ValueError):
            WorkloadSpec(task_count=5, tenants=0)

    def test_low_priority_fraction_tags_tasks(self):
        wl = self.make(low_priority_fraction=0.5)
        priorities = [task.priority for _, task in wl.generate()]
        low = sum(1 for p in priorities if p < 0)
        assert set(priorities) == {-1, 0}
        assert 0.3 < low / len(priorities) < 0.7

    def test_default_stream_is_untagged_and_unperturbed(self):
        """priority/tenant default off must not consume RNG draws: the
        task stream is identical with and without the feature present."""
        plain = [(t, task) for t, task in self.make().generate()]
        tagged = [(t, task) for t, task in self.make(tenants=3).generate()]
        assert all(task.priority == 0 and task.tenant == "" for _, task in plain)
        for (t0, a), (t1, b) in zip(plain, tagged):
            assert t0 == t1
            assert a.task_id == b.task_id
            assert a.t_estimated == b.t_estimated

    def test_tenants_round_robin(self):
        wl = self.make(tenants=3)
        tenants = [task.tenant for _, task in wl.generate()]
        assert set(tenants) == {"tenant0", "tenant1", "tenant2"}
        assert tenants[0] != tenants[1] != tenants[2]


class TestConfigurationPool:
    def test_deterministic_under_seed(self):
        a = ConfigurationPool(8, seed=3)
        b = ConfigurationPool(8, seed=3)
        assert [(e.function, e.required_slices) for e in a.entries] == [
            (e.function, e.required_slices) for e in b.entries
        ]

    def test_area_range_respected(self):
        pool = ConfigurationPool(50, area_range=(1_000, 2_000), seed=0)
        assert all(1_000 <= e.required_slices <= 2_000 for e in pool.entries)

    def test_populate_repository_skips_oversized(self):
        pool = ConfigurationPool(10, area_range=(5_000, 40_000), seed=2)
        repo = BitstreamRepository()
        small = device_by_model("XC5VLX50")  # 7,200 slices
        stored = pool.populate_repository(repo, [small])
        fitting = sum(1 for e in pool.entries if e.required_slices <= small.slices)
        assert stored == fitting == len(repo)

    def test_populate_repository_builds_each_device_once(self):
        """A device listed once per RPE is built once, and every
        (function, model) key keeps the last writer's bitstream."""
        pool = ConfigurationPool(10, area_range=(5_000, 40_000), seed=2)
        small = device_by_model("XC5VLX50")
        large = device_by_model("XC5VLX330")
        repeated, once = BitstreamRepository(), BitstreamRepository()
        stored = pool.populate_repository(repeated, [small, large, small, large, large])
        assert stored == pool.populate_repository(once, [small, large]) == len(once)
        assert len(repeated) == len(once)
        for entry in pool.entries:
            for device in (small, large):
                a = repeated.get(entry.function, device.model)
                b = once.get(entry.function, device.model)
                assert (a is None) == (b is None)
                if a is not None:
                    assert replace(a, bitstream_id=0) == replace(b, bitstream_id=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfigurationPool(0)
        with pytest.raises(ValueError):
            ConfigurationPool(3, area_range=(0, 10))
        with pytest.raises(ValueError):
            ConfigurationPool(3, speedup_range=(5.0, 1.0))


class TestSyntheticWorkload:
    def make(self, **spec_overrides):
        spec_params = dict(task_count=200, gpp_fraction=0.5)
        spec_params.update(spec_overrides)
        return SyntheticWorkload(
            WorkloadSpec(**spec_params),
            ConfigurationPool(5, seed=1),
            PoissonArrivals(2.0),
            seed=42,
        )

    def test_deterministic_under_seed(self):
        s1 = self.make().generate()
        s2 = self.make().generate()
        assert [(t, task.task_id, task.function) for t, task in s1] == [
            (t, task.task_id, task.function) for t, task in s2
        ]

    def test_task_count_and_unique_ids(self):
        stream = self.make().generate()
        assert len(stream) == 200
        ids = [task.task_id for _, task in stream]
        assert len(set(ids)) == 200

    def test_pe_mix_follows_fraction(self):
        stream = self.make(task_count=2_000).generate()
        gpp = sum(1 for _, t in stream if t.exec_req.node_type is PEClass.GPP)
        assert gpp / 2_000 == pytest.approx(0.5, abs=0.05)

    def test_all_gpp_extreme(self):
        stream = self.make(gpp_fraction=1.0).generate()
        assert all(t.exec_req.node_type is PEClass.GPP for _, t in stream)

    def test_hw_tasks_reference_pool_functions(self):
        stream = self.make(gpp_fraction=0.0).generate()
        pool_functions = {e.function for e in self.make().pool.entries}
        assert all(t.function in pool_functions for _, t in stream)

    def test_hw_task_estimates_reflect_speedup(self):
        wl = self.make(gpp_fraction=0.0)
        entries = {e.function: e for e in wl.pool.entries}
        for _, task in wl.generate():
            entry = entries[task.function]
            ref_time = task.effective_workload_mi / wl.spec.reference_mips
            assert task.t_estimated == pytest.approx(ref_time / entry.speedup_vs_gpp)

    def test_arrival_times_non_decreasing(self):
        times = [t for t, _ in self.make().generate()]
        assert times == sorted(times)


class TestVectorizedStreamIdentity:
    """The vectorization lock: every numpy-batched draw must be
    element-identical to the scalar loop it replaced, for the same
    seed.  numpy's Generator guarantees ``dist(size=n)`` consumes the
    bit stream exactly like n scalar ``dist()`` calls; these tests pin
    that contract so a numpy upgrade (or a careless refactor) cannot
    silently change seeded workloads."""

    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(rate_per_s=3.0),
            UniformArrivals(0.25, 1.75),
            DeterministicArrivals(0.5),
        ],
        ids=["poisson", "uniform", "deterministic"],
    )
    @pytest.mark.parametrize("n", [0, 1, 7, 1_000])
    def test_vectorized_arrival_times_match_scalar_reference(self, process, n):
        from repro.sim.workload import ArrivalProcess

        vec = process.arrival_times(n, np.random.default_rng(9))
        # The ABC base implementation is the scalar reference: a
        # python loop over interarrival() with a running sum.
        ref = ArrivalProcess.arrival_times(process, n, np.random.default_rng(9))
        assert vec.shape == ref.shape == (n,)
        np.testing.assert_array_equal(vec, ref)

    def make(self, **spec_overrides):
        spec_params = dict(task_count=500, gpp_fraction=0.3)
        spec_params.update(spec_overrides)
        return SyntheticWorkload(
            WorkloadSpec(**spec_params),
            ConfigurationPool(6, seed=4),
            PoissonArrivals(2.0),
            seed=1234,
            first_task_id=100,
        )

    def test_generate_columns_matches_scalar_reference(self):
        fast = self.make().generate_columns()
        slow = self.make().generate_columns_scalar()
        np.testing.assert_array_equal(fast.times, slow.times)
        np.testing.assert_array_equal(fast.ref_times, slow.ref_times)
        np.testing.assert_array_equal(fast.data_bytes, slow.data_bytes)
        np.testing.assert_array_equal(fast.is_gpp, slow.is_gpp)
        np.testing.assert_array_equal(fast.pool_idx, slow.pool_idx)

    @pytest.mark.parametrize("gpp_fraction", [0.0, 0.3, 1.0])
    def test_column_identity_across_class_mixes(self, gpp_fraction):
        wl = self.make(gpp_fraction=gpp_fraction, task_count=200)
        fast, slow = wl.generate_columns(), wl.generate_columns_scalar()
        np.testing.assert_array_equal(fast.is_gpp, slow.is_gpp)
        np.testing.assert_array_equal(fast.pool_idx, slow.pool_idx)

    def test_materialized_columns_build_generate_shaped_tasks(self):
        wl = self.make(task_count=50)
        columns = wl.generate_columns()
        stream = columns.materialize()
        assert len(stream) == len(columns) == 50
        for i, (t, task) in enumerate(stream):
            assert t == float(columns.times[i])
            assert task.task_id == 100 + i
            if columns.is_gpp[i]:
                assert task.exec_req.node_type is PEClass.GPP
                assert columns.pool_idx[i] == -1
                assert task.t_estimated == pytest.approx(float(columns.ref_times[i]))
            else:
                entry = wl.pool.entries[int(columns.pool_idx[i])]
                assert task.exec_req.node_type is PEClass.RPE
                assert task.function == entry.function
                assert task.t_estimated == pytest.approx(
                    float(columns.ref_times[i]) / entry.speedup_vs_gpp
                )
            assert task.workload_mi == pytest.approx(
                float(columns.ref_times[i]) * wl.spec.reference_mips
            )

    def test_pool_indices_cover_only_hardware_tasks(self):
        columns = self.make().generate_columns()
        assert (columns.pool_idx[columns.is_gpp] == -1).all()
        hw = columns.pool_idx[~columns.is_gpp]
        assert (hw >= 0).all() and (hw < len(columns.pool.entries)).all()

    def test_columns_deterministic_under_seed(self):
        a, b = self.make().generate_columns(), self.make().generate_columns()
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.pool_idx, b.pool_idx)
