"""Unit tests of the cohort-sampler axis and the lazy worker source.

The load-bearing property: a round's participation plan (and every
worker's data/noise stream) is a pure function of stable identifiers --
``(seed, round_index)`` for plans, ``(seed, worker_id[, round_index])``
for workers -- never of execution order.  That is what makes subsampling
traces replay bit-identically across backends and restarts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.data.synthetic import make_classification
from repro.federated.sampling import (
    SAMPLERS,
    CohortSampler,
    FixedSampler,
    UniformSampler,
    WeightedSampler,
    WorkerSource,
    build_sampler,
    derive_rng,
)
from repro.federated.worker import WorkerPool
from repro.nn.layers import Linear
from repro.nn.network import Sequential


class TestDeriveRng:
    def test_equal_keys_equal_streams(self):
        a = derive_rng(7, "sampler", 3).standard_normal(8)
        b = derive_rng(7, "sampler", 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_counters_distinct_streams(self):
        a = derive_rng(7, "sampler", 3).standard_normal(8)
        b = derive_rng(7, "sampler", 4).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_distinct_components_distinct_streams(self):
        a = derive_rng(7, "worker", 3).standard_normal(8)
        b = derive_rng(7, "sampler", 3).standard_normal(8)
        assert not np.array_equal(a, b)


class TestUniformSampler:
    def test_plan_is_valid_cohort(self):
        plan = UniformSampler(seed=11).draw(0, population=1000, cohort=64)
        assert plan.shape == (64,)
        assert plan.dtype == np.int64
        assert np.all(np.diff(plan) > 0)  # sorted, unique
        assert plan[0] >= 0 and plan[-1] < 1000

    def test_plan_depends_only_on_seed_and_round(self):
        # A fresh instance, and an instance that has already drawn other
        # rounds in a different order, agree on every round's plan.
        fresh = UniformSampler(seed=5)
        scrambled = UniformSampler(seed=5)
        for round_index in (9, 2, 4):
            scrambled.draw(round_index, 500, 20)
        for round_index in range(6):
            np.testing.assert_array_equal(
                fresh.draw(round_index, 500, 20),
                UniformSampler(seed=5).draw(round_index, 500, 20),
            )
            np.testing.assert_array_equal(
                fresh.draw(round_index, 500, 20),
                scrambled.draw(round_index, 500, 20),
            )

    def test_rounds_differ(self):
        sampler = UniformSampler(seed=3)
        assert not np.array_equal(
            sampler.draw(0, 10_000, 64), sampler.draw(1, 10_000, 64)
        )

    def test_full_population_cohort(self):
        plan = UniformSampler(seed=1).draw(0, population=16, cohort=16)
        np.testing.assert_array_equal(plan, np.arange(16))

    def test_draw_cost_independent_of_population(self):
        # Floyd's algorithm touches `cohort` candidates; a huge registered
        # population must not allocate population-sized scratch.
        plan = UniformSampler(seed=2).draw(0, population=10**9, cohort=32)
        assert plan.shape == (32,)
        assert np.all(np.diff(plan) > 0)

    @pytest.mark.parametrize("population, cohort", [(0, 1), (10, 0), (10, 11)])
    def test_invalid_sizes_rejected(self, population, cohort):
        with pytest.raises(ValueError):
            UniformSampler().draw(0, population, cohort)


class TestFixedAndWeighted:
    def test_fixed_is_prefix(self):
        plan = FixedSampler().draw(5, population=100, cohort=7)
        np.testing.assert_array_equal(plan, np.arange(7))

    def test_weighted_explicit_weights_bias(self):
        # Workers 90..99 carry all the weight: every draw stays in there.
        weights = np.zeros(100)
        weights[90:] = 1.0
        sampler = WeightedSampler(seed=4, weights=weights)
        for round_index in range(5):
            plan = sampler.draw(round_index, 100, 5)
            assert plan.min() >= 90

    def test_weighted_exponent_skews_high_ids(self):
        skewed = WeightedSampler(seed=6, exponent=4.0)
        counts = np.zeros(50)
        for round_index in range(40):
            counts[skewed.draw(round_index, 50, 10)] += 1
        assert counts[40:].sum() > counts[:10].sum()

    def test_weighted_wrong_length_rejected(self):
        sampler = WeightedSampler(seed=0, weights=np.ones(8))
        with pytest.raises(ValueError):
            sampler.draw(0, population=10, cohort=2)


class TestRegistryAndState:
    def test_builtins_registered(self):
        names = SAMPLERS.names()
        for name in ("uniform", "fixed", "weighted"):
            assert name in names

    def test_build_sampler_injects_default_seed(self):
        sampler = build_sampler("uniform", default_seed=42)
        assert sampler.seed == 42
        explicit = build_sampler("uniform", default_seed=42, seed=7)
        assert explicit.seed == 7

    def test_base_plan_abstract(self):
        with pytest.raises(NotImplementedError):
            CohortSampler().draw(0, 10, 2)

    def test_custom_sampler_via_public_registry(self):
        @SAMPLERS.register("every_other_test", summary="even worker ids")
        class EveryOther(CohortSampler):
            def _plan(self, round_index, population, cohort):
                return np.arange(cohort, dtype=np.int64) * 2

        try:
            plan = build_sampler("every_other_test").draw(0, 100, 5)
            np.testing.assert_array_equal(plan, [0, 2, 4, 6, 8])
        finally:
            SAMPLERS.unregister("every_other_test")


@pytest.fixture(scope="module")
def base_dataset():
    return make_classification(
        n_samples=60,
        n_features=8,
        n_classes=3,
        rng=np.random.default_rng(0),
        name="sampling-base",
    )


class TestWorkerSource:
    def test_len_and_dim(self, base_dataset):
        source = WorkerSource(base_dataset, population=10**6, local_size=20, seed=1)
        assert len(source) == 10**6
        assert source.dim == base_dataset.dim

    def test_dataset_pure_function_of_worker_id(self, base_dataset):
        source = WorkerSource(base_dataset, population=1000, local_size=20, seed=1)
        first = source.dataset(637)
        # Accessing other workers in between must not perturb worker 637.
        source.dataset(12)
        source.dataset(999)
        again = source.dataset(637)
        np.testing.assert_array_equal(first.features, again.features)
        np.testing.assert_array_equal(first.labels, again.labels)

    def test_distinct_workers_distinct_data(self, base_dataset):
        source = WorkerSource(base_dataset, population=1000, local_size=20, seed=1)
        a, b = source.dataset(3), source.dataset(4)
        assert not np.array_equal(a.features, b.features)

    def test_round_rng_keyed_by_id_and_round(self, base_dataset):
        source = WorkerSource(base_dataset, population=100, local_size=10, seed=2)
        same = source.round_rng(7, 3).standard_normal(4)
        np.testing.assert_array_equal(
            same, source.round_rng(7, 3).standard_normal(4)
        )
        assert not np.array_equal(
            same, source.round_rng(7, 4).standard_normal(4)
        )
        assert not np.array_equal(
            same, source.round_rng(8, 3).standard_normal(4)
        )

    def test_cohort_helpers_match_scalar_calls(self, base_dataset):
        source = WorkerSource(base_dataset, population=50, local_size=10, seed=3)
        ids = np.array([4, 17, 30])
        for dataset, worker_id in zip(source.datasets(ids), ids):
            np.testing.assert_array_equal(
                dataset.features, source.dataset(worker_id).features
            )
        for rng, worker_id in zip(source.round_rngs(ids, 2), ids):
            np.testing.assert_array_equal(
                rng.standard_normal(3),
                source.round_rng(worker_id, 2).standard_normal(3),
            )

    def test_out_of_range_worker_rejected(self, base_dataset):
        source = WorkerSource(base_dataset, population=10, local_size=5, seed=0)
        with pytest.raises(ValueError):
            source.dataset(10)
        with pytest.raises(ValueError):
            source.round_rng(-1, 0)

    def test_oversampling_small_base_replaces(self, base_dataset):
        source = WorkerSource(base_dataset, population=10, local_size=100, seed=0)
        assert len(source.dataset(0)) == 100


class TestIndexView:
    """A sampled worker's dataset is row indices into the base, not a copy."""

    def test_gather_copies_the_materialized_rows(self, base_dataset):
        source = WorkerSource(base_dataset, population=100, local_size=20, seed=4)
        view = source.dataset(42)
        materialized = view.materialize()
        assert len(view) == len(materialized) == 20
        assert view.dim == materialized.dim
        picks = np.random.default_rng(0).integers(0, len(view), size=16)
        features, labels = np.empty((16, view.dim)), np.empty(16, dtype=np.int64)
        expected_features, expected_labels = np.empty_like(features), np.empty_like(labels)
        view.gather(picks, features, labels)
        materialized.gather(picks, expected_features, expected_labels)
        np.testing.assert_array_equal(features, expected_features)
        np.testing.assert_array_equal(labels, expected_labels)
        np.testing.assert_array_equal(features, materialized.features[picks])

    def test_rows_gathered_on_access_are_read_only(self, base_dataset):
        view = WorkerSource(base_dataset, population=10, local_size=5, seed=0).dataset(3)
        np.testing.assert_array_equal(
            view.features, base_dataset.features[view.indices]
        )
        np.testing.assert_array_equal(view.labels, base_dataset.labels[view.indices])
        with pytest.raises(ValueError):
            view.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            view.labels[0] = 0

    def test_pool_on_views_matches_pool_on_copies(self, base_dataset):
        source = WorkerSource(base_dataset, population=30, local_size=12, seed=5)
        ids = np.array([2, 9, 17, 25])
        config = DPConfig(batch_size=4, sigma=0.7, momentum=0.3)
        model = Sequential([Linear(base_dataset.dim, 3, np.random.default_rng(1))])
        views = WorkerPool(source.datasets(ids), config, source.round_rngs(ids, 0))
        copies = WorkerPool(
            [view.materialize() for view in source.datasets(ids)],
            config, source.round_rngs(ids, 0),
        )
        for _ in range(3):
            np.testing.assert_array_equal(
                views.compute_uploads(model), copies.compute_uploads(model)
            )
