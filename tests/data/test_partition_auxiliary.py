"""Tests for worker partitioning (Algorithm 4) and server auxiliary data."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.data.auxiliary import sample_auxiliary, sample_mismatched_auxiliary
from repro.data.partition import partition_iid, partition_noniid
from repro.data.synthetic import make_classification


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(17)


@pytest.fixture
def dataset(rng):
    return make_classification(600, 8, 5, rng=rng, name="source")


def twin_datasets() -> list:
    """Two copies of the ``dataset`` fixture's data, built from its seed.

    A partition regroups its dataset in place and freezes it, so a test
    that partitions twice needs two datasets.
    """
    return [make_classification(600, 8, 5, rng=17, name="source") for _ in range(2)]


class TestIidPartition:
    def test_number_of_shards(self, dataset, rng):
        shards = partition_iid(dataset, 10, rng)
        assert len(shards) == 10

    def test_sizes_balanced(self, dataset, rng):
        shards = partition_iid(dataset, 7, rng)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(dataset)

    def test_label_distribution_approximately_uniform(self, dataset, rng):
        shards = partition_iid(dataset, 5, rng)
        for shard in shards:
            fractions = shard.class_counts() / len(shard)
            # each class is ~20%; i.i.d. shards stay within a loose band
            assert np.all(fractions > 0.08) and np.all(fractions < 0.35)

    def test_accepts_integer_seed(self, dataset):
        shards = partition_iid(dataset, 4, rng=0)
        assert len(shards) == 4

    def test_reproducible(self):
        first, second = twin_datasets()
        a = partition_iid(first, 6, rng=9)
        b = partition_iid(second, 6, rng=9)
        for shard_a, shard_b in zip(a, b):
            np.testing.assert_array_equal(shard_a.labels, shard_b.labels)
            np.testing.assert_array_equal(shard_a.features, shard_b.features)

    def test_rejects_nonpositive_workers(self, dataset, rng):
        with pytest.raises(ValueError):
            partition_iid(dataset, 0, rng)

    def test_rejects_more_workers_than_examples(self, rng):
        tiny = make_classification(10, 4, 2, rng=rng)
        with pytest.raises(ValueError):
            partition_iid(tiny, 11, rng)

    def test_shards_cover_all_examples_exactly_once(self, dataset, rng):
        shards = partition_iid(dataset, 8, rng)
        combined = np.sort(np.concatenate([shard.features[:, 0] for shard in shards]))
        np.testing.assert_allclose(combined, np.sort(dataset.features[:, 0]))


class TestNonIidPartition:
    def test_number_of_shards_and_coverage(self, dataset, rng):
        shards = partition_noniid(dataset, 10, rng)
        assert len(shards) == 10
        assert sum(len(shard) for shard in shards) == len(dataset)

    def test_no_empty_shard(self, dataset, rng):
        shards = partition_noniid(dataset, 12, rng)
        assert all(len(shard) > 0 for shard in shards)

    def test_label_distributions_are_skewed(self, dataset, rng):
        """Figure 5: per-worker class fractions differ visibly across workers."""
        shards = partition_noniid(dataset, 10, rng)
        fractions = np.array(
            [shard.class_counts() / len(shard) for shard in shards]
        )
        spread = fractions.max(axis=0) - fractions.min(axis=0)
        # at least one class whose share varies by more than 15 percentage points
        assert spread.max() > 0.15

    def test_more_skewed_than_iid(self):
        iid_source, noniid_source = twin_datasets()
        iid_shards = partition_iid(iid_source, 10, np.random.default_rng(1))
        noniid_shards = partition_noniid(noniid_source, 10, np.random.default_rng(1))

        def skew(shards):
            fractions = np.array([s.class_counts() / len(s) for s in shards])
            return float(fractions.std(axis=0).mean())

        assert skew(noniid_shards) > skew(iid_shards)

    def test_reproducible(self):
        first, second = twin_datasets()
        a = partition_noniid(first, 6, rng=2)
        b = partition_noniid(second, 6, rng=2)
        for shard_a, shard_b in zip(a, b):
            np.testing.assert_array_equal(shard_a.labels, shard_b.labels)
            np.testing.assert_array_equal(shard_a.features, shard_b.features)

    def test_rejects_nonpositive_workers(self, dataset, rng):
        with pytest.raises(ValueError):
            partition_noniid(dataset, -1, rng)

    def test_rejects_more_workers_than_examples(self, rng):
        tiny = make_classification(10, 4, 2, rng=rng)
        with pytest.raises(ValueError):
            partition_noniid(tiny, 20, rng)


@pytest.mark.parametrize("partition", [partition_iid, partition_noniid])
class TestShardsShareTheBuffer:
    """A partition moves the rows in place and hands out views of them."""

    def test_shards_are_disjoint_views_covering_every_row(self, dataset, partition):
        rows_before = np.column_stack([dataset.features, dataset.labels])
        shards = partition(dataset, 7, rng=3)
        for shard in shards:
            assert np.shares_memory(shard.features, dataset.features)
            assert np.shares_memory(shard.labels, dataset.labels)
            assert shard.features.flags.writeable and shard.labels.flags.writeable
        for a, b in itertools.combinations(shards, 2):
            assert not np.shares_memory(a.features, b.features)
            assert not np.shares_memory(a.labels, b.labels)
        rows_after = np.concatenate(
            [np.column_stack([shard.features, shard.labels]) for shard in shards]
        )
        # every row exactly once: the sorted rows match one for one
        np.testing.assert_array_equal(
            rows_after[np.lexsort(rows_after.T)], rows_before[np.lexsort(rows_before.T)]
        )

    def test_second_partition_raises_and_leaves_the_shards(self, dataset, partition):
        shards = partition(dataset, 7, rng=3)
        before = [shard.features.copy() for shard in shards]
        for again in (partition_iid, partition_noniid):
            with pytest.raises(ValueError, match="read-only"):
                again(dataset, 7, rng=4)
        for shard, features in zip(shards, before):
            np.testing.assert_array_equal(shard.features, features)


class TestAuxiliary:
    def test_two_per_class_default(self, dataset, rng):
        auxiliary = sample_auxiliary(dataset, per_class=2, rng=rng)
        assert len(auxiliary) == 2 * dataset.num_classes
        np.testing.assert_array_equal(auxiliary.class_counts(), 2)

    def test_custom_per_class(self, dataset, rng):
        auxiliary = sample_auxiliary(dataset, per_class=5, rng=rng)
        np.testing.assert_array_equal(auxiliary.class_counts(), 5)

    def test_samples_come_from_source(self, dataset, rng):
        auxiliary = sample_auxiliary(dataset, per_class=2, rng=rng)
        source_rows = {tuple(row) for row in dataset.features}
        for row in auxiliary.features:
            assert tuple(row) in source_rows

    def test_name_suffix(self, dataset, rng):
        assert sample_auxiliary(dataset, rng=rng).name.endswith("_aux")

    def test_rejects_nonpositive_per_class(self, dataset, rng):
        with pytest.raises(ValueError):
            sample_auxiliary(dataset, per_class=0, rng=rng)

    def test_rejects_when_class_underrepresented(self, rng):
        small = make_classification(10, 4, 5, rng=rng)  # 2 examples per class
        with pytest.raises(ValueError):
            sample_auxiliary(small, per_class=3, rng=rng)

    def test_reproducible(self, dataset):
        a = sample_auxiliary(dataset, rng=1)
        b = sample_auxiliary(dataset, rng=1)
        np.testing.assert_array_equal(a.features, b.features)

    def test_mismatched_auxiliary_shape(self, dataset, rng):
        auxiliary = sample_mismatched_auxiliary(dataset, per_class=2, rng=rng)
        assert len(auxiliary) == 2 * dataset.num_classes
        assert auxiliary.dim == dataset.dim

    def test_mismatched_auxiliary_not_from_source(self, dataset, rng):
        auxiliary = sample_mismatched_auxiliary(dataset, per_class=2, rng=rng)
        source_rows = {tuple(row) for row in dataset.features}
        overlap = sum(tuple(row) in source_rows for row in auxiliary.features)
        assert overlap == 0
