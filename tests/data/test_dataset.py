"""Tests for the in-memory Dataset container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(5)


@pytest.fixture
def dataset(rng) -> Dataset:
    features = rng.normal(size=(30, 4))
    labels = np.repeat(np.arange(3), 10)
    return Dataset(features=features, labels=labels, num_classes=3, name="demo")


class TestConstruction:
    def test_len_and_dim(self, dataset):
        assert len(dataset) == 30
        assert dataset.dim == 4

    def test_casts_dtypes(self):
        data = Dataset(
            features=np.ones((2, 3), dtype=np.float32),
            labels=np.array([0, 1], dtype=np.int8),
            num_classes=2,
        )
        assert data.features.dtype == np.float64
        assert data.labels.dtype == np.int64

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones(5), labels=np.zeros(5, dtype=int), num_classes=2)

    def test_rejects_2d_labels(self):
        with pytest.raises(ValueError):
            Dataset(
                features=np.ones((5, 2)),
                labels=np.zeros((5, 1), dtype=int),
                num_classes=2,
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((5, 2)), labels=np.zeros(4, dtype=int), num_classes=2)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 2)), labels=np.array([0, 5]), num_classes=3)

    def test_rejects_negative_label(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 2)), labels=np.array([0, -1]), num_classes=3)

    def test_rejects_nonpositive_num_classes(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 2)), labels=np.zeros(2, dtype=int), num_classes=0)


class TestSubset:
    def test_subset_selects_rows(self, dataset):
        subset = dataset.subset(np.array([0, 10, 20]))
        assert len(subset) == 3
        np.testing.assert_array_equal(subset.labels, [0, 1, 2])

    def test_subset_preserves_num_classes(self, dataset):
        subset = dataset.subset(np.array([0]))
        assert subset.num_classes == 3

    def test_subset_preserves_name(self, dataset):
        assert dataset.subset(np.array([0])).name == "demo"

    def test_subset_with_repeated_indices(self, dataset):
        subset = dataset.subset(np.array([1, 1, 1]))
        assert len(subset) == 3
        assert np.all(subset.labels == dataset.labels[1])


class TestSampleBatch:
    def test_batch_size(self, dataset, rng):
        batch = dataset.sample_batch(8, rng)
        assert len(batch) == 8
        assert batch.dim == dataset.dim

    def test_samples_with_replacement(self, rng):
        tiny = Dataset(features=np.ones((2, 2)), labels=np.array([0, 1]), num_classes=2)
        batch = tiny.sample_batch(10, rng)
        assert len(batch) == 10  # larger than the dataset: replacement required

    def test_rejects_nonpositive_batch(self, dataset, rng):
        with pytest.raises(ValueError):
            dataset.sample_batch(0, rng)

    def test_deterministic_given_generator_state(self, dataset):
        a = dataset.sample_batch(5, np.random.default_rng(1))
        b = dataset.sample_batch(5, np.random.default_rng(1))
        np.testing.assert_array_equal(a.features, b.features)


class TestLabelFlipping:
    def test_flip_formula(self, dataset):
        flipped = dataset.with_flipped_labels()
        np.testing.assert_array_equal(flipped.labels, 2 - dataset.labels)

    def test_flip_is_involution(self, dataset):
        twice = dataset.with_flipped_labels().with_flipped_labels()
        np.testing.assert_array_equal(twice.labels, dataset.labels)

    def test_flip_preserves_features(self, dataset):
        flipped = dataset.with_flipped_labels()
        np.testing.assert_array_equal(flipped.features, dataset.features)

    def test_flip_shares_features_read_only(self, dataset):
        flipped = dataset.with_flipped_labels()
        assert np.shares_memory(flipped.features, dataset.features)
        with pytest.raises(ValueError, match="read-only"):
            flipped.features[0, 0] = 123.0
        assert dataset.features.flags.writeable

    def test_middle_class_is_fixed_point_for_odd_classes(self):
        data = Dataset(features=np.ones((3, 2)), labels=np.array([0, 1, 2]), num_classes=3)
        flipped = data.with_flipped_labels()
        assert flipped.labels[1] == 1


class TestClassCounts:
    def test_balanced_counts(self, dataset):
        np.testing.assert_array_equal(dataset.class_counts(), [10, 10, 10])

    def test_counts_include_absent_classes(self):
        data = Dataset(features=np.ones((2, 2)), labels=np.array([0, 0]), num_classes=4)
        np.testing.assert_array_equal(data.class_counts(), [2, 0, 0, 0])

    def test_counts_sum_to_length(self, dataset):
        assert dataset.class_counts().sum() == len(dataset)
