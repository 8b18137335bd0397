"""Tests for the synthetic generators and the dataset registry."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import registry
from repro.data.dataset import BLOCK_BYTES, Dataset
from repro.data.registry import DATASETS, available_datasets, load_dataset
from repro.data.synthetic import _row_blocks, make_classification, make_mismatched_space
from repro.nn.layers import Linear
from repro.nn.network import Sequential

#: every registered dataset generated from a spec (the built-ins)
SPEC_DATASETS = sorted(
    name for name in DATASETS.names() if "spec" in DATASETS.metadata(name)
)


def spec_of(name: str) -> registry.DatasetSpec:
    """The generation spec the registry holds for ``name``."""
    return DATASETS.metadata(name)["spec"]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(77)


class TestMakeClassification:
    def test_shapes(self, rng):
        data = make_classification(100, 10, 4, rng=rng)
        assert data.features.shape == (100, 10)
        assert data.labels.shape == (100,)
        assert data.num_classes == 4

    def test_classes_balanced(self, rng):
        data = make_classification(100, 6, 4, rng=rng)
        counts = data.class_counts()
        assert counts.max() - counts.min() <= 1

    def test_features_standardised(self, rng):
        data = make_classification(500, 12, 5, rng=rng)
        np.testing.assert_allclose(data.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(data.features.std(axis=0), 1.0, atol=1e-6)

    def test_reproducible_with_seed(self):
        a = make_classification(50, 5, 3, rng=4)
        b = make_classification(50, 5, 3, rng=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_separable_dataset_is_learnable(self, rng):
        """A linear model trained on well-separated data should beat chance."""
        data = make_classification(
            300, 8, 3, class_separation=5.0, within_class_std=0.5, nonlinear=False, rng=rng
        )
        model = Sequential([Linear(8, 3, rng)])
        for _ in range(80):
            _, gradient = model.mean_gradient(data.features, data.labels)
            model.set_flat_parameters(model.get_flat_parameters() - 0.5 * gradient)
        accuracy = float(np.mean(model.predict(data.features) == data.labels))
        assert accuracy > 0.8

    def test_larger_separation_is_easier(self, rng):
        """Class separation controls difficulty (difficulty ordering is preserved)."""

        def trained_accuracy(separation: float, seed: int) -> float:
            local_rng = np.random.default_rng(seed)
            data = make_classification(
                400, 10, 5, class_separation=separation, within_class_std=1.0,
                nonlinear=True, rng=local_rng,
            )
            model = Sequential([Linear(10, 5, local_rng)])
            for _ in range(60):
                _, gradient = model.mean_gradient(data.features, data.labels)
                model.set_flat_parameters(model.get_flat_parameters() - 0.5 * gradient)
            return float(np.mean(model.predict(data.features) == data.labels))

        easy = np.mean([trained_accuracy(5.0, s) for s in range(3)])
        hard = np.mean([trained_accuracy(1.0, s) for s in range(3)])
        assert easy > hard

    def test_rejects_too_few_samples(self, rng):
        with pytest.raises(ValueError):
            make_classification(2, 4, 3, rng=rng)

    def test_rejects_single_class(self, rng):
        with pytest.raises(ValueError):
            make_classification(10, 4, 1, rng=rng)

    def test_name_recorded(self, rng):
        assert make_classification(20, 4, 2, rng=rng, name="abc").name == "abc"


def make_classification_out_of_place(
    n_samples, n_features, n_classes, class_separation=3.0, within_class_std=1.0,
    nonlinear=True, rng=None, name="synthetic",
):
    """The generator as plain expressions, each step a fresh array: the oracle."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    raw_means = rng.normal(size=(n_classes, n_features))
    raw_means /= np.linalg.norm(raw_means, axis=1, keepdims=True)
    means = raw_means * class_separation
    labels = np.arange(n_samples) % n_classes
    rng.shuffle(labels)
    features = means[labels] + rng.normal(
        0.0, within_class_std, size=(n_samples, n_features)
    )
    if nonlinear:
        rotation = rng.normal(size=(n_features, n_features)) / np.sqrt(n_features)
        features = np.tanh(features @ rotation) + 0.1 * features
    features = (features - features.mean(axis=0)) / (features.std(axis=0) + 1e-12)
    return Dataset(features=features, labels=labels, num_classes=n_classes, name=name)


class TestInPlaceGeneration:
    """The generator updates its buffers in place with the oracle's operations."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("scale", [0.25, 1.0])
    @pytest.mark.parametrize("name", SPEC_DATASETS)
    def test_splits_byte_identical_to_oracle(self, monkeypatch, name, scale, seed):
        splits = load_dataset(name, scale=scale, seed=seed)
        monkeypatch.setattr(registry, "make_classification", make_classification_out_of_place)
        expected = load_dataset(name, scale=scale, seed=seed)
        for split, oracle in zip(splits, expected):
            assert split.features.tobytes() == oracle.features.tobytes()
            assert split.labels.tobytes() == oracle.labels.tobytes()

    @pytest.mark.parametrize("tail", [1, 2, 3])
    @pytest.mark.parametrize("n_features", [64, 96])
    def test_block_tails_byte_identical_to_oracle(self, n_features, tail):
        """Sizes that leave 1, 2 or 3 rows after the last whole block.

        A lone last row joins the block before it: as a one-row block it
        would go to BLAS's GEMV, whose low bits differ from the GEMM's.
        """
        rows_per_block = BLOCK_BYTES // (8 * n_features)
        n_samples = 2 * rows_per_block + tail
        last = _row_blocks(n_samples, n_features)[-1]
        assert last.stop - last.start == (rows_per_block + 1 if tail == 1 else tail)
        data = make_classification(n_samples, n_features, 10, rng=tail)
        oracle = make_classification_out_of_place(n_samples, n_features, 10, rng=tail)
        assert data.features.tobytes() == oracle.features.tobytes()
        assert data.labels.tobytes() == oracle.labels.tobytes()

    @pytest.mark.parametrize("name", SPEC_DATASETS)
    def test_load_peak_near_the_output(self, name):
        """The splits are views of one buffer generated and split in place.

        The out-of-place expressions peaked at 3.0-3.14x the splits, and an
        in-place generator followed by copied splits at 2.0-2.15x; one
        buffer peaks at 1.1-1.5x (the index arrays and scratch blocks).
        """
        # A process's first load also imports numpy.linalg lazily (~0.65 MiB
        # traced), no part of the load itself: load once first, so the test
        # reads the same alone as in the suite.
        load_dataset(name, scale=0.05, seed=0)
        tracemalloc.start()
        try:
            splits = load_dataset(name, scale=1.0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = sum(split.features.nbytes + split.labels.nbytes for split in splits)
        assert peak <= 1.6 * output


class TestMismatchedSpace:
    def test_shape_matches_reference(self, rng):
        reference = make_classification(50, 7, 4, rng=rng)
        mismatched = make_mismatched_space(reference, n_samples=30, rng=rng)
        assert mismatched.dim == 7
        assert mismatched.num_classes == 4
        assert len(mismatched) == 30

    def test_labels_within_range(self, rng):
        reference = make_classification(50, 7, 4, rng=rng)
        mismatched = make_mismatched_space(reference, n_samples=200, rng=rng)
        assert mismatched.labels.min() >= 0
        assert mismatched.labels.max() < 4

    def test_features_uncorrelated_with_labels(self, rng):
        """A model trained on mismatched data should not beat chance by much."""
        reference = make_classification(50, 6, 3, rng=rng)
        mismatched = make_mismatched_space(reference, n_samples=600, rng=rng)
        model = Sequential([Linear(6, 3, rng)])
        for _ in range(50):
            _, gradient = model.mean_gradient(mismatched.features, mismatched.labels)
            model.set_flat_parameters(model.get_flat_parameters() - 0.3 * gradient)
        holdout = make_mismatched_space(reference, n_samples=600, rng=rng)
        accuracy = float(np.mean(model.predict(holdout.features) == holdout.labels))
        assert accuracy < 0.45

    def test_rejects_nonpositive_samples(self, rng):
        reference = make_classification(20, 4, 2, rng=rng)
        with pytest.raises(ValueError):
            make_mismatched_space(reference, n_samples=0, rng=rng)


class TestRegistry:
    def test_four_paper_datasets_registered(self):
        names = available_datasets()
        for name in ("mnist_like", "fashion_like", "usps_like", "colorectal_like"):
            assert name in names

    @pytest.mark.parametrize("name", SPEC_DATASETS)
    def test_load_every_dataset_small_scale(self, name):
        train, test = load_dataset(name, scale=0.05, seed=0)
        spec = spec_of(name)
        assert train.num_classes == spec.n_classes
        assert train.dim == spec.n_features
        assert len(train) > 0 and len(test) > 0

    def test_scale_shrinks_sizes(self):
        large_train, _ = load_dataset("mnist_like", scale=0.5, seed=0)
        small_train, _ = load_dataset("mnist_like", scale=0.1, seed=0)
        assert len(small_train) < len(large_train)

    def test_scale_floor_keeps_minimum_examples(self):
        train, test = load_dataset("mnist_like", scale=1e-6, seed=0)
        assert len(train) >= 4 * 10
        assert len(test) >= 4 * 10

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet", scale=0.1)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            load_dataset("mnist_like", scale=0.0)

    def test_same_seed_reproducible(self):
        a_train, a_test = load_dataset("usps_like", scale=0.1, seed=3)
        b_train, b_test = load_dataset("usps_like", scale=0.1, seed=3)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_different_seeds_differ(self):
        a_train, _ = load_dataset("usps_like", scale=0.1, seed=3)
        b_train, _ = load_dataset("usps_like", scale=0.1, seed=4)
        assert not np.allclose(a_train.features, b_train.features)

    def test_split_sizes_close_to_requested(self):
        """The stratified split keeps train/test sizes close to the spec."""
        train, test = load_dataset("colorectal_like", scale=0.2, seed=1)
        spec = spec_of("colorectal_like")
        expected_train = max(4 * spec.n_classes, round(spec.train_size * 0.2))
        expected_test = max(4 * spec.n_classes, round(spec.test_size * 0.2))
        assert abs(len(train) - expected_train) <= spec.n_classes
        assert abs(len(test) - expected_test) <= spec.n_classes

    def test_every_class_present_in_test_split_at_tiny_scale(self):
        """The server can always draw 2 auxiliary samples per class."""
        for name in ("mnist_like", "usps_like", "colorectal_like", "fashion_like"):
            _, test = load_dataset(name, scale=0.02, seed=0)
            assert test.class_counts().min() >= 2

    def test_mnist_like_sizes_mirror_paper_ratios(self):
        """MNIST-like is the largest dataset; Colorectal-like the smallest."""
        sizes = {
            name: spec_of(name).train_size
            for name in ("mnist_like", "fashion_like", "usps_like", "colorectal_like")
        }
        assert sizes["mnist_like"] == sizes["fashion_like"]
        assert sizes["usps_like"] < sizes["mnist_like"]
        assert sizes["colorectal_like"] < sizes["usps_like"]

    def test_colorectal_has_eight_classes(self):
        assert spec_of("colorectal_like").n_classes == 8
