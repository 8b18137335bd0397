"""Property-based tests for aggregation rules and the second-stage selector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.second_stage import SecondStageSelector
from repro.defenses.median import CoordinateMedianAggregator
from repro.defenses.mean import MeanAggregator
from repro.defenses.rfa import geometric_median
from repro.defenses.trimmed_mean import TrimmedMeanAggregator
from tests.helpers import make_aggregation_context


upload_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 10), st.integers(2, 20)),
    elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
)


@pytest.fixture(scope="module")
def context():
    return make_aggregation_context(seed=8)


@settings(max_examples=50, deadline=None)
@given(uploads=upload_matrices)
def test_mean_and_median_bounded_by_upload_range(uploads):
    """Aggregates stay inside the coordinate-wise envelope of the uploads."""
    context = make_aggregation_context(seed=8)
    rows = [row for row in uploads]
    low = uploads.min(axis=0) - 1e-9
    high = uploads.max(axis=0) + 1e-9
    mean = MeanAggregator().aggregate(rows, context)
    median = CoordinateMedianAggregator().aggregate(rows, context)
    assert np.all(mean >= low) and np.all(mean <= high)
    assert np.all(median >= low) and np.all(median <= high)


@settings(max_examples=50, deadline=None)
@given(uploads=upload_matrices, trim=st.floats(0.0, 0.45))
def test_trimmed_mean_bounded_by_upload_range(uploads, trim):
    context = make_aggregation_context(seed=8)
    rows = [row for row in uploads]
    result = TrimmedMeanAggregator(trim_fraction=trim).aggregate(rows, context)
    assert np.all(result >= uploads.min(axis=0) - 1e-9)
    assert np.all(result <= uploads.max(axis=0) + 1e-9)


@settings(max_examples=50, deadline=None)
@given(uploads=upload_matrices)
def test_aggregators_are_permutation_invariant(uploads):
    context = make_aggregation_context(seed=8)
    rows = [row for row in uploads]
    reordered = list(reversed(rows))
    for aggregator in (MeanAggregator(), CoordinateMedianAggregator(), TrimmedMeanAggregator(0.2)):
        np.testing.assert_allclose(
            aggregator.aggregate(rows, context),
            aggregator.aggregate(reordered, context),
            atol=1e-9,
        )


@settings(max_examples=50, deadline=None)
@given(uploads=upload_matrices, shift=st.floats(-50.0, 50.0))
def test_mean_and_median_are_translation_equivariant(uploads, shift):
    context = make_aggregation_context(seed=8)
    rows = [row for row in uploads]
    shifted = [row + shift for row in uploads]
    for aggregator in (MeanAggregator(), CoordinateMedianAggregator()):
        base = aggregator.aggregate(rows, context)
        moved = aggregator.aggregate(shifted, context)
        np.testing.assert_allclose(moved, base + shift, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(points=upload_matrices)
def test_geometric_median_inside_bounding_box(points):
    median = geometric_median(points)
    assert np.all(median >= points.min(axis=0) - 1e-6)
    assert np.all(median <= points.max(axis=0) + 1e-6)


@settings(max_examples=50, deadline=None)
@given(
    n_workers=st.integers(2, 30),
    gamma=st.floats(0.05, 1.0),
    dimension=st.integers(2, 40),
    seed=st.integers(0, 1000),
)
def test_second_stage_selects_exactly_keep_workers(n_workers, gamma, dimension, seed):
    rng = np.random.default_rng(seed)
    selector = SecondStageSelector(n_workers, gamma)
    uploads = np.vstack([rng.normal(size=dimension) for _ in range(n_workers)])
    server_gradient = rng.normal(size=dimension)
    report = selector.select_scored(uploads @ server_gradient, np.arange(n_workers))
    assert len(report.selected) == selector.keep
    assert 1 <= selector.keep <= n_workers
    assert np.all(report.selected >= 0) and np.all(report.selected < n_workers)
    assert len(set(report.selected.tolist())) == selector.keep


@settings(max_examples=50, deadline=None)
@given(
    n_workers=st.integers(2, 20),
    gamma=st.floats(0.1, 1.0),
    dimension=st.integers(2, 30),
    rounds=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
def test_second_stage_accumulation_follows_algorithm3(
    n_workers, gamma, dimension, rounds, seed
):
    """Per round, S[i] changes by the round score iff that score meets the threshold."""
    rng = np.random.default_rng(seed)
    selector = SecondStageSelector(n_workers, gamma)
    previous = selector.accumulated_scores.copy()
    for _ in range(rounds):
        uploads = np.vstack([rng.normal(size=dimension) for _ in range(n_workers)])
        server_gradient = rng.normal(size=dimension)
        report = selector.select_scored(uploads @ server_gradient, np.arange(n_workers))
        delta = report.accumulated - previous
        for i in range(n_workers):
            if report.scores[i] < report.threshold:
                assert delta[i] == pytest.approx(0.0, abs=1e-12)
            else:
                assert delta[i] == pytest.approx(report.scores[i], abs=1e-9)
        previous = report.accumulated
