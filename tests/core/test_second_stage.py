"""Tests for the second-stage aggregation (Algorithm 3, lines 4-14).

The selection's one entry point takes the round's scores: the caller's
matvec ``uploads @ server_gradient`` over the round matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.second_stage import SecondStageSelector


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(13)


def make_uploads(
    rng: np.random.Generator,
    server_gradient: np.ndarray,
    n_honest: int,
    n_byzantine: int,
    noise: float = 0.5,
) -> np.ndarray:
    """Honest uploads roughly aligned with the server gradient, Byzantine ones inverted."""
    dimension = server_gradient.size
    uploads = []
    for _ in range(n_honest):
        uploads.append(server_gradient + noise * rng.normal(size=dimension))
    for _ in range(n_byzantine):
        uploads.append(-2.0 * server_gradient + noise * rng.normal(size=dimension))
    return np.vstack(uploads)


def full_cohort(selector: SecondStageSelector) -> np.ndarray:
    """The worker ids of a full cohort: row ``i`` is worker ``i``."""
    return np.arange(selector.n_workers)


class TestConstruction:
    def test_keep_count(self):
        assert SecondStageSelector(n_workers=25, gamma=0.4).keep == 10
        assert SecondStageSelector(n_workers=10, gamma=0.5).keep == 5
        assert SecondStageSelector(n_workers=7, gamma=0.3).keep == 3  # ceil(2.1)

    def test_keep_at_least_one(self):
        assert SecondStageSelector(n_workers=3, gamma=0.01).keep == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SecondStageSelector(0, 0.5)
        with pytest.raises(ValueError):
            SecondStageSelector(5, 0.0)
        with pytest.raises(ValueError):
            SecondStageSelector(5, 1.5)

    def test_initial_scores_zero(self):
        selector = SecondStageSelector(5, 0.5)
        np.testing.assert_array_equal(selector.accumulated_scores, 0.0)


class TestSelection:
    def test_selects_honest_majority_aligned_uploads(self, rng):
        dimension = 50
        server_gradient = rng.normal(size=dimension)
        uploads = make_uploads(rng, server_gradient, n_honest=6, n_byzantine=4)
        selector = SecondStageSelector(n_workers=10, gamma=0.6)
        report = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        assert set(report.selected) == set(range(6))

    def test_selects_honest_even_when_byzantine_majority(self, rng):
        """The paper's key property: no restriction on gamma being > 0.5."""
        dimension = 60
        server_gradient = rng.normal(size=dimension)
        uploads = make_uploads(rng, server_gradient, n_honest=4, n_byzantine=16)
        selector = SecondStageSelector(n_workers=20, gamma=0.2)
        report = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        assert set(report.selected) == set(range(4))

    def test_scores_are_inner_products(self, rng):
        dimension = 20
        server_gradient = rng.normal(size=dimension)
        uploads = rng.normal(size=(5, dimension))
        selector = SecondStageSelector(5, 0.6)
        report = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        expected = [float(np.dot(upload, server_gradient)) for upload in uploads]
        np.testing.assert_allclose(report.scores, expected)

    def test_threshold_is_mean_of_top_scores(self, rng):
        dimension = 20
        server_gradient = rng.normal(size=dimension)
        uploads = rng.normal(size=(8, dimension))
        selector = SecondStageSelector(8, 0.5)
        report = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        top = np.sort(report.scores)[::-1][:4]
        assert report.threshold == pytest.approx(float(top.mean()))

    def test_negative_scores_never_accumulate(self, rng):
        dimension = 30
        server_gradient = rng.normal(size=dimension)
        uploads = make_uploads(rng, server_gradient, n_honest=3, n_byzantine=3, noise=0.1)
        selector = SecondStageSelector(6, 0.5)
        report = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        assert np.all(report.accumulated[3:] <= 0.0 + 1e-12)
        assert np.all(report.accumulated[3:] >= 0.0)  # suppressed to exactly zero

    def test_scores_accumulate_across_rounds(self, rng):
        dimension = 30
        server_gradient = rng.normal(size=dimension)
        selector = SecondStageSelector(6, 0.5)
        uploads = make_uploads(rng, server_gradient, n_honest=3, n_byzantine=3, noise=0.1)
        first = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        second = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        assert np.all(second.accumulated >= first.accumulated - 1e-12)
        assert second.accumulated[0] > first.accumulated[0]

    def test_accumulated_history_heals_one_bad_round(self, rng):
        """A worker misranked in one noisy round is still selected thanks to S."""
        dimension = 40
        server_gradient = rng.normal(size=dimension)
        selector = SecondStageSelector(4, 0.5)
        good = [server_gradient + 0.05 * rng.normal(size=dimension) for _ in range(2)]
        bad = [-server_gradient for _ in range(2)]
        # several good rounds build up score for workers 0 and 1
        for _ in range(5):
            scores = np.vstack(good + bad) @ server_gradient
            selector.select_scored(scores, full_cohort(selector))
        # one adversarial round where worker 0 looks slightly worse than worker 2
        confusing = np.vstack([
            -0.1 * server_gradient,
            server_gradient,
            0.2 * server_gradient,
            -server_gradient,
        ])
        report = selector.select_scored(confusing @ server_gradient, full_cohort(selector))
        assert 0 in report.selected and 1 in report.selected

    def test_reset_clears_accumulated_scores(self, rng):
        dimension = 10
        server_gradient = rng.normal(size=dimension)
        selector = SecondStageSelector(3, 0.5)
        scores = np.vstack([server_gradient] * 3) @ server_gradient
        selector.select_scored(scores, full_cohort(selector))
        selector.reset()
        np.testing.assert_array_equal(selector.accumulated_scores, 0.0)

    def test_rejects_wrong_upload_count(self, rng):
        selector = SecondStageSelector(4, 0.5)
        with pytest.raises(ValueError):
            selector.select_scored(np.zeros((3, 5)) @ np.zeros(5), np.arange(4))

    def test_selected_count_is_keep(self, rng):
        dimension = 25
        server_gradient = rng.normal(size=dimension)
        uploads = rng.normal(size=(10, dimension))
        selector = SecondStageSelector(10, 0.3)
        report = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        assert len(report.selected) == selector.keep == 3

    def test_selected_indices_sorted_and_unique(self, rng):
        dimension = 25
        server_gradient = rng.normal(size=dimension)
        uploads = rng.normal(size=(10, dimension))
        selector = SecondStageSelector(10, 0.5)
        report = selector.select_scored(uploads @ server_gradient, full_cohort(selector))
        assert list(report.selected) == sorted(set(report.selected.tolist()))

    def test_zero_uploads_from_first_stage_score_zero(self, rng):
        """Rejected (zeroed) first-stage uploads can never win the selection."""
        dimension = 30
        server_gradient = rng.normal(size=dimension)
        honest = [server_gradient + 0.1 * rng.normal(size=dimension) for _ in range(3)]
        zeroed = [np.zeros(dimension) for _ in range(3)]
        selector = SecondStageSelector(6, 0.5)
        scores = np.vstack(honest + zeroed) @ server_gradient
        report = selector.select_scored(scores, full_cohort(selector))
        assert set(report.selected) == {0, 1, 2}

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_full_cohort_ids_match_the_reference_path(self, rng, gamma):
        """Every worker's id (``arange(n)``) gives the dense Algorithm 3
        update bit for bit: the keep count is ``ceil(gamma n)`` (the
        selector's ``keep``), and ``np.add.at`` over distinct ids adds
        each suppressed score once, as ``S += scores`` does."""
        n_workers, dimension = 10, 20
        selector = SecondStageSelector(n_workers, gamma)
        accumulated = np.zeros(n_workers)
        for _ in range(4):
            server_gradient = rng.normal(size=dimension)
            uploads = make_uploads(rng, server_gradient, 6, 4)
            scores = uploads @ server_gradient
            got = selector.select_scored(scores, full_cohort(selector))
            threshold = float(np.sort(scores)[::-1][: selector.keep].mean())
            accumulated += np.where(scores < threshold, 0.0, scores)
            order = np.argsort(-accumulated, kind="stable")
            np.testing.assert_array_equal(got.selected, np.sort(order[: selector.keep]))
            assert got.threshold == pytest.approx(threshold, rel=1e-12)
            np.testing.assert_array_equal(got.accumulated, accumulated)
