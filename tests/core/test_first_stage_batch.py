"""Unit tests for FirstAGG over the round matrix (accepts_batch / inspect_batch).

A single upload is the one-row matrix: both calls lift a 1-D upload to
one, so there is no per-upload API to compare against, only the same
calls on fewer rows.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import first_stage as first_stage_module
from repro.core.first_stage import FirstStageFilter
from repro.stats.distributions import normal_quantiles
from repro.stats.ks import RANK_BAND, ks_pvalues, ks_statistics


DIMENSION = 2000
SIGMA = 0.25


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(77)


@pytest.fixture
def first_stage() -> FirstStageFilter:
    return FirstStageFilter(sigma=SIGMA, dimension=DIMENSION)


def mixed_uploads(rng: np.random.Generator) -> np.ndarray:
    """Benign noise rows plus obviously malicious rows."""
    benign = rng.normal(0.0, SIGMA, size=(4, DIMENSION))
    too_large = rng.normal(0.0, 3.0 * SIGMA, size=(1, DIMENSION))
    too_small = rng.normal(0.0, 0.2 * SIGMA, size=(1, DIMENSION))
    shifted = rng.normal(0.0, SIGMA, size=(1, DIMENSION)) + 0.4 * SIGMA
    shifted *= SIGMA * np.sqrt(DIMENSION) / np.linalg.norm(shifted)
    return np.vstack([benign, too_large, too_small, shifted])


def zeroed(accepted: np.ndarray, uploads: np.ndarray) -> np.ndarray:
    """Algorithm 2's matrix: rejected rows replaced by the zero vector."""
    return np.where(accepted[:, np.newaxis], uploads, 0.0)


class TestAcceptsBatch:
    def test_mask_matches_one_row_calls(self, rng, first_stage):
        uploads = mixed_uploads(rng)
        accepted = first_stage.accepts_batch(uploads)
        expected = np.array([first_stage.accepts_batch(row)[0] for row in uploads])
        np.testing.assert_array_equal(accepted, expected)
        np.testing.assert_array_equal(accepted, first_stage.inspect_batch(uploads).accepted)

    def test_zeroed_matrix_matches_one_row_calls(self, rng, first_stage):
        uploads = mixed_uploads(rng)
        expected = np.vstack([
            zeroed(first_stage.accepts_batch(row), row[np.newaxis, :]) for row in uploads
        ])
        np.testing.assert_array_equal(
            zeroed(first_stage.accepts_batch(uploads), uploads), expected
        )

    def test_rejected_rows_are_zero(self, rng, first_stage):
        uploads = mixed_uploads(rng)
        accepted = first_stage.accepts_batch(uploads)
        assert not accepted[4:].any()  # the three malicious rows
        np.testing.assert_array_equal(zeroed(accepted, uploads)[~accepted], 0.0)

    def test_input_matrix_is_not_written(self, rng, first_stage):
        """The two-stage rule masks the round matrix in place of a copy."""
        uploads = mixed_uploads(rng)
        before = uploads.copy()
        accepted = first_stage.accepts_batch(uploads)
        assert accepted.any() and not accepted.all()
        np.testing.assert_array_equal(uploads, before)

    def test_list_input_is_stacked(self, rng, first_stage):
        uploads = mixed_uploads(rng)
        np.testing.assert_array_equal(
            first_stage.accepts_batch(list(uploads)), first_stage.accepts_batch(uploads)
        )

    def test_wrong_dimension_rejected(self, first_stage):
        with pytest.raises(ValueError):
            first_stage.accepts_batch(np.zeros((3, DIMENSION + 1)))

    def test_accepted_zero_upload_is_reported_accepted(self):
        """Regression: the mask, not ``np.any(row)``, decides acceptance.

        At ``d = 1`` the chi-square interval includes 0 and the KS test does
        not reject a single zero coordinate, so the all-zero upload is
        legitimately accepted -- yet its zeroed row is all zeros.  Deriving
        acceptance from the zeroed matrix would misreport it.
        """
        first_stage = FirstStageFilter(sigma=1.0, dimension=1)
        uploads = np.zeros((2, 1))
        assert first_stage.inspect_batch(uploads[0]).accepted[0]  # exact p-value agrees
        accepted = first_stage.accepts_batch(uploads)
        assert accepted.all()
        np.testing.assert_array_equal(zeroed(accepted, uploads), 0.0)


class TestOneUploadIsAOneRowMatrix:
    """The degenerate case that replaces a per-upload API: ``accepts_batch``
    on a 1-D upload decides what ``inspect_batch`` reports for it, for
    each way FirstAGG can decide."""

    def upload(self, kind: str, rng: np.random.Generator) -> np.ndarray:
        if kind == "accepted":
            return rng.normal(0.0, SIGMA, size=DIMENSION)
        if kind == "norm_rejected":
            return rng.normal(0.0, 3.0 * SIGMA, size=DIMENSION)
        shifted = rng.normal(0.0, SIGMA, size=DIMENSION) + 0.4 * SIGMA
        return shifted * SIGMA * np.sqrt(DIMENSION) / np.linalg.norm(shifted)

    @pytest.mark.parametrize(
        "kind, norm_ok, ks_ok",
        [("accepted", True, True), ("norm_rejected", False, False),
         ("ks_rejected", True, False)],
    )
    def test_decision_equals_the_report(self, rng, first_stage, kind, norm_ok, ks_ok):
        upload = self.upload(kind, rng)
        accepted = first_stage.accepts_batch(upload)
        report = first_stage.inspect_batch(upload)
        assert accepted.shape == report.accepted.shape == (1,)
        assert accepted[0] == report.accepted[0] == (norm_ok and ks_ok)
        assert (report.norm_ok[0], report.ks_ok[0]) == (norm_ok, ks_ok)
        # the 1-D upload and its one-row matrix are the same call
        np.testing.assert_array_equal(
            first_stage.accepts_batch(upload[np.newaxis, :]), accepted
        )


class TestInspectBatch:
    def test_matches_one_row_inspection(self, rng, first_stage):
        uploads = mixed_uploads(rng)
        batch = first_stage.inspect_batch(uploads)
        for i, row in enumerate(uploads):
            report = first_stage.inspect_batch(row)
            assert batch.accepted[i] == report.accepted[0]
            assert batch.norm_ok[i] == report.norm_ok[0]
            assert batch.ks_ok[i] == report.ks_ok[0]
            assert batch.squared_norms[i] == pytest.approx(report.squared_norms[0], rel=1e-12)
            assert batch.ks_pvalues[i] == pytest.approx(
                report.ks_pvalues[0], rel=1e-12, abs=1e-300
            )

    def test_single_row_matrix(self, rng, first_stage):
        upload = rng.normal(0.0, SIGMA, size=DIMENSION)
        batch = first_stage.inspect_batch(upload[np.newaxis, :])
        assert batch.accepted.shape == (1,)
        assert batch.accepted[0] == first_stage.accepts_batch(upload)[0]


def exact_mask(first_stage: FirstStageFilter, uploads: np.ndarray) -> np.ndarray:
    """The norm test and the KS p-value of every row, with no rank bounds."""
    low, high = first_stage.norm_bounds()
    squared = np.einsum("ij,ij->i", uploads, uploads)
    statistics = ks_statistics(uploads, first_stage.sigma)
    pvalues = ks_pvalues(statistics, first_stage.dimension)
    return (squared >= low) & (squared <= high) & (pvalues >= first_stage.significance)


def statistic(row: np.ndarray, sigma: float) -> float:
    """The KS statistic of one sample: the one-row case of ``ks_statistics``."""
    return float(ks_statistics(row[np.newaxis, :], sigma)[0])


def bump_row(
    first_stage: FirstStageFilter, offset: float, center: float, width: float
) -> np.ndarray:
    """The ideal-quantile row plus a wide, shallow bump, lifted until the KS
    statistic equals ``D*(1 + offset)``."""
    d, sigma = first_stage.dimension, first_stage.sigma
    ranks = np.arange(d)
    ideal = normal_quantiles((ranks + 0.5) / d, sigma)
    bump = sigma * np.exp(-0.5 * ((ranks - center) / width) ** 2)
    target = first_stage.critical_ks_statistic() * (1.0 + offset)
    low, high = 0.0, 1.0
    while 0.5 * (low + high) not in (low, high):
        middle = 0.5 * (low + high)
        if statistic(ideal + middle * bump, sigma) < target:
            low = middle
        else:
            high = middle
    row = ideal + high * bump
    assert statistic(row, sigma) == pytest.approx(target, rel=RANK_BAND / 100)
    return row


class TestRankBoundDecisions:
    """accepts_batch decides from rank bounds; its mask must equal the p-values'."""

    D = 1000

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.97, 1.03),
        shift=st.floats(0.5, 1.5),
        center=st.floats(200.0, 800.0),
        width=st.floats(100.0, 250.0),
    )
    def test_mask_equals_the_exact_statistic(self, seed, scale, shift, center, width):
        first_stage = FirstStageFilter(sigma=SIGMA, dimension=self.D)
        rng = np.random.default_rng(seed)
        random_rows = rng.normal(0.0, SIGMA * scale, size=(4, self.D))
        # A mean shift of about D* * sigma * sqrt(2 pi) puts D near D*; the
        # rows are rescaled so that they pass the norm test.
        limit_rows = rng.normal(0.0, SIGMA, size=(4, self.D))
        limit_rows += shift * first_stage.critical_ks_statistic() * SIGMA * np.sqrt(2 * np.pi)
        limit_rows *= SIGMA * np.sqrt(self.D) / np.linalg.norm(limit_rows, axis=1, keepdims=True)
        offsets = (-1.5 * RANK_BAND, -0.5 * RANK_BAND, 0.5 * RANK_BAND, 1.5 * RANK_BAND)
        band_rows = np.vstack([bump_row(first_stage, o, center, width) for o in offsets])
        uploads = np.vstack([random_rows, limit_rows, band_rows])

        with mock.patch.object(
            first_stage_module, "ks_statistics", wraps=ks_statistics
        ) as exact_path:
            accepted = first_stage.accepts_batch(uploads)

        np.testing.assert_array_equal(accepted, exact_mask(first_stage, uploads))
        # Within the band: below D* passes, above fails ...
        np.testing.assert_array_equal(accepted[8:], [True, True, False, False])
        # ... and only the rows inside the band took the exact branch.
        exact_rows = {int(row) for call in exact_path.call_args_list for row in call.kwargs["rows"]}
        assert {9, 10} <= exact_rows
        assert not {8, 11} & exact_rows

    def test_decided_rows_leave_the_difference_buffer_unallocated(self, rng):
        first_stage = FirstStageFilter(sigma=SIGMA, dimension=self.D)
        first_stage.accepts_batch(rng.normal(0.0, SIGMA, size=(6, self.D)))
        assert first_stage._ks_workspace._scratch is None


def whole_matrix_mask(first_stage: FirstStageFilter, uploads: np.ndarray) -> np.ndarray:
    """The unblocked decision: every norm-passing row sorted and decided at once."""
    _, accepted = first_stage._norm_test_batch(uploads)
    candidates = np.flatnonzero(accepted)
    if candidates.size:
        passed, undecided = first_stage._rank_bounds.decide(
            np.sort(uploads[candidates], axis=1)
        )
        if undecided.any():
            statistics = ks_statistics(uploads[candidates[undecided]], first_stage.sigma)
            pvalues = ks_pvalues(statistics, first_stage.dimension)
            passed[undecided] = pvalues >= first_stage.significance
        accepted[candidates] = passed
    return accepted


class TestBlockedDecisions:
    """accepts_batch decides a bounded block of candidates at a time."""

    D = 1000

    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])
    @pytest.mark.parametrize("seed", range(4))
    def test_mask_equals_the_whole_matrix_decision(self, seed, block):
        first_stage = FirstStageFilter(sigma=SIGMA, dimension=self.D)
        if block is not None:
            first_stage._ks_block = block
        rng = np.random.default_rng(seed)
        offsets = (-1.5 * RANK_BAND, -0.5 * RANK_BAND, 0.5 * RANK_BAND, 1.5 * RANK_BAND)
        center = float(rng.uniform(300.0, 700.0))
        rows = np.vstack([
            rng.normal(0.0, SIGMA, size=(5, self.D)),              # pass
            rng.normal(0.0, 3.0 * SIGMA, size=(2, self.D)),        # fail the norm test
            rng.normal(0.0, SIGMA, size=(2, self.D)) + 0.1 * SIGMA,  # fail the KS test
            *[bump_row(first_stage, offset, center, 150.0) for offset in offsets],
        ])
        uploads = rows[rng.permutation(len(rows))]
        accepted = first_stage.accepts_batch(uploads)
        np.testing.assert_array_equal(accepted, whole_matrix_mask(first_stage, uploads))
        np.testing.assert_array_equal(accepted, exact_mask(first_stage, uploads))
        assert 0 < accepted.sum() < len(uploads)

    def test_workspace_holds_one_block(self):
        """At d = 6570 a block is 4 rows: 50 candidates peak at 0.26 MiB
        and leave 0.20 MiB resident, where sorting them at once read 2.82
        and 2.51 MiB."""
        import tracemalloc

        d, sigma = 6570, 0.1
        uploads = np.random.default_rng(0).normal(0.0, sigma, size=(50, d))
        first_stage = FirstStageFilter(sigma=sigma, dimension=d)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            accepted = first_stage.accepts_batch(uploads)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(accepted, exact_mask(first_stage, uploads))
        assert (peak - before) / 2**20 < 0.5
        assert (after - before) / 2**20 < 0.25

    def test_inspection_leaves_the_workspace_one_block(self):
        """``inspect_batch`` sorts the whole matrix in its own temporaries:
        on a warm filter, inspecting 50 rows at d = 6570 and deciding them
        again leaves ~0 MiB resident, where sorting them in the shared
        workspace left 5.0 MiB."""
        import tracemalloc

        d, sigma = 6570, 0.1
        uploads = np.random.default_rng(0).normal(0.0, sigma, size=(50, d))
        first_stage = FirstStageFilter(sigma=sigma, dimension=d)
        first_stage.accepts_batch(uploads)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            report = first_stage.inspect_batch(uploads)
            accepted = first_stage.accepts_batch(uploads)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(report.accepted, accepted)
        np.testing.assert_array_equal(accepted, exact_mask(first_stage, uploads))
        assert (after - before) / 2**20 < 0.1
