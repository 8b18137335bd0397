"""Tests for the full two-stage aggregation rule (TwoStageAggregator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ProtocolConfig
from repro.core.first_stage import FirstStageFilter
from repro.core.protocol import TwoStageAggregator
from repro.core.second_stage import SecondStageSelector
from repro.defenses.base import AggregationContext
from tests.helpers import make_model_and_data


DIMENSION_NOISE_STD = 0.08


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(23)


@pytest.fixture
def context() -> AggregationContext:
    """A context with a real model/auxiliary pair and a known noise level.

    The hidden layer pushes the parameter count to several hundred so that
    DP noise dominates the signal component of a simulated upload, which is
    the regime FirstAGG is designed for (sigma^2 d / b^2 >> 1).
    """
    model, dataset = make_model_and_data(seed=2, hidden=64)
    return AggregationContext(
        model=model,
        auxiliary=dataset.subset(np.arange(12)),
        upload_noise_std=DIMENSION_NOISE_STD,
        rng=np.random.default_rng(3),
    )


def simulated_uploads(
    context: AggregationContext,
    rng: np.random.Generator,
    n_honest: int,
    n_byzantine: int,
    invert: bool = True,
) -> list[np.ndarray]:
    """Honest uploads = noisy normalised server-direction; Byzantine = inverted."""
    gradient = context.server_gradient()
    direction = gradient / np.linalg.norm(gradient)
    dimension = direction.size
    uploads = []
    for _ in range(n_honest):
        noise = rng.normal(0.0, DIMENSION_NOISE_STD, size=dimension)
        uploads.append(0.5 * direction + noise)
    for _ in range(n_byzantine):
        noise = rng.normal(0.0, DIMENSION_NOISE_STD, size=dimension)
        sign = -1.0 if invert else 1.0
        uploads.append(sign * 0.5 * direction + noise)
    return uploads


class TestTwoStage:
    def test_requires_auxiliary(self):
        aggregator = TwoStageAggregator()
        assert aggregator.requires_auxiliary

    def test_output_shape(self, context, rng):
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=0.5))
        uploads = simulated_uploads(context, rng, 4, 4)
        result = aggregator.aggregate(uploads, context)
        assert result.shape == (context.model.num_parameters,)

    def test_rejects_byzantine_direction(self, context, rng):
        """With gamma = honest fraction the aggregate keeps the honest direction."""
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=0.4))
        uploads = simulated_uploads(context, rng, 4, 6)
        result = aggregator.aggregate(uploads, context)
        gradient = context.server_gradient()
        assert float(np.dot(result, gradient)) > 0.0

    def test_mean_would_be_poisoned(self, context, rng):
        """Sanity check on the same uploads: plain averaging flips the direction."""
        uploads = simulated_uploads(context, rng, 4, 6)
        mean = np.mean(uploads, axis=0)
        gradient = context.server_gradient()
        assert float(np.dot(mean, gradient)) < 0.0

    def test_selected_workers_are_honest(self, context, rng):
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=0.4))
        uploads = simulated_uploads(context, rng, 4, 6)
        aggregator.aggregate(uploads, context)
        assert set(aggregator.last_selected.tolist()) == {0, 1, 2, 3}

    def test_large_norm_uploads_zeroed_by_first_stage(self, context, rng):
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=0.5))
        uploads = simulated_uploads(context, rng, 5, 0)
        uploads.append(np.ones(context.model.num_parameters) * 100.0)
        aggregator.aggregate(uploads, context)
        assert aggregator.last_first_stage_accepted is not None
        assert not aggregator.last_first_stage_accepted[-1]

    def test_first_stage_skipped_without_dp(self, rng):
        model, dataset = make_model_and_data(seed=4)
        context = AggregationContext(
            model=model,
            auxiliary=dataset.subset(np.arange(12)),
            upload_noise_std=0.0,
            rng=np.random.default_rng(0),
        )
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=0.5))
        uploads = [rng.normal(size=model.num_parameters) for _ in range(4)]
        aggregator.aggregate(uploads, context)
        assert aggregator.last_first_stage_accepted.all()

    def test_division_by_total_worker_count(self, context, rng):
        """Algorithm 1 line 14: the update is the selected sum divided by n."""
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=1.0, use_first_stage=False))
        uploads = simulated_uploads(context, rng, 6, 0)
        result = aggregator.aggregate(uploads, context)
        np.testing.assert_allclose(result, np.mean(uploads, axis=0), atol=1e-12)

    def test_partial_selection_scales_down_update(self, context, rng):
        """Selecting k of n uploads divides their sum by n (not by k)."""
        aggregator = TwoStageAggregator(
            ProtocolConfig(gamma=0.5, use_first_stage=False)
        )
        uploads = simulated_uploads(context, rng, 4, 4)
        result = aggregator.aggregate(uploads, context)
        selected = aggregator.last_selected
        manual = np.sum([uploads[i] for i in selected], axis=0) / len(uploads)
        np.testing.assert_allclose(result, manual, atol=1e-12)

    def test_missing_auxiliary_raises(self, rng):
        model, _ = make_model_and_data(seed=4)
        context = AggregationContext(
            model=model,
            auxiliary=None,
            upload_noise_std=DIMENSION_NOISE_STD,
            rng=np.random.default_rng(0),
        )
        aggregator = TwoStageAggregator()
        uploads = [rng.normal(size=model.num_parameters) for _ in range(3)]
        with pytest.raises(ValueError):
            aggregator.aggregate(uploads, context)

    def test_reset_clears_state(self, context, rng):
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=0.5))
        uploads = simulated_uploads(context, rng, 4, 4)
        aggregator.aggregate(uploads, context)
        aggregator.reset()
        assert aggregator.last_selected is None
        assert aggregator._second_stage is None  # noqa: SLF001 - state check

    def test_ablation_first_stage_only(self, context, rng):
        aggregator = TwoStageAggregator(
            ProtocolConfig(gamma=0.4, use_second_stage=False)
        )
        uploads = simulated_uploads(context, rng, 4, 6)
        result = aggregator.aggregate(uploads, context)
        # Without the second stage, every upload that passes FirstAGG is kept.
        assert len(aggregator.last_selected) == 10
        assert result.shape == (context.model.num_parameters,)

    def test_ablation_second_stage_only(self, context, rng):
        aggregator = TwoStageAggregator(
            ProtocolConfig(gamma=0.4, use_first_stage=False)
        )
        uploads = simulated_uploads(context, rng, 4, 6)
        result = aggregator.aggregate(uploads, context)
        gradient = context.server_gradient()
        assert float(np.dot(result, gradient)) > 0.0

    def test_aggregation_draws_nothing_from_the_server_stream(self, context, rng):
        """The server gradient is taken over the whole auxiliary set, so an
        aggregation leaves the server generator where it was (a snapshot
        carries that stream, and a draw would shift every later round)."""
        aggregator = TwoStageAggregator(ProtocolConfig(gamma=0.5))
        before = context.rng.bit_generator.state
        aggregator.aggregate(simulated_uploads(context, rng, 4, 2), context)
        assert context.rng.bit_generator.state == before

    def test_empty_uploads_rejected(self, context):
        aggregator = TwoStageAggregator()
        with pytest.raises(ValueError):
            aggregator.aggregate([], context)

    def test_selection_is_select_scored_over_masked_scores(self, context, rng):
        """The selection the rule makes is ``select_scored(m @ g, arange(n))`` with the
        rows FirstAGG rejects scored 0.0, round after round."""
        config = ProtocolConfig(gamma=0.5)
        aggregator = TwoStageAggregator(config)
        dimension = context.model.num_parameters
        first_stage = FirstStageFilter(DIMENSION_NOISE_STD, dimension)
        selector = SecondStageSelector(n_workers=8, gamma=config.gamma)
        for _ in range(3):
            matrix = np.vstack(simulated_uploads(context, rng, 5, 2))
            matrix = np.vstack([matrix, np.full((1, dimension), 0.5)])  # norm-rejected
            aggregator.aggregate(matrix, context)

            accepted = first_stage.inspect_batch(matrix).accepted
            scores = matrix @ context.server_gradient()
            scores[~accepted] = 0.0
            report = selector.select_scored(scores, np.arange(selector.n_workers))

            assert not accepted[-1]
            np.testing.assert_array_equal(aggregator.last_first_stage_accepted, accepted)
            np.testing.assert_array_equal(aggregator.last_selected, report.selected)
