"""FirstAGG as a mask: the two-stage rule equals its zeroed-row form.

``TwoStageAggregator.aggregate`` does not build Algorithm 2's zeroed copy
of the round matrix: a rejected row scores ``0.0`` and is left out of the
sum.  :func:`zeroed_row_aggregate` keeps the zeroed-row form as the
oracle: the exact p-value mask of ``inspect_batch``, the zeroed matrix
``np.where(accepted[:, None], uploads, 0.0)``, its matvec scores through
``SecondStageSelector.select_scored`` and ``filtered[selected].sum``.

The two must agree on the update vector, the acceptance mask, the
selection and the accumulated scores, round after round.  Vectors are
compared with ``==`` (NaN equal to NaN): leaving a zero row out of a sum
can only flip the sign of an all-zero coordinate.  The one intended
difference is named in :func:`test_nonfinite_server_gradient_scores_rejected_rows_zero`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProtocolConfig
from repro.core.protocol import TwoStageAggregator
from repro.core.second_stage import SecondStageSelector
from repro.data.synthetic import make_classification
from repro.defenses.base import AggregationContext
from repro.nn.layers import Linear
from repro.nn.network import Sequential

SIGMA = 0.3

#: how one upload row is drawn: noise rows pass FirstAGG, the rest mostly fail
ROW_KINDS = ("noise", "noise", "noise", "scaled", "shifted", "zero", "nan", "inf", "-inf")


def zeroed_row_aggregate(
    aggregator: TwoStageAggregator, uploads: np.ndarray, context: AggregationContext
) -> np.ndarray:
    """Algorithm 3 with rejected uploads replaced by zero rows (the oracle).

    Records ``last_first_stage_accepted`` and ``last_selected`` on
    ``aggregator`` like :meth:`TwoStageAggregator.aggregate` does.
    """
    stacked = np.asarray(uploads, dtype=np.float64)
    n_workers, dimension = stacked.shape
    population = n_workers if context.population is None else context.population
    ids = np.arange(n_workers) if context.worker_ids is None else context.worker_ids
    config = aggregator.config
    if config.use_first_stage and context.upload_noise_std > 0:
        first_stage = aggregator._first_stage_filter(dimension, context.upload_noise_std)
        accepted = first_stage.inspect_batch(stacked).accepted
        filtered = np.where(accepted[:, np.newaxis], stacked, 0.0)
    else:
        filtered, accepted = stacked, np.ones(n_workers, dtype=bool)
    aggregator.last_first_stage_accepted = accepted
    if config.use_second_stage:
        selector = aggregator._second_stage_selector(population)
        report = selector.select_scored(filtered @ context.server_gradient(), ids)
        aggregator.last_selected = report.selected
        total = filtered[report.selected].sum(axis=0)
    else:
        aggregator.last_selected = np.arange(n_workers)
        total = filtered.sum(axis=0)
    return total / n_workers


def make_model(n_features: int, n_classes: int, seed: int):
    """A linear model of ``n_features * n_classes + n_classes`` parameters
    and a small auxiliary dataset for it."""
    rng = np.random.default_rng(seed)
    model = Sequential([Linear(n_features, n_classes, rng)])
    auxiliary = make_classification(
        12, n_features, n_classes, nonlinear=False, rng=rng, name="aux"
    )
    return model, auxiliary


def make_context(model, auxiliary, noise_std, worker_ids=None, population=None):
    return AggregationContext(
        model=model,
        auxiliary=auxiliary,
        upload_noise_std=noise_std,
        rng=np.random.default_rng(0),
        worker_ids=worker_ids,
        population=population,
    )


def draw_rows(rng: np.random.Generator, kinds: list[str], dimension: int) -> np.ndarray:
    matrix = rng.normal(0.0, SIGMA, size=(len(kinds), dimension))
    for row, kind in enumerate(kinds):
        column = rng.integers(dimension)
        if kind == "scaled":
            matrix[row] *= 3.0
        elif kind == "shifted":
            matrix[row] += SIGMA
        elif kind == "zero":
            matrix[row] = 0.0
        elif kind == "nan":
            matrix[row, column] = np.nan
        elif kind == "inf":
            matrix[row, column] = np.inf
        elif kind == "-inf":
            matrix[row, column] = -np.inf
    return matrix


def assert_same_round(mask, oracle, result, expected):
    np.testing.assert_array_equal(result, expected)
    np.testing.assert_array_equal(
        mask.last_first_stage_accepted, oracle.last_first_stage_accepted
    )
    np.testing.assert_array_equal(mask.last_selected, oracle.last_selected)
    mask_state, oracle_state = mask.state_dict(), oracle.state_dict()
    assert mask_state.keys() == oracle_state.keys()
    for key in mask_state:
        np.testing.assert_array_equal(mask_state[key], oracle_state[key])


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_features=st.integers(3, 12),
    n_classes=st.integers(2, 4),
    rounds=st.lists(
        st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=10),
        min_size=1, max_size=3,
    ),
    use_first_stage=st.booleans(),
    use_second_stage=st.booleans(),
    private=st.booleans(),
    gamma=st.sampled_from([0.2, 0.5, 0.8, 1.0]),
    partial=st.booleans(),
)
def test_mask_equals_zeroed_rows(
    seed, n_features, n_classes, rounds, use_first_stage, use_second_stage,
    private, gamma, partial,
):
    rng = np.random.default_rng(seed)
    model, auxiliary = make_model(n_features, n_classes, seed)
    config = ProtocolConfig(
        gamma=gamma, use_first_stage=use_first_stage, use_second_stage=use_second_stage
    )
    mask, oracle = TwoStageAggregator(config), TwoStageAggregator(config)
    noise_std = SIGMA if private else 0.0
    population = 12 if partial else None
    for kinds in rounds:
        ids = None
        if partial:
            # a partial cohort: sorted ids, duplicates allowed (a buffered
            # straggler and a fresh report of the same worker)
            ids = np.sort(rng.integers(0, population, size=len(kinds)))
        else:
            # a full cohort keeps its size from round to round
            kinds = (kinds * len(rounds[0]))[: len(rounds[0])]
        matrix = draw_rows(rng, kinds, model.num_parameters)
        before = matrix.tobytes()
        # non-finite rows reach the sums when FirstAGG is off
        with np.errstate(invalid="ignore", over="ignore"):
            result = mask.aggregate(
                matrix, make_context(model, auxiliary, noise_std, ids, population)
            )
            expected = zeroed_row_aggregate(
                oracle, matrix.copy(),
                make_context(model, auxiliary, noise_std, ids, population),
            )
        assert matrix.tobytes() == before, "aggregate wrote its input"
        assert_same_round(mask, oracle, result, expected)


class TestMaskCases:
    """Named cases the property covers only by chance."""

    def setup_method(self):
        self.model, self.auxiliary = make_model(8, 3, seed=5)  # d = 27
        self.rng = np.random.default_rng(5)

    def context(self, **kwargs):
        return make_context(self.model, self.auxiliary, SIGMA, **kwargs)

    def run_both(self, matrices, **context_kwargs):
        mask, oracle = TwoStageAggregator(), TwoStageAggregator()
        for matrix in matrices:
            before = matrix.tobytes()
            result = mask.aggregate(matrix, self.context(**context_kwargs))
            assert matrix.tobytes() == before
            expected = zeroed_row_aggregate(
                oracle, matrix.copy(), self.context(**context_kwargs)
            )
            assert_same_round(mask, oracle, result, expected)
        return mask, result

    def test_all_rejected_round(self):
        matrix = draw_rows(self.rng, ["scaled", "zero", "nan", "inf"], 27)
        mask, result = self.run_both([matrix])
        assert not mask.last_first_stage_accepted.any()
        assert mask.last_selected.size == 2
        np.testing.assert_array_equal(result, 0.0)

    def test_rejected_but_selected_row(self):
        first = draw_rows(self.rng, ["noise"] * 6, 27)
        gradient = self.context().server_gradient()
        leader = int(np.argmax(first @ gradient))
        second = draw_rows(self.rng, ["noise"] * 6, 27)
        second[leader] *= 3.0  # fails the norm test
        mask, _ = self.run_both([first, second])
        assert not mask.last_first_stage_accepted[leader]
        assert leader in mask.last_selected

    def test_partial_cohort_with_duplicate_ids(self):
        ids = np.array([0, 2, 2, 5, 7, 7])
        matrices = [
            draw_rows(self.rng, ["noise", "scaled", "noise", "nan", "noise", "noise"], 27),
            draw_rows(self.rng, ["noise", "noise", "zero", "noise", "-inf", "noise"], 27),
        ]
        self.run_both(matrices, worker_ids=ids, population=9)


def test_nonfinite_server_gradient_scores_rejected_rows_zero(monkeypatch):
    """The one difference from zeroed rows: with a non-finite server
    gradient a rejected row scores ``0.0``, where its zero row scores NaN."""
    model, auxiliary = make_model(8, 3, seed=5)
    parameters = model.get_flat_parameters().copy()
    parameters[0] = np.nan
    model.set_flat_parameters(parameters)
    matrix = draw_rows(np.random.default_rng(5), ["noise", "noise", "scaled", "zero"], 27)
    scored = []
    original = SecondStageSelector.select_scored

    def spy(selector, scores, worker_ids):
        scored.append(np.array(scores))
        return original(selector, scores, worker_ids)

    monkeypatch.setattr(SecondStageSelector, "select_scored", spy)
    aggregator = TwoStageAggregator()
    aggregator.aggregate(matrix, make_context(model, auxiliary, SIGMA))
    zeroed_row_aggregate(TwoStageAggregator(), matrix, make_context(model, auxiliary, SIGMA))
    mask_scores, oracle_scores = scored
    rejected = ~aggregator.last_first_stage_accepted
    assert rejected.any() and not rejected.all()
    np.testing.assert_array_equal(mask_scores[rejected], 0.0)
    assert np.isnan(oracle_scores[rejected]).all()
    assert np.isnan(mask_scores[~rejected]).all()
