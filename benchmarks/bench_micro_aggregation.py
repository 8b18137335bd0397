"""Micro-benchmarks of the aggregation rules and the first-stage tests.

These time the per-round server-side cost of each aggregation rule (the
quantity that determines how the protocol scales with the number of workers
and the model size), independent of any training loop.  Uploads enter every
rule as the stacked ``(n_workers, d)`` matrix, mirroring the array-first
pipeline the federated loop now uses.

Run (the bench files use a non-default prefix, so the collection overrides
are required)::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_aggregation.py \
        -o python_files='bench_*.py' -o python_functions='bench_*' \
        --benchmark-only --benchmark-json=BENCH_micro_aggregation.json
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.first_stage import FirstStageFilter
from repro.core.second_stage import SecondStageSelector
from repro.data.synthetic import make_classification
from repro.defenses.base import AggregationContext
from repro.defenses.registry import build_defense
from repro.nn.layers import Linear
from repro.nn.network import Sequential

DIMENSION = 5000
N_WORKERS = 30
NOISE_STD = 0.1


@pytest.fixture(scope="module")
def uploads():
    """The round's stacked (n_workers, d) upload matrix (pure DP noise)."""
    rng = np.random.default_rng(0)
    return rng.normal(0.0, NOISE_STD, size=(N_WORKERS, DIMENSION))


@pytest.fixture(scope="module")
def context():
    """A minimal aggregation context (only rules that ignore it are timed here)."""
    rng = np.random.default_rng(0)
    dataset = make_classification(60, 8, 3, nonlinear=False, rng=rng, name="micro")
    model = Sequential([Linear(8, 3, rng)])
    return AggregationContext(
        model=model,
        auxiliary=dataset.subset(np.arange(12)),
        upload_noise_std=NOISE_STD,
        rng=np.random.default_rng(1),
    )


@pytest.mark.benchmark(group="micro-aggregation")
@pytest.mark.parametrize("defense", ["mean", "median", "trimmed_mean", "krum", "rfa", "signsgd"])
def bench_micro_baseline_aggregators(benchmark, defense, uploads, context):
    aggregator = build_defense(defense)
    result = benchmark(aggregator.aggregate, uploads, context)
    assert result.shape == (DIMENSION,)


@pytest.mark.benchmark(group="micro-first-stage")
def bench_micro_first_stage_filter(benchmark, uploads):
    first_stage = FirstStageFilter(sigma=NOISE_STD, dimension=DIMENSION)
    accepted = benchmark(first_stage.accepts_batch, uploads)
    assert accepted.shape == (N_WORKERS,)


@pytest.mark.benchmark(group="micro-second-stage")
def bench_micro_second_stage_selection(benchmark, uploads):
    """One round's matvec scores plus the selection."""
    rng = np.random.default_rng(1)
    selector = SecondStageSelector(n_workers=N_WORKERS, gamma=0.5)
    server_gradient = rng.normal(size=DIMENSION)
    worker_ids = np.arange(N_WORKERS)
    report = benchmark(
        lambda: selector.select_scored(uploads @ server_gradient, worker_ids=worker_ids)
    )
    assert len(report.selected) == selector.keep


@pytest.fixture(scope="module")
def two_stage_context():
    """A context whose model matches the upload dimension (both stages run)."""
    rng = np.random.default_rng(2)
    n_features = 999
    n_classes = 5  # (999 + 1) * 5 parameters == DIMENSION
    dataset = make_classification(
        60, n_features, n_classes, nonlinear=False, rng=rng, name="micro-two-stage"
    )
    model = Sequential([Linear(n_features, n_classes, rng)])
    assert model.num_parameters == DIMENSION
    return AggregationContext(
        model=model,
        auxiliary=dataset.subset(np.arange(12)),
        upload_noise_std=NOISE_STD,
        rng=np.random.default_rng(3),
    )


@pytest.mark.benchmark(group="micro-two-stage")
def bench_micro_two_stage_aggregate(benchmark, uploads, two_stage_context):
    """Full per-round server cost of the paper's protocol (both stages)."""
    aggregator = build_defense("two_stage")
    result = benchmark(aggregator.aggregate, uploads, two_stage_context)
    assert result.shape == (DIMENSION,)
