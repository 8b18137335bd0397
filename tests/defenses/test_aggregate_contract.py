"""Every aggregation rule reads the round matrix and never writes it.

The federated loop hands the server the round matrix itself -- the rows
the worker pools committed into, not a copy -- so ``Aggregator.aggregate``
must leave its input byte-identical (the two-stage rule masks the rows
FirstAGG rejects instead of zeroing them).  Checked for every registered
defense on a full cohort and on a faulty round's gathered survivors with
their worker ids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.defenses.registry import DEFENSES, build_defense
from tests.helpers import make_aggregation_context

N_WORKERS = 12
DIMENSION = 27  # matches make_aggregation_context's linear model
SURVIVOR_IDS = np.array([0, 1, 2, 4, 5, 7, 8, 9, 11], dtype=np.int64)


def round_matrix(seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(N_WORKERS, DIMENSION))
    matrix[[2, 9]] *= 4.0  # outside FirstAGG's norm interval
    return matrix


@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
@pytest.mark.parametrize("name", DEFENSES.names())
def test_aggregate_leaves_its_input_unchanged(name, partial):
    def context():
        built = make_aggregation_context(seed=1, upload_noise_std=1.0)
        if partial:
            built.worker_ids = SURVIVOR_IDS
            built.population = N_WORKERS
        return built

    uploads = round_matrix()[SURVIVOR_IDS] if partial else round_matrix()
    before = uploads.tobytes()
    result = build_defense(name).aggregate(uploads, context())
    assert uploads.tobytes() == before, f"{name} wrote its input"
    np.testing.assert_array_equal(
        result, build_defense(name).aggregate(uploads.copy(), context())
    )
