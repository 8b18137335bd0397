"""Pools commit their shards into the round matrix, under every defense.

Each round fills one ``(n, d)`` round matrix, honest rows first: the
honest pool commits its shards into the top rows and a protocol-following
attack's Byzantine pool commits into the rows below.  The shard split is
an execution detail.  For every registered defense and every split --
single-row and ragged last shards included -- the server receives
exactly the uploads of a one-shard round, its ``update`` leaves them
byte-identical, and the diagnostics and parameters agree bitwise.  A
faulty round keeps the guarantee on its gathered survivors: dropped
workers are left out, and a buffered late report joins the next round
next to its worker's fresh one (a duplicate worker id), also when each
round is a separate ``simulation.run_round`` call.
"""

from __future__ import annotations

from functools import cache

import numpy as np
import pytest

from repro.byzantine.label_flip import LabelFlipAttack
from repro.core.config import DPConfig
from repro.data.auxiliary import sample_auxiliary
from repro.data.partition import partition_iid
from repro.data.synthetic import make_classification
from repro.defenses.registry import DEFENSES, build_defense
from repro.federated.faults import FaultModel, ReportFaultPlan
from repro.federated.simulation import FederatedSimulation, SimulationSettings
from repro.nn.layers import Linear
from repro.nn.network import Sequential

N_HONEST = 7
N_BYZANTINE = 3
ROUNDS = 2


class DropAndBufferLate(FaultModel):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Deterministic test model: workers 1 (honest) and 8 (Byzantine) drop
    out every round; worker 4 reports late in round 0 only, and its
    buffered report is delivered in round 1."""

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        dropped = np.zeros(n_workers, dtype=bool)
        dropped[[1, 8]] = True
        late = np.zeros(n_workers, dtype=bool)
        late[4] = round_index == 0
        return ReportFaultPlan(dropped=dropped, late=late, buffer_late=True)


#: the worker ids each faulty round hands the server
SURVIVOR_IDS = (
    [0, 2, 3, 5, 6, 7, 9],
    [0, 2, 3, 4, 4, 5, 6, 7, 9],
)


def build_simulation(name: str, shard_size: int | None, faulty: bool):
    rng = np.random.default_rng(3)
    data = make_classification(280, 8, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="round_matrix")
    test = make_classification(60, 8, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="round_matrix_test")
    return FederatedSimulation(
        model=Sequential([Linear(8, 3, rng)]),
        honest_datasets=partition_iid(data, N_HONEST, rng),
        n_byzantine=N_BYZANTINE,
        attack=LabelFlipAttack(),
        aggregator=build_defense(name),
        dp_config=DPConfig(batch_size=8, sigma=0.5),
        auxiliary=sample_auxiliary(test, per_class=2, rng=rng),
        test_dataset=test,
        settings=SimulationSettings(total_rounds=ROUNDS, learning_rate=0.5),
        seed=3,
        shard_size=shard_size,
        faults=DropAndBufferLate() if faulty else None,
    )


def record_run(name: str, shard_size: int | None, faulty: bool):
    """Run ``ROUNDS`` rounds; returns what each round handed the server,
    whether ``update`` left it unchanged, the diagnostics and the final
    parameters."""
    simulation = build_simulation(name, shard_size, faulty)
    server = simulation.server
    update = server.update
    received = []

    def recording_update(uploads, worker_ids=None, **kwargs):
        before = uploads.copy()
        aggregated = update(uploads, worker_ids=worker_ids, **kwargs)
        received.append(
            (before, worker_ids, uploads.tobytes() == before.tobytes())
        )
        return aggregated

    server.update = recording_update
    # The straggler buffer is simulation state: one-round calls deliver it.
    diagnostics = [simulation.run_round(index) for index in range(ROUNDS)]
    parameters = simulation.model.get_flat_parameters()
    simulation.close()
    return received, diagnostics, parameters


@cache
def one_shard_run(name: str, faulty: bool):
    return record_run(name, None, faulty)


def assert_matches_one_shard(name: str, shard_size: int, faulty: bool):
    received, diagnostics, parameters = record_run(name, shard_size, faulty)
    reference, reference_diagnostics, reference_parameters = one_shard_run(
        name, faulty
    )
    assert len(received) == len(reference) == ROUNDS
    for index, (got, want) in enumerate(zip(received, reference)):
        uploads, worker_ids, untouched = got
        assert untouched, f"{name} wrote the uploads of round {index}"
        np.testing.assert_array_equal(uploads, want[0])
        if faulty:
            np.testing.assert_array_equal(worker_ids, SURVIVOR_IDS[index])
            np.testing.assert_array_equal(want[1], SURVIVOR_IDS[index])
        else:
            every_worker = np.arange(N_HONEST + N_BYZANTINE)
            np.testing.assert_array_equal(worker_ids, every_worker)
            np.testing.assert_array_equal(want[1], every_worker)
            assert uploads.shape[0] == N_HONEST + N_BYZANTINE
    assert diagnostics == reference_diagnostics
    np.testing.assert_array_equal(parameters, reference_parameters)


class TestShardSplitInvariance:
    @pytest.mark.parametrize("shard_size", [1, 2, 3, 5])
    @pytest.mark.parametrize("name", DEFENSES.names())
    def test_full_cohort_bitwise(self, name, shard_size):
        assert_matches_one_shard(name, shard_size, faulty=False)

    @pytest.mark.parametrize("shard_size", [1, 3, 4])
    @pytest.mark.parametrize("name", DEFENSES.names())
    def test_partial_cohort_bitwise(self, name, shard_size):
        assert_matches_one_shard(name, shard_size, faulty=True)


class TestBufferedDelivery:
    def test_whole_run_delivers_like_one_round_calls(self):
        """``simulation.run`` hands the server the same survivors, buffered
        report included, and reaches the same parameters as consecutive
        ``run_round`` calls."""
        reference, _, reference_parameters = one_shard_run("two_stage", True)
        simulation = build_simulation("two_stage", None, True)
        update = simulation.server.update
        received = []

        def recording_update(uploads, worker_ids=None, **kwargs):
            received.append((uploads.copy(), np.array(worker_ids)))
            return update(uploads, worker_ids=worker_ids, **kwargs)

        simulation.server.update = recording_update
        try:
            simulation.run()
            parameters = simulation.model.get_flat_parameters()
        finally:
            simulation.close()
        assert len(received) == ROUNDS
        for index, ((uploads, worker_ids), want) in enumerate(zip(received, reference)):
            np.testing.assert_array_equal(worker_ids, SURVIVOR_IDS[index])
            np.testing.assert_array_equal(uploads, want[0])
        np.testing.assert_array_equal(parameters, reference_parameters)
