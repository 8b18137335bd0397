"""The round matrix is the only copy of a round's uploads: bitwise oracles.

Three stages used to copy rows, and each keeps its copying form here as
the oracle:

- a faulty round gathered its survivors (``matrix[survivor_ids]``), then
  concatenated last round's buffered reports and reordered the rows by
  worker id.  It now moves the survivors to the top of the round matrix,
  or writes survivors and arrivals straight into one merged matrix; the
  server must receive the same rows, ids and diagnostics;
- the two-stage update summed ``matrix[summed]`` along axis 0.  It now
  adds the rows where they lie, in ``summed`` order;
- the crafting attacks tiled their one crafted row into an
  ``(n_byzantine, d)`` block.  They now return a broadcast view.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.byzantine.alittle import ALittleAttack
from repro.byzantine.inner import InnerProductAttack
from repro.byzantine.label_flip import LabelFlipAttack
from repro.byzantine.lmp import LocalModelPoisoningAttack
from repro.core.config import DPConfig, ProtocolConfig
from repro.core.protocol import TwoStageAggregator
from repro.data.auxiliary import sample_auxiliary
from repro.data.partition import partition_iid
from repro.data.synthetic import make_classification
from repro.defenses.registry import build_defense
from repro.experiments.presets import benchmark_preset
from repro.experiments.runner import prepare_experiment
from repro.federated.faults import FaultModel, ReportFaultPlan
from repro.federated.simulation import FederatedSimulation, SimulationSettings
from repro.nn.layers import Linear
from repro.nn.network import Sequential
from tests.helpers import make_aggregation_context, make_attack_context

ROUNDS = 6


def gather_oracle(matrix, survivors, survivor_ids, arrivals):
    """The copying form: gather the survivors, append the buffered
    ``(ids, rows)`` and reorder everything by id (stable)."""
    rows = matrix[survivors]
    if arrivals is not None:
        survivor_ids = np.concatenate((survivor_ids, arrivals[0]))
        rows = np.concatenate((rows, arrivals[1]), axis=0)
        order = np.argsort(survivor_ids, kind="stable")
        survivor_ids = survivor_ids[order]
        rows = rows[order]
    return survivor_ids, rows


class RandomLoss(FaultModel):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Seeded random dropped and late masks (no crashes; they may
    overlap) at a rate that changes from round to round: nothing is lost
    in the first and last rounds, the last one only delivers arrivals."""

    RATES = (0.0, 0.2, 0.45, 0.1, 0.3, 0.0)

    def __init__(self, buffer_late: bool, seed: int = 0) -> None:
        super().__init__(seed)
        self.buffer_late = buffer_late

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        rng = self.rng(0, round_index)
        rate = self.RATES[round_index % len(self.RATES)]
        return ReportFaultPlan(
            dropped=rng.random(n_workers) < rate,
            late=rng.random(n_workers) < rate,
            buffer_late=self.buffer_late,
        )


def classic_simulation(faults: FaultModel) -> FederatedSimulation:
    rng = np.random.default_rng(3)
    data = make_classification(280, 8, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="round_oracles")
    test = make_classification(60, 8, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="round_oracles_test")
    return FederatedSimulation(
        model=Sequential([Linear(8, 3, rng)]),
        honest_datasets=partition_iid(data, 7, rng),
        n_byzantine=5,
        attack=LabelFlipAttack(),
        aggregator=build_defense("two_stage"),
        dp_config=DPConfig(batch_size=8, sigma=0.5),
        auxiliary=sample_auxiliary(test, per_class=2, rng=rng),
        test_dataset=test,
        settings=SimulationSettings(total_rounds=ROUNDS, learning_rate=0.5),
        seed=3,
        faults=faults,
    )


def population_simulation(faults: FaultModel) -> FederatedSimulation:
    config = benchmark_preset(
        dataset="usps_like", scale=0.2, epochs=1, population=300, cohort=8,
        byzantine_fraction=0.25, attack="label_flip", seed=13,
    )
    simulation = prepare_experiment(config).simulation
    simulation.fault_model = faults
    return simulation


def spy_on_matrix(simulation: FederatedSimulation) -> list:
    """Wraps the simulation's Byzantine stage to keep a copy of each
    round's full matrix and row ids, taken once both upload stages have
    written it; returns the list the copies go to."""
    rounds = []
    byzantine_uploads = simulation.byzantine_uploads

    def spying_uploads(honest_uploads, round_index, crash_plan=None, out=None):
        result = byzantine_uploads(honest_uploads, round_index, crash_plan, out=out)
        rounds.append((out.base.copy(), simulation.global_worker_ids()))
        return result

    simulation.byzantine_uploads = spying_uploads
    return rounds


@pytest.mark.parametrize("build", [classic_simulation, population_simulation],
                         ids=["classic", "population"])
@pytest.mark.parametrize("buffer_late", [False, True], ids=["discard", "buffer"])
def test_faulty_rounds_hand_the_server_the_gathered_rows(build, buffer_late):
    faults = RandomLoss(buffer_late)
    simulation = build(faults)
    server = simulation.server
    update = server.update
    received = []

    def recording_update(uploads, worker_ids=None, **kwargs):
        aggregated = update(uploads, worker_ids=worker_ids, **kwargs)
        received.append((
            uploads.copy(), uploads.flags.c_contiguous, np.array(worker_ids),
            server.aggregator.last_selected.copy(),
        ))
        return aggregated

    server.update = recording_update
    matrices = spy_on_matrix(simulation)
    try:
        diagnostics = [simulation.run_round(index) for index in range(ROUNDS)]
    finally:
        simulation.close()

    pending, duplicates = None, 0
    for index, ((matrix, ids), got) in enumerate(zip(matrices, received)):
        plan = faults.report_faults(index, matrix.shape[0])
        survivors = np.nonzero(~(plan.dropped | plan.late))[0]
        want_ids, want_rows = gather_oracle(matrix, survivors, ids[survivors], pending)
        buffer = plan.late & ~plan.dropped if buffer_late else np.zeros_like(plan.late)
        pending = (ids[buffer], matrix[buffer]) if buffer.any() else None

        rows, contiguous, worker_ids, selected = got
        assert contiguous and rows.shape == want_rows.shape
        assert rows.tobytes() == want_rows.tobytes()
        np.testing.assert_array_equal(worker_ids, want_ids)
        duplicates += want_ids.size - np.unique(want_ids).size
        byzantine = np.mean(want_ids[selected] >= simulation.byzantine_id_floor)
        assert diagnostics[index] == {
            "byzantine_selected_fraction": float(byzantine),
            "fault_dropped": float(np.count_nonzero(plan.dropped)),
            "fault_timed_out": float(np.count_nonzero(plan.late)),
            "fault_crashed": 0.0,
            "fault_retried": 0.0,
            "fault_buffered": float(np.count_nonzero(buffer)),
            "fault_survivors": float(want_rows.shape[0]),
        }
    # a buffered report met its worker's fresh one at least once
    assert (duplicates > 0) == buffer_late


class TestInPlaceSum:
    """``TwoStageAggregator.aggregate`` returns ``matrix[summed].sum(axis=0)
    / n`` bit for bit, where ``summed`` are the accepted selected rows."""

    N_WORKERS, DIMENSION = 12, 27  # make_aggregation_context's linear model

    def assert_oracle(self, matrix, **config):
        """Aggregate ``matrix``, compare with the gather and return ``summed``."""
        aggregator = TwoStageAggregator(ProtocolConfig(**config))
        context = make_aggregation_context(seed=1, upload_noise_std=1.0)
        result = aggregator.aggregate(matrix, context)
        accepted = aggregator.last_first_stage_accepted
        selected = aggregator.last_selected
        summed = selected[accepted[selected]]
        want = matrix[summed].sum(axis=0) / matrix.shape[0]
        assert result.tobytes() == want.tobytes()
        return summed

    @pytest.mark.parametrize("second_stage", [True, False], ids=["two_stage", "first_only"])
    def test_random_selections(self, second_stage):
        rng = np.random.default_rng(4)
        for _ in range(50):
            matrix = rng.normal(size=(self.N_WORKERS, self.DIMENSION))
            matrix[rng.random(self.N_WORKERS) < 0.3] *= 4.0  # fail the norm test
            self.assert_oracle(
                matrix, gamma=float(rng.uniform(0.05, 1.0)),
                use_second_stage=second_stage,
            )

    @pytest.mark.parametrize("second_stage", [True, False], ids=["two_stage", "first_only"])
    def test_nothing_summed_gives_zeros(self, second_stage):
        matrix = 4.0 * np.random.default_rng(5).normal(size=(self.N_WORKERS, self.DIMENSION))
        summed = self.assert_oracle(matrix, gamma=0.5, use_second_stage=second_stage)
        assert summed.size == 0  # the gather's empty sum is +0.0 everywhere

    @pytest.mark.parametrize("second_stage", [True, False], ids=["two_stage", "first_only"])
    def test_one_row_summed(self, second_stage):
        matrix = 4.0 * np.random.default_rng(6).normal(size=(self.N_WORKERS, self.DIMENSION))
        matrix[3] /= 4.0  # the only row within FirstAGG's norm interval
        summed = self.assert_oracle(matrix, gamma=1.0, use_second_stage=second_stage)
        np.testing.assert_array_equal(summed, [3])


def tiled_alittle(attack, context):
    uploads = context.honest_uploads
    n_total = context.n_honest + context.n_byzantine
    z = attack.z if attack.z is not None else attack._default_z(n_total, context.n_byzantine)
    single = uploads.mean(axis=0) - z * uploads.std(axis=0)
    return np.tile(single, (context.n_byzantine, 1))


def tiled_lmp(attack, context):
    lam = attack.effective_lambda(context.n_byzantine, context.n_honest)
    single = -(1.0 + lam) / context.n_byzantine * context.honest_uploads.sum(axis=0)
    return np.tile(single, (context.n_byzantine, 1))


def tiled_inner(attack, context):
    single = -attack.epsilon_scale * context.honest_uploads.mean(axis=0)
    return np.tile(single, (context.n_byzantine, 1))


@pytest.mark.parametrize(
    "attack, oracle",
    [
        (ALittleAttack(), tiled_alittle),
        (ALittleAttack(z=0.7), tiled_alittle),
        (LocalModelPoisoningAttack(), tiled_lmp),
        (InnerProductAttack(epsilon_scale=2.5), tiled_inner),
    ],
    ids=["alittle", "alittle_z", "lmp", "inner"],
)
def test_crafted_rows_equal_the_tiled_block(attack, oracle):
    rng = np.random.default_rng(8)
    for n_honest, n_byzantine, d in [(1, 1, 3), (7, 3, 27), (20, 30, 650)]:
        context = make_attack_context(rng.normal(size=(n_honest, d)), n_byzantine)
        crafted = attack.craft(context)
        want = oracle(attack, context)
        assert crafted.shape == want.shape == (n_byzantine, d)
        assert crafted.tobytes() == want.tobytes()
