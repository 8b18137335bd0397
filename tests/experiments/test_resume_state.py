"""Full-state snapshots: bitwise-exact resume after a coordinator crash.

Parameter-only ``round_<i>.npy`` resume (a faithful *continuation*) is
covered by ``test_resume.py``; here the full-state ``round_<i>.state.npz``
flavour must *replay*: a run restored mid-schedule finishes with the
final model bitwise equal to the uninterrupted process, fault trace
included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import (
    CheckpointMismatchError,
    prepare_experiment,
    resolve_checkpoint,
)
from repro.federated.pipeline import Checkpoint, RoundPipeline
from repro.federated.state import (
    STATE_SUFFIX,
    RoundState,
    load_round_state,
    save_round_state,
)

CONFIG = ExperimentConfig(
    dataset="usps_like",
    scale=0.2,
    n_honest=4,
    model="linear",
    epochs=1,
    epsilon=1.0,
    eval_every=2,
    seed=3,
    byzantine_fraction=0.4,
)

CHAOS_CONFIG = CONFIG.replace(
    faults="chaos",
    faults_kwargs={"seed": 11},
    min_quorum=1,
)


def run_to_completion(config, tmp_path=None, resume_from=None):
    """Run (or finish) an experiment; returns (history, final_parameters)."""
    callbacks = []
    if tmp_path is not None:
        callbacks.append(Checkpoint(every=1, directory=tmp_path, full_state=True))
    setup = prepare_experiment(config, resume_from=resume_from)
    try:
        history = setup.simulation.run(callbacks)
        parameters = setup.simulation.model.get_flat_parameters().copy()
    finally:
        setup.simulation.close()
    return history, parameters


class TestSnapshotFile:
    def make_state(self, round_index=2, d=6, n=3, with_optionals=True):
        rng = np.random.default_rng(0)
        return RoundState(
            round_index=round_index,
            parameters=rng.standard_normal(d),
            server_rng=np.random.default_rng(1).bit_generator.state,
            attack_rng=np.random.default_rng(2).bit_generator.state,
            honest_momentum=rng.standard_normal((n, d)),
            honest_batch_size=4,
            honest_rngs=[
                np.random.default_rng(10 + i).bit_generator.state
                for i in range(n)
            ],
            byzantine_momentum=rng.standard_normal((2, d)) if with_optionals else None,
            byzantine_batch_size=4 if with_optionals else None,
            byzantine_rngs=(
                [np.random.default_rng(20 + i).bit_generator.state for i in range(2)]
                if with_optionals else None
            ),
            pending=(
                (np.array([1, 2]), rng.standard_normal((2, d)))
                if with_optionals else None
            ),
        )

    @pytest.mark.parametrize("with_optionals", [True, False])
    def test_round_trip_is_bitwise(self, tmp_path, with_optionals):
        state = self.make_state(with_optionals=with_optionals)
        path = save_round_state(state, tmp_path / f"round_2{STATE_SUFFIX}")
        loaded = load_round_state(path)
        assert loaded.round_index == state.round_index
        np.testing.assert_array_equal(loaded.parameters, state.parameters)
        np.testing.assert_array_equal(loaded.honest_momentum, state.honest_momentum)
        assert loaded.honest_batch_size == state.honest_batch_size
        assert loaded.server_rng == state.server_rng
        assert loaded.attack_rng == state.attack_rng
        assert loaded.honest_rngs == state.honest_rngs
        if with_optionals:
            np.testing.assert_array_equal(
                loaded.byzantine_momentum, state.byzantine_momentum
            )
            assert loaded.byzantine_rngs == state.byzantine_rngs
            np.testing.assert_array_equal(loaded.pending[0], state.pending[0])
            np.testing.assert_array_equal(loaded.pending[1], state.pending[1])
        else:
            assert loaded.byzantine_momentum is None
            assert loaded.byzantine_rngs is None
            assert loaded.pending is None

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        save_round_state(self.make_state(), tmp_path / f"round_2{STATE_SUFFIX}")
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers == [f"round_2{STATE_SUFFIX}"]

    def test_overwrite_replaces_previous_snapshot(self, tmp_path):
        path = tmp_path / f"round_2{STATE_SUFFIX}"
        save_round_state(self.make_state(), path)
        newer = self.make_state()
        newer.parameters = np.full(6, 42.0)
        save_round_state(newer, path)
        np.testing.assert_array_equal(
            load_round_state(path).parameters, np.full(6, 42.0)
        )


class TestResolveStateCheckpoints:
    def test_state_file_resolves_to_round_state(self, tmp_path):
        state = TestSnapshotFile().make_state(round_index=5)
        path = save_round_state(state, tmp_path / f"round_5{STATE_SUFFIX}")
        round_index, payload = resolve_checkpoint(path)
        assert round_index == 5
        assert isinstance(payload, RoundState)

    def test_state_pair_is_returned_unread(self):
        """A resolved full-state pair passes through as the same object,
        so a snapshot the caller already read is not read again."""
        state = TestSnapshotFile().make_state(round_index=4)
        round_index, payload = resolve_checkpoint((4, state))
        assert round_index == 4
        assert payload is state

    def test_directory_prefers_state_over_npy_on_same_round(self, tmp_path):
        np.save(tmp_path / "round_3.npy", np.zeros(4))
        save_round_state(
            TestSnapshotFile().make_state(round_index=3),
            tmp_path / f"round_3{STATE_SUFFIX}",
        )
        np.save(tmp_path / "round_1.npy", np.zeros(4))
        round_index, payload = resolve_checkpoint(tmp_path)
        assert round_index == 3
        assert isinstance(payload, RoundState)

    def test_directory_latest_round_wins_across_flavours(self, tmp_path):
        save_round_state(
            TestSnapshotFile().make_state(round_index=2),
            tmp_path / f"round_2{STATE_SUFFIX}",
        )
        np.save(tmp_path / "round_7.npy", np.full(4, 7.0))
        round_index, payload = resolve_checkpoint(tmp_path)
        assert round_index == 7
        assert isinstance(payload, np.ndarray)


class TestBitwiseResume:
    def test_resume_mid_schedule_is_bitwise_identical(self, tmp_path):
        """The headline guarantee: kill after round k, restart, same bits."""
        reference_history, reference_parameters = run_to_completion(
            CONFIG, tmp_path=tmp_path
        )
        total = len(reference_history.rounds)
        assert total >= 2
        snapshots = sorted(
            int(p.name[len("round_"):-len(STATE_SUFFIX)])
            for p in tmp_path.glob(f"round_*{STATE_SUFFIX}")
        )
        middle = snapshots[len(snapshots) // 2 - 1]

        resumed_history, resumed_parameters = run_to_completion(
            CONFIG, resume_from=tmp_path / f"round_{middle}{STATE_SUFFIX}"
        )
        np.testing.assert_array_equal(resumed_parameters, reference_parameters)
        # Post-resume evaluations match the uninterrupted run exactly.
        tail = {
            r: a for r, a in zip(
                reference_history.rounds, reference_history.test_accuracy
            ) if r > middle
        }
        for r, a in zip(resumed_history.rounds, resumed_history.test_accuracy):
            assert tail[r] == a

    def test_resume_from_directory_uses_latest_snapshot(self, tmp_path):
        reference_history, reference_parameters = run_to_completion(
            CONFIG, tmp_path=tmp_path
        )
        resumed_history, resumed_parameters = run_to_completion(
            CONFIG, resume_from=tmp_path
        )
        # The latest snapshot is the final round: nothing left to train,
        # but the restored model must already hold the final bits.
        np.testing.assert_array_equal(resumed_parameters, reference_parameters)

    def test_resume_from_resolved_pair_is_bitwise_identical(self, tmp_path):
        """The pair resolve_checkpoint returns resumes like its path."""
        _, reference_parameters = run_to_completion(CONFIG, tmp_path=tmp_path)
        resolved = resolve_checkpoint(tmp_path / f"round_1{STATE_SUFFIX}")
        assert isinstance(resolved[1], RoundState)
        _, from_pair = run_to_completion(CONFIG, resume_from=resolved)
        np.testing.assert_array_equal(from_pair, reference_parameters)

    def test_chaos_resume_replays_identical_fault_trace(self, tmp_path):
        """Under --faults chaos the replayed rounds repeat the same faults
        and land on the same final accuracy (the satellite criterion)."""
        reference_history, reference_parameters = run_to_completion(
            CHAOS_CONFIG, tmp_path=tmp_path
        )
        assert reference_history.faults  # chaos actually injected faults
        snapshots = sorted(
            int(p.name[len("round_"):-len(STATE_SUFFIX)])
            for p in tmp_path.glob(f"round_*{STATE_SUFFIX}")
        )
        middle = snapshots[len(snapshots) // 2 - 1]
        resumed_history, resumed_parameters = run_to_completion(
            CHAOS_CONFIG,
            resume_from=tmp_path / f"round_{middle}{STATE_SUFFIX}",
        )
        np.testing.assert_array_equal(resumed_parameters, reference_parameters)
        assert resumed_history.final_accuracy == reference_history.final_accuracy
        reference_tail = [
            entry for entry in reference_history.faults
            if entry["round"] > middle
        ]
        assert resumed_history.faults == reference_tail

    def test_pending_straggler_buffer_survives_the_round_trip(self, tmp_path):
        setup = prepare_experiment(CONFIG)
        try:
            d = setup.simulation.model.num_parameters
            pending = (np.array([0, 2]), np.ones((2, d)))
            state = setup.simulation.capture_round_state(1, pending=pending)
            path = save_round_state(state, tmp_path / f"round_1{STATE_SUFFIX}")
        finally:
            setup.simulation.close()

        resumed = prepare_experiment(CONFIG, resume_from=path)
        try:
            pipeline = RoundPipeline(resumed.simulation)
            assert pipeline._pending is not None
            np.testing.assert_array_equal(pipeline._pending[0], pending[0])
            np.testing.assert_array_equal(pipeline._pending[1], pending[1])
            # Consumed exactly once: a second pipeline starts empty.
            assert RoundPipeline(resumed.simulation)._pending is None
        finally:
            resumed.simulation.close()


class TestMismatchedSnapshots:
    def test_wrong_worker_count_raises_checkpoint_mismatch(self, tmp_path):
        setup = prepare_experiment(CONFIG)
        try:
            state = setup.simulation.capture_round_state(0)
            path = save_round_state(state, tmp_path / f"round_0{STATE_SUFFIX}")
        finally:
            setup.simulation.close()
        with pytest.raises(CheckpointMismatchError, match="honest workers"):
            prepare_experiment(CONFIG.replace(n_honest=6), resume_from=path)

    def test_round_outside_schedule_raises(self, tmp_path):
        state = TestSnapshotFile().make_state(round_index=999)
        path = save_round_state(state, tmp_path / f"round_999{STATE_SUFFIX}")
        with pytest.raises(CheckpointMismatchError, match="outside the schedule"):
            prepare_experiment(CONFIG, resume_from=path)
