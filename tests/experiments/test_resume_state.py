"""Full-state snapshots: bitwise-exact resume after a coordinator crash.

A ``round_<i>.state.npz`` snapshot must *replay*: a run restored
mid-schedule finishes with the final model bitwise equal to the
uninterrupted process, fault trace and straggler buffer included.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import (
    CheckpointMismatchError,
    prepare_experiment,
    resolve_checkpoint,
)
from repro.federated.pipeline import Checkpoint
from repro.federated.state import (
    STATE_SUFFIX,
    RoundState,
    latest_snapshot,
    load_round_state,
    save_round_state,
    snapshot_name,
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

#: chaos with late reports buffered for the next round
BUFFERED_CHAOS_CONFIG = CHAOS_CONFIG.replace(
    faults_kwargs={"straggler": 0.3, "mode": "buffer", "seed": 11},
)


def run_to_completion(config, tmp_path=None, resume_from=None):
    """Run (or finish) an experiment; returns (history, final_parameters)."""
    callbacks = []
    if tmp_path is not None:
        callbacks.append(Checkpoint(tmp_path))
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
            honest_rngs=[
                np.random.default_rng(10 + i).bit_generator.state
                for i in range(n)
            ],
            dp_config=DPConfig(batch_size=4, sigma=1.5),
            learning_rate=0.25,
            byzantine_momentum=rng.standard_normal((2, d)) if with_optionals else None,
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
        assert loaded.server_rng == state.server_rng
        assert loaded.attack_rng == state.attack_rng
        assert loaded.honest_rngs == state.honest_rngs
        assert loaded.dp_config == state.dp_config
        assert loaded.learning_rate == state.learning_rate
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


    @pytest.mark.parametrize(
        "malformed",
        ["empty", "truncated", "text", "array", "foreign", "other_version", "version_2"],
    )
    def test_malformed_file_raises_value_error_naming_it(self, tmp_path, malformed):
        """Whatever is wrong with the file, the reader raises one
        ``ValueError`` that names it, never the archive's own error."""
        path = tmp_path / f"round_2{STATE_SUFFIX}"
        if malformed == "empty":
            path.write_bytes(b"")
        elif malformed == "truncated":
            save_round_state(self.make_state(), path)
            path.write_bytes(path.read_bytes()[:100])
        elif malformed == "text":
            path.write_text("round 2\n")
        elif malformed in ("other_version", "version_2"):
            # A complete snapshot whose only fault is its format version;
            # version 2 also held the pools' batch sizes and the sampler's
            # draw count.
            save_round_state(self.make_state(), path)
            with np.load(path) as archive:
                arrays = dict(archive)
            meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
            if malformed == "version_2":
                meta.update(
                    version=2, honest_batch_size=4, byzantine_batch_size=4,
                    sampler_state=None,
                )
            else:
                meta["version"] += 1
            arrays["meta"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
            with open(path, "wb") as handle:
                np.savez(handle, **arrays)
        else:
            with open(path, "wb") as handle:
                if malformed == "array":
                    np.save(handle, np.zeros(3))
                else:
                    np.savez(handle, weights=np.zeros(3))
        with pytest.raises(ValueError, match="is not a round-state snapshot") as raised:
            load_round_state(path)
        assert str(path) in str(raised.value)
        if malformed == "other_version":
            assert "format version 4" in str(raised.value)
        if malformed == "version_2":
            assert "format version 2" in str(raised.value)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_round_state(tmp_path / f"round_2{STATE_SUFFIX}")


class TestSnapshotNames:
    """One definition of a snapshot's name: what ``Checkpoint`` writes is
    what a directory resume and ``serve --state-dir`` look for."""

    def test_latest_round_compares_as_a_number(self, tmp_path):
        for index in (9, 10, 2):
            (tmp_path / snapshot_name(index)).write_bytes(b"")
        assert latest_snapshot(tmp_path) == tmp_path / "round_10.state.npz"

    def test_names_without_a_round_index_do_not_count(self, tmp_path):
        for name in ("round_latest.state.npz", "round_.state.npz", "xround_4.state.npz"):
            (tmp_path / name).write_bytes(b"")
        assert latest_snapshot(tmp_path) is None
        (tmp_path / snapshot_name(3)).write_bytes(b"")
        assert latest_snapshot(tmp_path) == tmp_path / snapshot_name(3)

    def test_missing_directory_holds_no_snapshot(self, tmp_path):
        assert latest_snapshot(tmp_path / "missing") is None


class TestResolveStateCheckpoints:
    def test_state_file_resolves_to_round_state(self, tmp_path):
        state = TestSnapshotFile().make_state(round_index=5)
        path = save_round_state(state, tmp_path / f"round_5{STATE_SUFFIX}")
        loaded = resolve_checkpoint(path)
        assert isinstance(loaded, RoundState)
        assert loaded.round_index == 5

    def test_round_state_is_returned_unread(self):
        """A resolved state passes through as the same object, so a
        snapshot the caller already read is not read again."""
        state = TestSnapshotFile().make_state(round_index=4)
        assert resolve_checkpoint(state) is state


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

    def test_resume_from_resolved_state_is_bitwise_identical(self, tmp_path):
        """The state resolve_checkpoint returns resumes like its path."""
        _, reference_parameters = run_to_completion(CONFIG, tmp_path=tmp_path)
        resolved = resolve_checkpoint(tmp_path / f"round_1{STATE_SUFFIX}")
        _, from_state = run_to_completion(CONFIG, resume_from=resolved)
        np.testing.assert_array_equal(from_state, reference_parameters)

    @pytest.mark.parametrize(
        "config, buffered",
        [(CHAOS_CONFIG, False), (BUFFERED_CHAOS_CONFIG, True)],
        ids=["discard", "buffer"],
    )
    def test_chaos_resume_replays_identical_fault_trace(
        self, tmp_path, config, buffered
    ):
        """Under --faults chaos the replayed rounds repeat the same faults
        and land on the same final model; with buffered stragglers the
        snapshot round holds late reports that the resumed run delivers."""
        reference_history, reference_parameters = run_to_completion(
            config, tmp_path=tmp_path
        )
        assert reference_history.faults  # chaos actually injected faults
        snapshots = sorted(
            int(p.name[len("round_"):-len(STATE_SUFFIX)])
            for p in tmp_path.glob(f"round_*{STATE_SUFFIX}")
        )
        middle = snapshots[len(snapshots) // 2 - 1]
        snapshot = tmp_path / f"round_{middle}{STATE_SUFFIX}"
        pending = load_round_state(snapshot).pending
        if buffered:
            assert pending is not None and pending[0].size > 0
        else:
            assert pending is None
        resumed_history, resumed_parameters = run_to_completion(
            config, resume_from=snapshot
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
            setup.simulation.pending = pending
            state = setup.simulation.capture_round_state(1)
            path = save_round_state(state, tmp_path / f"round_1{STATE_SUFFIX}")
        finally:
            setup.simulation.close()

        resumed = prepare_experiment(CONFIG, resume_from=path)
        simulation = resumed.simulation
        update = simulation.server.update
        delivered = []

        def recording_update(uploads, worker_ids=None, **kwargs):
            delivered.append(np.array(worker_ids))
            return update(uploads, worker_ids=worker_ids, **kwargs)

        simulation.server.update = recording_update
        try:
            np.testing.assert_array_equal(simulation.pending[0], pending[0])
            np.testing.assert_array_equal(simulation.pending[1], pending[1])
            # The next round delivers the buffer next to its fresh rows,
            # and the buffer is then empty.
            simulation.run_round(2)
            every_worker = np.arange(simulation.n_workers)
            np.testing.assert_array_equal(
                delivered[0], np.sort(np.concatenate((every_worker, pending[0])))
            )
            assert simulation.pending is None
        finally:
            simulation.close()


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

    def test_other_dp_settings_raise_checkpoint_mismatch(self, tmp_path):
        """A resume under another batch size and epsilon would run on with
        another sigma and zeroed momentum; it names what differs instead."""
        run_to_completion(CONFIG, tmp_path=tmp_path)
        with pytest.raises(CheckpointMismatchError) as raised:
            prepare_experiment(
                CONFIG.replace(batch_size=8, epsilon=4.0),
                resume_from=tmp_path / f"round_1{STATE_SUFFIX}",
            )
        message = str(raised.value)
        assert "batch_size 16 (this run: 8)" in message
        assert "sigma" in message
        assert "momentum" not in message

    def test_momentum_of_another_batch_size_is_refused(self, tmp_path):
        """Momentum replays only at the batch size it was computed at, and
        the snapshot's ``dp_config`` records it: a restore into a run of
        another batch size is refused, naming both."""
        setup = prepare_experiment(CONFIG)
        try:
            setup.simulation.run_round(0)
            state = setup.simulation.capture_round_state(0)
        finally:
            setup.simulation.close()
        other = dataclasses.replace(state.dp_config, batch_size=8)
        resumed = prepare_experiment(CONFIG)
        try:
            with pytest.raises(ValueError, match=r"batch_size 8 \(this run: 16\)"):
                resumed.simulation.restore_round_state(
                    dataclasses.replace(state, dp_config=other)
                )
        finally:
            resumed.simulation.close()

    def test_round_outside_schedule_raises(self, tmp_path):
        state = TestSnapshotFile().make_state(round_index=999)
        path = save_round_state(state, tmp_path / f"round_999{STATE_SUFFIX}")
        with pytest.raises(CheckpointMismatchError, match="outside the schedule"):
            prepare_experiment(CONFIG, resume_from=path)
