"""Checkpoint/resume: Checkpoint snapshots restore into prepare_experiment."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.presets import benchmark_preset
from repro.experiments.runner import (
    CheckpointMismatchError,
    prepare_experiment,
    resolve_checkpoint,
    run_experiment,
)
from repro.federated.pipeline import Checkpoint
from repro.federated.state import load_round_state, save_round_state

CONFIG = ExperimentConfig(
    dataset="usps_like",
    scale=0.2,
    n_honest=4,
    model="linear",
    epochs=1,
    epsilon=1.0,
    eval_every=2,
    seed=3,
)

#: ``repro run`` flags and the config they build, for the CLI cases
CLI_ARGUMENTS = [
    "run", "--dataset", "usps_like", "--byzantine", "0.4",
    "--attack", "label_flip", "--epochs", "1", "--seed", "1",
]
CLI_CONFIG = benchmark_preset(
    dataset="usps_like", byzantine_fraction=0.4, attack="label_flip",
    epochs=1, seed=1,
)


def captured_state(config, **changes):
    """A fresh simulation's round-0 state, with ``changes`` applied."""
    setup = prepare_experiment(config)
    try:
        state = setup.simulation.capture_round_state(0)
    finally:
        setup.simulation.close()
    return dataclasses.replace(state, **changes)


class TestResolveCheckpoint:
    def test_directory_picks_latest_round(self, tmp_path):
        state = captured_state(CONFIG)
        for index in (0, 3, 11):
            save_round_state(
                dataclasses.replace(state, round_index=index),
                tmp_path / f"round_{index}.state.npz",
            )
        assert resolve_checkpoint(tmp_path).round_index == 11

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_checkpoint(tmp_path)

    def test_unparseable_name_raises(self, tmp_path):
        """A directory's snapshots are found by the round index in their
        names, so a snapshot named without one is not resumed from."""
        save_round_state(captured_state(CONFIG), tmp_path / "round_latest.state.npz")
        with pytest.raises(FileNotFoundError, match="no round_<index>"):
            resolve_checkpoint(tmp_path)

    def test_non_snapshot_file_raises(self, tmp_path):
        path = tmp_path / "weights.npy"
        np.save(path, np.zeros(2))
        with pytest.raises(ValueError, match="not a round-state snapshot"):
            resolve_checkpoint(path)


class TestResumeRoundTrip:
    def test_resume_restores_parameters_and_round_counter(self, tmp_path):
        """The round-trip: run with Checkpoint, resume, continue."""
        first = run_experiment(CONFIG, callbacks=[Checkpoint(tmp_path)])
        total_rounds = first.metadata["total_rounds"]
        assert total_rounds > 2
        snapshot_round = 1
        snapshot = tmp_path / f"round_{snapshot_round}.state.npz"

        setup = prepare_experiment(CONFIG, resume_from=snapshot)
        np.testing.assert_array_equal(
            setup.simulation.model.get_flat_parameters(),
            load_round_state(snapshot).parameters,
        )
        assert setup.simulation.start_round == snapshot_round + 1

        history = setup.simulation.run()
        assert history.rounds, "resumed run recorded no evaluations"
        assert min(history.rounds) > snapshot_round
        assert history.rounds[-1] == total_rounds - 1

    def test_resume_from_final_snapshot_evaluates_once(self, tmp_path):
        first = run_experiment(CONFIG, callbacks=[Checkpoint(tmp_path)])
        final_round = first.metadata["total_rounds"] - 1

        resumed = run_experiment(CONFIG, resume_from=tmp_path)
        assert resumed.history.rounds == [final_round]
        assert resumed.final_accuracy == first.final_accuracy

    def test_resume_rejects_out_of_schedule_round(self):
        state = captured_state(CONFIG, round_index=10**6)
        with pytest.raises(CheckpointMismatchError, match="outside the schedule"):
            prepare_experiment(CONFIG, resume_from=state)

    def test_mismatched_parameters_raise_checkpoint_error(self):
        state = captured_state(CONFIG, parameters=np.zeros(3))
        with pytest.raises(CheckpointMismatchError, match="does not fit"):
            prepare_experiment(CONFIG, resume_from=state)

    def test_cli_resume_flag(self, tmp_path, capsys):
        from repro.cli import main

        # Produce snapshots through the runner, then resume via the CLI.
        run_experiment(CLI_CONFIG, callbacks=[Checkpoint(tmp_path)])
        assert main([*CLI_ARGUMENTS, "--resume-from", str(tmp_path)]) == 0
        assert "final test accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["round_1.state.npz", "."])
    def test_cli_resumes_full_state_snapshot(self, tmp_path, capsys, target):
        """A full-state snapshot, named or as its directory's latest one,
        resumes through the CLI with the uninterrupted run's stdout."""
        from repro.cli import main

        run_experiment(CLI_CONFIG, callbacks=[Checkpoint(tmp_path)])
        for snapshot in tmp_path.iterdir():
            if snapshot.name not in ("round_0.state.npz", "round_1.state.npz"):
                snapshot.unlink()
        assert main(CLI_ARGUMENTS) == 0
        uninterrupted = capsys.readouterr().out
        assert main([*CLI_ARGUMENTS, "--resume-from", str(tmp_path / target)]) == 0
        assert capsys.readouterr().out == uninterrupted

    def test_cli_resume_bad_path_exits_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "run", "--dataset", "usps_like", "--epochs", "1",
                "--resume-from", str(tmp_path / "missing"),
            ])

    def test_cli_resume_out_of_schedule_exits_cleanly(self, tmp_path):
        from repro.cli import main

        path = save_round_state(
            captured_state(CLI_CONFIG, round_index=500000),
            tmp_path / "round_500000.state.npz",
        )
        with pytest.raises(SystemExit, match="cannot resume.*outside the schedule"):
            main([*CLI_ARGUMENTS, "--resume-from", str(path)])

    def test_cli_resume_wrong_dimension_exits_cleanly(self, tmp_path):
        from repro.cli import main

        path = save_round_state(
            captured_state(CLI_CONFIG, parameters=np.zeros(3)),
            tmp_path / "round_0.state.npz",
        )
        with pytest.raises(SystemExit, match="cannot resume.*flat vector of length"):
            main([*CLI_ARGUMENTS, "--resume-from", str(path)])

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize("malformed", ["truncated", "foreign"])
    def test_cli_malformed_snapshot_exits_cleanly(self, tmp_path, command, malformed):
        """A truncated or foreign archive fails with the one-line message,
        from ``run --resume-from`` and from ``serve --state-dir`` alike
        (which reads it before it opens a socket)."""
        from repro.cli import main

        path = tmp_path / "round_0.state.npz"
        if malformed == "truncated":
            save_round_state(captured_state(CLI_CONFIG), path)
            path.write_bytes(path.read_bytes()[:100])
        else:
            with open(path, "wb") as handle:
                np.savez(handle, weights=np.zeros(3))
        if command == "run":
            arguments = [*CLI_ARGUMENTS, "--resume-from", str(path)]
        else:
            arguments = [
                "serve", *CLI_ARGUMENTS[1:], "--port", "0",
                "--state-dir", str(tmp_path),
            ]
        with pytest.raises(SystemExit, match="cannot resume from") as raised:
            main(arguments)
        assert "not a round-state snapshot" in str(raised.value)
        assert str(path) in str(raised.value)

    def test_cli_serve_without_a_numbered_snapshot_starts_fresh(
        self, tmp_path, monkeypatch, capsys
    ):
        """A state dir whose only snapshot has no round index in its name
        holds nothing to resume: serve announces no resume and starts a
        fresh run (stopped here as it loads the data, before a socket
        opens)."""
        import repro.experiments.runner as runner
        from repro.cli import main

        save_round_state(captured_state(CLI_CONFIG), tmp_path / "round_latest.state.npz")

        class Loading(Exception):
            pass

        def load_dataset(*args, **kwargs):
            raise Loading

        monkeypatch.setattr(runner, "load_dataset", load_dataset)
        with pytest.raises(Loading):
            main([
                "serve", *CLI_ARGUMENTS[1:], "--port", "0",
                "--state-dir", str(tmp_path),
            ])
        assert "resuming" not in capsys.readouterr().out

    def test_cli_compare_rejects_resume_flag(self, tmp_path):
        """compare has no well-defined resume semantics; the parser refuses."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "compare", "--resume-from", str(tmp_path / "round_0.state.npz"),
            ])
