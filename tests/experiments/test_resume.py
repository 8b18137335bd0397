"""Checkpoint/resume: Checkpoint snapshots restore into prepare_experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import (
    prepare_experiment,
    resolve_checkpoint,
    run_experiment,
)
from repro.federated.pipeline import Checkpoint

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


class TestResolveCheckpoint:
    def test_tuple_passes_through(self):
        vector = np.arange(5.0)
        round_index, parameters = resolve_checkpoint((7, vector))
        assert round_index == 7
        np.testing.assert_array_equal(parameters, vector)

    def test_vector_pair_comes_back_as_float64(self):
        round_index, parameters = resolve_checkpoint((np.int64(2), [1, 2, 3]))
        assert type(round_index) is int and round_index == 2
        assert parameters.dtype == np.float64
        np.testing.assert_array_equal(parameters, [1.0, 2.0, 3.0])

    def test_file_round_parsed_from_name(self, tmp_path):
        vector = np.arange(4.0)
        path = tmp_path / "round_12.npy"
        np.save(path, vector)
        round_index, parameters = resolve_checkpoint(path)
        assert round_index == 12
        np.testing.assert_array_equal(parameters, vector)

    def test_directory_picks_latest_round(self, tmp_path):
        for index in (0, 3, 11):
            np.save(tmp_path / f"round_{index}.npy", np.full(3, float(index)))
        round_index, parameters = resolve_checkpoint(tmp_path)
        assert round_index == 11
        np.testing.assert_array_equal(parameters, np.full(3, 11.0))

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_checkpoint(tmp_path)

    def test_unparseable_name_raises(self, tmp_path):
        path = tmp_path / "weights.npy"
        np.save(path, np.zeros(2))
        with pytest.raises(ValueError, match="round index"):
            resolve_checkpoint(path)


class TestResumeRoundTrip:
    def test_resume_restores_parameters_and_round_counter(self, tmp_path):
        """The satellite round-trip: run with Checkpoint, resume, continue."""
        checkpoint = Checkpoint(every=2, directory=tmp_path)
        first = run_experiment(CONFIG, callbacks=[checkpoint])
        total_rounds = first.metadata["total_rounds"]
        assert total_rounds > 2
        snapshot_round = sorted(checkpoint.snapshots)[0]

        setup = prepare_experiment(
            CONFIG, resume_from=tmp_path / f"round_{snapshot_round}.npy"
        )
        np.testing.assert_array_equal(
            setup.simulation.model.get_flat_parameters(),
            checkpoint.snapshots[snapshot_round],
        )
        assert setup.simulation.start_round == snapshot_round + 1
        assert setup.simulation.server.round_index == snapshot_round + 1

        history = setup.simulation.run()
        assert history.rounds, "resumed run recorded no evaluations"
        assert min(history.rounds) > snapshot_round
        assert history.rounds[-1] == total_rounds - 1

    def test_resume_from_final_snapshot_evaluates_once(self, tmp_path):
        checkpoint = Checkpoint(every=10**6, directory=tmp_path)  # final only
        first = run_experiment(CONFIG, callbacks=[checkpoint])
        final_round = first.metadata["total_rounds"] - 1
        assert list(checkpoint.snapshots) == [final_round]

        resumed = run_experiment(CONFIG, resume_from=tmp_path)
        assert resumed.history.rounds == [final_round]
        assert resumed.final_accuracy == pytest.approx(first.final_accuracy)

    def test_resume_rejects_out_of_schedule_round(self):
        with pytest.raises(ValueError, match="outside the schedule"):
            prepare_experiment(CONFIG, resume_from=(10**6, np.zeros(1)))

    def test_cli_resume_flag(self, tmp_path, capsys):
        from repro.cli import main

        arguments = [
            "run", "--dataset", "usps_like", "--byzantine", "0.0",
            "--attack", "none", "--epochs", "1", "--seed", "1",
        ]
        # Produce snapshots through the runner, then resume via the CLI.
        from repro.experiments.presets import benchmark_preset

        config = benchmark_preset(
            dataset="usps_like", byzantine_fraction=0.0, attack="none",
            epochs=1, seed=1,
        )
        checkpoint = Checkpoint(every=2, directory=tmp_path)
        run_experiment(config, callbacks=[checkpoint])
        assert main([*arguments, "--resume-from", str(tmp_path)]) == 0
        assert "final test accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["round_1.state.npz", "."])
    def test_cli_resumes_full_state_snapshot(self, tmp_path, capsys, target):
        """A full-state snapshot, named or as its directory's latest one,
        resumes through the CLI with the uninterrupted run's stdout."""
        from repro.cli import main
        from repro.experiments.presets import benchmark_preset

        arguments = [
            "run", "--dataset", "usps_like", "--byzantine", "0.4",
            "--attack", "label_flip", "--epochs", "1", "--seed", "1",
        ]
        config = benchmark_preset(
            dataset="usps_like", byzantine_fraction=0.4, attack="label_flip",
            epochs=1, seed=1,
        )
        run_experiment(config, callbacks=[
            Checkpoint(every=1, directory=tmp_path, full_state=True)
        ])
        for snapshot in tmp_path.iterdir():
            if snapshot.name not in ("round_0.state.npz", "round_1.state.npz"):
                snapshot.unlink()
        assert main(arguments) == 0
        uninterrupted = capsys.readouterr().out
        assert main([*arguments, "--resume-from", str(tmp_path / target)]) == 0
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

        np.save(tmp_path / "round_500000.npy", np.zeros(3))
        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "run", "--dataset", "usps_like", "--epochs", "1",
                "--resume-from", str(tmp_path / "round_500000.npy"),
            ])

    def test_cli_resume_wrong_dimension_exits_cleanly(self, tmp_path):
        from repro.cli import main

        np.save(tmp_path / "round_0.npy", np.zeros(3))
        with pytest.raises(SystemExit, match="cannot resume"):
            main([
                "run", "--dataset", "usps_like", "--epochs", "1",
                "--resume-from", str(tmp_path / "round_0.npy"),
            ])

    def test_cli_compare_rejects_resume_flag(self, tmp_path):
        """compare has no well-defined resume semantics; the parser refuses."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "compare", "--resume-from", str(tmp_path / "round_0.npy"),
            ])

    def test_mismatched_parameters_raise_checkpoint_error(self):
        from repro.experiments.runner import CheckpointMismatchError

        with pytest.raises(CheckpointMismatchError, match="do not fit"):
            prepare_experiment(CONFIG, resume_from=(0, np.zeros(3)))
