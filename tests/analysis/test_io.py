"""Tests for result serialisation (repro.analysis.io)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.io import load_results, result_from_dict, result_to_dict, save_results
from repro.analysis.results import RunResult
from repro.federated.history import TrainingHistory


def make_run(accuracy: float = 0.7, seed: int = 3) -> RunResult:
    history = TrainingHistory()
    history.record(0, 0.3, 0.1)
    history.record(5, accuracy, 0.0)
    return RunResult(
        final_accuracy=accuracy,
        history=history,
        sigma=1.5,
        learning_rate=0.25,
        epsilon=0.5,
        seed=seed,
        metadata={"total_rounds": 6, "delta": 1e-4},
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_fields(self):
        original = make_run()
        restored = result_from_dict(result_to_dict(original))
        assert restored.final_accuracy == original.final_accuracy
        assert restored.sigma == original.sigma
        assert restored.learning_rate == original.learning_rate
        assert restored.epsilon == original.epsilon
        assert restored.seed == original.seed
        assert restored.metadata == original.metadata

    def test_dict_round_trip_preserves_history(self):
        original = make_run()
        restored = result_from_dict(result_to_dict(original))
        assert restored.history.as_dict() == original.history.as_dict()

    def test_to_dict_is_json_serialisable(self):
        json.dumps(result_to_dict(make_run()))

    def test_non_private_epsilon_none_survives(self):
        run = make_run()
        payload = result_to_dict(run)
        payload["epsilon"] = None
        assert result_from_dict(payload).epsilon is None


class TestFiles:
    def test_save_and_load_single_results(self, tmp_path):
        path = tmp_path / "results.json"
        save_results({"reference": make_run(0.8), "attacked": make_run(0.4)}, path)
        restored = load_results(path)
        assert set(restored) == {"reference", "attacked"}
        assert isinstance(restored["reference"], RunResult)
        assert restored["attacked"].final_accuracy == pytest.approx(0.4)

    def test_save_and_load_multi_seed_cells(self, tmp_path):
        path = tmp_path / "cells.json"
        save_results({"cell": [make_run(0.5, seed=1), make_run(0.6, seed=2)]}, path)
        restored = load_results(path)
        assert isinstance(restored["cell"], list)
        assert [run.seed for run in restored["cell"]] == [1, 2]

    def test_save_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deeper" / "results.json"
        save_results({"run": make_run()}, path)
        assert path.exists()

    def test_saved_file_is_valid_json(self, tmp_path):
        path = tmp_path / "results.json"
        save_results({"run": make_run()}, path)
        payload = json.loads(path.read_text())
        assert payload["run"]["kind"] == "single"

    def test_save_and_load_keeps_fault_records(self, tmp_path):
        run = make_run()
        run.history.record_faults(0, {"fault_dropped": 2.0, "fault_survivors": 8.0})
        run.history.record_faults(5, {"fault_dropped": 0.0, "fault_survivors": 10.0})
        path = save_results({"run": run}, tmp_path / "faults.json")
        restored = load_results(path)["run"].history
        assert restored.faults == run.history.faults
        assert restored.as_dict() == run.history.as_dict()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_results(tmp_path / "absent.json")
