"""Saving and loading experiment results.

Experiment sweeps can take a while; these helpers persist
:class:`~repro.analysis.results.RunResult` objects (and whole grids of them)
as plain JSON so that tables and figures can be re-rendered, compared across
machines or attached to a paper artifact without re-running anything.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.analysis.results import RunResult
from repro.federated.history import TrainingHistory

__all__ = ["result_to_dict", "result_from_dict", "save_results", "load_results"]


def result_to_dict(result: RunResult) -> dict[str, Any]:
    """JSON-serialisable representation of one run."""
    return {
        "final_accuracy": result.final_accuracy,
        "sigma": result.sigma,
        "learning_rate": result.learning_rate,
        "epsilon": result.epsilon,
        "seed": result.seed,
        "metadata": dict(result.metadata),
        "history": result.history.as_dict(),
    }


def result_from_dict(payload: dict[str, Any]) -> RunResult:
    """Inverse of :func:`result_to_dict`."""
    history_data = payload.get("history", {})
    history = TrainingHistory()
    rounds = history_data.get("rounds", [])
    accuracies = history_data.get("test_accuracy", [])
    byzantine = history_data.get("byzantine_selected_fraction", [0.0] * len(rounds))
    for round_index, accuracy, selected in zip(rounds, accuracies, byzantine):
        history.record(int(round_index), float(accuracy), float(selected))
    for entry in history_data.get("faults", []):
        counts = dict(entry)
        history.record_faults(int(counts.pop("round")), counts)
    return RunResult(
        final_accuracy=float(payload["final_accuracy"]),
        history=history,
        sigma=float(payload["sigma"]),
        learning_rate=float(payload["learning_rate"]),
        epsilon=payload.get("epsilon"),
        seed=int(payload.get("seed", 0)),
        metadata=dict(payload.get("metadata", {})),
    )


def save_results(
    results: dict[str, RunResult] | dict[str, list[RunResult]],
    path: str | Path,
) -> Path:
    """Write a named collection of results to a JSON file.

    Values may be single runs or lists of runs (multi-seed cells); the file
    records which form was used so :func:`load_results` can restore it.
    """
    path = Path(path)
    payload: dict[str, Any] = {}
    for key, value in results.items():
        if isinstance(value, RunResult):
            payload[key] = {"kind": "single", "runs": [result_to_dict(value)]}
        else:
            payload[key] = {"kind": "list", "runs": [result_to_dict(run) for run in value]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_results(path: str | Path) -> dict[str, RunResult | list[RunResult]]:
    """Read back a collection written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    restored: dict[str, RunResult | list[RunResult]] = {}
    for key, entry in payload.items():
        runs = [result_from_dict(item) for item in entry["runs"]]
        restored[key] = runs[0] if entry["kind"] == "single" else runs
    return restored
