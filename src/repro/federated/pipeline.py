"""The events and hooks of the federated training loop.

:meth:`~repro.federated.simulation.FederatedSimulation.run` emits typed
:class:`RoundEvent` objects to a list of :class:`RoundCallback` hooks, so
callers observe or extend training without forking the loop:

- ``on_round_start(event)``  -- before any stage of the round runs;
- ``on_evaluation(event)``   -- after the global model was evaluated on
  the held-out test set (every ``eval_every`` rounds, on the final round,
  and on the round an early stop triggers);
- ``on_round_end(event)``    -- after all stages of the round finished;
- ``should_stop(event)``     -- consulted after ``on_round_end``; any
  callback returning ``True`` terminates training early (with a final
  evaluation so the recorded history always ends at the stop round; that
  stop-triggered evaluation fires after the round's ``on_round_end``,
  since the stop decision is what requested it).

A callback with a ``bind`` method is handed the simulation before the
first round.  :class:`TrainingHistory` is populated by the default event
consumer :class:`HistoryRecorder`; :class:`EarlyStopping`,
:class:`RoundLogger`, :class:`Checkpoint` and :class:`MetricsWriter` ship
as built-in callbacks, and :func:`read_metrics` reads what the last one
writes.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.federated.history import TrainingHistory
from repro.federated.state import save_round_state, snapshot_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.federated.simulation import FederatedSimulation

__all__ = [
    "RoundEvent",
    "RoundStartEvent",
    "EvaluationEvent",
    "RoundEndEvent",
    "RoundCallback",
    "HistoryRecorder",
    "EarlyStopping",
    "RoundLogger",
    "Checkpoint",
    "MetricsWriter",
    "read_metrics",
]


# ---------------------------------------------------------------------- #
# events
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RoundEvent:
    """Base class of all training-loop events.

    Attributes
    ----------
    round_index:
        0-based index of the round the event belongs to.
    total_rounds:
        Scheduled number of rounds ``T`` (an early stop may end sooner).
    """

    round_index: int
    total_rounds: int


@dataclass(frozen=True)
class RoundStartEvent(RoundEvent):
    """Emitted before any stage of a round runs."""


@dataclass(frozen=True)
class EvaluationEvent(RoundEvent):
    """Emitted after the global model was evaluated on the test set.

    Attributes
    ----------
    accuracy:
        Test accuracy of the global model after this round's update.
    diagnostics:
        The round's diagnostics (e.g. ``byzantine_selected_fraction``).
    """

    accuracy: float = 0.0
    diagnostics: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RoundEndEvent(RoundEvent):
    """Emitted after all stages of a round finished.

    Attributes
    ----------
    diagnostics:
        The round's diagnostics (e.g. ``byzantine_selected_fraction``).
    accuracy:
        Test accuracy if this round was evaluated, else ``None``.
    """

    diagnostics: Mapping[str, float] = field(default_factory=dict)
    accuracy: float | None = None

    def record(self) -> dict[str, object]:
        """The round's flat record, as ``--metrics-out`` writes it.

        ``round``, ``total_rounds`` and ``accuracy`` first, then every
        diagnostic as a float, sorted by name.
        """
        record: dict[str, object] = {
            "round": self.round_index,
            "total_rounds": self.total_rounds,
            "accuracy": self.accuracy,
        }
        for key in sorted(self.diagnostics):
            record[key] = float(self.diagnostics[key])
        return record


# ---------------------------------------------------------------------- #
# callbacks
# ---------------------------------------------------------------------- #
class RoundCallback:
    """Base class for training-loop hooks; every method is an optional no-op."""

    def on_round_start(self, event: RoundStartEvent) -> None:
        """Called before any stage of the round runs."""

    def on_evaluation(self, event: EvaluationEvent) -> None:
        """Called after the global model was evaluated on the test set."""

    def on_round_end(self, event: RoundEndEvent) -> None:
        """Called after all stages of the round finished."""

    def should_stop(self, event: RoundEndEvent) -> bool:
        """Return ``True`` to terminate training after this round."""
        return False


class HistoryRecorder(RoundCallback):
    """Default event consumer: feeds a :class:`TrainingHistory`.

    Records one point per :class:`EvaluationEvent`, and the ``fault_*``
    counts of every round that reports them.
    """

    def __init__(self, history: TrainingHistory | None = None) -> None:
        self.history = history if history is not None else TrainingHistory()

    def on_evaluation(self, event: EvaluationEvent) -> None:
        """Buffer the accuracy for the round's history record."""
        self.history.record(
            round_index=event.round_index,
            accuracy=event.accuracy,
            byzantine_selected=event.diagnostics.get(
                "byzantine_selected_fraction", 0.0
            ),
        )

    def on_round_end(self, event: RoundEndEvent) -> None:
        """Append the finished round to the training history."""
        counts = {
            key: value
            for key, value in event.diagnostics.items()
            if key.startswith("fault_")
        }
        if counts:
            self.history.record_faults(event.round_index, counts)


class EarlyStopping(RoundCallback):
    """Stop when a target accuracy is reached or progress stalls.

    Parameters
    ----------
    target_accuracy:
        Stop as soon as an evaluation reaches this accuracy (``None``
        disables the criterion).
    patience:
        Stop after this many consecutive evaluations without an
        improvement of at least ``min_delta`` over the best accuracy so
        far (``None`` disables the criterion).
    min_delta:
        Minimum improvement that resets the patience counter.

    An instance tracks one run; call :meth:`reset` before reusing it for
    another run, or its stored stop decision carries over.
    """

    def __init__(
        self,
        target_accuracy: float | None = None,
        patience: int | None = None,
        min_delta: float = 0.0,
    ) -> None:
        if target_accuracy is None and patience is None:
            raise ValueError("set target_accuracy and/or patience")
        if patience is not None and patience <= 0:
            raise ValueError("patience must be positive when set")
        if min_delta < 0:
            raise ValueError("min_delta must be non-negative")
        self.target_accuracy = target_accuracy
        self.patience = patience
        self.min_delta = min_delta
        self.reset()

    def reset(self) -> None:
        """Clear the per-run state so the instance can watch another run."""
        self.best_accuracy = -np.inf
        self.evaluations_without_improvement = 0
        self.stopped_round: int | None = None
        self._stop = False

    def on_evaluation(self, event: EvaluationEvent) -> None:
        """Track the best accuracy and the patience counter."""
        if event.accuracy > self.best_accuracy + self.min_delta:
            self.best_accuracy = event.accuracy
            self.evaluations_without_improvement = 0
        else:
            self.best_accuracy = max(self.best_accuracy, event.accuracy)
            self.evaluations_without_improvement += 1
        if self.target_accuracy is not None and event.accuracy >= self.target_accuracy:
            self._stop = True
        if (
            self.patience is not None
            and self.evaluations_without_improvement >= self.patience
        ):
            self._stop = True

    def should_stop(self, event: RoundEndEvent) -> bool:
        """True once the target accuracy was reached or patience ran out."""
        if self._stop and self.stopped_round is None:
            self.stopped_round = event.round_index
        return self._stop


class RoundLogger(RoundCallback):
    """Log one line per round (accuracy included on evaluated rounds).

    Parameters
    ----------
    log:
        Sink for the formatted lines (default: :func:`print`).
    every:
        Only log rounds where ``(round_index + 1) % every == 0``;
        evaluated rounds are always logged.
    """

    def __init__(self, log: Callable[[str], None] = print, every: int = 1) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self.log = log
        self.every = every

    def on_round_end(self, event: RoundEndEvent) -> None:
        """Print one progress line per ``every`` rounds."""
        due = (event.round_index + 1) % self.every == 0
        if not due and event.accuracy is None:
            return
        line = f"round {event.round_index + 1}/{event.total_rounds}"
        if event.accuracy is not None:
            line += f"  accuracy {event.accuracy:.3f}"
        selected = event.diagnostics.get("byzantine_selected_fraction")
        if selected:
            line += f"  byzantine_selected {selected:.2f}"
        survivors = event.diagnostics.get("fault_survivors")
        if survivors is not None:
            line += f"  survivors {int(survivors)}"
        self.log(line)


class Checkpoint(RoundCallback):
    """Snapshot the whole round state after every round, atomically.

    Each finished round writes ``<directory>/round_<index>.state.npz``:
    everything that evolves across rounds (parameters, pool momentum,
    every generator stream, the defense's score list, the straggler
    buffer), via :meth:`~repro.federated.simulation.FederatedSimulation
    .capture_round_state`.  A run resumed from it replays the remaining
    rounds **bitwise** -- the coordinator crash-recovery path of service
    mode.  Writes are atomic (temp file + ``os.replace``), so a process
    killed mid-checkpoint never leaves a torn snapshot: resume always
    sees the last *complete* round.

    Parameters
    ----------
    directory:
        Where the snapshots are written (created on the first round).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._simulation: FederatedSimulation | None = None

    def bind(self, simulation: FederatedSimulation) -> None:
        """Remember the simulation whose state the snapshots capture."""
        self._simulation = simulation

    def on_round_end(self, event: RoundEndEvent) -> None:
        """Write the finished round's snapshot."""
        if self._simulation is None:
            raise RuntimeError("Checkpoint must be run by FederatedSimulation.run")
        save_round_state(
            self._simulation.capture_round_state(event.round_index),
            self.directory / snapshot_name(event.round_index),
        )


class MetricsWriter(RoundCallback):
    """Stream per-round metrics to a JSON-lines file.

    One JSON object per finished round: the round counters, the test
    accuracy when the round was evaluated (``null`` otherwise) and every
    diagnostic the round produced -- including the ``fault_*`` counters
    of fault-injected runs.  Lines are flushed as they are written, so a
    crashed or killed run keeps every completed round on disk.  The CLI
    exposes this as ``--metrics-out``.

    Parameters
    ----------
    path:
        Output file; parent directories are created.  Close with
        :meth:`close` (or use the instance as a context manager) to
        release the handle deterministically.
    append:
        Append to an existing file instead of overwriting it -- the mode
        of a resumed run, so the file accumulates one contiguous record
        of the whole (interrupted) training trajectory.
    fsync:
        ``fsync`` the file after every line.  A round whose record was
        written is then durably on disk even if the whole machine (not
        just the process) dies right after -- the service-mode default.
    """

    def __init__(
        self, path: str | Path, append: bool = False, fsync: bool = False
    ) -> None:
        self.path = Path(path)
        self.append = append
        self.fsync = fsync
        self.lines_written = 0
        self._file = None

    def on_round_end(self, event: RoundEndEvent) -> None:
        """Append the round's JSON record (optionally fsynced)."""
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            mode = "a" if self.append else "w"
            self._file = self.path.open(mode, encoding="utf-8")
        self._file.write(json.dumps(event.record()) + "\n")
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.lines_written += 1

    def close(self) -> None:
        """Close the output file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def read_metrics(path: str | Path) -> list[dict]:
    """Read a :class:`MetricsWriter` JSON-lines file, tolerating a kill.

    A process killed mid-write (the crash scenarios service mode is built
    for) can leave one torn line -- but only as the *final* line, since
    every complete record ends in a flushed newline.  That trailing
    fragment is silently dropped; a malformed line anywhere *else* means
    the file was not produced by :class:`MetricsWriter` and raises
    ``ValueError`` naming the offending line.
    """
    path = Path(path)
    records: list[dict] = []
    lines = path.read_text(encoding="utf-8").splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            raise ValueError(f"{path}: blank line {number} inside metrics file")
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if number == len(lines):  # torn final line of a killed run
                break
            raise ValueError(
                f"{path}: malformed metrics record on line {number}"
            ) from None
    return records
