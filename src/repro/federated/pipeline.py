"""Hook-driven execution of the federated training loop.

:class:`RoundPipeline` makes the stages of one aggregation round explicit

    honest uploads -> byzantine uploads -> aggregate + server update ->
    evaluate

(the model broadcast before them is implicit: every pool reads the
server's model object) and emits typed :class:`RoundEvent` objects to a
list of :class:`RoundCallback` hooks, so callers observe or extend
training without forking the loop.  There is one round function: the upload
stages fill one ``(n, d)`` round matrix, honest rows first, and the
server aggregates it -- or, when faults cost rows, its leading rows,
where the survivors were moved -- without copying it again, in one call
keyed by the rows' worker ids.  The hooks:

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

:class:`TrainingHistory` is populated by the default event consumer
:class:`HistoryRecorder`; :class:`EarlyStopping`, :class:`RoundLogger`
and :class:`Checkpoint` ship as built-in callbacks.  The default run
(no extra callbacks) is decision-identical to the pre-pipeline loop.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Mapping
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.federated.faults import (
    BYZANTINE_SCOPE,
    HONEST_SCOPE,
    ReportFaultPlan,
    ShardFaultPlan,
)
from repro.federated.history import TrainingHistory
from repro.federated.state import STATE_SUFFIX, save_round_state

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
    "RoundPipeline",
    "read_metrics",
]


# ---------------------------------------------------------------------- #
# events
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class RoundEvent:
    """Base class of all pipeline events.

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
    """Base class for pipeline hooks; every method is an optional no-op."""

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

    Records one point per :class:`EvaluationEvent`, reproducing exactly
    what the pre-pipeline loop stored.
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
        self._pipeline: RoundPipeline | None = None

    def bind(self, pipeline: RoundPipeline) -> None:
        """Remember the pipeline so snapshots can capture its simulation."""
        self._pipeline = pipeline

    def on_round_end(self, event: RoundEndEvent) -> None:
        """Write the finished round's snapshot."""
        if self._pipeline is None:
            raise RuntimeError("Checkpoint must be run by a RoundPipeline")
        state = self._pipeline.simulation.capture_round_state(event.round_index)
        save_round_state(
            state, self.directory / f"round_{event.round_index}{STATE_SUFFIX}"
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


# ---------------------------------------------------------------------- #
# a faulty round's rows
# ---------------------------------------------------------------------- #
def _compact_rows(matrix: np.ndarray, survivors: np.ndarray) -> np.ndarray:
    """Move the ``survivors`` rows, in order, to the top of ``matrix``.

    Returns the leading ``(m, d)`` rows: the bits, order and contiguity
    of ``matrix[survivors]`` without a second matrix.  ``survivors`` is
    increasing, so row ``i`` takes row ``survivors[i] >= i`` and a
    forward pass reads every row before it is overwritten.
    """
    for row, source in enumerate(survivors.tolist()):
        if row != source:
            matrix[row] = matrix[source]
    return matrix[: survivors.shape[0]]


def _merge_arrivals(
    matrix: np.ndarray,
    survivors: np.ndarray,
    survivor_ids: np.ndarray,
    arrivals: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The survivors and last round's buffered ``(ids, rows)`` as one
    ``(m + k, d)`` matrix in stable id order (a worker's fresh row before
    its stale one); each row is written once, straight to its place.
    Returns ``(worker ids, rows)``.
    """
    arrival_ids, arrival_rows = arrivals
    ids = np.concatenate((survivor_ids, arrival_ids))
    order = np.argsort(ids, kind="stable")
    sources = [matrix[row] for row in survivors.tolist()] + list(arrival_rows)
    rows = np.empty((ids.shape[0], matrix.shape[1]), dtype=np.float64)
    for place, source in enumerate(order.tolist()):
        rows[place] = sources[source]
    return ids[order], rows


# ---------------------------------------------------------------------- #
# the pipeline
# ---------------------------------------------------------------------- #
class RoundPipeline:
    """Run a :class:`FederatedSimulation` stage by stage, emitting events.

    Parameters
    ----------
    simulation:
        The simulation whose state (pools, server, model) the stages
        operate on.
    callbacks:
        Hooks receiving the pipeline's events, in order.  Callbacks with
        a ``bind`` method are handed the pipeline before the run (used by
        :class:`Checkpoint` to reach the simulation).
    """

    def __init__(
        self,
        simulation: "FederatedSimulation",
        callbacks: Iterable[RoundCallback] = (),
    ) -> None:
        self.simulation = simulation
        self.callbacks = list(callbacks)
        # Tracing seam: a callback exposing a callable ``trace_span``
        # (e.g. :class:`repro.federated.observability.TraceRecorder`) is
        # discovered here -- the last one wins -- and forwarded to the
        # execution backend so shard tasks, wire round-trips and retry
        # attempts land in the same trace as the pipeline stages.
        # Tracing observes wall-clock time around existing calls only;
        # it never changes results.
        self._tracer = None
        for callback in self.callbacks:
            if callable(getattr(callback, "trace_span", None)):
                self._tracer = callback
        if self._tracer is not None:
            backend = simulation.backend
            if callable(getattr(backend, "set_tracer", None)):
                backend.set_tracer(self._tracer)
        for callback in self.callbacks:
            bind = getattr(callback, "bind", None)
            if callable(bind):
                bind(self)

    def _span(self, kind: str, name: str | None = None, **fields):
        """A trace span context (no-op without an attached tracer)."""
        if self._tracer is None:
            return nullcontext()
        return self._tracer.trace_span(kind, name, **fields)

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #
    def honest_uploads(
        self,
        crash_plan: ShardFaultPlan | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stage 2: the honest pool computes its DP uploads, ``(n_honest, d)``."""
        with self._span("stage", "honest_uploads"):
            return self.simulation.honest_uploads(crash_plan=crash_plan, out=out)

    def byzantine_uploads(
        self,
        honest_uploads: np.ndarray,
        round_index: int,
        crash_plan: ShardFaultPlan | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stage 3: the attacker produces its uploads, ``(n_byzantine, d)``."""
        with self._span("stage", "byzantine_uploads"):
            return self.simulation.byzantine_uploads(
                honest_uploads, round_index, crash_plan=crash_plan, out=out
            )

    def aggregate_and_update(
        self,
        uploads: np.ndarray,
        worker_ids: np.ndarray,
        fault_diagnostics: Mapping[str, float] | None = None,
    ) -> dict[str, float]:
        """Stages 4+5: aggregate the round's uploads and update the model.

        ``worker_ids`` are the rows' server-state ids (see
        :meth:`~repro.federated.simulation.FederatedSimulation
        .global_worker_ids`): the row index in the classic mode, the
        global population id under cohort subsampling.  The server keys
        its per-worker state by the registered population and checks the
        quorum against the round's expected cohort, so the whole round
        matrix of a clean round and the surviving rows of a faulty one
        take the same call; the selection diagnostic translates row
        indices back to worker identities through the same ids.
        """
        simulation = self.simulation
        with self._span("stage", "aggregate_and_update"):
            simulation.server.update(
                uploads,
                worker_ids=worker_ids,
                population=simulation.total_population,
                expected=simulation.n_workers,
            )
        return self._selection_diagnostics(worker_ids, fault_diagnostics)

    def _selection_diagnostics(
        self,
        row_ids: np.ndarray,
        fault_diagnostics: Mapping[str, float] | None = None,
    ) -> dict[str, float]:
        """The round diagnostics dict, given the rows' server-state ids."""
        simulation = self.simulation
        byz_selected = 0.0
        selected = getattr(simulation.server.aggregator, "last_selected", None)
        if selected is not None and simulation.n_byzantine > 0:
            selected = np.asarray(row_ids)[np.asarray(selected)]
            byz_selected = float(np.mean(selected >= simulation.byzantine_id_floor))
        diagnostics = {"byzantine_selected_fraction": byz_selected}
        if fault_diagnostics:
            diagnostics.update(fault_diagnostics)
        return diagnostics

    def evaluate(self) -> float:
        """Stage 6: test accuracy of the current global model."""
        with self._span("stage", "evaluate"):
            return self.simulation.server.evaluate(self.simulation.test_dataset)

    def run_round(self, round_index: int) -> dict[str, float]:
        """Run stages 1-5 of one round; returns the round diagnostics.

        The broadcast stage is implicit: all workers share the server's
        model object, so no parameter copy is materialised.

        The round fills one ``(n, d)`` round matrix, honest rows first:
        the pools commit their shards straight into its rows, and the
        attacker's crafted, copied or zeroed rows are written below them.
        A row is read only after the stage that fills it has returned.

        Every round runs through the fault seams; the default
        :class:`~repro.federated.faults.NoFaults` model plans nothing,
        which makes this the clean round.  Crash faults are injected into
        the worker pools (shards retry under the simulation's
        :class:`~repro.federated.backends.RetryPolicy`; exhausted shards
        lose their workers and leave zero rows).  Pools can also lose
        shards for real: a remote backend turns an exhausted transport
        retry budget into ordered
        :class:`~repro.federated.backends.TaskFailure` slots.  Report
        faults mask the round matrix *after* computation -- worker
        streams never observe them, so the fault trace is a pure function
        of the round counters and identical across backends.

        The late reports to buffer are copied out, the ``m`` surviving
        rows move up, in order, to the matrix's leading rows, and
        ``matrix[:m]`` goes to the server with its worker ids -- in a
        clean round no row moves and that is the whole matrix.  When
        last round's buffered reports arrive, survivors and arrivals are
        written once each into one new ``(m + k, d)`` matrix in
        worker-id order.  Six ``fault_*`` counts join the diagnostics
        unless the round is clean: faults inactive, no pool report and
        no arrivals.  Quorum enforcement lives in
        :meth:`~repro.federated.server.Server.update`.
        """
        simulation = self.simulation
        simulation.prepare_round(round_index)
        faults = simulation.fault_model
        n_honest = simulation.n_honest
        n_byzantine = simulation.n_byzantine
        n_workers = simulation.n_workers
        matrix = np.empty(
            (n_workers, simulation.model.num_parameters), dtype=np.float64
        )
        honest, byzantine = matrix[:n_honest], matrix[n_honest:]

        self.honest_uploads(
            self._crash_plan(round_index, HONEST_SCOPE, simulation.honest_pool),
            out=honest,
        )
        crashed = np.zeros(n_workers, dtype=bool)
        retried = 0
        honest_report = simulation.honest_pool.last_fault_report
        if honest_report is not None:
            crashed[:n_honest] = honest_report.failed_workers
            retried += honest_report.retried

        # The omniscient attacker observes every committed honest upload
        # (report faults happen at the server's deadline, not on the
        # devices); only the rows of lost shards are invisible to it.
        byzantine_pool = simulation.byzantine_pool
        if byzantine_pool is not None:
            # A pool's report describes the last round it ran; one that
            # sits this round out (dormant attack, no honest rows to
            # observe) must not replay it.
            byzantine_pool.last_fault_report = None
        attacker_view = honest[~crashed[:n_honest]] if crashed.any() else honest
        if n_byzantine > 0 and attacker_view.shape[0] == 0:
            # Every honest shard was lost: the attacker has nothing to
            # observe or mimic, so its uploads degenerate to zeros.
            byzantine[...] = 0.0
        else:
            self.byzantine_uploads(
                attacker_view,
                round_index,
                self._crash_plan(round_index, BYZANTINE_SCOPE, byzantine_pool),
                out=byzantine,
            )
        byzantine_report = (
            byzantine_pool.last_fault_report if byzantine_pool is not None else None
        )
        if byzantine_report is not None:
            crashed[n_honest:] = byzantine_report.failed_workers
            retried += byzantine_report.retried

        # Report faults over the round matrix (honest rows first).
        plan = faults.report_faults(round_index, n_workers)
        dropped, late = self._validated_report(plan, n_workers)
        arrivals = simulation.pending
        simulation.pending = None
        faulty = (
            faults.is_active
            or honest_report is not None
            or byzantine_report is not None
            or arrivals is not None
        )

        # Buffered stragglers: stash this round's late reports for the
        # next round -- copied before the survivors move -- and deliver
        # last round's now (a worker may then contribute a stale and a
        # fresh row; the id-keyed aggregation handles duplicates).
        buffered = 0
        if plan.buffer_late:
            buffer_mask = late & ~dropped & ~crashed
            buffered = int(np.count_nonzero(buffer_mask))
            if buffered:
                simulation.pending = (
                    simulation.global_worker_ids(np.nonzero(buffer_mask)[0]),
                    matrix[buffer_mask],
                )
        survivors = np.flatnonzero(~(crashed | dropped | late))
        # From here on ids live in server-state space (identity in the
        # classic mode, global population ids under cohort subsampling),
        # so a buffered straggler row stays attributed to the *worker*
        # that computed it even when the next round samples a different
        # cohort.
        worker_ids = simulation.global_worker_ids(survivors)
        if arrivals is None:
            rows = _compact_rows(matrix, survivors)
        else:
            worker_ids, rows = _merge_arrivals(
                matrix, survivors, worker_ids, arrivals
            )
        diagnostics = {
            "fault_dropped": float(np.count_nonzero(dropped)),
            "fault_timed_out": float(np.count_nonzero(late)),
            "fault_crashed": float(np.count_nonzero(crashed)),
            "fault_retried": float(retried),
            "fault_buffered": float(buffered),
            "fault_survivors": float(rows.shape[0]),
        }
        return self.aggregate_and_update(
            rows, worker_ids=worker_ids,
            fault_diagnostics=diagnostics if faulty else None,
        )

    def _crash_plan(
        self, round_index: int, scope: int, pool
    ) -> ShardFaultPlan | None:
        """The fault model's crash schedule for one pool and round
        (``None`` without a pool: crafted uploads have no shards)."""
        if pool is None:
            return None
        simulation = self.simulation
        return ShardFaultPlan(
            failures=simulation.fault_model.crash_failures(
                round_index, scope, pool.n_shards
            ),
            policy=simulation.retry_policy,
        )

    @staticmethod
    def _validated_report(
        plan: ReportFaultPlan, n_workers: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The plan's masks as boolean ``(n_workers,)`` arrays, validated."""
        dropped = np.asarray(plan.dropped, dtype=bool)
        late = np.asarray(plan.late, dtype=bool)
        if dropped.shape != (n_workers,) or late.shape != (n_workers,):
            raise ValueError(
                f"report fault plan must cover all {n_workers} workers, got "
                f"dropped {dropped.shape} / late {late.shape}"
            )
        return dropped, late

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def _emit(self, hook: str, event: RoundEvent) -> None:
        for callback in self.callbacks:
            getattr(callback, hook)(event)

    def _evaluate_and_emit(
        self, round_index: int, total_rounds: int, diagnostics: dict[str, float]
    ) -> float:
        accuracy = self.evaluate()
        self._emit(
            "on_evaluation",
            EvaluationEvent(
                round_index=round_index,
                total_rounds=total_rounds,
                accuracy=accuracy,
                diagnostics=diagnostics,
            ),
        )
        return accuracy

    def run(self) -> None:
        """Run the full training loop, emitting events to the callbacks.

        Evaluation happens every ``settings.eval_every`` rounds and on
        the final round, matching the plain loop; when a callback's
        ``should_stop`` answers ``True`` the loop terminates after a
        final evaluation of the stop round (if it was not already due).
        In that case the extra ``on_evaluation`` necessarily fires
        *after* the stop round's ``on_round_end`` (whose ``accuracy`` is
        ``None`` -- the stop decision is what triggered the evaluation).

        A simulation restored from a checkpoint sets ``start_round``; the
        loop then resumes at that round instead of round 0.
        """
        settings = self.simulation.settings
        total_rounds = settings.total_rounds
        start_round = self.simulation.start_round
        if start_round >= total_rounds:
            # Resumed from the final snapshot: nothing left to train, but
            # evaluate once so the recorded history has its final point.
            self._evaluate_and_emit(total_rounds - 1, total_rounds, {})
            return
        for round_index in range(start_round, total_rounds):
            self._emit(
                "on_round_start",
                RoundStartEvent(round_index=round_index, total_rounds=total_rounds),
            )
            with self._span("round", None, round=round_index):
                diagnostics = self.run_round(round_index)

            is_last = round_index == total_rounds - 1
            accuracy: float | None = None
            if (round_index + 1) % settings.eval_every == 0 or is_last:
                accuracy = self._evaluate_and_emit(
                    round_index, total_rounds, diagnostics
                )

            end_event = RoundEndEvent(
                round_index=round_index,
                total_rounds=total_rounds,
                diagnostics=diagnostics,
                accuracy=accuracy,
            )
            self._emit("on_round_end", end_event)

            if any(callback.should_stop(end_event) for callback in self.callbacks):
                if accuracy is None:
                    # Record the state the run actually stopped at.
                    self._evaluate_and_emit(round_index, total_rounds, diagnostics)
                return
