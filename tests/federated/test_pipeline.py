"""Tests for the training loop's events, its round body and the built-in callbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.data.auxiliary import sample_auxiliary
from repro.data.partition import partition_iid
from repro.data.synthetic import make_classification
from repro.defenses.mean import MeanAggregator
from repro.federated.pipeline import (
    Checkpoint,
    EarlyStopping,
    EvaluationEvent,
    HistoryRecorder,
    RoundCallback,
    RoundEndEvent,
    RoundLogger,
    RoundStartEvent,
)
from repro.federated import server as server_module
from repro.federated.simulation import FederatedSimulation, SimulationSettings
from repro.federated.state import load_round_state
from repro.nn.layers import Linear
from repro.nn.network import Sequential


def build_simulation(
    total_rounds: int = 6, eval_every: int = 2, seed: int = 0
) -> FederatedSimulation:
    rng = np.random.default_rng(seed)
    data = make_classification(120, 6, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="pipe")
    test = make_classification(60, 6, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="pipe_test")
    shards = partition_iid(data, 3, rng)
    model = Sequential([Linear(6, 3, rng)])
    settings = SimulationSettings(
        total_rounds=total_rounds, learning_rate=0.5, eval_every=eval_every
    )
    return FederatedSimulation(
        model=model,
        honest_datasets=shards,
        n_byzantine=0,
        attack=None,
        aggregator=MeanAggregator(),
        dp_config=DPConfig(batch_size=8, sigma=0.3),
        auxiliary=sample_auxiliary(test, per_class=2, rng=rng),
        test_dataset=test,
        settings=settings,
        seed=seed,
    )


class EventSpy(RoundCallback):
    """Records every hook invocation in order."""

    def __init__(self) -> None:
        self.events: list = []

    def on_round_start(self, event: RoundStartEvent) -> None:
        self.events.append(("start", event))

    def on_evaluation(self, event: EvaluationEvent) -> None:
        self.events.append(("evaluation", event))

    def on_round_end(self, event: RoundEndEvent) -> None:
        self.events.append(("end", event))


class StopAfter(RoundCallback):
    def __init__(self, stop_round: int) -> None:
        self.stop_round = stop_round

    def should_stop(self, event: RoundEndEvent) -> bool:
        return event.round_index >= self.stop_round


class TestEvents:
    def test_event_order_and_counts(self):
        spy = EventSpy()
        simulation = build_simulation(total_rounds=4, eval_every=2)
        simulation.run([spy])
        kinds = [kind for kind, _ in spy.events]
        # Rounds 0-3, evaluations after rounds 1 and 3 (eval_every=2).
        assert kinds == [
            "start", "end",
            "start", "evaluation", "end",
            "start", "end",
            "start", "evaluation", "end",
        ]

    def test_round_indices_and_totals(self):
        spy = EventSpy()
        simulation = build_simulation(total_rounds=3, eval_every=5)
        simulation.run([spy])
        starts = [e for kind, e in spy.events if kind == "start"]
        assert [e.round_index for e in starts] == [0, 1, 2]
        assert all(e.total_rounds == 3 for e in starts)
        # eval_every=5 > total_rounds: only the final round is evaluated.
        evaluations = [e for kind, e in spy.events if kind == "evaluation"]
        assert [e.round_index for e in evaluations] == [2]

    def test_end_event_carries_diagnostics_and_accuracy(self):
        spy = EventSpy()
        simulation = build_simulation(total_rounds=2, eval_every=1)
        simulation.run([spy])
        ends = [e for kind, e in spy.events if kind == "end"]
        assert all("byzantine_selected_fraction" in e.diagnostics for e in ends)
        assert all(e.accuracy is not None for e in ends)

    def test_unevaluated_round_has_no_accuracy(self):
        spy = EventSpy()
        simulation = build_simulation(total_rounds=2, eval_every=2)
        simulation.run([spy])
        ends = [e for kind, e in spy.events if kind == "end"]
        assert ends[0].accuracy is None
        assert ends[1].accuracy is not None


class TestStages:
    def test_run_round_returns_the_round_diagnostics(self):
        simulation = build_simulation()
        diagnostics = simulation.run_round(0)
        assert "byzantine_selected_fraction" in diagnostics

    def test_extra_history_recorder_sees_the_returned_history(self):
        recorder = HistoryRecorder()
        history = build_simulation(seed=7).run([recorder])
        assert recorder.history is not history
        assert recorder.history.as_dict() == history.as_dict()
        assert history.rounds == [1, 3, 5]

    def test_clean_round_hands_the_server_its_round_matrix(self):
        """One server call per round: a clean round passes the matrix the
        pool committed into -- no gathered copy -- with every worker's id
        and the registered population."""
        simulation = build_simulation()
        update = simulation.server.update
        committed, calls = [], []

        compute_uploads = simulation.honest_pool.compute_uploads

        def committing_uploads(model, crash_plan=None, out=None):
            committed.append(out)
            return compute_uploads(model, crash_plan=crash_plan, out=out)

        def recording_update(uploads, **kwargs):
            calls.append((uploads, kwargs))
            return update(uploads, **kwargs)

        simulation.honest_pool.compute_uploads = committing_uploads
        simulation.server.update = recording_update
        diagnostics = simulation.run_round(0)
        assert len(calls) == 1
        uploads, kwargs = calls[0]
        assert uploads.shape == (3, simulation.model.num_parameters)
        assert uploads.base is committed[0].base
        np.testing.assert_array_equal(kwargs["worker_ids"], np.arange(3))
        assert kwargs["population"] == 3
        assert not any(key.startswith("fault_") for key in diagnostics)

    def test_evaluation_event_reports_the_test_accuracy(self, monkeypatch):
        spy = EventSpy()
        simulation = build_simulation(total_rounds=3, eval_every=3)
        simulation.run([spy])
        (evaluation,) = [e for kind, e in spy.events if kind == "evaluation"]
        server = simulation.server
        assert evaluation.accuracy == server.evaluate(simulation.test_dataset)
        monkeypatch.setattr(server_module, "EVAL_BATCH_SIZE", 7)
        assert evaluation.accuracy == server.evaluate(simulation.test_dataset)


class TestShouldStop:
    def test_stop_terminates_early(self):
        spy = EventSpy()
        simulation = build_simulation(total_rounds=10, eval_every=2)
        simulation.run([spy, StopAfter(2)])
        starts = [e for kind, e in spy.events if kind == "start"]
        assert [e.round_index for e in starts] == [0, 1, 2]

    def test_stop_round_gets_a_final_evaluation(self):
        # Round 2 is not an eval_every round; the stop must still evaluate
        # it so the recorded history ends at the stop round.
        recorder = HistoryRecorder()
        simulation = build_simulation(total_rounds=10, eval_every=2)
        simulation.run([recorder, StopAfter(2)])
        assert recorder.history.rounds[-1] == 2

    def test_stop_on_evaluated_round_does_not_double_evaluate(self):
        recorder = HistoryRecorder()
        simulation = build_simulation(total_rounds=10, eval_every=2)
        simulation.run([recorder, StopAfter(3)])
        assert recorder.history.rounds == [1, 3]

    def test_simulation_run_accepts_callbacks(self):
        history = build_simulation(total_rounds=10, eval_every=2).run(
            callbacks=[StopAfter(1)]
        )
        assert history.rounds[-1] == 1


class TestHistoryRecorder:
    def test_records_evaluations(self):
        recorder = HistoryRecorder()
        recorder.on_evaluation(
            EvaluationEvent(
                round_index=4,
                total_rounds=10,
                accuracy=0.5,
                diagnostics={"byzantine_selected_fraction": 0.25},
            )
        )
        assert recorder.history.rounds == [4]
        assert recorder.history.test_accuracy == [0.5]
        assert recorder.history.byzantine_selected_fraction == [0.25]

    def test_external_history_used(self):
        from repro.federated.history import TrainingHistory

        history = TrainingHistory()
        recorder = HistoryRecorder(history)
        assert recorder.history is history


class TestEarlyStopping:
    def evaluation(self, round_index: int, accuracy: float) -> EvaluationEvent:
        return EvaluationEvent(
            round_index=round_index, total_rounds=100, accuracy=accuracy
        )

    def end(self, round_index: int) -> RoundEndEvent:
        return RoundEndEvent(round_index=round_index, total_rounds=100)

    def test_requires_a_criterion(self):
        with pytest.raises(ValueError):
            EarlyStopping()

    def test_target_accuracy_triggers(self):
        stopper = EarlyStopping(target_accuracy=0.8)
        stopper.on_evaluation(self.evaluation(0, 0.5))
        assert not stopper.should_stop(self.end(0))
        stopper.on_evaluation(self.evaluation(1, 0.85))
        assert stopper.should_stop(self.end(1))
        assert stopper.stopped_round == 1

    def test_patience_triggers_without_improvement(self):
        stopper = EarlyStopping(patience=2, min_delta=0.01)
        stopper.on_evaluation(self.evaluation(0, 0.5))
        stopper.on_evaluation(self.evaluation(1, 0.505))  # below min_delta
        assert not stopper.should_stop(self.end(1))
        stopper.on_evaluation(self.evaluation(2, 0.5))
        assert stopper.should_stop(self.end(2))

    def test_improvement_resets_patience(self):
        stopper = EarlyStopping(patience=2)
        stopper.on_evaluation(self.evaluation(0, 0.5))
        stopper.on_evaluation(self.evaluation(1, 0.4))
        stopper.on_evaluation(self.evaluation(2, 0.6))  # improvement
        assert not stopper.should_stop(self.end(2))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(target_accuracy=0.5, min_delta=-1.0)

    def test_reset_allows_reuse_across_runs(self):
        stopper = EarlyStopping(target_accuracy=0.0)
        first = build_simulation(total_rounds=6, eval_every=2).run(callbacks=[stopper])
        assert first.rounds == [1]
        stopper.reset()
        second = build_simulation(total_rounds=6, eval_every=2).run(callbacks=[stopper])
        assert second.rounds == [1]  # stops at its own first evaluation, not round 0

    def test_stops_a_real_run(self):
        stopper = EarlyStopping(target_accuracy=0.0)  # any accuracy suffices
        history = build_simulation(total_rounds=10, eval_every=2).run(
            callbacks=[stopper]
        )
        assert history.rounds == [1]
        assert stopper.stopped_round == 1


class TestRoundLogger:
    def test_logs_every_round_by_default(self):
        lines: list[str] = []
        simulation = build_simulation(total_rounds=3, eval_every=2)
        simulation.run([RoundLogger(log=lines.append)])
        assert len(lines) == 3
        assert lines[0].startswith("round 1/3")
        assert "accuracy" in lines[1]  # round 2 is evaluated
        assert "accuracy" in lines[2]  # final round always evaluated

    def test_every_skips_unevaluated_rounds(self):
        lines: list[str] = []
        simulation = build_simulation(total_rounds=4, eval_every=4)
        simulation.run([RoundLogger(log=lines.append, every=2)])
        # Rounds 2 and 4 logged by cadence; round 4 is also the evaluation.
        assert [line.split()[1] for line in lines] == ["2/4", "4/4"]

    def test_invalid_every(self):
        with pytest.raises(ValueError):
            RoundLogger(every=0)


class TestCheckpoint:
    def test_directory_keeps_every_snapshot(self, tmp_path):
        simulation = build_simulation(total_rounds=5, eval_every=2)
        simulation.run([Checkpoint(tmp_path)])
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == [f"round_{index}.state.npz" for index in range(5)]
        for index, name in enumerate(files):
            assert load_round_state(tmp_path / name).round_index == index
        np.testing.assert_array_equal(
            load_round_state(tmp_path / "round_4.state.npz").parameters,
            simulation.model.get_flat_parameters(),
        )

    def test_snapshots_written_to_directory(self, tmp_path):
        """The directory is created on the first round, and each file holds
        the state the simulation had when its round ended."""
        simulation = build_simulation(total_rounds=3, eval_every=2)
        seen = []

        class StateSpy(RoundCallback):
            def on_round_end(self, event: RoundEndEvent) -> None:
                seen.append((
                    simulation.model.get_flat_parameters().copy(),
                    simulation.honest_pool.state.slot_momentum.copy(),
                ))

        directory = tmp_path / "state" / "run"
        simulation.run([Checkpoint(directory), StateSpy()])
        assert len(seen) == 3
        for index, (parameters, momentum) in enumerate(seen):
            state = load_round_state(directory / f"round_{index}.state.npz")
            np.testing.assert_array_equal(state.parameters, parameters)
            np.testing.assert_array_equal(state.honest_momentum, momentum)

    def test_snapshot_is_a_copy(self):
        """A captured state shares no buffer with the live simulation: the
        rounds after it move the model and the momentum, not the state."""
        simulation = build_simulation(total_rounds=3, eval_every=2)
        try:
            simulation.run_round(0)
            state = simulation.capture_round_state(0)
            parameters = state.parameters.copy()
            momentum = state.honest_momentum.copy()
            simulation.run_round(1)
            assert not np.array_equal(
                parameters, simulation.model.get_flat_parameters()
            )
            assert not np.array_equal(
                momentum, simulation.honest_pool.state.slot_momentum
            )
            np.testing.assert_array_equal(state.parameters, parameters)
            np.testing.assert_array_equal(state.honest_momentum, momentum)
        finally:
            simulation.close()

    def test_requires_a_bound_simulation(self, tmp_path):
        checkpoint = Checkpoint(tmp_path)
        with pytest.raises(RuntimeError):
            checkpoint.on_round_end(RoundEndEvent(round_index=0, total_rounds=1))


class TestStartRound:
    """Resume support: the loop honours simulation.start_round."""

    def test_loop_starts_at_start_round(self):
        simulation = build_simulation(total_rounds=6, eval_every=2)
        simulation.start_round = 3
        spy = EventSpy()
        simulation.run([spy])
        starts = [e.round_index for kind, e in spy.events if kind == "start"]
        assert starts == [3, 4, 5]

    def test_start_past_schedule_evaluates_once(self):
        simulation = build_simulation(total_rounds=4, eval_every=2)
        simulation.start_round = 4
        recorder = HistoryRecorder()
        simulation.run([recorder])
        assert recorder.history.rounds == [3]
