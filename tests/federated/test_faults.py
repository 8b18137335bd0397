"""Tests for seeded fault injection, retry/quorum execution and partial cohorts."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.byzantine.label_flip import LabelFlipAttack
from repro.byzantine.lmp import LocalModelPoisoningAttack
from repro.core.config import DPConfig, ProtocolConfig
from repro.core.protocol import TwoStageAggregator
from repro.data.auxiliary import sample_auxiliary
from repro.data.partition import partition_iid
from repro.data.synthetic import make_classification
from repro.defenses.mean import MeanAggregator
from repro.federated.backends import (
    RetryPolicy,
    SerialBackend,
    TaskFailure,
    TransientTaskError,
    build_backend,
)
from repro.federated.faults import (
    FAULTS,
    BYZANTINE_SCOPE,
    HONEST_SCOPE,
    ChaosFaults,
    ChurnFaults,
    CrashFaults,
    DropoutFaults,
    FaultModel,
    NoFaults,
    QuorumError,
    ReportFaultPlan,
    StragglerFaults,
    available_faults,
    build_faults,
    resolve_quorum,
    validate_quorum,
)
from repro.federated.pipeline import MetricsWriter, read_metrics
from repro.federated.sampling import derive_rng
from repro.federated.simulation import FederatedSimulation, SimulationSettings
from repro.nn.layers import Linear
from repro.nn.network import Sequential


def build_simulation(
    n_honest: int = 6,
    n_byzantine: int = 0,
    attack=None,
    aggregator=None,
    sigma: float = 0.5,
    total_rounds: int = 4,
    seed: int = 0,
    **kwargs,
) -> FederatedSimulation:
    rng = np.random.default_rng(seed)
    data = make_classification(240, 8, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="faults")
    test = make_classification(90, 8, 3, class_separation=4.0, within_class_std=0.6,
                               nonlinear=False, rng=rng, name="faults_test")
    shards = partition_iid(data, n_honest, rng)
    auxiliary = sample_auxiliary(test, per_class=2, rng=rng)
    model = Sequential([Linear(8, 3, rng)])
    settings = SimulationSettings(
        total_rounds=total_rounds, learning_rate=0.5, eval_every=2
    )
    return FederatedSimulation(
        model=model,
        honest_datasets=shards,
        n_byzantine=n_byzantine,
        attack=attack,
        aggregator=aggregator if aggregator is not None else MeanAggregator(),
        dp_config=DPConfig(batch_size=8, sigma=sigma),
        auxiliary=auxiliary,
        test_dataset=test,
        settings=settings,
        seed=seed,
        **kwargs,
    )


def two_stage(gamma: float = 0.5) -> TwoStageAggregator:
    return TwoStageAggregator(ProtocolConfig(gamma=gamma))


class AllButOneDrop(FaultModel):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Deterministic test model: every worker except index 0 drops out."""

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        dropped = np.ones(n_workers, dtype=bool)
        dropped[0] = False
        return ReportFaultPlan(dropped=dropped, late=np.zeros(n_workers, dtype=bool))


class AllDrop(FaultModel):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Deterministic test model: the whole cohort drops out every round."""

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        return ReportFaultPlan(
            dropped=np.ones(n_workers, dtype=bool),
            late=np.zeros(n_workers, dtype=bool),
        )


class ScriptedShardLosses(FaultModel):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Deterministic test model: loses the shards ``losses[(round, scope)]``
    names (more crashes than any retry budget here allows), nothing else."""

    def __init__(self, losses: dict[tuple[int, int], list[int]]) -> None:
        super().__init__()
        self.losses = losses

    def crash_failures(self, round_index: int, scope: int, n_shards: int) -> np.ndarray:
        failures = np.zeros(n_shards, dtype=np.int64)
        failures[self.losses.get((round_index, scope), [])] = 10
        return failures


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_models_registered(self):
        names = available_faults()
        for expected in ("none", "dropout", "straggler", "crash", "churn", "chaos"):
            assert expected in names

    def test_describe_rows_have_fault_kind(self):
        rows = FAULTS.describe()
        assert rows and all(row["kind"] == "fault" for row in rows)

    def test_build_faults_injects_default_seed(self):
        model = build_faults("dropout", default_seed=7)
        assert isinstance(model, DropoutFaults)
        assert model.seed == 7

    def test_explicit_seed_beats_default(self):
        model = build_faults("dropout", default_seed=7, seed=3)
        assert model.seed == 3

    def test_none_spec_builds_inactive_model(self):
        model = build_faults(None)
        assert isinstance(model, NoFaults)
        assert not model.is_active

    def test_instance_passthrough(self):
        instance = DropoutFaults(rate=0.3)
        assert build_faults(instance) is instance

    def test_instance_with_kwargs_rejected(self):
        with pytest.raises(TypeError):
            build_faults(DropoutFaults(), rate=0.5)

    def test_custom_model_via_public_registry(self):
        @FAULTS.register("test_blackout", summary="test model", replace=True)
        class Blackout(FaultModel):
            pass

        try:
            assert isinstance(build_faults("test_blackout"), Blackout)
        finally:
            FAULTS.unregister("test_blackout")

    def test_seedless_builder_gets_no_default_seed(self):
        """A builder without a ``seed`` parameter builds under a default
        seed, which it never sees."""
        FAULTS.register("test_seedless", lambda: NoFaults(seed=4), replace=True)
        try:
            assert build_faults("test_seedless", default_seed=7).seed == 4
        finally:
            FAULTS.unregister("test_seedless")


# --------------------------------------------------------------------- #
# quorum primitives
# --------------------------------------------------------------------- #
class TestQuorum:
    @pytest.mark.parametrize("bad", [True, False, "3", None])
    def test_non_numeric_quorum_rejected(self, bad):
        with pytest.raises(TypeError):
            validate_quorum(bad)

    @pytest.mark.parametrize("bad", [0, -1, 0.0, -0.5, 1.5])
    def test_out_of_range_quorum_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_quorum(bad)

    def test_integer_quorum_is_absolute(self):
        assert resolve_quorum(3, expected=10) == 3
        assert resolve_quorum(3, expected=2) == 3

    def test_fractional_quorum_scales_with_population(self):
        assert resolve_quorum(0.5, expected=10) == 5
        assert resolve_quorum(0.25, expected=10) == 3  # ceil(2.5)
        assert resolve_quorum(0.01, expected=10) == 1

    def test_error_names_round_and_survivors(self):
        error = QuorumError(round_index=7, survivors=2, required=5)
        assert "round 7" in str(error)
        assert "2" in str(error) and "5" in str(error)
        assert error.round_index == 7


# --------------------------------------------------------------------- #
# retry policy + resilient mapping
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -1.0},
            {"timeout": 0.0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("key", ["backoff_jitter", "seed"])
    def test_jitter_settings_are_unknown(self, key):
        with pytest.raises(TypeError, match=key):
            RetryPolicy(backoff_base=0.5, **{key: 1})

    def test_no_backoff_means_zero_delay(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.delay(attempt=3) == 0.0

    def test_exponential_backoff_doubles(self):
        policy = RetryPolicy(backoff_base=0.5)
        assert policy.delay(1) == pytest.approx(0.5)
        assert policy.delay(2) == pytest.approx(1.0)
        assert policy.delay(3) == pytest.approx(2.0)


class _FlakyCalls:
    """Callable failing the first ``failures[item]`` invocations per item."""

    def __init__(self, failures: dict[int, int]):
        self.remaining = dict(failures)
        self.calls = 0

    def __call__(self, item: int) -> int:
        self.calls += 1
        if self.remaining.get(item, 0) > 0:
            self.remaining[item] -= 1
            raise TransientTaskError(f"item {item} failed")
        return item * 10


def resilient_map(backend, fn, items, policy=None, crashes=()):
    """Map ``fn`` over ``items`` under the backend's retry loop."""
    task = backend.resilient(fn, policy if policy is not None else RetryPolicy(), crashes)
    return list(backend.map_ordered(task, enumerate(items)))


class TestResilientTasks:
    def test_all_succeed_in_submission_order(self):
        results = resilient_map(SerialBackend(), lambda x: x * 2, [1, 2, 3])
        assert results == [2, 4, 6]

    def test_retries_then_succeeds(self):
        fn = _FlakyCalls({1: 2})
        results = resilient_map(
            SerialBackend(), fn, [0, 1, 2], RetryPolicy(max_attempts=3)
        )
        assert results == [0, 10, 20]
        assert fn.calls == 5  # 3 items + 2 retries

    def test_permanent_failure_fills_ordered_slot(self):
        fn = _FlakyCalls({1: 99})
        results = resilient_map(
            SerialBackend(), fn, [0, 1, 2], RetryPolicy(max_attempts=2)
        )
        assert results[0] == 0 and results[2] == 20
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 1
        assert failure.attempts == 2
        assert "item 1" in failure.error

    def test_non_transient_error_propagates(self):
        def boom(item):
            raise RuntimeError("not transient")

        with pytest.raises(RuntimeError, match="not transient"):
            resilient_map(SerialBackend(), boom, [1])

    def test_injected_crashes_fire_before_the_task(self):
        fn = _FlakyCalls({})
        results = resilient_map(
            SerialBackend(), fn, [1, 2, 3], RetryPolicy(max_attempts=3),
            crashes=(0, 2, 3),
        )
        assert results[:2] == [10, 20]
        assert isinstance(results[2], TaskFailure)
        assert results[2].attempts == 3
        assert "injected shard crash" in results[2].error
        assert fn.calls == 2  # crashed attempts never reach the task

    def test_threaded_backend_retries_in_order(self):
        backend = build_backend("threaded", max_workers=2)
        try:
            results = resilient_map(
                backend, _FlakyCalls({2: 1}), [1, 2, 3], RetryPolicy(max_attempts=3)
            )
            assert results == [10, 20, 30]
        finally:
            backend.shutdown()


# --------------------------------------------------------------------- #
# fault model draws
# --------------------------------------------------------------------- #
class TestFaultModelDraws:
    @pytest.mark.parametrize("seed", [0, 1, 5, 11, 2**31])
    def test_streams_are_the_derived_streams(self, seed):
        """A fault stream is ``derive_rng``'s stream for the same key, and
        both draw from ``SeedSequence((seed, component, *counters))``."""
        model = FaultModel(seed=seed)
        for component in (1, 2, 3, 4):
            for counters in ((), (0,), (7,), (3, HONEST_SCOPE), (3, BYZANTINE_SCOPE)):
                want = np.random.default_rng(
                    np.random.SeedSequence((seed, component, *counters))
                ).random(8)
                np.testing.assert_array_equal(
                    model.rng(component, *counters).random(8), want
                )
                np.testing.assert_array_equal(
                    derive_rng(seed, component, *counters).random(8), want
                )

    def test_same_seed_same_trace(self):
        one = ChaosFaults(dropout=0.3, crash=0.3, seed=5)
        two = ChaosFaults(dropout=0.3, crash=0.3, seed=5)
        for round_index in range(6):
            a, b = one.report_faults(round_index, 12), two.report_faults(round_index, 12)
            np.testing.assert_array_equal(a.dropped, b.dropped)
            np.testing.assert_array_equal(a.late, b.late)
            np.testing.assert_array_equal(
                one.crash_failures(round_index, HONEST_SCOPE, 4),
                two.crash_failures(round_index, HONEST_SCOPE, 4),
            )

    def test_different_seeds_differ(self):
        traces = [
            np.concatenate([
                DropoutFaults(rate=0.5, seed=seed).report_faults(r, 16).dropped
                for r in range(4)
            ])
            for seed in (1, 2)
        ]
        assert not np.array_equal(traces[0], traces[1])

    def test_scopes_draw_independent_streams(self):
        model = CrashFaults(rate=0.9, max_failures=3, seed=3)
        honest = model.crash_failures(0, HONEST_SCOPE, 64)
        byzantine = model.crash_failures(0, BYZANTINE_SCOPE, 64)
        assert not np.array_equal(honest, byzantine)

    def test_dropout_rate_extremes(self):
        assert not DropoutFaults(rate=0.0).report_faults(0, 20).dropped.any()
        assert DropoutFaults(rate=1.0).report_faults(0, 20).dropped.all()

    def test_crash_failures_bounded_by_max(self):
        failures = CrashFaults(rate=1.0, max_failures=2, seed=1).crash_failures(
            3, HONEST_SCOPE, 50
        )
        assert failures.dtype == np.int64
        assert failures.min() >= 1 and failures.max() <= 2

    def test_churn_schedule_is_periodic(self):
        model = ChurnFaults(rate=1.0, away=2, period=4, seed=9)
        masks = [model.report_faults(r, 10).dropped for r in range(8)]
        for r in range(4):
            np.testing.assert_array_equal(masks[r], masks[r + 4])
        # every worker churns at rate 1 and is away `away` of `period` rounds
        away_counts = np.sum(masks[:4], axis=0)
        np.testing.assert_array_equal(away_counts, np.full(10, 2))

    def test_straggler_buffer_mode_flags_late(self):
        plan = StragglerFaults(rate=1.0, mode="buffer", seed=2).report_faults(0, 8)
        assert plan.late.all()
        assert plan.buffer_late
        assert not plan.dropped.any()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            DropoutFaults(seed=-1)


# --------------------------------------------------------------------- #
# faulty training (integration)
# --------------------------------------------------------------------- #
class TestFaultyTraining:
    def test_all_dropped_raises_quorum_error_not_shape_error(self):
        simulation = build_simulation(faults=AllDrop())
        with pytest.raises(QuorumError, match="round 0"):
            simulation.run()

    def test_single_survivor_round_completes(self):
        simulation = build_simulation(faults=AllButOneDrop())
        history = simulation.run()
        assert history.final_accuracy >= 0.0
        assert history.faults
        assert all(entry["fault_survivors"] == 1.0 for entry in history.faults)

    def test_quorum_error_names_the_round_it_ran(self):
        """A fresh simulation that runs round 5 reports round 5, whatever
        number of updates it has made before."""
        simulation = build_simulation(faults=build_faults("dropout", rate=1.0))
        with pytest.raises(QuorumError) as excinfo:
            simulation.run_round(5)
        assert excinfo.value.round_index == 5
        assert excinfo.value.survivors == 0

    def test_quorum_is_checked_before_the_server_is_called(self):
        simulation = build_simulation(faults=AllButOneDrop(), min_quorum=2)
        calls = []
        simulation.server.update = lambda *args, **kwargs: calls.append(args)
        with pytest.raises(QuorumError) as excinfo:
            simulation.run_round(0)
        assert (excinfo.value.survivors, excinfo.value.required) == (1, 2)
        assert calls == []

    @pytest.mark.parametrize(
        "min_quorum, error", [(0, ValueError), (1.5, ValueError), (True, TypeError)]
    )
    def test_invalid_quorum_is_refused_at_construction(self, min_quorum, error):
        with pytest.raises(error):
            build_simulation(min_quorum=min_quorum)

    def test_fractional_quorum_violation(self):
        simulation = build_simulation(faults=AllButOneDrop(), min_quorum=0.5)
        with pytest.raises(QuorumError) as excinfo:
            simulation.run()
        assert excinfo.value.survivors == 1
        assert excinfo.value.required == 3

    def test_zero_rate_fault_path_matches_reference(self):
        # An *active* dropout model at rate 0 exercises the whole fault
        # path (survivor ids, partial-cohort aggregation) but loses no
        # worker: the run must be bitwise identical to the "none" model.
        reference = build_simulation(
            n_byzantine=2, attack=LocalModelPoisoningAttack(),
            aggregator=two_stage(), faults="none", seed=3,
        )
        faulty = build_simulation(
            n_byzantine=2, attack=LocalModelPoisoningAttack(),
            aggregator=two_stage(), faults=DropoutFaults(rate=0.0), seed=3,
        )
        assert faulty.fault_model.is_active
        ref_history = reference.run()
        faulty_history = faulty.run()
        assert faulty_history.test_accuracy == ref_history.test_accuracy
        assert (
            faulty_history.byzantine_selected_fraction
            == ref_history.byzantine_selected_fraction
        )
        np.testing.assert_array_equal(
            faulty.model.get_flat_parameters(),
            reference.model.get_flat_parameters(),
        )

    def test_retry_then_succeed_is_bitwise_identical_to_never_failing(self):
        # Crashes recover within the retry budget, so the realised uploads
        # -- and therefore the whole run -- must match the fault-free one.
        reference = build_simulation(aggregator=two_stage(), faults="none", seed=4)
        crashing = build_simulation(
            aggregator=two_stage(),
            faults=CrashFaults(rate=0.8, max_failures=2, seed=4),
            retry={"max_attempts": 3},
            shard_size=2,
            seed=4,
        )
        reference_with_shards = build_simulation(
            aggregator=two_stage(), faults="none", shard_size=2, seed=4
        )
        ref_history = reference_with_shards.run()
        crash_history = crashing.run()
        assert crash_history.test_accuracy == ref_history.test_accuracy
        np.testing.assert_array_equal(
            crashing.model.get_flat_parameters(),
            reference_with_shards.model.get_flat_parameters(),
        )
        # the reference without sharding agrees too (sharding is neutral)
        assert reference.run().test_accuracy == ref_history.test_accuracy
        # and the crashes really happened: retries were recorded
        assert sum(entry["fault_retried"] for entry in crash_history.faults) > 0

    def test_byzantine_pool_that_sat_out_reports_no_faults(self):
        # Round 0 loses the Byzantine pool's first shard.  Round 1 loses
        # every honest shard, so the attacker has nothing to observe, its
        # pool does not run, and the pool's round-0 report must not be
        # counted again: only the 4 honest workers crashed (2 retries per
        # lost shard) and the 4 zeroed Byzantine rows survive.
        simulation = build_simulation(
            n_honest=4,
            n_byzantine=4,
            attack=LabelFlipAttack(),
            faults=ScriptedShardLosses(
                {(0, BYZANTINE_SCOPE): [0], (1, HONEST_SCOPE): [0, 1]}
            ),
            shard_size=2,
            min_quorum=1,
            total_rounds=2,
        )
        history = simulation.run()
        first, second = history.faults
        assert (first["fault_crashed"], first["fault_retried"]) == (2.0, 2.0)
        assert first["fault_survivors"] == 6.0
        assert second["fault_crashed"] == 4.0
        assert second["fault_retried"] == 4.0
        assert second["fault_survivors"] == 4.0

    def test_exhausted_retries_drop_the_shard_workers(self):
        simulation = build_simulation(
            faults=CrashFaults(rate=1.0, max_failures=5, seed=2),
            retry={"max_attempts": 2},
            shard_size=3,
        )
        with pytest.raises(QuorumError):
            # every shard fails past the retry budget -> empty cohort
            simulation.run()

    def test_straggler_buffer_delivers_next_round(self):
        simulation = build_simulation(
            faults=StragglerFaults(rate=0.4, mode="buffer", seed=6),
            total_rounds=6,
        )
        history = simulation.run()
        buffered = sum(entry["fault_buffered"] for entry in history.faults)
        assert buffered > 0
        assert history.final_accuracy >= 0.0

    def test_dropout_under_attack_with_two_stage(self):
        simulation = build_simulation(
            n_byzantine=2,
            attack=LocalModelPoisoningAttack(),
            aggregator=two_stage(),
            faults=DropoutFaults(rate=0.3, seed=1),
            min_quorum=2,
            total_rounds=5,
        )
        history = simulation.run()
        assert history.faults
        dropped = sum(entry["fault_dropped"] for entry in history.faults)
        assert dropped > 0

    def test_history_dict_contains_faults_only_when_faulty(self):
        clean = build_simulation(faults="none").run()
        assert set(clean.as_dict()) == {
            "rounds", "test_accuracy", "byzantine_selected_fraction",
        }
        faulty = build_simulation(faults=DropoutFaults(rate=0.5, seed=8)).run()
        assert "faults" in faulty.as_dict()

    def test_simulation_takes_faults_quorum_and_retry(self):
        simulation = build_simulation(
            faults=CrashFaults(rate=0.5, max_failures=1),
            min_quorum=2,
            retry={"max_attempts": 4},
        )
        assert isinstance(simulation.fault_model, CrashFaults)
        assert simulation.min_quorum == 2
        assert simulation.retry_policy.max_attempts == 4


class TestCrossBackendDeterminism:
    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_chaos_trace_and_accuracy_match_serial(self, backend):
        def run(backend_name):
            simulation = build_simulation(
                aggregator=two_stage(),
                faults=ChaosFaults(dropout=0.2, crash=0.4, seed=5),
                shard_size=2,
                backend=backend_name,
                total_rounds=3,
                seed=5,
            )
            try:
                history = simulation.run()
            finally:
                simulation.close()
            return history.as_dict(), simulation.model.get_flat_parameters()

        serial_history, serial_params = run("serial")
        other_history, other_params = run(backend)
        assert other_history == serial_history
        np.testing.assert_array_equal(other_params, serial_params)


# --------------------------------------------------------------------- #
# metrics writer
# --------------------------------------------------------------------- #
class TestMetricsWriter:
    def test_streams_one_json_line_per_round(self, tmp_path):
        path = tmp_path / "metrics" / "rounds.jsonl"
        simulation = build_simulation(faults=DropoutFaults(rate=0.3, seed=1))
        with MetricsWriter(path) as writer:
            simulation.run([writer])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == simulation.settings.total_rounds
        assert writer.lines_written == len(lines)
        records = [json.loads(line) for line in lines]
        assert [r["round"] for r in records] == list(range(len(records)))
        assert all("fault_survivors" in r for r in records)
        # evaluation rounds carry the accuracy, others null
        assert any(r["accuracy"] is not None for r in records)

    def test_close_is_idempotent(self, tmp_path):
        writer = MetricsWriter(tmp_path / "m.jsonl")
        writer.close()
        writer.close()
        assert writer.lines_written == 0

    def test_append_mode_accumulates_across_resumed_runs(self, tmp_path):
        # A resumed run reopens the same file in append mode: the JSONL
        # accumulates one contiguous record of the whole trajectory.
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path) as writer:
            build_simulation().run([writer])
        first = len(path.read_text().splitlines())
        assert first > 0
        with MetricsWriter(path, append=True) as writer:
            build_simulation().run([writer])
        assert len(path.read_text().splitlines()) == 2 * first

    def test_default_mode_overwrites(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"round": 99}\n')
        with MetricsWriter(path) as writer:
            build_simulation().run([writer])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["round"] == 0

    def test_fsync_knob_still_writes_valid_records(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path, fsync=True) as writer:
            build_simulation().run([writer])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["round"] for r in records] == list(range(len(records)))


class TestReadMetrics:
    def write(self, path, lines):
        path.write_text("".join(lines))
        return path

    def test_reads_writer_output(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsWriter(path) as writer:
            build_simulation().run([writer])
        records = read_metrics(path)
        assert len(records) == writer.lines_written
        assert [r["round"] for r in records] == list(range(len(records)))

    def test_tolerates_torn_final_line(self, tmp_path):
        # A kill -9 mid-write leaves at most one partial trailing line.
        path = self.write(tmp_path / "m.jsonl", [
            '{"round": 0, "accuracy": null}\n',
            '{"round": 1, "accuracy": 0.5}\n',
            '{"round": 2, "accu',
        ])
        records = read_metrics(path)
        assert [r["round"] for r in records] == [0, 1]

    def test_trailing_blank_lines_are_ignored(self, tmp_path):
        path = self.write(tmp_path / "m.jsonl", [
            '{"round": 0}\n', "\n", "\n",
        ])
        assert read_metrics(path) == [{"round": 0}]

    def test_malformed_interior_line_raises_with_line_number(self, tmp_path):
        path = self.write(tmp_path / "m.jsonl", [
            '{"round": 0}\n', "garbage\n", '{"round": 2}\n',
        ])
        with pytest.raises(ValueError, match="line 2"):
            read_metrics(path)

    def test_blank_interior_line_raises(self, tmp_path):
        path = self.write(tmp_path / "m.jsonl", [
            '{"round": 0}\n', "\n", '{"round": 2}\n',
        ])
        with pytest.raises(ValueError, match="blank line 2"):
            read_metrics(path)
