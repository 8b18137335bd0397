"""The federated training loop with Byzantine workers.

One round of :class:`FederatedSimulation` performs:

1. model broadcasting (all workers see ``w_{t-1}``);
2. the honest :class:`~repro.federated.worker.WorkerPool` computes every
   honest DP upload in stacked forward/backward passes (Algorithm 1, lines
   4-12, batched across workers);
3. the Byzantine attacker produces its uploads -- either by running the
   honest protocol on poisoned data through its own pool (label flipping)
   or by crafting vectors from its omniscient view of the honest uploads;
4. the server aggregates with its configured rule and updates the model;
5. periodically, the global model is evaluated on the held-out test set.

Both client populations travel through the batched pool path, so a round
performs two model passes at most (honest pool, Byzantine pool) instead of
one small forward/backward per worker.  Both pools share one
:class:`~repro.federated.backends.ExecutionBackend`, so their shards may
run concurrently (threads, worker processes or remote workers) with
results bitwise identical to the serial reference.

:meth:`FederatedSimulation.run_round` is the round body and
:meth:`FederatedSimulation.run` the loop around it, which emits typed
events to :class:`~repro.federated.pipeline.RoundCallback` hooks (early
stopping, logging, checkpoints) and records history through the default
:class:`~repro.federated.pipeline.HistoryRecorder` consumer.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from repro.byzantine.base import Attack, AttackContext
from repro.core.config import DPConfig
from repro.core.dp_protocol import BatchedDPState, upload_noise_std
from repro.data.dataset import Dataset
from repro.defenses.base import Aggregator
from repro.federated.backends import ExecutionBackend, RetryPolicy, build_backend
from repro.federated.faults import (
    BYZANTINE_SCOPE,
    HONEST_SCOPE,
    FaultModel,
    QuorumError,
    ShardFaultPlan,
    build_faults,
    resolve_quorum,
    validate_quorum,
)
from repro.federated.sampling import (
    CohortSampler,
    WorkerSource,
    build_sampler,
    derive_rng,
)
from repro.federated.state import RoundState
from repro.federated.history import TrainingHistory
from repro.federated.pipeline import (
    EvaluationEvent,
    HistoryRecorder,
    RoundCallback,
    RoundEndEvent,
    RoundStartEvent,
)
from repro.federated.server import Server
from repro.federated.worker import WorkerPool
from repro.nn.network import Sequential

__all__ = ["SimulationSettings", "FederatedSimulation"]


@dataclass(frozen=True)
class SimulationSettings:
    """Static settings of one federated training run.

    Attributes
    ----------
    total_rounds:
        Number of aggregation rounds ``T``.
    learning_rate:
        Server learning rate ``eta``.
    eval_every:
        Evaluate the global model on the test set every this many rounds
        (the final round is always evaluated).
    """

    total_rounds: int
    learning_rate: float
    eval_every: int = 10

    def __post_init__(self) -> None:
        if self.total_rounds <= 0:
            raise ValueError("total_rounds must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")


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


class FederatedSimulation:
    """Simulate federated training under a Byzantine attack.

    Parameters
    ----------
    model:
        The global model (updated in place).
    honest_datasets:
        One local dataset per honest worker.
    n_byzantine:
        Number of Byzantine workers controlled by the attacker.
    attack:
        The attack instance, or ``None`` for no Byzantine workers.  A
        protocol-following attack (label flipping) poisons the data of
        honest workers for its own pool: the omniscient attacker knows
        the honest data anyway.
    aggregator:
        Server-side aggregation rule.
    dp_config:
        Client-side DP protocol settings (shared by all protocol-following
        workers, honest or Byzantine).
    auxiliary:
        Server auxiliary dataset (``None`` for defenses that don't need it).
    test_dataset:
        Held-out dataset for evaluation.
    settings:
        Loop settings (rounds, learning rate, evaluation cadence).
    seed:
        Base seed; every worker and the server get independent generators
        derived from it.
    engine:
        The pools' registered engine name (``None``:
        :data:`~repro.federated.engines.DEFAULT_ENGINE`).  Every shard
        task of both pools builds its own engine of that name.
    shard_size:
        Maximum workers per shard task of both pools (see
        :class:`~repro.federated.worker.WorkerPool`); ``None`` lets each
        pool choose from the backend's concurrency.
    backend:
        Parallel execution backend for the round's independent shard
        tasks (honest and Byzantine pools): a registered name
        (``"serial"``, ``"threaded"``, ``"process"``), a ready
        :class:`~repro.federated.backends.ExecutionBackend` instance (see
        :func:`~repro.federated.backends.build_backend`), or ``None`` for
        the serial reference.  One backend instance (one thread/process
        pool) is shared by both worker pools; every backend produces
        bitwise-identical runs.  Call :meth:`close` when done to release
        pooled threads/processes.
    faults:
        Fault-injection scenario: a registered name (``"none"``,
        ``"dropout"``, ``"straggler"``, ``"crash"``, ``"churn"``,
        ``"chaos"``), a ready :class:`~repro.federated.faults.FaultModel`
        instance (see :func:`~repro.federated.faults.build_faults`), or
        ``None`` for the fault-free reference.  Fault draws derive from
        the model's own seed (a name defaults it to ``seed``), so a
        fault trace replays bit-identically on every backend.
    min_quorum:
        Minimum surviving cohort per round (``int`` count or ``float``
        fraction of :attr:`n_workers`); :meth:`run_round` raises
        :class:`~repro.federated.faults.QuorumError` below it.
    retry:
        Shard retry policy for crash faults: a
        :class:`~repro.federated.backends.RetryPolicy`, a mapping of its
        keyword arguments, or ``None`` for the default (3 attempts, no
        backoff).
    population:
        A lazy :class:`~repro.federated.sampling.WorkerSource` standing
        in for the full registered honest population (cross-device
        mode).  ``honest_datasets`` must then be empty: each round a
        cohort of ``cohort`` workers is drawn by ``sampler`` and only
        those workers' index views and generators are derived.  Server-side
        per-worker state (the two-stage accumulated scores, quorum
        fractions) is keyed by the *global* worker ids over
        ``len(population) + n_byzantine``.
    cohort:
        Honest workers drawn per round in population mode (defaults to
        the full population).
    sampler:
        The :class:`~repro.federated.sampling.CohortSampler` drawing each
        round's plan; defaults to the seeded ``uniform`` sampler.  Plans
        are keyed ``(seed, "sampler", round)``, so the participation
        trace replays bit-identically on every backend and across
        restarts.
    """

    def __init__(
        self,
        model: Sequential,
        honest_datasets: list[Dataset],
        n_byzantine: int,
        attack: Attack | None,
        aggregator: Aggregator,
        dp_config: DPConfig,
        auxiliary: Dataset | None,
        test_dataset: Dataset,
        settings: SimulationSettings,
        seed: int = 0,
        engine: str | None = None,
        shard_size: int | None = None,
        backend: str | ExecutionBackend | None = None,
        faults: str | FaultModel | None = None,
        min_quorum: int | float = 1,
        retry: RetryPolicy | Mapping | None = None,
        population: WorkerSource | None = None,
        cohort: int | None = None,
        sampler: CohortSampler | None = None,
    ) -> None:
        if population is None and not honest_datasets:
            raise ValueError("at least one honest worker is required")
        if population is not None and honest_datasets:
            raise ValueError(
                "pass either honest_datasets or a population source, not both"
            )
        if n_byzantine < 0:
            raise ValueError("n_byzantine must be non-negative")
        if n_byzantine > 0 and attack is None:
            raise ValueError("an attack must be provided when n_byzantine > 0")

        #: the round's fault model (``NoFaults`` on the reference path)
        self.fault_model: FaultModel = build_faults(faults, default_seed=seed)
        #: shard retry policy applied when crash faults are active
        if retry is None:
            self.retry_policy = RetryPolicy()
        elif isinstance(retry, RetryPolicy):
            self.retry_policy = retry
        else:
            self.retry_policy = RetryPolicy(**retry)
        validate_quorum(min_quorum)
        self.min_quorum = min_quorum

        self.model = model
        self.attack = attack
        self.n_byzantine = n_byzantine
        self.settings = settings
        self.test_dataset = test_dataset
        self.dp_config = dp_config
        self.backend = build_backend(backend)
        #: first round index :meth:`run` executes (set by checkpoint resume)
        self.start_round = 0
        #: the tracer :meth:`run` found among its callbacks, or ``None``
        self._tracer = None
        #: buffered straggler reports awaiting next-round delivery --
        #: ``(worker_ids, upload_rows)`` -- or ``None``; round state, like
        #: the pools' momentum and the generator streams
        self.pending: tuple[np.ndarray, np.ndarray] | None = None

        #: lazy registered population (cross-device mode); ``None`` runs
        #: the classic fixed-cohort simulation
        self.population_source = population
        self.sampler: CohortSampler | None = None
        self.cohort = 0
        # Each mode supplies the pools' datasets and generator streams,
        # and the honest workers a protocol-following attacker poisons.
        if population is None:
            registered = len(honest_datasets)
            streams = [
                np.random.default_rng(child)
                for child in np.random.SeedSequence(seed).spawn(
                    registered + n_byzantine + 2
                )
            ]
            self._server_rng, self._attack_rng = streams[0], streams[1]
            honest_rngs = streams[2 : 2 + registered]
            byzantine_rngs = streams[2 + registered :]
            victim = honest_datasets.__getitem__
            #: global ids of the honest workers in the round matrix's
            #: leading rows: the identity for a fixed cohort
            self.current_plan = np.arange(registered, dtype=np.int64)
        else:
            registered = len(population)
            cohort = registered if cohort is None else int(cohort)
            if not 0 < cohort <= registered:
                raise ValueError(
                    f"cohort must be in [1, {registered}], got {cohort}"
                )
            self.cohort = cohort
            self.sampler = (
                sampler
                if sampler is not None
                else build_sampler("uniform", default_seed=seed)
            )
            # Derived, not spawned: every stream is keyed by a stable
            # component name / worker id, so a 10^6-strong registered
            # population costs nothing until a worker is actually drawn.
            self._server_rng = derive_rng(seed, "server")
            self._attack_rng = derive_rng(seed, "attack")
            # The pool's slot count (cohort) is fixed; prepare_round
            # re-points the slots at each round's sampled workers, so the
            # bootstrap contents below never feed a computation.
            self.current_plan = np.arange(cohort, dtype=np.int64)
            honest_datasets = population.datasets(self.current_plan)
            honest_rngs = population.round_rngs(self.current_plan, 0)
            byzantine_rngs = [
                derive_rng(seed, "byzantine", i) for i in range(n_byzantine)
            ]

            def victim(worker_id: int) -> Dataset:
                return population.dataset(worker_id).materialize()

        #: registered worker count keying per-worker server state: the
        #: whole registered honest population plus the Byzantine workers,
        #: so a worker's accumulated second-stage score survives the
        #: rounds it is not sampled (:attr:`n_workers` for a fixed cohort)
        self.total_population = registered + n_byzantine
        #: first Byzantine global worker id (every id below is honest)
        self.byzantine_id_floor = registered

        self.honest_pool = WorkerPool(
            honest_datasets,
            dp_config,
            honest_rngs,
            engine=engine,
            shard_size=shard_size,
            backend=self.backend,
        )
        self.byzantine_pool: WorkerPool | None = None
        if n_byzantine > 0 and attack.follows_protocol:
            self.byzantine_pool = WorkerPool(
                [
                    attack.poison_dataset(victim(i % registered))
                    for i in range(n_byzantine)
                ],
                dp_config,
                byzantine_rngs,
                engine=engine,
                shard_size=shard_size,
                backend=self.backend,
            )

        self.server = Server(
            model=model,
            aggregator=aggregator,
            learning_rate=settings.learning_rate,
            dp_config=dp_config,
            auxiliary=auxiliary,
            rng=self._server_rng,
        )

    # ------------------------------------------------------------------ #
    # round logic
    # ------------------------------------------------------------------ #
    @property
    def n_honest(self) -> int:
        """Number of honest workers computing uploads per round."""
        return self.honest_pool.n_workers

    @property
    def n_workers(self) -> int:
        """Workers reporting per round (honest cohort + Byzantine)."""
        return self.n_honest + self.n_byzantine

    def prepare_round(self, round_index: int) -> None:
        """Draw the round's cohort and re-point the honest pool at it.

        A no-op for a fixed cohort.  In population mode the sampler's
        plan -- keyed ``(seed, "sampler", round_index)``, independent of
        backend and restart point -- selects the honest workers, whose
        index views and generators are derived only now.
        """
        if self.population_source is None:
            return
        plan = self.sampler.draw(
            round_index, len(self.population_source), self.cohort
        )
        self.current_plan = plan
        self.honest_pool.assign(
            self.population_source.datasets(plan),
            self.population_source.round_rngs(plan, round_index),
        )

    def global_worker_ids(self, local_ids: np.ndarray | None = None) -> np.ndarray:
        """Map round-local row indices to global worker ids.

        Row ``i`` of the round matrix belongs to honest worker
        ``current_plan[i]`` for ``i < n_honest`` and to Byzantine worker
        ``byzantine_id_floor + i - n_honest`` otherwise: the identity for
        a fixed cohort.  ``local_ids=None`` maps the full round.
        """
        full = np.concatenate(
            (
                self.current_plan,
                self.byzantine_id_floor + np.arange(self.n_byzantine, dtype=np.int64),
            )
        )
        if local_ids is None:
            return full
        return full[np.asarray(local_ids, dtype=np.int64)]

    def byzantine_uploads(
        self,
        honest_uploads: np.ndarray,
        round_index: int,
        crash_plan: ShardFaultPlan | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """This round's Byzantine uploads, shape ``(n_byzantine, d)``.

        ``crash_plan`` applies only to protocol-following attacks (the
        only ones with real shard computations to crash).  ``out`` is
        the float64 array to fill and return; ``None`` allocates one.
        """
        if out is None:
            out = np.empty(
                (self.n_byzantine, honest_uploads.shape[1]), dtype=np.float64
            )
        if self.n_byzantine == 0 or self.attack is None:
            return out

        attack = self.attack
        active = attack.is_active(round_index, self.settings.total_rounds)
        if active and attack.follows_protocol:
            assert self.byzantine_pool is not None
            return self.byzantine_pool.compute_uploads(
                self.model, crash_plan=crash_plan, out=out
            )

        if not active:
            # Dormant: copies of random honest rows, or zeros when no
            # honest row survived the round.
            if honest_uploads.shape[0] == 0:
                out[...] = 0.0
                return out
            indices = self._attack_rng.integers(
                0, honest_uploads.shape[0], size=self.n_byzantine
            )
            # In range by construction; "wrap" writes ``out`` directly.
            return np.take(honest_uploads, indices, axis=0, out=out, mode="wrap")
        context = AttackContext(
            honest_uploads=honest_uploads,
            n_byzantine=self.n_byzantine,
            upload_noise_std=upload_noise_std(self.dp_config),
            rng=self._attack_rng,
        )
        rows = np.asarray(attack.craft(context), dtype=np.float64)
        if rows.shape != out.shape:
            raise ValueError(
                f"{attack.name} produced uploads of shape {rows.shape}, "
                f"expected {out.shape}"
            )
        out[...] = rows
        return out

    def _span(self, kind: str, name: str | None = None, **fields):
        """A span of the run's tracer (a no-op context without one)."""
        if self._tracer is None:
            return nullcontext()
        return self._tracer.trace_span(kind, name, **fields)

    def _crash_plan(
        self, round_index: int, scope: int, pool: WorkerPool | None
    ) -> ShardFaultPlan | None:
        """The fault model's crash schedule for one pool and round
        (``None`` without a pool: crafted uploads have no shards)."""
        if pool is None:
            return None
        return ShardFaultPlan(
            failures=self.fault_model.crash_failures(
                round_index, scope, pool.n_shards
            ),
            policy=self.retry_policy,
        )

    def run_round(self, round_index: int) -> dict[str, float]:
        """Run one aggregation round; returns the round diagnostics.

        The broadcast is implicit: all workers share the server's model
        object, so no parameter copy is materialised.

        The round fills one ``(n, d)`` round matrix, honest rows first:
        the pools commit their shards straight into its rows, and the
        attacker's crafted, copied or zeroed rows are written below them.
        A row is read only after the stage that fills it has returned.

        Every round runs through the fault seams; the default
        :class:`~repro.federated.faults.NoFaults` model plans nothing,
        which makes this the clean round.  Crash faults are injected into
        the worker pools (shards retry under :attr:`retry_policy`;
        exhausted shards lose their workers and leave zero rows).  Pools
        can also lose shards for real: a remote backend turns an
        exhausted transport retry budget into ordered
        :class:`~repro.federated.backends.TaskFailure` slots.  Report
        faults mask the round matrix *after* computation -- worker
        streams never observe them, so the fault trace is a pure function
        of the round counters and identical across backends.

        The late reports to buffer are copied out, the ``m`` surviving
        rows move up, in order, to the matrix's leading rows, and
        ``matrix[:m]`` goes to the server in one
        :meth:`~repro.federated.server.Server.update` call keyed by the
        rows' :meth:`global_worker_ids` -- in a clean round no row moves
        and that is the whole matrix.  When last round's buffered reports
        arrive, survivors and arrivals are written once each into one new
        ``(m + k, d)`` matrix in worker-id order.  Six ``fault_*`` counts
        join the diagnostics unless the round is clean: faults inactive,
        no pool report and no arrivals.  The round checks its quorum
        against :attr:`n_workers` before it calls the server, which keys
        its per-worker state by :attr:`total_population`.
        """
        self.prepare_round(round_index)
        n_honest, n_workers = self.n_honest, self.n_workers
        matrix = np.empty((n_workers, self.model.num_parameters), dtype=np.float64)
        honest, byzantine = matrix[:n_honest], matrix[n_honest:]

        crash_plan = self._crash_plan(round_index, HONEST_SCOPE, self.honest_pool)
        with self._span("stage", "honest_uploads"):
            self.honest_pool.compute_uploads(
                self.model, crash_plan=crash_plan, out=honest
            )
        crashed = np.zeros(n_workers, dtype=bool)
        retried = 0
        honest_report = self.honest_pool.last_fault_report
        if honest_report is not None:
            crashed[:n_honest] = honest_report.failed_workers
            retried += honest_report.retried

        # The omniscient attacker observes every committed honest upload
        # (report faults happen at the server's deadline, not on the
        # devices); only the rows of lost shards are invisible to it.
        byzantine_pool = self.byzantine_pool
        if byzantine_pool is not None:
            # A pool's report describes the last round it ran; one that
            # sits this round out (dormant attack, no honest rows to
            # observe) must not replay it.
            byzantine_pool.last_fault_report = None
        attacker_view = honest[~crashed[:n_honest]] if crashed.any() else honest
        if self.n_byzantine > 0 and attacker_view.shape[0] == 0:
            # Every honest shard was lost: the attacker has nothing to
            # observe or mimic, so its uploads degenerate to zeros.
            byzantine[...] = 0.0
        else:
            crash_plan = self._crash_plan(round_index, BYZANTINE_SCOPE, byzantine_pool)
            with self._span("stage", "byzantine_uploads"):
                self.byzantine_uploads(
                    attacker_view, round_index, crash_plan, out=byzantine
                )
        byzantine_report = (
            byzantine_pool.last_fault_report if byzantine_pool is not None else None
        )
        if byzantine_report is not None:
            crashed[n_honest:] = byzantine_report.failed_workers
            retried += byzantine_report.retried

        # Report faults over the round matrix (honest rows first).
        plan = self.fault_model.report_faults(round_index, n_workers)
        dropped = np.asarray(plan.dropped, dtype=bool)
        late = np.asarray(plan.late, dtype=bool)
        if dropped.shape != (n_workers,) or late.shape != (n_workers,):
            raise ValueError(
                f"report fault plan must cover all {n_workers} workers, got "
                f"dropped {dropped.shape} / late {late.shape}"
            )
        arrivals = self.pending
        self.pending = None
        faulty = (
            self.fault_model.is_active
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
                self.pending = (
                    self.global_worker_ids(np.nonzero(buffer_mask)[0]),
                    matrix[buffer_mask],
                )
        survivors = np.flatnonzero(~(crashed | dropped | late))
        # From here on rows are keyed by global worker ids, so a buffered
        # straggler row stays attributed to the *worker* that computed it
        # even when the next round samples a different cohort.
        worker_ids = self.global_worker_ids(survivors)
        if arrivals is None:
            rows = _compact_rows(matrix, survivors)
        else:
            worker_ids, rows = _merge_arrivals(
                matrix, survivors, worker_ids, arrivals
            )
        required = resolve_quorum(self.min_quorum, n_workers)
        if rows.shape[0] < required:
            raise QuorumError(round_index, rows.shape[0], required)
        with self._span("stage", "aggregate_and_update"):
            self.server.update(
                rows, worker_ids=worker_ids, population=self.total_population
            )

        # The selection diagnostic: the share of selected rows whose
        # worker is Byzantine.
        byzantine_selected = 0.0
        selected = getattr(self.server.aggregator, "last_selected", None)
        if selected is not None and self.n_byzantine > 0:
            selected_ids = worker_ids[np.asarray(selected)]
            byzantine_selected = float(
                np.mean(selected_ids >= self.byzantine_id_floor)
            )
        diagnostics = {"byzantine_selected_fraction": byzantine_selected}
        if faulty:
            diagnostics.update({
                "fault_dropped": float(np.count_nonzero(dropped)),
                "fault_timed_out": float(np.count_nonzero(late)),
                "fault_crashed": float(np.count_nonzero(crashed)),
                "fault_retried": float(retried),
                "fault_buffered": float(buffered),
                "fault_survivors": float(rows.shape[0]),
            })
        return diagnostics

    def run(self, callbacks: Iterable[RoundCallback] = ()) -> TrainingHistory:
        """Run the full training loop and return the recorded history.

        The loop emits typed events to the default
        :class:`~repro.federated.pipeline.HistoryRecorder`, then to
        ``callbacks`` in order.  Before the first round, every callback
        with a ``bind`` method is handed this simulation (the
        :class:`~repro.federated.pipeline.Checkpoint` callback snapshots
        its state), and the last callback with a callable ``trace_span``
        (e.g. :class:`~repro.federated.observability.TraceRecorder`)
        becomes the run's tracer: it receives a ``round`` span per round
        and a ``stage`` span per stage, and is forwarded to the execution
        backend so shard tasks, wire round-trips and retry attempts land
        in the same trace.  Tracing reads the clock around existing calls
        only; it never changes results.

        Evaluation happens every ``settings.eval_every`` rounds and on
        the final round.  When a callback's ``should_stop`` answers
        ``True`` the loop ends after a final evaluation of the stop round
        (if it was not already due); that ``on_evaluation`` fires *after*
        the stop round's ``on_round_end``, whose ``accuracy`` is ``None``
        -- the stop decision is what requested it.  A simulation restored
        from a snapshot resumes at :attr:`start_round`.
        """
        recorder = HistoryRecorder()
        callbacks = [recorder, *callbacks]
        self._tracer = None
        for callback in callbacks:
            if callable(getattr(callback, "trace_span", None)):
                self._tracer = callback
        if self._tracer is not None and callable(
            getattr(self.backend, "set_tracer", None)
        ):
            self.backend.set_tracer(self._tracer)
        for callback in callbacks:
            bind = getattr(callback, "bind", None)
            if callable(bind):
                bind(self)
        settings = self.settings
        total_rounds = settings.total_rounds

        def evaluate(round_index: int, diagnostics: Mapping[str, float]) -> float:
            with self._span("stage", "evaluate"):
                accuracy = self.server.evaluate(self.test_dataset)
            event = EvaluationEvent(
                round_index=round_index,
                total_rounds=total_rounds,
                accuracy=accuracy,
                diagnostics=diagnostics,
            )
            for callback in callbacks:
                callback.on_evaluation(event)
            return accuracy

        if self.start_round >= total_rounds:
            # Resumed from the final snapshot: nothing left to train, but
            # evaluate once so the recorded history has its final point.
            evaluate(total_rounds - 1, {})
        for round_index in range(self.start_round, total_rounds):
            start_event = RoundStartEvent(
                round_index=round_index, total_rounds=total_rounds
            )
            for callback in callbacks:
                callback.on_round_start(start_event)
            with self._span("round", None, round=round_index):
                diagnostics = self.run_round(round_index)

            accuracy: float | None = None
            if (round_index + 1) % settings.eval_every == 0 or round_index == total_rounds - 1:
                accuracy = evaluate(round_index, diagnostics)
            end_event = RoundEndEvent(
                round_index=round_index,
                total_rounds=total_rounds,
                diagnostics=diagnostics,
                accuracy=accuracy,
            )
            for callback in callbacks:
                callback.on_round_end(end_event)

            if any(callback.should_stop(end_event) for callback in callbacks):
                if accuracy is None:
                    # Record the state the run actually stopped at.
                    evaluate(round_index, diagnostics)
                break
        return recorder.history

    # ------------------------------------------------------------------ #
    # full-state snapshots (crash-tolerant restart)
    # ------------------------------------------------------------------ #
    def capture_round_state(self, round_index: int) -> RoundState:
        """Snapshot everything that evolves across rounds.

        Captures the flat parameters, both pools' momentum, every
        generator's bit-generator state, the defense's cross-round state
        and the straggler buffer, so :meth:`restore_round_state` on a
        freshly built simulation continues **bitwise identically** to a
        process that never stopped.  Meant to be called after round
        ``round_index`` finished (the :class:`~repro.federated.pipeline
        .Checkpoint` callback does).
        """
        byzantine = self.byzantine_pool
        return RoundState(
            round_index=int(round_index),
            parameters=self.model.get_flat_parameters().copy(),
            server_rng=self._server_rng.bit_generator.state,
            attack_rng=self._attack_rng.bit_generator.state,
            honest_momentum=np.array(
                self.honest_pool.state.slot_momentum, dtype=np.float64
            ),
            honest_rngs=[
                rng.bit_generator.state for rng in self.honest_pool.rngs
            ],
            dp_config=self.dp_config,
            learning_rate=self.settings.learning_rate,
            byzantine_momentum=(
                None if byzantine is None
                else np.array(byzantine.state.slot_momentum, dtype=np.float64)
            ),
            byzantine_rngs=(
                None if byzantine is None
                else [rng.bit_generator.state for rng in byzantine.rngs]
            ),
            pending=(
                None if self.pending is None
                else (np.array(self.pending[0]), np.array(self.pending[1]))
            ),
            aggregator_state=self.server.aggregator.state_dict() or None,
        )

    def restore_round_state(self, state: RoundState) -> None:
        """Restore a :meth:`capture_round_state` snapshot into this run.

        After the restore, :meth:`run` resumes at ``state.round_index +
        1`` with the exact parameters, momentum, generator streams and
        straggler buffer of the captured process -- the remaining rounds
        replay bitwise.  Raises :class:`ValueError` when the snapshot
        does not fit this simulation (different worker counts, model
        size, Byzantine configuration, DP settings or learning rate).
        """
        if not 0 <= state.round_index < self.settings.total_rounds:
            raise ValueError(
                f"snapshot round {state.round_index} outside the schedule "
                f"of {self.settings.total_rounds} rounds"
            )
        if len(state.honest_rngs) != self.n_honest:
            raise ValueError(
                f"snapshot has {len(state.honest_rngs)} honest workers, "
                f"simulation has {self.n_honest}"
            )
        if (state.byzantine_rngs is None) != (self.byzantine_pool is None):
            raise ValueError(
                "snapshot and simulation disagree on whether the attack "
                "runs a protocol-following Byzantine pool"
            )
        recorded = {**asdict(state.dp_config), "learning_rate": state.learning_rate}
        current = {**asdict(self.dp_config), "learning_rate": self.settings.learning_rate}
        differing = [
            f"{key} {recorded[key]!r} (this run: {current[key]!r})"
            for key in current
            if recorded[key] != current[key]
        ]
        if differing:
            raise ValueError(
                f"snapshot was written with other settings: {', '.join(differing)}"
            )
        self.model.set_flat_parameters(state.parameters)
        self._restore_pool(self.honest_pool, state.honest_momentum, state.honest_rngs)
        if self.byzantine_pool is not None:
            if len(state.byzantine_rngs) != self.byzantine_pool.n_workers:
                raise ValueError(
                    f"snapshot has {len(state.byzantine_rngs)} Byzantine "
                    f"workers, simulation has {self.byzantine_pool.n_workers}"
                )
            self._restore_pool(
                self.byzantine_pool, state.byzantine_momentum, state.byzantine_rngs
            )
        self._server_rng.bit_generator.state = state.server_rng
        self._attack_rng.bit_generator.state = state.attack_rng
        # The defense rule may hold evolving server-side state (the
        # two-stage protocol accumulates per-worker scores across rounds).
        self.server.aggregator.load_state_dict(state.aggregator_state or {})
        self.pending = (
            None if state.pending is None
            else (np.array(state.pending[0]), np.array(state.pending[1]))
        )
        self.start_round = state.round_index + 1

    @staticmethod
    def _restore_pool(
        pool: WorkerPool, momentum: np.ndarray, rng_states: list[dict]
    ) -> None:
        momentum = np.array(momentum, dtype=np.float64)
        if momentum.size and momentum.shape[0] != pool.n_workers:
            raise ValueError(
                f"snapshot momentum covers {momentum.shape[0]} workers, "
                f"pool has {pool.n_workers}"
            )
        # The snapshot's DP settings are this run's (restore_round_state
        # checked), so ensure_shape keeps the restored momentum, which
        # survives into the next round untouched.
        pool.state = BatchedDPState(
            slot_momentum=momentum, batch_size=pool.dp_config.batch_size
        )
        for rng, rng_state in zip(pool.rngs, rng_states):
            rng.bit_generator.state = rng_state

    def close(self) -> None:
        """Release the backend's pooled threads/processes.

        Nothing else outlives a round: every shard task builds its own
        engine, whose scratch dies with the call.  Safe to call
        repeatedly; the backend lazily recreates its pools if the
        simulation runs again afterwards.
        """
        self.backend.shutdown()
