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

The loop itself is executed by a
:class:`~repro.federated.pipeline.RoundPipeline`, which makes the stages
above explicit and emits typed events to
:class:`~repro.federated.pipeline.RoundCallback` hooks;
:meth:`FederatedSimulation.run` accepts extra callbacks (early stopping,
logging, checkpoints) and records history through the default
:class:`~repro.federated.pipeline.HistoryRecorder` consumer.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass

import numpy as np

from repro.byzantine.base import Attack, AttackContext
from repro.core.config import DPConfig
from repro.core.dp_protocol import BatchedDPState, upload_noise_std
from repro.data.dataset import Dataset
from repro.defenses.base import Aggregator
from repro.federated.backends import ExecutionBackend, RetryPolicy, build_backend
from repro.federated.engines import ClientEngine, build_engine
from repro.federated.faults import FaultModel, ShardFaultPlan, build_faults
from repro.federated.sampling import (
    CohortSampler,
    WorkerSource,
    build_sampler,
    derive_rng,
)
from repro.federated.state import RoundState
from repro.federated.history import TrainingHistory
from repro.federated.pipeline import HistoryRecorder, RoundCallback, RoundPipeline
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
        Client compute engine for the worker pools: a registered name, a
        ready :class:`~repro.federated.engines.ClientEngine` instance
        (then shared by both pools), or ``None`` for the default
        materialized engine.  On an in-process backend the specification
        is resolved once, so both pools compute on one instance and one
        gradient scratch (they run one after the other); out-of-process
        backends build their engines from the name.  Threads other than
        the dispatching one keep their own replicas per pool.
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
        Minimum surviving cohort per round (``int`` count or fractional
        ``float``); violations raise
        :class:`~repro.federated.faults.QuorumError`.
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
        engine: str | ClientEngine | None = None,
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
        self.min_quorum = min_quorum

        self.model = model
        self.attack = attack
        self.n_byzantine = n_byzantine
        self.settings = settings
        self.test_dataset = test_dataset
        self.dp_config = dp_config
        self.backend = build_backend(backend)
        if self.backend.in_process:
            engine = build_engine(engine)
        #: first round index :meth:`run` executes (set by checkpoint resume)
        self.start_round = 0
        #: buffered straggler reports awaiting next-round delivery --
        #: ``(worker_ids, upload_rows)`` -- or ``None``; round state, like
        #: the pools' momentum and the generator streams
        self.pending: tuple[np.ndarray, np.ndarray] | None = None

        #: lazy registered population (cross-device mode); ``None`` runs
        #: the classic fixed-cohort simulation
        self.population_source = population
        self.sampler: CohortSampler | None = None
        self.cohort = 0
        #: global honest worker ids sampled for the current round
        self.current_plan: np.ndarray | None = None

        self.byzantine_pool: WorkerPool | None = None
        if population is not None:
            cohort = len(population) if cohort is None else int(cohort)
            if not 0 < cohort <= len(population):
                raise ValueError(
                    f"cohort must be in [1, {len(population)}], got {cohort}"
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
            # The pool's slot count (cohort) is fixed; _prepare_round
            # re-points the slots at each round's sampled workers, so the
            # bootstrap contents below never feed a computation.
            bootstrap = np.arange(cohort)
            self.honest_pool = WorkerPool(
                population.datasets(bootstrap),
                dp_config,
                population.round_rngs(bootstrap, 0),
                engine=engine,
                shard_size=shard_size,
                backend=self.backend,
            )
            if n_byzantine > 0 and attack is not None and attack.follows_protocol:
                poisoned_datasets = [
                    attack.poison_dataset(
                        population.dataset(i % len(population)).materialize()
                    )
                    for i in range(n_byzantine)
                ]
                self.byzantine_pool = WorkerPool(
                    poisoned_datasets,
                    dp_config,
                    [derive_rng(seed, "byzantine", i) for i in range(n_byzantine)],
                    engine=engine,
                    shard_size=shard_size,
                    backend=self.backend,
                )
        else:
            seed_sequence = np.random.SeedSequence(seed)
            worker_seeds = seed_sequence.spawn(len(honest_datasets) + n_byzantine + 2)
            self._server_rng = np.random.default_rng(worker_seeds[0])
            self._attack_rng = np.random.default_rng(worker_seeds[1])

            self.honest_pool = WorkerPool(
                honest_datasets,
                dp_config,
                [
                    np.random.default_rng(worker_seeds[2 + i])
                    for i in range(len(honest_datasets))
                ],
                engine=engine,
                shard_size=shard_size,
                backend=self.backend,
            )

            if n_byzantine > 0 and attack is not None and attack.follows_protocol:
                offset = 2 + len(honest_datasets)
                poisoned_datasets = [
                    attack.poison_dataset(honest_datasets[i % len(honest_datasets)])
                    for i in range(n_byzantine)
                ]
                self.byzantine_pool = WorkerPool(
                    poisoned_datasets,
                    dp_config,
                    [
                        np.random.default_rng(worker_seeds[offset + i])
                        for i in range(n_byzantine)
                    ],
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
            min_quorum=self.min_quorum,
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

    @property
    def total_population(self) -> int:
        """Registered worker count keying per-worker server state.

        Equals :attr:`n_workers` in the classic fixed-cohort mode; in
        population mode it spans the whole registered honest population
        plus the Byzantine workers, so a worker's accumulated second-stage
        score survives the rounds it is not sampled.
        """
        if self.population_source is None:
            return self.n_workers
        return len(self.population_source) + self.n_byzantine

    @property
    def byzantine_id_floor(self) -> int:
        """First Byzantine global worker id (every id below is honest)."""
        if self.population_source is None:
            return self.n_honest
        return len(self.population_source)

    def prepare_round(self, round_index: int) -> None:
        """Draw the round's cohort and re-point the honest pool at it.

        A no-op in the classic mode.  In population mode the sampler's
        plan -- keyed ``(seed, "sampler", round_index)``, independent of
        backend and restart point -- selects the honest workers, whose
        index views and generators are derived only now.
        """
        if self.population_source is None or self.sampler is None:
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
        """Map round-local row indices to population-global worker ids.

        Row ``i`` of the round matrix belongs to the ``i``-th sampled
        honest worker for ``i < n_honest`` and to Byzantine worker
        ``i - n_honest`` otherwise.  In the classic mode
        the mapping is the identity.  ``local_ids=None`` maps the full
        round.
        """
        if self.population_source is None or self.current_plan is None:
            full = np.arange(self.n_workers, dtype=np.int64)
        else:
            full = np.concatenate(
                (
                    self.current_plan,
                    self.byzantine_id_floor
                    + np.arange(self.n_byzantine, dtype=np.int64),
                )
            )
        if local_ids is None:
            return full
        return full[np.asarray(local_ids, dtype=np.int64)]

    def honest_uploads(
        self,
        crash_plan: ShardFaultPlan | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """This round's honest uploads, shape ``(n_honest, d)``.

        ``crash_plan`` injects seeded shard crashes (retried under the
        plan's retry policy); ``None`` is the empty plan.  ``out`` is the
        array to fill and return (see
        :meth:`~repro.federated.worker.WorkerPool.compute_uploads`).
        """
        return self.honest_pool.compute_uploads(
            self.model, crash_plan=crash_plan, out=out
        )

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

    def run_round(self, round_index: int) -> dict[str, float]:
        """Execute one aggregation round; returns per-round diagnostics.

        The honest and Byzantine uploads fill one ``(n_workers, d)`` round
        matrix (honest rows first) that travels to the server -- the
        aggregation pipeline is array-first end-to-end, so no per-upload
        Python lists are materialised on the hot path.  Reports buffered
        by the previous call are delivered in this one.
        """
        return RoundPipeline(self).run_round(round_index)

    def run(self, callbacks: Iterable[RoundCallback] = ()) -> TrainingHistory:
        """Run the full training loop and return the recorded history.

        Parameters
        ----------
        callbacks:
            Extra :class:`~repro.federated.pipeline.RoundCallback` hooks;
            they run after the default
            :class:`~repro.federated.pipeline.HistoryRecorder`, and any
            callback's ``should_stop`` may terminate training early.
        """
        recorder = HistoryRecorder()
        RoundPipeline(self, [recorder, *callbacks]).run()
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
            honest_batch_size=int(self.honest_pool.state.batch_size),
            honest_rngs=[
                rng.bit_generator.state for rng in self.honest_pool.rngs
            ],
            dp_config=self.dp_config,
            learning_rate=self.settings.learning_rate,
            byzantine_momentum=(
                None if byzantine is None
                else np.array(byzantine.state.slot_momentum, dtype=np.float64)
            ),
            byzantine_batch_size=(
                None if byzantine is None else int(byzantine.state.batch_size)
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
            sampler_state=(
                None if self.sampler is None else self.sampler.state_dict()
            ),
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
        self._restore_pool(
            self.honest_pool,
            state.honest_momentum,
            state.honest_batch_size,
            state.honest_rngs,
        )
        if self.byzantine_pool is not None:
            if len(state.byzantine_rngs) != self.byzantine_pool.n_workers:
                raise ValueError(
                    f"snapshot has {len(state.byzantine_rngs)} Byzantine "
                    f"workers, simulation has {self.byzantine_pool.n_workers}"
                )
            self._restore_pool(
                self.byzantine_pool,
                state.byzantine_momentum,
                state.byzantine_batch_size,
                state.byzantine_rngs,
            )
        self._server_rng.bit_generator.state = state.server_rng
        self._attack_rng.bit_generator.state = state.attack_rng
        # The defense rule may hold evolving server-side state (the
        # two-stage protocol accumulates per-worker scores across rounds).
        self.server.aggregator.load_state_dict(state.aggregator_state or {})
        if self.sampler is not None and state.sampler_state is not None:
            # Draws are keyed by the round index, so the restored counter
            # is bookkeeping -- but it lets resumes assert the schedule
            # picks up exactly where the snapshot left off.
            self.sampler.load_state_dict(state.sampler_state)
        self.pending = (
            None if state.pending is None
            else (np.array(state.pending[0]), np.array(state.pending[1]))
        )
        self.server.round_index = state.round_index + 1
        self.start_round = state.round_index + 1

    @staticmethod
    def _restore_pool(
        pool: WorkerPool,
        momentum: np.ndarray,
        batch_size: int,
        rng_states: list[dict],
    ) -> None:
        momentum = np.array(momentum, dtype=np.float64)
        if momentum.size and momentum.shape[0] != pool.n_workers:
            raise ValueError(
                f"snapshot momentum covers {momentum.shape[0]} workers, "
                f"pool has {pool.n_workers}"
            )
        if momentum.size and batch_size != pool.dp_config.batch_size:
            # ensure_shape would zero the momentum for another batch size.
            raise ValueError(
                f"snapshot momentum was computed at batch size {batch_size}, "
                f"pool runs batch size {pool.dp_config.batch_size}"
            )
        # ensure_shape keeps a matching-shape state, so the restored
        # momentum survives into the next round untouched.
        pool.state = BatchedDPState(
            slot_momentum=momentum, batch_size=int(batch_size)
        )
        for rng, rng_state in zip(pool.rngs, rng_states):
            rng.bit_generator.state = rng_state

    def close(self) -> None:
        """Release the execution backend's pooled threads/processes.

        Safe to call repeatedly; the backend lazily recreates its pools
        if the simulation runs again afterwards.
        """
        self.backend.shutdown()
