"""Build and run one federated experiment from an :class:`ExperimentConfig`.

The builder path is explicit and shared: :func:`prepare_experiment` turns
a config into a ready :class:`~repro.federated.simulation.FederatedSimulation`
(plus the derived schedule and privacy parameters) purely through the
component registries -- attacks, defenses, datasets and models are looked
up by name, so third-party components registered through the public
:class:`repro.registry.Registry` API run here without any repro changes.
:func:`run_experiment` (used by the CLI, the sweeps and the benchmarks)
is a thin wrapper that prepares, runs and summarises; it forwards
:class:`~repro.federated.pipeline.RoundCallback` hooks to
:meth:`FederatedSimulation.run`, so early stopping, logging and
checkpointing work from any entry point.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.results import RunResult, SeedSummary, summarize_runs
from repro.byzantine.registry import build_attack
from repro.core.config import DPConfig
from repro.core.hyperparams import protocol_sigma, transfer_learning_rate
from repro.data.auxiliary import sample_auxiliary, sample_mismatched_auxiliary
from repro.data.partition import partition_iid, partition_noniid
from repro.data.registry import load_dataset
from repro.defenses.base import Aggregator
from repro.defenses.registry import DEFENSES, build_defense, defense_config_defaults
from repro.experiments.configs import ExperimentConfig
from repro.federated.backends import build_backend
from repro.federated.faults import build_faults
from repro.federated.pipeline import RoundCallback
from repro.federated.sampling import WorkerSource, build_sampler
from repro.federated.simulation import FederatedSimulation, SimulationSettings
from repro.federated.state import (
    STATE_SUFFIX,
    RoundState,
    latest_snapshot,
    load_round_state,
)
from repro.nn.models import build_model, model_for_dataset

__all__ = [
    "CheckpointMismatchError",
    "ExperimentSetup",
    "prepare_experiment",
    "resolve_checkpoint",
    "run_experiment",
    "run_seeds",
]


class CheckpointMismatchError(ValueError):
    """A resolved checkpoint does not fit the experiment it should resume
    (round outside the schedule, different worker counts, a parameter
    vector of the wrong size, or other DP settings or learning rate)."""


def resolve_checkpoint(resume_from: str | Path | RoundState) -> RoundState:
    """Resolve a resume specification to the :class:`RoundState` it names.

    ``resume_from`` may be a :class:`~repro.federated.state.RoundState`,
    which comes back unread, the path of a ``round_<index>.state.npz``
    snapshot written by the :class:`~repro.federated.pipeline.Checkpoint`
    callback, or a directory of such snapshots, of which the latest round
    wins (see :func:`~repro.federated.state.latest_snapshot`).  A file
    that is not a snapshot raises ``ValueError`` (see
    :func:`~repro.federated.state.load_round_state`).
    """
    if isinstance(resume_from, RoundState):
        return resume_from
    path = Path(resume_from)
    if path.is_dir():
        latest = latest_snapshot(path)
        if latest is None:
            raise FileNotFoundError(
                f"no round_<index>{STATE_SUFFIX} snapshots in {path}"
            )
        path = latest
    return load_round_state(path)


def _build_defense_for(config: ExperimentConfig) -> Aggregator:
    """Instantiate the configured defense, forwarding the relevant settings.

    Config-derived constructor defaults come from the defense registry's
    ``config_defaults`` metadata (a mapping from keyword name to either a
    config field name or a callable of the config), so a new defense
    declares its wiring where it registers instead of being special-cased
    here.  Explicit ``defense_kwargs`` always win.
    """
    kwargs = dict(config.defense_kwargs)
    if config.defense in DEFENSES:
        for key, source in defense_config_defaults(config.defense).items():
            value = source(config) if callable(source) else getattr(config, source)
            kwargs.setdefault(key, value)
    return build_defense(config.defense, **kwargs)


def _privacy_parameters(
    config: ExperimentConfig, local_size: int, total_rounds: int
) -> tuple[float, float, float | None]:
    """Noise level sigma, learning rate and delta for the run."""
    if config.epsilon is None:
        return 0.0, config.base_lr, None

    sampling_rate = min(1.0, config.batch_size / local_size)
    delta = config.delta if config.delta is not None else 1.0 / local_size**1.1
    sigma = protocol_sigma(config.epsilon, delta, sampling_rate, total_rounds)
    base_sigma = protocol_sigma(config.base_epsilon, delta, sampling_rate, total_rounds)
    learning_rate = transfer_learning_rate(config.base_lr, base_sigma, sigma)
    return sigma, learning_rate, delta


@dataclass
class ExperimentSetup:
    """Everything :func:`prepare_experiment` derived from a config.

    Attributes
    ----------
    config, seed:
        The specification the setup was built from (``seed`` already
        resolved against any override).
    simulation:
        A ready-to-run :class:`FederatedSimulation`.
    total_rounds, sigma, learning_rate, delta:
        The derived training schedule and privacy calibration.
    local_size:
        Size of the smallest honest worker shard.
    """

    config: ExperimentConfig
    seed: int
    simulation: FederatedSimulation
    total_rounds: int
    sigma: float
    learning_rate: float
    delta: float | None
    local_size: int


def prepare_experiment(
    config: ExperimentConfig,
    seed: int | None = None,
    resume_from: str | Path | RoundState | None = None,
) -> ExperimentSetup:
    """Build the simulation for a config without running it.

    All components are resolved through the registries, so anything
    registered via the public ``Registry`` API (third-party attacks,
    defenses, datasets, models, client engines) is built exactly like the
    built-ins.

    ``resume_from`` restores a :class:`~repro.federated.pipeline
    .Checkpoint` snapshot (see :func:`resolve_checkpoint`): parameters,
    momentum, every generator stream, the defense's score list and the
    straggler buffer, with the round counter past the snapshot round, so
    :meth:`FederatedSimulation.run` replays the remaining rounds bitwise
    identically to the uninterrupted run.  A snapshot that does not fit
    the experiment raises :class:`CheckpointMismatchError`.
    """
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    # The backend first: building one reads no generator, and a backend
    # that imports a large module (the remote one loads the service
    # stack) compiles it before the data fills the heap.
    backend = build_backend(config.backend, **config.backend_kwargs)

    # Data: load, partition across honest workers, sample auxiliary data.
    train, test = load_dataset(config.dataset, scale=config.scale, seed=seed)
    population_source = None
    sampler = None
    if config.population is not None:
        # Cross-device mode: no eager partitioning -- the lazy source
        # derives a worker's local data on demand from its global id, so
        # registering 10**6 workers allocates nothing up front.
        shards: list = []
        local_size = max(config.batch_size, min(50, len(train)))
        population_source = WorkerSource(
            train, config.population, local_size, seed
        )
        sampler = build_sampler(
            config.sampling, default_seed=seed, **config.sampling_kwargs
        )
    else:
        partition = partition_iid if config.iid else partition_noniid
        shards = partition(train, config.n_honest, rng=rng)
        local_size = min(len(shard) for shard in shards)

    if config.aux_mismatched:
        auxiliary = sample_mismatched_auxiliary(test, per_class=config.aux_per_class, rng=rng)
    else:
        auxiliary = sample_auxiliary(test, per_class=config.aux_per_class, rng=rng)

    # Training schedule and privacy calibration.
    total_rounds = max(1, math.ceil(config.epochs * local_size / config.batch_size))
    sigma, learning_rate, delta = _privacy_parameters(config, local_size, total_rounds)

    dp_config = DPConfig(
        batch_size=config.batch_size,
        sigma=sigma,
        momentum=config.momentum,
        bounding=config.bounding,
        clip_norm=config.clip_norm,
    )

    # Model, attack, defense.  The model is sized from the loaded data, so
    # third-party datasets need no registered spec.
    if config.model is None:
        model = model_for_dataset(config.dataset, train.dim, train.num_classes, rng)
    else:
        model = build_model(config.model, train.dim, train.num_classes, rng)

    attack = None
    if config.n_byzantine > 0:
        attack = build_attack(config.attack, ttbb=config.ttbb, **config.attack_kwargs)
    defense = _build_defense_for(config)

    eval_every = (
        config.eval_every
        if config.eval_every is not None
        else max(1, total_rounds // 8)
    )
    settings = SimulationSettings(
        total_rounds=total_rounds,
        learning_rate=learning_rate,
        eval_every=eval_every,
    )

    simulation = FederatedSimulation(
        model=model,
        honest_datasets=shards,
        n_byzantine=config.n_byzantine,
        attack=attack,
        aggregator=defense,
        dp_config=dp_config,
        auxiliary=auxiliary,
        test_dataset=test,
        settings=settings,
        seed=seed,
        engine=config.engine,
        shard_size=config.shard_size,
        backend=backend,
        faults=build_faults(
            config.faults, default_seed=seed, **config.faults_kwargs
        ),
        min_quorum=config.min_quorum,
        retry=config.retry_kwargs,
        population=population_source,
        cohort=config.cohort,
        sampler=sampler,
    )
    if resume_from is not None:
        state = resolve_checkpoint(resume_from)
        try:
            simulation.restore_round_state(state)
        except ValueError as error:
            raise CheckpointMismatchError(
                f"checkpoint does not fit the experiment: {error}"
            ) from error
    return ExperimentSetup(
        config=config,
        seed=seed,
        simulation=simulation,
        total_rounds=total_rounds,
        sigma=sigma,
        learning_rate=learning_rate,
        delta=delta,
        local_size=local_size,
    )


def run_experiment(
    config: ExperimentConfig,
    seed: int | None = None,
    callbacks: Iterable[RoundCallback] = (),
    resume_from: str | Path | RoundState | None = None,
    on_prepared: Callable[[ExperimentSetup], None] | None = None,
) -> RunResult:
    """Run one federated training experiment.

    Parameters
    ----------
    config:
        The experiment specification.
    seed:
        Override for ``config.seed`` (used when sweeping seeds).
    callbacks:
        Extra training-loop hooks (see
        :class:`~repro.federated.pipeline.RoundCallback`); a callback's
        ``should_stop`` may terminate the run early.
    resume_from:
        Optional :class:`~repro.federated.pipeline.Checkpoint` snapshot to
        restore before running (see :func:`prepare_experiment`).
    on_prepared:
        Called with the built :class:`ExperimentSetup` after preparation
        and before the first round.  Gives service-mode callers access to
        the live simulation (e.g. the remote backend's coordinator, for
        the status/admin endpoint) without re-implementing preparation.
    """
    setup = prepare_experiment(config, seed=seed, resume_from=resume_from)
    if on_prepared is not None:
        on_prepared(setup)
    try:
        history = setup.simulation.run(callbacks)
    finally:
        # Parallel backends hold thread/process pools; release them so a
        # long sweep of runs never accumulates executors.
        setup.simulation.close()

    metadata = {
        "total_rounds": setup.total_rounds,
        "delta": setup.delta,
        "n_byzantine": config.n_byzantine,
        "n_honest": config.n_honest,
        "local_dataset_size": setup.local_size,
        "model_size": setup.simulation.model.num_parameters,
    }
    if config.population is not None:
        metadata["population"] = config.population
        metadata["cohort"] = setup.simulation.cohort
    return RunResult(
        final_accuracy=history.final_accuracy,
        history=history,
        sigma=setup.sigma,
        learning_rate=setup.learning_rate,
        epsilon=config.epsilon,
        seed=setup.seed,
        metadata=metadata,
    )


def run_seeds(
    config: ExperimentConfig, seeds: list[int] | None = None
) -> tuple[SeedSummary, list[RunResult]]:
    """Run the experiment for several seeds and summarise (paper: seeds 1-3)."""
    if seeds is None:
        seeds = [1, 2, 3]
    runs = [run_experiment(config, seed=seed) for seed in seeds]
    return summarize_runs(runs), runs
