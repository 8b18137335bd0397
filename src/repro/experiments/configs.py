"""Experiment configuration.

A single dataclass captures everything that varies across the paper's
tables and figures: the dataset, the worker population, the attack, the
defense, the privacy level and the training schedule.  The defaults follow
the paper's system settings (Section 6.1): batch size 16, momentum 0.1,
base learning rate 0.2 tuned at epsilon = 2, gamma = 0.5, two auxiliary
samples per class, delta = 1 / |D_i|^1.1.

Configs serialise: :meth:`ExperimentConfig.to_dict` /
:meth:`~ExperimentConfig.from_dict` round-trip through plain dicts (with
validation naming any unknown key) and :meth:`~ExperimentConfig.to_json`
/ :meth:`~ExperimentConfig.from_json` through JSON text, which is what
``python -m repro run --config file.json`` loads.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.federated.engines import DEFAULT_ENGINE
from repro.federated.faults import validate_quorum

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one federated-learning experiment.

    Attributes
    ----------
    dataset:
        Registered dataset name (``mnist_like``, ``fashion_like``,
        ``usps_like``, ``colorectal_like``).
    scale:
        Dataset size multiplier; benchmarks use small values so sweeps run
        quickly on CPU, examples use larger ones.
    n_honest:
        Number of honest workers (20 for MNIST/Fashion, 10 for
        Colorectal/USPS in the paper).
    byzantine_fraction:
        Fraction of the *total* worker population that is Byzantine (the
        paper's 0%, 20%, ..., 90%).  The number of honest workers stays
        fixed, so ``n_byzantine = round(f / (1 - f) * n_honest)``.
    attack, attack_kwargs, ttbb:
        Attack name (see :func:`repro.byzantine.available_attacks`),
        constructor arguments, and the adaptive attack's activation point.
    defense, defense_kwargs:
        Defense name (see :func:`repro.defenses.available_defenses`) and
        constructor arguments.
    epsilon:
        Per-worker privacy budget; ``None`` disables DP (Tables 15-16
        "Non-DP" rows).
    delta:
        Privacy parameter delta; ``None`` uses ``1 / |D_i|^1.1``.
    gamma:
        Server's belief about the honest fraction; the defense registry's
        ``config_defaults`` hand it to the two-stage rules'
        :class:`~repro.core.config.ProtocolConfig`.
    iid:
        i.i.d. (True) or Algorithm-4 non-i.i.d. (False) partitioning.
    epochs:
        Local epochs; the number of rounds is ``ceil(epochs * |D_i| / b_c)``.
    batch_size, momentum, bounding, clip_norm:
        Client-side DP protocol settings.
    base_lr, base_epsilon:
        Learning-rate transfer rule inputs: ``base_lr`` is tuned once at
        ``base_epsilon`` and transferred to other privacy levels via
        ``eta = eta_b * sigma_b / sigma``.
    aux_per_class, aux_mismatched:
        Server auxiliary data settings (Table 17 uses ``aux_mismatched``).
    model:
        Model registry name, or ``None`` for the dataset default.
    engine:
        Client compute engine name (see
        :func:`repro.federated.available_engines`; the default
        ``"materialized"`` is the exact stacked-gradient reference,
        ``"ghost_norm"`` the Gram-matrix path for linear-layer stacks).
    shard_size:
        Maximum workers per shard task (``None``: whole pool in one
        shard under the serial backend; parallel backends split the pool
        into near-equal shards per job).  A shard is the unit of dispatch,
        retries and crash faults; the engine bounds client memory.
        Bitwise-identical to unsharded.
    backend, backend_kwargs:
        Parallel execution backend name (see
        :func:`repro.federated.available_backends`; ``"serial"`` is the
        in-order reference, ``"threaded"``/``"process"`` dispatch pool
        shards concurrently with bitwise-identical results) and builder arguments (``{"max_workers": N}`` is the
        CLI's ``--jobs N``).
    faults, faults_kwargs:
        Fault-injection scenario name (see
        :func:`repro.federated.available_faults`; ``"none"`` keeps the
        exact fault-free reference path, ``"dropout"``/``"straggler"``/
        ``"crash"``/``"churn"``/``"chaos"`` inject seeded per-round
        faults that replay bit-identically on every backend) and builder
        arguments.
    min_quorum:
        Minimum surviving cohort per round: an ``int >= 1`` absolute
        count or a ``float`` in ``(0, 1]`` fraction of the round's
        reporting workers; violations raise
        :class:`~repro.federated.faults.QuorumError`.
    retry_kwargs:
        Keyword arguments for the crash-retry
        :class:`~repro.federated.backends.RetryPolicy`
        (``max_attempts``, ``backoff_base``, ``timeout``).
    population, cohort, sampling, sampling_kwargs:
        Cross-device mode: ``population`` registers that many lazy honest
        workers (``n_honest`` is then ignored) of which a seeded
        ``sampling`` sampler (see
        :data:`repro.federated.sampling.SAMPLERS`) draws ``cohort`` per
        round; only the sampled workers' data and generators are ever
        materialised, so peak memory scales with the cohort, not the
        population.  ``sampling_kwargs`` holds the sampler builder's
        keyword arguments and nothing else; a worker's local dataset
        holds ``max(batch_size, min(50, len(train)))`` rows.
        ``population=None`` (the default) keeps the classic
        every-worker-every-round simulation.
    eval_every:
        Evaluation cadence in rounds (``None``: about 8 points per run).
    seed:
        Base random seed.
    """

    dataset: str = "mnist_like"
    scale: float = 1.0
    n_honest: int = 20
    byzantine_fraction: float = 0.0
    attack: str = "none"
    attack_kwargs: dict = field(default_factory=dict)
    ttbb: float = 0.0
    defense: str = "two_stage"
    defense_kwargs: dict = field(default_factory=dict)
    epsilon: float | None = 1.0
    delta: float | None = None
    gamma: float = 0.5
    iid: bool = True
    epochs: int = 4
    batch_size: int = 16
    momentum: float = 0.1
    bounding: str = "normalize"
    clip_norm: float = 1.0
    base_lr: float = 0.2
    base_epsilon: float = 2.0
    aux_per_class: int = 2
    aux_mismatched: bool = False
    model: str | None = None
    engine: str = DEFAULT_ENGINE
    shard_size: int | None = None
    backend: str = "serial"
    backend_kwargs: dict = field(default_factory=dict)
    faults: str = "none"
    faults_kwargs: dict = field(default_factory=dict)
    min_quorum: int | float = 1
    retry_kwargs: dict = field(default_factory=dict)
    population: int | None = None
    cohort: int | None = None
    sampling: str = "uniform"
    sampling_kwargs: dict = field(default_factory=dict)
    eval_every: int | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.byzantine_fraction < 1.0:
            raise ValueError("byzantine_fraction must be in [0, 1)")
        if self.n_honest <= 0:
            raise ValueError("n_honest must be positive")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive or None")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.shard_size is not None and self.shard_size <= 0:
            raise ValueError("shard_size must be positive or None")
        validate_quorum(self.min_quorum)
        if self.population is not None and self.population <= 0:
            raise ValueError("population must be positive or None")
        if self.cohort is not None:
            if self.cohort <= 0:
                raise ValueError("cohort must be positive or None")
            if self.population is None:
                raise ValueError("cohort requires a population")
            if self.cohort > self.population:
                raise ValueError("cohort must not exceed the population")
        if not self.sampling:
            raise ValueError("sampling must be a non-empty sampler name")

    @property
    def n_byzantine(self) -> int:
        """Number of Byzantine workers implied by ``byzantine_fraction``.

        In cross-device mode the fraction applies to the round's
        *reporting* cohort (the honest cohort plus the always-on
        Byzantine workers), since that is the population the aggregation
        rule sees each round.
        """
        if self.byzantine_fraction == 0.0:
            return 0
        ratio = self.byzantine_fraction / (1.0 - self.byzantine_fraction)
        base = self.n_honest
        if self.population is not None:
            base = self.cohort if self.cohort is not None else self.population
        return max(1, int(round(ratio * base)))

    def replace(self, **changes) -> "ExperimentConfig":
        """Copy of the config with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-dict view of every field (kwargs dicts are deep-copied)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        """Build a config from a mapping, validating the keys.

        Unknown keys raise a ``TypeError`` naming them (so typos in config
        files fail at load time); field values are validated by
        ``__post_init__`` as usual.
        """
        if not isinstance(data, Mapping):
            raise TypeError(
                f"ExperimentConfig.from_dict expects a mapping, got {type(data).__name__}"
            )
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise TypeError(
                f"unknown ExperimentConfig key(s) {unknown}; valid keys: {sorted(valid)}"
            )
        return cls(**dict(data))

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text for :meth:`from_json` (keys sorted for stable diffs)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Build a config from JSON text (see :meth:`from_dict`)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("ExperimentConfig JSON must be an object at the top level")
        return cls.from_dict(data)
