"""Seeded fault injection for the federated round (the FAULTS axis).

Real cross-device federations lose clients every round: devices drop off
the network, reports arrive after the deadline, shard executors crash,
and populations churn.  This module makes those failure modes a seventh
scenario axis next to datasets, attacks, defenses, models, engines and
backends: fault models are registered in the :data:`FAULTS` registry,
selected via ``ExperimentConfig(faults=..., faults_kwargs=...)`` or the
CLI's ``--faults``, and listed by ``python -m repro list``.

**Determinism is the design center.**  Every fault decision is drawn from
a *counter-derived* generator: the stream is keyed by ``(seed, component,
round_index[, scope])`` through :class:`numpy.random.SeedSequence`, so a
fault trace is a pure function of those counters -- independent of
execution order, thread interleaving and backend choice.  The same seeded
scenario therefore replays bit-identically under ``--backend serial``,
``threaded`` and ``process``, which is what makes chaos runs testable.

Two fault *seams* exist in the round:

- **report faults** (:meth:`FaultModel.report_faults`) -- the worker
  computes its upload, but the report never reaches the aggregation:
  dropped (device offline / churned away) or late (past the deadline;
  discarded, or buffered and delivered next round).  These are injected
  into the round matrix *after* upload computation, so worker RNG streams
  and pool state stay untouched and backend-invariant.
- **crash faults** (:meth:`FaultModel.crash_failures`) -- a shard task
  raises.  Shard tasks are pure and their results are committed by the
  worker pool only on success, so a retried shard is bitwise identical
  to one that never failed; shards that exhaust the
  :class:`~repro.federated.backends.RetryPolicy` are never committed and
  lose their workers for the round.

Graceful degradation is enforced by a quorum: the server aggregates over
the surviving ``(m, d)`` sub-cohort, and the round raises
:class:`QuorumError` (naming the round and the survivor count) instead
when fewer than :func:`resolve_quorum` workers report.

The default :class:`NoFaults` model plans nothing: its empty plans make
the faulty round the clean round, which stays byte-identical to the
seeded reference output and emits no ``fault_*`` diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.federated.sampling import build_seeded, derive_rng
from repro.registry import Registry

__all__ = [
    "FAULTS",
    "ChaosFaults",
    "ChurnFaults",
    "CrashFaults",
    "DropoutFaults",
    "FaultModel",
    "NoFaults",
    "PoolFaultReport",
    "QuorumError",
    "ReportFaultPlan",
    "ShardFaultPlan",
    "StragglerFaults",
    "available_faults",
    "build_faults",
    "resolve_quorum",
    "validate_quorum",
]

#: Global registry of fault models.
FAULTS = Registry("fault")

#: scope tags distinguishing the two worker populations' crash streams
HONEST_SCOPE = 0
BYZANTINE_SCOPE = 1

# Component tags keying the per-fault-kind random streams.  Distinct tags
# keep the dropout/straggler/crash/churn draws of one round independent.
_DROPOUT = 1
_STRAGGLER = 2
_CRASH = 3
_CHURN = 4


class QuorumError(RuntimeError):
    """Raised when a round's surviving cohort is below the minimum quorum.

    Attributes
    ----------
    round_index:
        0-based index of the round that failed quorum.
    survivors:
        Number of uploads that actually reached the aggregation.
    required:
        The resolved minimum quorum (see :func:`resolve_quorum`).
    """

    def __init__(self, round_index: int, survivors: int, required: int) -> None:
        super().__init__(
            f"round {round_index}: only {survivors} of the required "
            f"{required} workers reported (quorum violated)"
        )
        self.round_index = round_index
        self.survivors = survivors
        self.required = required


def validate_quorum(min_quorum: int | float) -> None:
    """Raise ``ValueError``/``TypeError`` unless ``min_quorum`` is valid.

    An ``int >= 1`` is an absolute survivor count; a ``float`` in
    ``(0, 1]`` is a fraction of the expected population.
    """
    if isinstance(min_quorum, bool) or not isinstance(min_quorum, (int, float)):
        raise TypeError("min_quorum must be an int (count) or float (fraction)")
    if isinstance(min_quorum, int):
        if min_quorum < 1:
            raise ValueError("min_quorum count must be >= 1")
    elif not 0.0 < min_quorum <= 1.0:
        raise ValueError("min_quorum fraction must be in (0, 1]")


def resolve_quorum(min_quorum: int | float, expected: int) -> int:
    """Resolve a quorum specification against the expected cohort size.

    ``min_quorum`` may be an absolute count (``int >= 1``, returned
    as-is) or a fraction of ``expected`` (``float`` in ``(0, 1]``,
    resolved as ``ceil(fraction * expected)``); the result is always at
    least 1 so an empty cohort can never pass.
    """
    validate_quorum(min_quorum)
    if isinstance(min_quorum, int):
        return min_quorum
    return max(1, math.ceil(min_quorum * expected))


# ---------------------------------------------------------------------- #
# fault plans (what one round's injection looks like)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReportFaultPlan:
    """One round's report-level faults over the full round matrix.

    Attributes
    ----------
    dropped:
        Boolean ``(n_workers,)`` mask: the report never arrives (device
        dropout or churn absence).
    late:
        Boolean ``(n_workers,)`` mask: the report arrives past the round
        deadline.  Discarded by default; buffered for next-round delivery
        when ``buffer_late`` is set.
    buffer_late:
        Whether late reports are buffered (delivered to the *next*
        round's aggregation, with their stale round-lag) instead of
        discarded.
    """

    dropped: np.ndarray
    late: np.ndarray
    buffer_late: bool = False


@dataclass(frozen=True)
class ShardFaultPlan:
    """One pool's injected crash schedule for a single round.

    Attributes
    ----------
    failures:
        Integer ``(n_shards,)`` array: how many times each shard's
        finalisation raises before succeeding.  Shards with ``failures >=
        policy.max_attempts`` fail permanently and lose their workers for
        the round.
    policy:
        The :class:`~repro.federated.backends.RetryPolicy` bounding the
        retry attempts.
    """

    failures: np.ndarray
    policy: object

    @property
    def is_active(self) -> bool:
        """Whether any shard crashes under this plan."""
        return bool(np.any(np.asarray(self.failures) > 0))


@dataclass(frozen=True)
class PoolFaultReport:
    """What a :class:`~repro.federated.worker.WorkerPool` observed while
    executing one round under a :class:`ShardFaultPlan`.

    Attributes
    ----------
    failed_workers:
        Boolean ``(n_workers,)`` mask of workers whose shard ended as a
        :class:`~repro.federated.backends.TaskFailure` (never committed:
        their upload rows are invalid for the round).
    retried:
        Attempts beyond each shard's first: the injected crashes of
        committed shards, plus every extra attempt of a shard that ended
        as a :class:`~repro.federated.backends.TaskFailure` (transport
        re-dispatches of a remote backend included).
    """

    failed_workers: np.ndarray
    retried: int


# ---------------------------------------------------------------------- #
# fault models
# ---------------------------------------------------------------------- #
class FaultModel:
    """Base class of fault models: counter-derived per-round fault draws.

    Subclasses override :meth:`report_faults` (dropout / stragglers /
    churn) and/or :meth:`crash_failures` (shard crashes); the defaults
    inject nothing.  All randomness must come from :meth:`rng`, which
    derives a generator from ``(seed, component, counters...)`` so the
    fault trace is a pure function of the round counters -- identical
    across backends, thread interleavings and repeated replays.

    Parameters
    ----------
    seed:
        Base seed of every fault stream.  The simulation injects its own
        run seed when the model spec does not pin one, so fault traces
        follow the experiment seed by default.
    """

    #: ``False`` only for :class:`NoFaults`: its rounds emit no
    #: ``fault_*`` diagnostics and hand the server the whole round matrix.
    is_active: bool = True

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError("fault seed must be non-negative")
        self.seed = int(seed)

    def rng(self, component: int, *counters: int) -> np.random.Generator:
        """A generator keyed by ``(seed, component, *counters)``.

        The key tuple fully determines the stream: same counters, same
        draws -- no hidden state survives between calls.  It is
        :func:`~repro.federated.sampling.derive_rng`'s stream.
        """
        return derive_rng(self.seed, component, *counters)

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        """Report-level faults of ``round_index`` over the round matrix.

        ``n_workers`` is the full population (honest rows first, then
        Byzantine), matching the rows of the round matrix.
        """
        none = np.zeros(n_workers, dtype=bool)
        return ReportFaultPlan(dropped=none, late=none.copy())

    def crash_failures(
        self, round_index: int, scope: int, n_shards: int
    ) -> np.ndarray:
        """Per-shard injected failure counts for one pool and round.

        ``scope`` distinguishes the honest (:data:`HONEST_SCOPE`) and
        Byzantine (:data:`BYZANTINE_SCOPE`) pools so their crash streams
        are independent.
        """
        return np.zeros(n_shards, dtype=np.int64)


@FAULTS.register(
    "none",
    summary="no injected faults -- the byte-identical reference path",
)
class NoFaults(FaultModel):
    """The default: empty plans at every fault seam (the clean round)."""

    is_active = False


@FAULTS.register(
    "dropout",
    summary="Bernoulli per-worker non-report (device offline for the round)",
)
class DropoutFaults(FaultModel):
    """Each worker independently fails to report with probability ``rate``.

    The archetypal cross-device failure: the upload is computed (the
    device did the work) but never reaches the server.  Interacts with
    FirstAGG's acceptance statistics and the second-stage top-k, which
    re-parameterise by the realised cohort size.
    """

    def __init__(self, rate: float = 0.1, seed: int = 0) -> None:
        super().__init__(seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("dropout rate must be in [0, 1]")
        self.rate = float(rate)

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        """Draw the round's seeded Bernoulli dropout mask."""
        dropped = self.rng(_DROPOUT, round_index).random(n_workers) < self.rate
        return ReportFaultPlan(dropped=dropped, late=np.zeros(n_workers, dtype=bool))


@FAULTS.register(
    "straggler",
    summary="reports past the round deadline are discarded or buffered",
)
class StragglerFaults(FaultModel):
    """Each worker's report independently misses the deadline with
    probability ``rate``.

    ``mode="discard"`` drops late reports (deadline-based cohorts);
    ``mode="buffer"`` delivers them to the *next* round's aggregation
    with one round of staleness -- a worker may then contribute two rows
    to a round (its stale buffered report plus its fresh one), which the
    partial-cohort aggregation handles by worker id.  The buffer is round
    state of the simulation: consecutive rounds deliver it, and a
    full-state snapshot carries it across a restart.
    """

    def __init__(
        self, rate: float = 0.1, mode: str = "discard", seed: int = 0
    ) -> None:
        super().__init__(seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("straggler rate must be in [0, 1]")
        if mode not in ("discard", "buffer"):
            raise ValueError("straggler mode must be 'discard' or 'buffer'")
        self.rate = float(rate)
        self.mode = mode

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        """Draw the round's seeded late-report mask."""
        late = self.rng(_STRAGGLER, round_index).random(n_workers) < self.rate
        return ReportFaultPlan(
            dropped=np.zeros(n_workers, dtype=bool),
            late=late,
            buffer_late=self.mode == "buffer",
        )


@FAULTS.register(
    "crash",
    summary="shard finalisations raise mid-task; retried under the RetryPolicy",
)
class CrashFaults(FaultModel):
    """Each shard's finalisation independently crashes with probability
    ``rate``; a crashing shard raises ``1..max_failures`` times (drawn
    uniformly) before succeeding.

    Crashes fire *before* any shard state mutation, so a shard retried
    within the :class:`~repro.federated.backends.RetryPolicy` budget is
    bitwise identical to one that never failed; shards whose failure
    count reaches ``policy.max_attempts`` fail permanently and their
    workers drop out of the round's cohort.
    """

    def __init__(
        self, rate: float = 0.1, max_failures: int = 1, seed: int = 0
    ) -> None:
        super().__init__(seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("crash rate must be in [0, 1]")
        if max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        self.rate = float(rate)
        self.max_failures = int(max_failures)

    def crash_failures(
        self, round_index: int, scope: int, n_shards: int
    ) -> np.ndarray:
        """Seeded per-shard failure budgets for this round and scope."""
        rng = self.rng(_CRASH, round_index, scope)
        crashes = rng.random(n_shards) < self.rate
        counts = rng.integers(1, self.max_failures + 1, size=n_shards)
        return np.where(crashes, counts, 0).astype(np.int64)


@FAULTS.register(
    "churn",
    summary="a fixed subset of workers leaves/rejoins on a periodic schedule",
)
class ChurnFaults(FaultModel):
    """Workers leave and rejoin the population on a periodic schedule.

    A fraction ``rate`` of the population churns: each churning worker is
    absent (non-reporting) for ``away`` consecutive rounds out of every
    ``period``, with a per-worker phase offset.  The membership and the
    phases are drawn from a *round-independent* key, so the schedule is a
    fixed property of the run that the per-round seam merely evaluates.
    """

    def __init__(
        self, rate: float = 0.2, away: int = 2, period: int = 8, seed: int = 0
    ) -> None:
        super().__init__(seed)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("churn rate must be in [0, 1]")
        if period < 1:
            raise ValueError("churn period must be >= 1")
        if not 0 <= away <= period:
            raise ValueError("churn away must be in [0, period]")
        self.rate = float(rate)
        self.away = int(away)
        self.period = int(period)

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        """Mark the workers scheduled away in this round's phase."""
        schedule = self.rng(_CHURN)
        churning = schedule.random(n_workers) < self.rate
        phases = schedule.integers(0, self.period, size=n_workers)
        away = (round_index + phases) % self.period < self.away
        return ReportFaultPlan(
            dropped=churning & away, late=np.zeros(n_workers, dtype=bool)
        )


@FAULTS.register(
    "chaos",
    aliases=("dropout_crash",),
    summary="dropout + stragglers + shard crashes combined (chaos testing)",
)
class ChaosFaults(FaultModel):
    """Dropout, stragglers and shard crashes in one model.

    Each component draws from its own stream (distinct component keys),
    so e.g. the crash trace of a chaos run equals a pure ``crash`` run
    with the same seed and rate.  The default configuration is the CI
    smoke scenario: 10% dropout plus 10% single-failure shard crashes.
    """

    def __init__(
        self,
        dropout: float = 0.1,
        straggler: float = 0.0,
        crash: float = 0.1,
        max_failures: int = 1,
        mode: str = "discard",
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        self._dropout = DropoutFaults(rate=dropout, seed=seed)
        self._straggler = StragglerFaults(rate=straggler, mode=mode, seed=seed)
        self._crash = CrashFaults(rate=crash, max_failures=max_failures, seed=seed)

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        """Compose the dropout and straggler masks for the round."""
        dropped = self._dropout.report_faults(round_index, n_workers).dropped
        late_plan = self._straggler.report_faults(round_index, n_workers)
        return ReportFaultPlan(
            dropped=dropped, late=late_plan.late, buffer_late=late_plan.buffer_late
        )

    def crash_failures(
        self, round_index: int, scope: int, n_shards: int
    ) -> np.ndarray:
        """Delegate shard crash draws to the crash component."""
        return self._crash.crash_failures(round_index, scope, n_shards)


# ---------------------------------------------------------------------- #
# construction
# ---------------------------------------------------------------------- #
def available_faults() -> list[str]:
    """Names accepted by :func:`build_faults` (and the ``--faults`` flag)."""
    return FAULTS.names()


def build_faults(
    faults: str | FaultModel | None, default_seed: int | None = None, **kwargs
) -> FaultModel:
    """Resolve a fault-model specification to a :class:`FaultModel`.

    ``faults`` may be a registered name, an existing instance (returned
    as-is; ``kwargs`` must then be empty) or ``None`` for the no-fault
    reference.  ``default_seed`` seeds a built model unless the spec
    pins its own ``seed`` or the builder takes none (see
    :func:`~repro.federated.sampling.build_seeded`), so fault traces
    follow the experiment seed by default.
    """
    if faults is None:
        faults = "none"
    if isinstance(faults, FaultModel):
        if kwargs:
            raise TypeError(
                "cannot pass fault kwargs together with a FaultModel instance"
            )
        return faults
    return build_seeded(FAULTS, faults, default_seed, kwargs)
