"""Federated-learning simulation.

- :class:`~repro.federated.worker.WorkerPool` -- runs the client-side DP
  protocol of Algorithm 1 for a whole worker population with one stacked
  forward/backward capture pass per shard.
- :class:`~repro.federated.server.Server` -- owns the global model, the
  aggregation rule and the server auxiliary data.
- :class:`~repro.federated.simulation.FederatedSimulation` -- the round
  (broadcast, local computation, Byzantine crafting, aggregation, model
  update) and the training loop around it, which evaluates the model and
  emits typed :class:`~repro.federated.pipeline.RoundEvent` objects to
  :class:`~repro.federated.pipeline.RoundCallback` hooks (early stopping,
  logging and checkpoint callbacks ship as built-ins in
  :mod:`repro.federated.pipeline`).
- :class:`~repro.federated.history.TrainingHistory` -- per-round records,
  populated by the default
  :class:`~repro.federated.pipeline.HistoryRecorder` event consumer.
- :mod:`repro.federated.engines` -- pluggable client compute engines
  (:data:`~repro.federated.engines.ENGINES` registry): the materialized
  path, which expands exact per-example gradients one cache-sized group
  of workers at a time, and the ghost-norm Gram-matrix path, both driven
  over bounded-size pool shards.
- :mod:`repro.federated.backends` -- pluggable execution backends
  (:data:`~repro.federated.backends.BACKENDS` registry): serial,
  threaded, process and remote dispatch of the round's independent pool
  shard tasks, all bitwise identical to the serial reference.
- :mod:`repro.federated.faults` -- seeded fault injection
  (:data:`~repro.federated.faults.FAULTS` registry): dropout, straggler,
  crash and churn models whose per-round draws replay bit-identically on
  every backend, plus the quorum primitives
  (:class:`~repro.federated.faults.QuorumError`) that let training
  degrade gracefully over partial cohorts.
- :mod:`repro.federated.service` -- service mode: a crash-tolerant
  coordinator (:class:`~repro.federated.service.CoordinatorServer`)
  dispatching shard tasks to ``repro worker`` processes over the
  typed TCP frames of :mod:`repro.federated.wire` (no code on the wire),
  surfaced as the ``remote`` execution backend
  (:class:`~repro.federated.backends.RemoteBackend`) with heartbeats,
  transport retries and partial-cohort degradation.
- :mod:`repro.federated.state` -- atomic full-round-state snapshots
  (:class:`~repro.federated.state.RoundState`) enabling bitwise-exact
  resume of an interrupted run.
- :mod:`repro.federated.observability` -- the coordinator's operator
  surface: a lock-free-read status/metrics HTTP endpoint
  (:class:`~repro.federated.observability.StatusServer` over a
  :class:`~repro.federated.observability.StatusBoard` of versioned
  immutable snapshots), admin verbs (pause/resume/drain/undrain) wired
  into the dispatch loop, and bitwise-neutral JSONL tracing
  (:class:`~repro.federated.observability.TraceRecorder`).

The names of the service, wire and observability modules load on first
access: those modules bring in sockets, :mod:`http.server` and
:mod:`urllib.request`, which a plain ``repro run`` never uses.
"""

import importlib

from repro.federated.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    RemoteBackend,
    RetryPolicy,
    SerialBackend,
    TaskFailure,
    ThreadedBackend,
    TransientTaskError,
    available_backends,
    build_backend,
)
from repro.federated.faults import (
    FAULTS,
    ChaosFaults,
    ChurnFaults,
    CrashFaults,
    DropoutFaults,
    FaultModel,
    NoFaults,
    QuorumError,
    StragglerFaults,
    available_faults,
    build_faults,
    resolve_quorum,
    validate_quorum,
)
from repro.federated.engines import (
    ENGINES,
    ClientEngine,
    GhostNormEngine,
    MaterializedEngine,
    available_engines,
    build_engine,
)
from repro.federated.history import TrainingHistory
from repro.federated.pipeline import (
    Checkpoint,
    EarlyStopping,
    EvaluationEvent,
    HistoryRecorder,
    MetricsWriter,
    RoundCallback,
    RoundEndEvent,
    RoundEvent,
    RoundLogger,
    RoundStartEvent,
)
from repro.federated.server import Server
from repro.federated.simulation import FederatedSimulation, SimulationSettings
from repro.federated.state import (
    STATE_SUFFIX,
    RoundState,
    load_round_state,
    save_round_state,
)
from repro.federated.worker import WorkerPool

#: Names re-exported on first access (PEP 562), and the submodule
#: defining each.
_LAZY = {
    "CoordinatorServer": "service",
    "RemoteTaskError": "service",
    "run_worker": "service",
    "WireError": "wire",
    "DEFAULT_STATUS_PORT": "observability",
    "StatusBoard": "observability",
    "StatusReporter": "observability",
    "StatusServer": "observability",
    "StatusSnapshot": "observability",
    "TraceRecorder": "observability",
}


def __getattr__(name: str):
    """Import the submodule that defines a lazily re-exported name."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadedBackend",
    "ProcessBackend",
    "RetryPolicy",
    "TaskFailure",
    "TransientTaskError",
    "available_backends",
    "build_backend",
    "FAULTS",
    "FaultModel",
    "NoFaults",
    "DropoutFaults",
    "StragglerFaults",
    "CrashFaults",
    "ChurnFaults",
    "ChaosFaults",
    "QuorumError",
    "available_faults",
    "build_faults",
    "resolve_quorum",
    "validate_quorum",
    "ENGINES",
    "ClientEngine",
    "MaterializedEngine",
    "GhostNormEngine",
    "available_engines",
    "build_engine",
    "WorkerPool",
    "Server",
    "FederatedSimulation",
    "SimulationSettings",
    "TrainingHistory",
    "RoundEvent",
    "RoundStartEvent",
    "EvaluationEvent",
    "RoundEndEvent",
    "RoundCallback",
    "HistoryRecorder",
    "EarlyStopping",
    "RoundLogger",
    "MetricsWriter",
    "Checkpoint",
    "CoordinatorServer",
    "RemoteBackend",
    "RemoteTaskError",
    "run_worker",
    "DEFAULT_STATUS_PORT",
    "StatusBoard",
    "StatusReporter",
    "StatusServer",
    "StatusSnapshot",
    "TraceRecorder",
    "WireError",
    "STATE_SUFFIX",
    "RoundState",
    "load_round_state",
    "save_round_state",
]
