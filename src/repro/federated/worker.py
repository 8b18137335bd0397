"""Workers that follow the client-side protocol.

The hot path is :class:`WorkerPool`: it holds *all* protocol-following
workers of one population (honest, or Byzantine-but-protocol-following,
e.g. label flipping), samples each worker's mini-batch from that worker's
own generator in worker order, and drives a pluggable
:class:`~repro.federated.engines.ClientEngine` over **shards** of the
population.  A shard is the unit of dispatch, retries and crash faults:
one task per shard on the execution backend.  The default
(``shard_size=None``) runs the whole pool as one shard on the serial
backend; with ``shard_size=k`` each task holds at most ``k`` workers.
Each engine starts with one capture pass over the shard, whose
activations grow with the shard's rows times the layer widths, so the
shard size bounds them.  The materialized engine then expands gradients
one cache-sized group of workers at a time, so its gradient scratch stays
within a fixed budget whatever the shard size.  Sharded and unsharded
pools produce bitwise-identical uploads: every protocol step is
per-worker row-wise, so splitting the worker axis never changes a single
floating-point operation.  (The only shape-dependent steps are the
stacked forward/backward GEMMs, where BLAS switches micro-kernels -- and
accumulation order -- for degenerate row counts of 1-3; the protocol's
real batch sizes, multiples of 4, keep every shard on the same kernel,
which the regression tests assert.  A transposed right operand used to
widen that range: OpenBLAS computes ``G @ W.T`` below ~19 rows in another
order, so until ``Linear`` multiplied by a contiguous copy of ``W^T`` a
one-worker shard of an MLP at ``b_c = 16`` differed from the whole pool in
the low bits.)

Shards are **pure tasks committed in order**.  Algorithm 1 line 11
overwrites every momentum slot with the upload itself, so a shard's whole
effect on worker state is its uploads plus its workers' post-noise
generator states.  The pool samples each shard's mini-batches from
*copies* of the workers' generators, packs them with the shard's
momentum rows and generator states into a payload, and maps one
task, ``payload -> (uploads, post-noise generator states)``, over the
shards on its :class:`~repro.federated.backends.ExecutionBackend` --
inline, on threads, in worker processes (pickled) or on remote workers
(described as data, see :mod:`repro.federated.wire`).  The parent then
*commits* the results in shard order: upload rows, momentum rows and
generator states.  The upload rows are the caller's ``out`` array -- in
a training round, the pool's rows of the round matrix -- and in-process
tasks compute straight into them, so no per-shard result block is
allocated; the remote backend reads its workers' uploads off the wire
into them too.  A shard that ends as a
:class:`~repro.federated.backends.TaskFailure` is not committed: its
upload rows are zeroed, and its workers' generators and momentum keep
their pre-round state on every backend.  Injected crashes and retries
wrap the same task in the backend's retry loop; since the task is pure,
a retried attempt replays bitwise.  Commit order, not completion order, fixes every result, so
every backend's uploads are bitwise identical to the serial loop.

A model keeps no per-call state, so every in-process shard task, on
any thread, computes on the caller's model.  Each thread keeps one
engine per registered name until :func:`drop_thread_engines`: pools run
one after another, so they share it and its scratch.  A payload that
leaves the process carries the model's layer spec
(:meth:`~repro.nn.network.Sequential.spec`) and flat parameters, and the
executing thread builds that network once.  That recipe is plain data,
which is what lets :mod:`repro.federated.wire` (protocol 3) describe a
shard task to a remote worker without shipping code.  When no
``shard_size`` is given, parallel backends split the pool into
``max_workers`` near-equal shards so the concurrency is actually used.

Upload-crafting attacks are handled collectively by the simulation (the
attacker controls all its fake workers at once).
"""

from __future__ import annotations

import json
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.config import DPConfig
from repro.core.dp_protocol import BatchedDPState
from repro.data.dataset import Dataset
from repro.federated.backends import (
    ExecutionBackend,
    RetryPolicy,
    TaskFailure,
    build_backend,
)
from repro.federated.engines import DEFAULT_ENGINE, ENGINES, ClientEngine, build_engine
from repro.federated.faults import PoolFaultReport, ShardFaultPlan
from repro.federated.sampling import IndexView
from repro.nn.network import Sequential

__all__ = ["WorkerPool", "drop_thread_engines"]


class _ThreadCache(threading.local):
    """What shard tasks compute with, kept per thread so that no two
    threads share an engine's scratch or a network's parameters.

    ``engines`` maps an engine name to the thread's engine, ``networks``
    an out-of-process layer spec's JSON text to the network built from
    it, and ``generators`` holds scratch generators, re-positioned before
    every use (setting a state is ~10x cheaper than building one).
    """

    def __init__(self) -> None:
        self.engines: dict[str, ClientEngine] = {}
        self.networks: dict[str, Sequential] = {}
        self.generators: list[np.random.Generator | None] = []


_THREAD_CACHE = _ThreadCache()
_NETWORK_LIMIT = 8


def _positioned(states: list[dict]) -> list[np.random.Generator]:
    """This thread's scratch generators, positioned at ``states``.

    Valid until the next call on the same thread: callers read the
    states back out rather than keep the objects.
    """
    scratch = _THREAD_CACHE.generators
    scratch.extend([None] * (len(states) - len(scratch)))
    for index, state in enumerate(states):
        name = state["bit_generator"]
        rng = scratch[index]
        if rng is None or type(rng.bit_generator).__name__ != name:
            # The seed is a placeholder: the state set below replaces it.
            rng = scratch[index] = np.random.Generator(getattr(np.random, name)(0))
        rng.bit_generator.state = state
    return scratch[: len(states)]


def _thread_engine(name: str) -> ClientEngine:
    """The calling thread's engine of the registered ``name``, built on first use."""
    engines = _THREAD_CACHE.engines
    if name not in engines:
        engines[name] = build_engine(name)
    return engines[name]


def drop_thread_engines() -> None:
    """Forget the calling thread's engines and their scratch; its next task builds new ones.

    :meth:`~repro.federated.simulation.FederatedSimulation.close` calls it.
    """
    _THREAD_CACHE.engines.clear()


def _thread_network(spec: list[dict], parameters: np.ndarray) -> Sequential:
    """The calling thread's network of layer ``spec``, loaded with ``parameters``."""
    networks = _THREAD_CACHE.networks
    key = json.dumps(spec, sort_keys=True)
    if key not in networks:
        if len(networks) >= _NETWORK_LIMIT:
            networks.clear()
        networks[key] = Sequential.from_spec(spec)
    model = networks[key]
    model.set_flat_parameters(parameters)
    return model


@dataclass(frozen=True)
class _ShardPayload:
    """Everything one shard task reads; it writes only to ``out``.

    In process, ``model`` is the caller's model, which the task only
    reads, and ``parameters`` is ``None``.  A payload that leaves the
    process carries the model's layer spec and its flat parameters
    instead.  ``engine`` is a registered engine name.
    ``momentum`` may be a view of the pool's rows: only the commit writes
    them, after the task finished.  ``out`` is the shard's rows of the
    caller's output array (the round matrix, in a round): in-process
    tasks compute into them, so results never pile up in the executing
    threads' malloc arenas, and the remote backend receives its workers'
    uploads into them.  Neither a task frame
    (:func:`~repro.federated.wire.encode_task`) nor a pickled payload
    carries them.
    """

    model: Sequential | list[dict]
    engine: str
    parameters: np.ndarray | None
    features: np.ndarray
    labels: np.ndarray
    momentum: np.ndarray
    rng_states: list[dict]
    dp_config: DPConfig
    out: np.ndarray | None

    def __getstate__(self) -> dict:
        # Another process cannot write this one's rows: it returns its
        # uploads as an array, which the commit copies in.
        return {**self.__dict__, "out": None}


def _shard_task(payload: _ShardPayload) -> tuple[np.ndarray, list[dict]]:
    """The one shard task: ``payload -> (uploads, post-noise rng states)``.

    Sampling already happened in the parent, so the task runs this
    thread's engine on the payload's mini-batches, a private copy of the
    shard's momentum and generators positioned at the payload's states.
    Pure: a retried attempt computes exactly the same result.
    """
    model = payload.model
    if not isinstance(model, Sequential):
        model = _thread_network(model, payload.parameters)
    engine = _thread_engine(payload.engine)
    rngs = _positioned(payload.rng_states)
    # Every attempt starts from the pool's rows; the engine updates this
    # private copy, and by line 11 the momentum *is* the upload, so the
    # copy doubles as the result.  The materialized engine returns the
    # copy itself (copying it onto itself is a no-op); other engines may
    # return scratch.  What a discarded attempt wrote here is overwritten
    # by the retry, or zeroed by the commit when the shard is lost.
    momentum = payload.out if payload.out is not None else np.empty_like(payload.momentum)
    np.copyto(momentum, payload.momentum)
    state = BatchedDPState(
        slot_momentum=momentum, batch_size=payload.dp_config.batch_size
    )
    uploads = engine.compute_uploads(
        model, payload.features, payload.labels, len(rngs), state,
        payload.dp_config, rngs,
    )
    np.copyto(momentum, uploads)
    return momentum, [rng.bit_generator.state for rng in rngs]


class WorkerPool:
    """All protocol-following workers of one population, batched in shards.

    Parameters
    ----------
    datasets:
        One private local dataset per worker: a :class:`Dataset` or, for a
        sampled population worker, an
        :class:`~repro.federated.sampling.IndexView` into a shared base.
        The pool copies each mini-batch through their ``gather``, straight
        into the shard's buffer.
    dp_config:
        Client-side DP settings shared by every worker in the pool.
    rngs:
        One private generator per worker (mini-batch sampling and DP
        noise).  Batches and noise are drawn from each worker's own stream
        in worker order, so the pool reproduces exactly what the workers
        would have drawn sequentially.
    engine:
        A registered engine name (``"materialized"``, ``"ghost_norm"``),
        or ``None`` for :data:`~repro.federated.engines.DEFAULT_ENGINE`;
        anything else raises :class:`~repro.registry.UnknownComponentError`.
        Each thread running a shard task uses its own :attr:`engine`.
    shard_size:
        Maximum number of workers per shard task; ``None`` keeps the pool
        in one shard under the serial backend and splits it into
        ``backend.max_workers`` near-equal shards under a parallel one.
        A shard is the unit of dispatch, retries and crash faults, and
        its row count bounds the capture pass's activations; the
        materialized engine's gradient scratch is one cache-sized worker
        group whatever the shard.  Every shard size gives
        bitwise-identical uploads.
    backend:
        How shards are dispatched: a registered name (``"serial"``,
        ``"threaded"``, ``"process"``), a ready
        :class:`~repro.federated.backends.ExecutionBackend` instance
        (shared backends reuse one thread/process pool across worker
        pools), or ``None`` for the serial reference.  Every backend
        produces bitwise-identical uploads.
    """

    def __init__(
        self,
        datasets: list[Dataset | IndexView],
        dp_config: DPConfig,
        rngs: list[np.random.Generator],
        engine: str | None = None,
        shard_size: int | None = None,
        backend: str | ExecutionBackend | None = None,
    ) -> None:
        if not datasets:
            raise ValueError("WorkerPool requires at least one worker")
        if len(rngs) != len(datasets):
            raise ValueError(
                f"expected {len(datasets)} generators, got {len(rngs)}"
            )
        dims = {dataset.dim for dataset in datasets}
        if len(dims) > 1:
            raise ValueError(f"workers disagree on feature dimensionality: {dims}")
        for dataset in datasets:
            if len(dataset) == 0:
                raise ValueError("worker dataset must not be empty")
        if shard_size is not None and shard_size <= 0:
            raise ValueError("shard_size must be positive when set")
        self.datasets = list(datasets)
        self.dp_config = dp_config
        self.rngs = list(rngs)
        self.backend = build_backend(backend)
        #: the registered name of the engine every shard task computes with
        self.engine_name = DEFAULT_ENGINE if engine is None else engine
        ENGINES.get(self.engine_name)  # an unknown name fails here, not in a task
        self.state = BatchedDPState()
        n = len(self.datasets)
        if shard_size is None:
            # Parallel backends split the pool into near-equal shards so
            # the configured concurrency is actually exercised; the serial
            # reference keeps the whole pool in one shard task.
            jobs = min(self.backend.max_workers, n)
            size = n if jobs <= 1 else -(-n // jobs)
        else:
            size = min(shard_size, n)
        self.shard_size = size
        self._shard_bounds = [
            (start, min(start + size, n)) for start in range(0, n, size)
        ]
        #: what the last :meth:`compute_uploads` call's failures and
        #: retries looked like (``None`` after a call with an inactive
        #: plan and no failure); stale in a round the pool sat out
        self.last_fault_report: PoolFaultReport | None = None

    @property
    def engine(self) -> ClientEngine:
        """The calling thread's engine of :attr:`engine_name` (every pool on it shares it)."""
        return _thread_engine(self.engine_name)

    @property
    def n_workers(self) -> int:
        """Number of workers in the pool."""
        return len(self.datasets)

    @property
    def n_shards(self) -> int:
        """Number of bounded-size shards the engine is driven over."""
        return len(self._shard_bounds)

    @property
    def shard_bounds(self) -> list[tuple[int, int]]:
        """Half-open worker-index ranges of the shards, in order."""
        return list(self._shard_bounds)

    def assign(
        self, datasets: list[Dataset | IndexView], rngs: list[np.random.Generator]
    ) -> None:
        """Re-point every slot at a freshly sampled cohort.

        Cross-device rounds draw a new cohort from the registered
        population each round; the pool's slot count (and therefore its
        shard bounds and scratch sizes) stays constant while the slots'
        datasets and generators are swapped in.  Momentum is zeroed:
        a sampled worker starts its participation from a fresh local
        state, the standard stateless-client semantics of cross-device
        federated learning.
        """
        if len(datasets) != self.n_workers or len(rngs) != self.n_workers:
            raise ValueError(
                f"assign expects exactly {self.n_workers} datasets and "
                f"generators, got {len(datasets)} and {len(rngs)}"
            )
        dims = {dataset.dim for dataset in datasets}
        if len(dims) > 1:
            raise ValueError(f"workers disagree on feature dimensionality: {dims}")
        for dataset in datasets:
            if len(dataset) == 0:
                raise ValueError("worker dataset must not be empty")
        self.datasets = list(datasets)
        self.rngs = list(rngs)
        self.state.slot_momentum[...] = 0.0

    # ------------------------------------------------------------------ #
    # dispatch and commit
    # ------------------------------------------------------------------ #
    def _payloads(
        self, model: Sequential, out: np.ndarray
    ) -> Iterator[tuple[int, _ShardPayload]]:
        """``(shard index, payload)`` pairs, built as the backend pulls them.

        Each shard's mini-batches are drawn from scratch copies of its
        workers' generators (same draws as ``Dataset.sample_batch``:
        uniform with replacement, each worker's own stream, worker
        order), so the pool's own generators only move when a result is
        committed.  Each payload carries the shard's rows of ``out``.
        """
        batch, n_features = self.dp_config.batch_size, self.datasets[0].dim
        parameters = None
        if not self.backend.in_process:
            model, parameters = model.spec(), model.get_flat_parameters()
        for index, (start, stop) in enumerate(self._shard_bounds):
            rngs = _positioned([rng.bit_generator.state for rng in self.rngs[start:stop]])
            features = np.empty(((stop - start) * batch, n_features), dtype=np.float64)
            labels = np.empty((stop - start) * batch, dtype=np.int64)
            for position, (dataset, rng) in enumerate(
                zip(self.datasets[start:stop], rngs)
            ):
                picks = rng.integers(0, len(dataset), size=batch)
                rows = slice(position * batch, (position + 1) * batch)
                dataset.gather(picks, features[rows], labels[rows])
            yield index, _ShardPayload(
                model=model,
                engine=self.engine_name,
                parameters=parameters,
                features=features,
                labels=labels,
                momentum=self.state.slot_momentum[start:stop],
                rng_states=[rng.bit_generator.state for rng in rngs],
                dp_config=self.dp_config,
                out=out[start:stop],
            )

    def compute_uploads(
        self,
        model: Sequential,
        crash_plan: ShardFaultPlan | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """One protocol iteration for every worker; returns ``(n_workers, d)``.

        The caller is responsible for having loaded the current global
        parameters into ``model`` (model broadcasting, Algorithm 1 line 3).
        Shard results are committed in shard order -- upload rows,
        momentum rows (Algorithm 1 line 11: the momentum *is* the upload)
        and post-noise generator states -- so per-worker momentum and
        noise streams are independent of the sharding, of the execution
        backend and of shard completion order.

        ``out`` is a C-contiguous float64 ``(n_workers, d)`` array to fill
        and return, typically rows of the round matrix; ``None`` allocates
        one.  In-process shard tasks compute straight into its rows, so
        read it only once this call has returned.

        With a ``crash_plan`` (see :class:`~repro.federated.faults
        .ShardFaultPlan`) shards crash and retry as scheduled: recovered
        shards are bitwise identical to never-failing ones.  A shard
        ending as a :class:`TaskFailure` -- an exhausted crash schedule
        or advisory timeout, or a remote transport loss -- leaves zero
        upload rows and untouched worker state.  ``crash_plan=None`` is
        the empty plan with a single attempt per shard.
        :attr:`last_fault_report` describes the round.
        """
        n, batch = self.n_workers, self.dp_config.batch_size
        dimension = model.num_parameters
        if out is None:
            out = np.empty((n, dimension), dtype=np.float64)
        elif (
            out.shape != (n, dimension)
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape "
                f"{(n, dimension)}, got {out.dtype} {out.shape}"
            )
        self.state.ensure_shape(n, batch, dimension)
        self.last_fault_report = None
        if crash_plan is None:
            crash_plan = ShardFaultPlan(
                failures=np.zeros(self.n_shards, dtype=np.int64),
                policy=RetryPolicy(max_attempts=1),
            )
        failures = np.asarray(crash_plan.failures, dtype=np.int64)
        if failures.shape != (self.n_shards,):
            raise ValueError(
                f"crash plan covers {failures.shape} shards, pool has "
                f"{self.n_shards}"
            )
        task = self.backend.resilient(
            _shard_task, crash_plan.policy, crashes=failures.tolist()
        )
        results = self.backend.map_ordered(task, self._payloads(model, out))
        failed = np.zeros(n, dtype=bool)
        retried = 0
        for index, ((start, stop), result) in enumerate(
            zip(self._shard_bounds, results)
        ):
            rows = out[start:stop]
            if isinstance(result, TaskFailure):
                failed[start:stop] = True
                retried += result.attempts - 1
                rows[...] = 0.0
                continue
            # A committed shard retried exactly its injected crashes:
            # advisory-timeout retries are wall-clock facts (traced as
            # retry events), not round counts.
            uploads, rng_states = result
            retried += int(failures[index])
            for rng, state in zip(self.rngs[start:stop], rng_states):
                rng.bit_generator.state = state
            # In-process tasks computed into these rows and the remote
            # backend received most results into them (copying them onto
            # themselves is a no-op); other results arrive as arrays.
            np.copyto(rows, uploads)
            np.copyto(self.state.slot_momentum[start:stop], rows)
        if crash_plan.is_active or retried or failed.any():
            self.last_fault_report = PoolFaultReport(
                failed_workers=failed, retried=retried
            )
        return out

    def reset(self) -> None:
        """Clear every worker's momentum state (start of a fresh run)."""
        self.state = BatchedDPState()
