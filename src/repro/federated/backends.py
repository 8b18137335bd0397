"""Parallel execution backends for the federated round.

An *execution backend* decides how the independent tasks of one round --
the :class:`~repro.federated.worker.WorkerPool`'s shard tasks (honest
and Byzantine populations alike) -- are dispatched: in order on the
calling thread, concurrently over a thread pool, or over worker
processes.  Backends are registered
in the :data:`BACKENDS` registry, making execution the sixth scenario
axis next to attacks, defenses, datasets, models and engines:
``ExperimentConfig(backend=..., backend_kwargs=...)``, ``python -m repro
run --backend ... --jobs ...`` and ``python -m repro list`` all see
third-party backends registered through the public
:class:`repro.registry.Registry` API.

Four backends ship built-in:

- :class:`SerialBackend` -- the reference: tasks run in submission order
  on the calling thread.  Zero dispatch overhead; the default.
- :class:`ThreadedBackend` -- tasks run concurrently on a lazily created
  thread pool.
- :class:`ProcessBackend` -- tasks run in worker processes, each shard's
  payload pickled whole (flat parameters included).  For workloads
  dominated by Python overhead rather than BLAS time.
- :class:`RemoteBackend` -- tasks run on ``repro worker`` processes,
  sent as typed TCP frames (:mod:`repro.federated.wire`, protocol 3) by
  a :class:`~repro.federated.service.CoordinatorServer` (service mode).

A backend has one map method, :meth:`ExecutionBackend.map_ordered`, and
one contract, the **ordered reduction**: results come back in *submission*
order no matter in which order tasks complete.  The result is an
ordered, possibly lazy iterable, so a streaming consumer drives the
dispatch.  Combined with pure shard tasks whose results the worker pool
commits in shard order, this makes every backend produce
bitwise-identical results: parallelism changes wall-clock time and
nothing else.

Fault tolerance wraps the task, not the map:
:meth:`ExecutionBackend.resilient` returns the task under a bounded,
deterministic :class:`RetryPolicy` (exponential backoff, optional
advisory timeout, optional injected crashes).
Tasks raising :class:`TransientTaskError` are retried, and a task that
exhausts the policy yields a :class:`TaskFailure` marker in its ordered
slot instead of raising -- the caller degrades gracefully over the
surviving slots.

Each backend imports what it runs on only when it needs it: the thread
and process pools when they start, the service stack (sockets and the
wire codec) when a remote backend is constructed.  A serial run loads
none of them.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.registry import Registry

if TYPE_CHECKING:
    from concurrent.futures import Executor

    from repro.federated.service import CoordinatorServer

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ProcessBackend",
    "RemoteBackend",
    "RetryPolicy",
    "SerialBackend",
    "TaskFailure",
    "ThreadedBackend",
    "TransientTaskError",
    "available_backends",
    "build_backend",
]

#: Global registry of execution backends.
BACKENDS = Registry("backend")


class TransientTaskError(RuntimeError):
    """A task failure worth retrying (crashed shard, injected fault).

    A task wrapped by :meth:`ExecutionBackend.resilient` is retried only
    when it raises this type; any other exception is a programming error
    and propagates immediately.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry/timeout/backoff policy for round tasks.

    Attributes
    ----------
    max_attempts:
        Total attempts per task (first try included); a task still
        raising :class:`TransientTaskError` on its last attempt fails
        permanently and its result slot becomes a :class:`TaskFailure`.
    backoff_base:
        Base delay in seconds before retry ``k`` (exponential:
        ``backoff_base * 2**(k-1)``); 0 retries immediately, which keeps
        seeded simulations fast and deterministic in wall-clock terms.
    timeout:
        Advisory per-attempt wall-clock deadline in seconds: an attempt
        finishing after it is treated as a transient failure (its result
        is discarded) and retried.  Sound because round tasks are pure
        functions of their payloads; ``None`` disables the deadline.
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive when set")

    def delay(self, attempt: int) -> float:
        """Backoff delay in seconds before retry ``attempt`` of a task."""
        if self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * 2.0 ** (attempt - 1)


@dataclass(frozen=True)
class TaskFailure:
    """Ordered-reduction slot of a task that exhausted its retry policy.

    A task wrapped by :meth:`ExecutionBackend.resilient` keeps the
    ordered-reduction contract under faults by filling its result slot
    with this marker instead of raising, so surviving results stay pinned
    to their submission indices and the caller decides how to degrade.
    Remote backends also fill the slot of a task whose transport retry
    budget ran out.
    """

    index: int
    attempts: int
    error: str


class _ResilientRunner:
    """Retry loop wrapped around one task function (picklable if ``fn`` is).

    The mapped callable built by :meth:`ExecutionBackend.resilient`: each
    item travels as an ``(index, item)`` pair so the injected crash
    schedule and the failure marker know the task's submission slot even
    inside an out-of-process worker.  A successful
    task returns its result unchanged; one that exhausts the policy
    returns a :class:`TaskFailure`.

    ``crashes[index]`` injects that many :class:`TransientTaskError`
    failures *before* ``fn`` runs, so a task retried within the budget
    replays exactly like one that never failed (tasks are pure functions
    of their items).  ``crashes`` is a per-task sequence or a sparse
    ``{index: count}`` mapping; :attr:`crashes` holds the mapping.
    """

    def __init__(
        self,
        fn: Callable,
        policy: RetryPolicy,
        on_retry: Callable[[int, int, str], None] | None = None,
        crashes: Sequence[int] | Mapping[int, int] = (),
    ) -> None:
        self.fn = fn
        self.policy = policy
        self.on_retry = on_retry  # observation hook; must stay side-effect-free
        pairs = crashes.items() if isinstance(crashes, Mapping) else enumerate(crashes)
        self.crashes = {int(index): int(count) for index, count in pairs if count}

    def _note(self, index: int, attempt: int, error: str) -> None:
        if self.on_retry is not None:
            self.on_retry(index, attempt, error)

    def __call__(self, pair: tuple[int, object]):
        index, item = pair
        crashes = self.crashes.get(index, 0)
        policy = self.policy
        for attempt in range(1, policy.max_attempts + 1):
            started = time.monotonic()
            try:
                if attempt <= crashes:
                    raise TransientTaskError(
                        f"injected shard crash (attempt {attempt} of "
                        f"{crashes} scheduled failures)"
                    )
                result = self.fn(item)
            except TransientTaskError as error:
                self._note(index, attempt, str(error))
                if attempt == policy.max_attempts:
                    return TaskFailure(index=index, attempts=attempt, error=str(error))
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            if (
                policy.timeout is not None
                and time.monotonic() - started > policy.timeout
            ):
                # Past the advisory deadline: the round treats this
                # attempt as a straggler and discards its result.
                error = f"task exceeded the {policy.timeout}s deadline"
                self._note(index, attempt, error)
                if attempt == policy.max_attempts:
                    return TaskFailure(index=index, attempts=attempt, error=error)
                continue
            return result
        raise AssertionError("unreachable: every attempt returns or continues")


class ExecutionBackend:
    """Base class of execution backends.

    A backend executes *independent* tasks and reduces their results in
    submission order.  Subclasses override :meth:`map_ordered` (and
    usually :attr:`max_workers`); holders of expensive resources
    (thread/process pools, a coordinator server) create them lazily and
    release them in :meth:`shutdown` -- a backend must remain usable
    after ``shutdown()``, recreating its resources on the next call.
    """

    #: Whether tasks run in the calling process.  In-process backends may
    #: be handed closures over live objects; out-of-process backends
    #: require picklable callables and payloads (worker processes) or run
    #: only the worker pools' shard task, sent as data (remote workers).
    in_process: bool = True

    #: Attached trace recorder (``None`` = tracing off, the default).
    _tracer = None

    @property
    def max_workers(self) -> int:
        """Upper bound on concurrently running tasks (1 = serial)."""
        return 1

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a trace recorder.

        The recorder only needs callable ``trace_span`` / ``trace_event``
        attributes (duck-typed -- see :class:`repro.federated
        .observability.TraceRecorder`).  Tracing is observation-only:
        per-task spans wrap existing calls and never change scheduling,
        ordering, or any numeric result.
        """
        self._tracer = tracer

    def _traced(self, fn: Callable) -> Callable:
        """Wrap ``fn`` in a per-task span when tracing is on.

        Only in-process backends wrap (a closure over the recorder does
        not pickle); out-of-process backends record coarser dispatch
        events instead.
        """
        tracer = self._tracer
        if tracer is None or not self.in_process:
            return fn

        def traced(item):
            with tracer.trace_span("task", type(self).__name__):
                return fn(item)

        return traced

    def map_ordered(self, fn: Callable, items: Iterable) -> Iterable:
        """Apply ``fn`` to every item; results in **submission order**.

        Returns an ordered, possibly lazy iterable: tasks may complete in
        any order, but results come out ordered like ``items`` -- the
        ordered reduction that keeps parallel rounds bitwise identical to
        serial ones.  A lazy implementation may pull ``items`` and run
        tasks only as the consumer advances, so a streaming caller never
        holds more than the in-flight results.  A task exception
        propagates to the consumer at its position.
        """
        raise NotImplementedError

    def resilient(
        self, fn: Callable, policy: RetryPolicy, crashes: Sequence[int] = ()
    ) -> Callable:
        """``fn`` under ``policy``'s retry loop, for :meth:`map_ordered`.

        The returned callable maps ``(index, item)`` pairs: attempts
        raising :class:`TransientTaskError` (or exceeding the advisory
        timeout) are retried up to ``policy.max_attempts`` times with
        deterministic backoff, and an exhausted task comes back as a
        :class:`TaskFailure` in its ordered slot instead of poisoning the
        whole reduction.  Any other exception propagates.
        ``crashes[index]`` injects that many failures before task
        ``index`` runs.  On an in-process backend
        with a tracer attached every failed attempt is also recorded as a
        ``retry`` event; out-of-process runners leave the process, so
        they carry no hook.
        """
        tracer = self._tracer
        on_retry = None
        if tracer is not None and self.in_process:
            def on_retry(index: int, attempt: int, error: str) -> None:
                tracer.trace_event(
                    "retry", "task_attempt",
                    index=index, attempt=attempt, error=error,
                )
        return _ResilientRunner(fn, policy, on_retry=on_retry, crashes=crashes)

    def shutdown(self) -> None:
        """Release pools/shared resources (no-op by default).

        The backend stays usable: the next :meth:`map_ordered` recreates
        whatever ``shutdown`` released.
        """

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass


@BACKENDS.register(
    "serial",
    summary="tasks run in submission order on the calling thread (the reference)",
)
class SerialBackend(ExecutionBackend):
    """The reference backend: a plain in-order loop.

    ``max_workers`` is accepted (and ignored) so sweep code can toggle
    only the backend name while passing the same ``--jobs`` value.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive when set")

    def map_ordered(self, fn: Callable, items: Iterable) -> Iterable:
        """Run tasks lazily, in submission order, on the calling thread."""
        fn = self._traced(fn)
        return (fn(item) for item in items)


class _PooledBackend(ExecutionBackend):
    """Shared lazy-executor machinery of the thread and process backends."""

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive when set")
        self._max_workers = (
            max_workers if max_workers is not None else (os.cpu_count() or 1)
        )
        self._executor: Executor | None = None
        self._lock = threading.Lock()

    @property
    def max_workers(self) -> int:
        """The pool size used once the executor is created."""
        return self._max_workers

    def _create_executor(self):
        raise NotImplementedError

    def _ensure_executor(self):
        with self._lock:
            if self._executor is None:
                self._executor = self._create_executor()
            return self._executor

    def map_ordered(self, fn: Callable, items: Iterable) -> Iterable:
        """Lazily yield results in submission order while tasks overlap.

        Items are pulled as the window advances: at most
        :attr:`max_workers` + 1 tasks are in flight (one queued behind the
        running ones), so the consumer's progress bounds how many
        payloads and results exist at once.
        """
        fn = self._traced(fn)
        items = iter(items)
        head = list(itertools.islice(items, 2))
        if self.in_process and (len(head) < 2 or self._max_workers == 1):
            # Nothing to overlap; skip the dispatch overhead entirely.
            return (fn(item) for item in itertools.chain(head, items))
        return self._windowed(fn, itertools.chain(head, items))

    def _windowed(self, fn: Callable, items: Iterable) -> Iterator:
        executor = self._ensure_executor()
        if self._tracer is not None and not self.in_process:
            # One coarse event per out-of-process map; per-task spans
            # would need a picklable recorder.
            self._tracer.trace_event("dispatch", type(self).__name__)
        window: deque = deque()
        try:
            for item in items:
                window.append(executor.submit(fn, item))
                if len(window) > self._max_workers:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            # An abandoned or failed map leaves nothing queued behind it.
            for future in window:
                future.cancel()

    def shutdown(self) -> None:
        """Stop the lazy executor (a later map creates a fresh one)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None


@BACKENDS.register(
    "threaded",
    aliases=("threads",),
    summary="tasks overlap on a thread pool",
)
class ThreadedBackend(_PooledBackend):
    """Dispatch tasks over a lazily created :class:`ThreadPoolExecutor`.

    Parameters
    ----------
    max_workers:
        Thread count; ``None`` uses every CPU the host reports.
    """

    def _create_executor(self) -> Executor:
        # Imported here: concurrent.futures (and the logging it loads)
        # is needed only once a thread pool starts.
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(
            max_workers=self._max_workers, thread_name_prefix="repro-backend"
        )


@BACKENDS.register(
    "process",
    aliases=("processes",),
    summary="tasks run in worker processes; each shard's payload is pickled",
)
class ProcessBackend(_PooledBackend):
    """Dispatch picklable tasks over a lazily created process pool.

    Meant for client engines dominated by Python overhead rather than
    BLAS time: each shard pays pickling for its payload (the flat model
    parameters included, d x 8 bytes), so the per-shard compute must
    dwarf that cost to win.

    Parameters
    ----------
    max_workers:
        Process count; ``None`` uses every CPU the host reports.
    """

    in_process = False

    def _create_executor(self) -> Executor:
        # Imported here: it loads multiprocessing, which only a started
        # process pool needs.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self._max_workers)


@BACKENDS.register(
    "remote",
    aliases=("service",),
    summary="shard tasks run on repro worker processes over typed TCP frames",
)
class RemoteBackend(ExecutionBackend):
    """Dispatch shard tasks to ``repro worker`` processes over TCP.

    An out-of-process backend that runs one task, the worker pools' shard
    task, sent as typed frames (:mod:`repro.federated.wire`), with
    mini-batches sampled in the coordinator and the results committed
    there -- so a zero-fault remote run is byte-identical to ``--backend
    serial``.  A task's own retry loop (injected crashes, advisory
    deadlines) runs inside the remote worker; losing the worker itself is
    handled by the :class:`~repro.federated.service.CoordinatorServer`
    this backend starts on first use.  Unlike the process backend, a lost
    worker does not kill the run: its tasks are retried on surviving
    workers and, past the transport budget, surface as ordered
    :class:`TaskFailure` slots that the pool leaves uncommitted and
    reports as lost workers for the round (partial-cohort aggregation +
    ``min_quorum`` decide the outcome).

    Constructing the backend imports :mod:`repro.federated.service`; no
    other backend needs it.  The runner builds the backend before it
    loads the data, so the service stack compiles while the heap is
    still small.

    Parameters
    ----------
    host, port:
        Listening address (``port=0``: ephemeral; read :attr:`port`).
    max_workers:
        *Expected* worker-process count: it sizes the pools' automatic
        shard split (``--jobs N``), and a fresh server's first dispatch
        waits up to ``worker_timeout`` for that many registrations, then
        dispatches to whoever is connected.  Not a connection limit.
    heartbeat_interval, heartbeat_timeout:
        Liveness cadence and deadline (see
        :class:`~repro.federated.service.CoordinatorServer`).
    transport_attempts, transport_backoff:
        The transport :class:`RetryPolicy`: dispatch attempts per task
        before its slot degrades to a :class:`TaskFailure`, and the
        exponential backoff base between re-dispatches.
    worker_timeout:
        Seconds to tolerate *zero* connected workers before a round
        aborts with :class:`ConnectionError`.
    """

    in_process = False

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int | None = None,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
        transport_attempts: int = 3,
        transport_backoff: float = 0.05,
        worker_timeout: float = 60.0,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive when set")
        # Loaded here, not at module level: no other backend needs it.
        import repro.federated.service  # noqa: F401

        self._host = host
        self._port = port
        self._max_workers = 1 if max_workers is None else max_workers
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._worker_timeout = worker_timeout
        self._policy = RetryPolicy(
            max_attempts=transport_attempts, backoff_base=transport_backoff
        )
        self._server: CoordinatorServer | None = None
        # Set when a server starts; its first map waits for the workers.
        self._fresh = False
        self._lock = threading.Lock()

    @property
    def max_workers(self) -> int:
        """The expected worker count ``execute`` shards against."""
        return self._max_workers

    @property
    def transport_policy(self) -> RetryPolicy:
        """The transport retry policy applied to lost dispatches."""
        return self._policy

    @property
    def host(self) -> str:
        """The coordinator's listening host."""
        return self._host

    @property
    def port(self) -> int:
        """The resolved listening port (starts the server if needed)."""
        return self._ensure_server().port

    @property
    def server(self) -> CoordinatorServer:
        """The live coordinator server (started on first use)."""
        return self._ensure_server()

    def set_tracer(self, tracer) -> None:
        """Attach a trace recorder, forwarding it to the live server.

        A server started later (lazily, or after :meth:`shutdown`)
        inherits the recorder too.
        """
        with self._lock:
            self._tracer = tracer
            if self._server is not None:
                self._server.set_tracer(tracer)

    def _ensure_server(self) -> CoordinatorServer:
        from repro.federated.service import CoordinatorServer

        with self._lock:
            if self._server is None:
                self._server = CoordinatorServer(
                    host=self._host,
                    port=self._port,
                    heartbeat_interval=self._heartbeat_interval,
                    heartbeat_timeout=self._heartbeat_timeout,
                    worker_timeout=self._worker_timeout,
                )
                if self._tracer is not None:
                    self._server.set_tracer(self._tracer)
                self._fresh = True
            return self._server

    def map_ordered(self, fn: Callable, items: Iterable) -> list:
        """Dispatch shard tasks to workers; ordered results.

        ``fn`` must be the pools' resilient shard task: the wire carries
        no code, so any other function raises :class:`TypeError` before
        anything is sent.  A fresh server's first map waits up to
        ``worker_timeout`` for :attr:`max_workers` registrations, so a
        short run cannot finish on the first worker and strand the rest;
        with none at all it raises :class:`ConnectionError`.
        """
        items = list(items)
        if not items:
            return []
        server = self._ensure_server()
        with self._lock:
            fresh, self._fresh = self._fresh, False
        if fresh and not server.wait_for_workers(self._max_workers, self._worker_timeout):
            raise ConnectionError(
                f"no workers connected for {self._worker_timeout}s "
                f"({len(items)} tasks pending)"
            )
        return server.execute(fn, items, self._policy)

    def shutdown(self) -> None:
        """Send ``shutdown`` to the workers and release the port.

        The backend stays usable: the next map starts a fresh server on
        the configured address (an explicit ``port`` is re-bound;
        ``port=0`` binds a new ephemeral one).
        """
        with self._lock:
            server, self._server = self._server, None
        if server is not None:
            server.close()


def available_backends() -> list[str]:
    """Names accepted by :func:`build_backend` (and the ``--backend`` flag)."""
    return BACKENDS.names()


def build_backend(
    backend: str | ExecutionBackend | None, **kwargs
) -> ExecutionBackend:
    """Resolve a backend specification to an :class:`ExecutionBackend`.

    ``backend`` may be a registered name, built with ``kwargs`` (the
    experiment's ``backend_kwargs``, e.g. ``max_workers``), an existing
    instance (returned as-is; ``kwargs`` must then be empty) or ``None``
    for the default serial backend.
    """
    if backend is None:
        backend = "serial"
    if isinstance(backend, ExecutionBackend):
        if kwargs:
            raise TypeError(
                "cannot pass backend kwargs together with a backend instance"
            )
        return backend
    return BACKENDS.build(backend, **kwargs)
