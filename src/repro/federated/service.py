"""Service mode: a crash-tolerant coordinator/worker split over TCP.

This module promotes the in-process simulation to a deployable two-role
system while keeping every numerical guarantee of the in-process path:

- :class:`CoordinatorServer` -- owns a listening socket and a set of
  connected worker links; dispatches round tasks over the wire protocol
  of :mod:`repro.federated.wire` and reduces results **in submission
  order**, exactly like every other backend.  The ``"remote"`` execution
  backend (:class:`~repro.federated.backends.RemoteBackend`) starts one
  and imports this module when it is constructed, so only service-mode
  processes load the socket and wire stack.
- :func:`run_worker` -- the worker-process main loop behind ``python -m
  repro worker``: connect, register, execute tasks, heartbeat, and
  reconnect-with-backoff when the coordinator goes away mid-training.

Failure semantics
-----------------
*Liveness* is deadline-based: every worker heartbeats on the cadence the
coordinator announces in ``welcome``, and a link silent for longer than
``heartbeat_timeout`` (or whose socket hits EOF -- the immediate signal
for a ``kill -9``'d worker) is dropped.  A dropped link's in-flight task
is re-dispatched to a surviving worker under the backend's transport
:class:`~repro.federated.backends.RetryPolicy` (bounded attempts with
deterministic backoff); a task that exhausts its transport budget
surfaces as an ordered :class:`~repro.federated.backends.TaskFailure`
slot, which the worker pool translates into lost workers for the round
-- flowing into the existing partial-cohort aggregation and
``min_quorum`` check instead of crashing the run.  Only two conditions
abort: no worker connected for ``worker_timeout`` seconds
(:class:`ConnectionError`) and a worker-side exception from the task
function itself (:class:`RemoteTaskError` -- a programming error, which
propagates exactly like under the in-process backends).

Tasks are pure functions of their payloads, so at-least-once dispatch is
safe: a re-dispatched task whose original worker later answers anyway is
resolved first-result-wins, and duplicate results are discarded.

The round matrix is the only full-size buffer of a round's uploads: the
link a task is in flight on reads its result straight into the shard's
rows (:meth:`CoordinatorServer._claim_rows` names the rules), and every
other answer goes to fresh arrays that die once handled.
:meth:`~CoordinatorServer.execute` returns only when no receive is
writing the rows.

Trust model
-----------
Nothing a peer sends is executed: frames carry arrays and JSON, and every
result is checked against the shard that was dispatched (exactly ``(n,
d)`` float64 uploads and ``n`` generator states); a malformed one drops
the link as a *bad result* and the task is retried like any other lost
dispatch.  Both ends check the protocol version at the handshake.  Peers
are not authenticated, though: anyone who can connect can register as a
worker, and a registered worker answering a task with ``error`` aborts
the run (task exceptions are deterministic).  Bind the coordinator to
loopback or to a trusted network.
"""

from __future__ import annotations

import functools
import os
import socket
import sys
import threading
import time
from collections import deque
from collections.abc import Callable

from repro.federated.backends import RetryPolicy, TaskFailure
from repro.federated.wire import (
    PROTOCOL_VERSION,
    WireError,
    decode_result,
    decode_task,
    encode_result,
    encode_task,
    recv_message,
    send_message,
)

__all__ = [
    "CoordinatorServer",
    "RemoteTaskError",
    "run_worker",
]


class RemoteTaskError(RuntimeError):
    """A task function raised inside a remote worker (non-transient).

    Mirrors the in-process backends, where a task exception propagates to
    the caller; the original traceback text travels in the message.
    """


def _hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.

    On Linux ``close`` alone does not wake a ``recv`` blocked on the
    socket in another thread; ``shutdown`` does.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:  # already disconnected
        pass
    try:
        sock.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


class _Link:
    """One connected worker, as the coordinator sees it."""

    __slots__ = (
        "sock", "name", "alive", "last_seen", "task", "claim", "send_lock",
        "connected_at", "dispatched", "bytes_sent",
    )

    def __init__(self, sock: socket.socket, name: str) -> None:
        self.sock = sock
        self.name = name
        self.alive = True
        self.last_seen = time.monotonic()
        self.task: _Task | None = None
        # The task whose rows this link's frame in flight is read into.
        self.claim: _Task | None = None
        self.send_lock = threading.Lock()
        self.connected_at = time.monotonic()
        self.dispatched = 0  # tasks sent to this link (lifetime)
        self.bytes_sent = 0  # whole task frames, buffers included (send_lock)


class _Task:
    """One dispatchable unit of an execution, pinned to its result slot.

    ``header`` is the ``task`` object of the frame and ``buffers`` the
    payload's arrays (see :func:`~repro.federated.wire.encode_task`).
    ``rows`` is the shard's rows of the caller's round matrix (the
    payload's ``out``), or ``None``; ``claimed`` says that a receive is
    writing them.
    """

    __slots__ = (
        "task_id", "index", "header", "buffers", "rows", "claimed", "attempts",
        "not_before", "dispatched_at", "done", "result", "failure", "fatal",
    )

    def __init__(
        self, task_id: int, index: int, header: dict, buffers: list, rows
    ) -> None:
        self.task_id = task_id
        self.index = index
        self.header = header
        self.buffers = buffers
        self.rows = rows
        self.claimed = False
        self.attempts = 0
        self.not_before = 0.0
        self.dispatched_at: float | None = None
        self.done = False
        self.result: object = None
        self.failure: TaskFailure | None = None
        self.fatal: str | None = None

    @property
    def finished(self) -> bool:
        """Whether the task needs no further dispatch."""
        return self.done or self.failure is not None


class _Execution:
    """State of the one in-flight ``execute`` call."""

    __slots__ = ("tasks", "queue", "policy", "by_id")

    def __init__(self, tasks: list[_Task], policy: RetryPolicy) -> None:
        self.tasks = tasks
        self.queue: deque[_Task] = deque(tasks)
        self.policy = policy
        self.by_id = {task.task_id: task for task in tasks}


class CoordinatorServer:
    """Accepts worker connections and drives ordered task execution.

    Parameters
    ----------
    host, port:
        Listening address; ``port=0`` binds an ephemeral port (read the
        resolved one from :attr:`port`).
    heartbeat_interval:
        Cadence (seconds) workers are told to heartbeat on.
    heartbeat_timeout:
        A link silent for longer than this is declared dead and its
        in-flight task re-dispatched.  Must comfortably exceed the
        interval.
    worker_timeout:
        :meth:`execute` raises :class:`ConnectionError` after this many
        seconds with *zero* connected workers (before the first connect
        or after losing them all).

    A rejected handshake is reported on stderr, so a run's stdout stays
    byte-comparable.
    """

    _HANDSHAKE_TIMEOUT = 10.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 0.5,
        heartbeat_timeout: float = 10.0,
        worker_timeout: float = 60.0,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        if worker_timeout <= 0:
            raise ValueError("worker_timeout must be positive")
        self.host = host
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_timeout = worker_timeout
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._cond = threading.Condition()
        self._links: list[_Link] = []
        self._execution: _Execution | None = None
        self._closed = False
        self._next_task_id = 0
        self._paused = False
        self._draining: set[str] = set()
        self._tracer = None
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-coordinator-monitor", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread.start()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, address = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by shutdown
            threading.Thread(
                target=self._serve_connection,
                args=(sock, address),
                name="repro-coordinator-link",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket, address) -> None:
        try:
            sock.settimeout(self._HANDSHAKE_TIMEOUT)
            # A frame is several sends; without this, Nagle holds back the
            # tail of each one until the previous segment is acknowledged.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello, _ = recv_message(sock)
            if hello["type"] != "hello":
                raise WireError(f"expected hello, got {hello['type']!r}")
            # The welcome names our version, so a worker of another
            # version can tell why it is turned away.
            send_message(sock, {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "heartbeat_interval": self.heartbeat_interval,
            })
            if hello.get("protocol") != PROTOCOL_VERSION:
                print(
                    f"repro-coordinator: rejected worker {hello.get('worker')!r} at "
                    f"{address[0]}:{address[1]}: it speaks protocol "
                    f"{hello.get('protocol')!r}, this coordinator speaks "
                    f"protocol {PROTOCOL_VERSION}",
                    file=sys.stderr, flush=True,
                )
                raise WireError("protocol version mismatch")
            sock.settimeout(None)
        except (ConnectionError, OSError):
            sock.close()
            return
        name = str(hello.get("worker") or f"{address[0]}:{address[1]}")
        link = _Link(sock, name)
        with self._cond:
            if self._closed:
                sock.close()
                return
            self._links.append(link)
            self._cond.notify_all()
        self._recv_loop(link)

    def _recv_loop(self, link: _Link) -> None:
        """Read and handle the link's frames until it drops.

        A result may be read straight into its shard's rows of the round
        matrix (:meth:`_claim_rows`); the claim ends once the frame is
        handled or lost.  Each frame lives only inside :meth:`_receive`,
        so no link keeps its last result referenced until its next frame.
        """
        into = functools.partial(self._claim_rows, link)
        while True:
            try:
                reason = self._receive(link, into)
            finally:
                self._release_rows(link)
            if reason is not None:
                # Dropping the link re-dispatches its in-flight task under
                # the transport policy, like any other lost dispatch.
                self._drop_link(link, f"worker {link.name!r}: {reason}")
                return

    def _receive(self, link: _Link, into: Callable) -> str | None:
        """Read and handle one frame; returns why to drop the link, if so."""
        try:
            message, buffers = recv_message(link.sock, into)
        except (ConnectionError, OSError):
            return "connection lost"
        kind = message["type"]
        try:
            if kind == "heartbeat":
                with self._cond:
                    link.last_seen = time.monotonic()
            elif kind == "result":
                self._handle_result(link, message, buffers)
            elif kind == "error":
                self._handle_error(link, message)
            else:
                raise WireError(f"a worker does not send {kind!r} messages")
        except WireError as error:
            return f"bad {kind} ({error})"
        return None

    def _claim_rows(self, link: _Link, message: dict, declared: list) -> list | None:
        """The round-matrix rows to read a frame's buffers into, or ``None``.

        A frame is read into its shard's rows only when it is a
        ``result`` for an unfinished task of this execution, that task is
        in flight on this very link, no other receive holds the rows, and
        the frame declares exactly their one ``(n, d)`` float64 buffer.
        Anything else -- a stale answer, a straggler racing its
        re-dispatch, a wrong shape, an extra buffer -- is read into fresh
        arrays and handled like any result: the first result wins.  A
        receive that fails mid-frame leaves the rows partly written; its
        task is lost, and its retry rewrites them in full or the commit
        zeroes them.
        """
        if message["type"] != "result":
            return None
        with self._cond:
            task = self._lookup(message.get("task_id"))
            if (
                task is None
                or task.finished
                or link.task is not task
                or task.rows is None
                or task.claimed
                or declared != [(task.rows.dtype, task.rows.shape)]
            ):
                return None
            task.claimed = True
            link.claim = task
        return [task.rows]

    def _release_rows(self, link: _Link) -> None:
        """End the link's claim on a shard's rows, if it holds one."""
        if link.claim is None:  # only this link's receive thread sets it
            return
        with self._cond:
            link.claim.claimed = False
            link.claim = None
            self._cond.notify_all()

    def _handle_result(self, link: _Link, message: dict, buffers: list) -> None:
        with self._cond:
            task = self._lookup(message.get("task_id"))
        # Checked against the dispatched shard outside the lock (``header``
        # never changes); a stale answer to a finished execution is dropped.
        result = None if task is None else decode_result(message, buffers, task.header)
        trace_fields = None
        with self._cond:
            now = time.monotonic()
            link.last_seen = now
            link.task = None
            tracer = self._tracer
            if task is not None and not task.finished:
                task.result = result
                task.done = True
                if tracer is not None:
                    trace_fields = {
                        "worker": link.name,
                        "task_id": task.task_id,
                        "index": task.index,
                        "attempts": task.attempts + 1,
                        "result_bytes": sum(buffer.nbytes for buffer in buffers),
                    }
                    if task.dispatched_at is not None:
                        trace_fields["duration"] = now - task.dispatched_at
            self._cond.notify_all()
        if trace_fields is not None:
            tracer.trace_event("wire", "round_trip", **trace_fields)

    def _handle_error(self, link: _Link, message: dict) -> None:
        reason = message.get("error")
        if not isinstance(reason, str):
            raise WireError("an error message carries its text in 'error'")
        with self._cond:
            link.last_seen = time.monotonic()
            link.task = None
            task = self._lookup(message.get("task_id"))
            if task is not None and not task.finished:
                # A deterministic task-function exception: mirror the
                # in-process backends and propagate to the caller.
                task.fatal = reason or "remote task failed"
                task.done = True
            self._cond.notify_all()

    def _lookup(self, task_id) -> _Task | None:
        if self._execution is None or type(task_id) is not int:
            return None
        return self._execution.by_id.get(task_id)

    def _drop_link(self, link: _Link, reason: str) -> None:
        """Forget ``link``, lose its in-flight task and hang up (idempotent).

        The task is re-dispatched or failed under the transport policy
        (:meth:`_task_lost`).  The socket is shut down before it is
        closed, so a receive blocked on it in the link's own thread wakes
        and ends its claim on a shard's rows; ``close`` alone would leave
        that thread, and so :meth:`execute`, waiting.
        """
        with self._cond:
            if not link.alive:
                return
            link.alive = False
            if link in self._links:
                self._links.remove(link)
            task, link.task = link.task, None
            if task is not None:
                self._task_lost(task, reason)
            self._cond.notify_all()
        _hang_up(link.sock)

    def _task_lost(self, task: _Task, reason: str) -> None:
        """Re-dispatch or fail a task whose worker went away (lock held)."""
        if task.finished or self._execution is None:
            return
        task.attempts += 1
        task.dispatched_at = None
        policy = self._execution.policy
        if task.attempts >= policy.max_attempts:
            task.failure = TaskFailure(
                index=task.index, attempts=task.attempts, error=reason
            )
        else:
            task.not_before = time.monotonic() + policy.delay(task.attempts)
            self._execution.queue.append(task)
        if self._tracer is not None:
            # The tracer's own lock never waits on ``_cond``, so emitting
            # here (lock held) cannot deadlock.
            self._tracer.trace_event(
                "retry",
                "task_lost",
                task_id=task.task_id,
                index=task.index,
                attempts=task.attempts,
                exhausted=task.failure is not None,
                reason=reason,
            )

    def _monitor_loop(self) -> None:
        """Deadline-based liveness: drop links whose heartbeats stopped."""
        poll = max(0.05, self.heartbeat_interval / 2.0)
        while not self._closed:
            time.sleep(poll)
            now = time.monotonic()
            with self._cond:
                stale = [
                    link for link in self._links
                    if now - link.last_seen > self.heartbeat_timeout
                ]
            for link in stale:
                self._drop_link(
                    link,
                    f"worker {link.name!r}: no heartbeat for "
                    f"{self.heartbeat_timeout}s",
                )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        """Number of currently connected (live) workers."""
        with self._cond:
            return len(self._links)

    def wait_for_workers(self, count: int, timeout: float | None = None) -> int:
        """Block until ``count`` workers are connected (or ``timeout``).

        Returns the number of connected workers; never raises on timeout
        (the caller decides whether a smaller cohort is acceptable).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._links) < count:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self._cond.wait(remaining if remaining is not None else 0.5)
            return len(self._links)

    # ------------------------------------------------------------------ #
    # admin / observability surface
    # ------------------------------------------------------------------ #
    @property
    def paused(self) -> bool:
        """Whether task dispatch is globally paused (admin ``pause``)."""
        with self._cond:
            return self._paused

    @property
    def draining(self) -> set[str]:
        """Names of workers currently draining (copy; admin ``drain``)."""
        with self._cond:
            return set(self._draining)

    def pause(self) -> None:
        """Stop dispatching new tasks; in-flight tasks still complete.

        While paused the starvation clock is also suspended, so a long
        pause never trips ``worker_timeout``.
        """
        with self._cond:
            self._paused = True
            self._cond.notify_all()

    def resume(self) -> None:
        """Undo :meth:`pause` and wake the dispatch loop."""
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def drain(self, name: str) -> None:
        """Stop dispatching to the named worker; it finishes in-flight work.

        Draining is keyed by worker *name*, so a drained worker that
        reconnects under the same name stays drained until
        :meth:`undrain`.  Raises :class:`KeyError` when no connected
        worker bears the name (already-draining names are accepted
        silently -- the verb is idempotent).
        """
        with self._cond:
            if all(link.name != name for link in self._links):
                raise KeyError(f"no connected worker named {name!r}")
            self._draining.add(name)
            self._cond.notify_all()

    def undrain(self, name: str) -> None:
        """Return a drained worker to the dispatch rotation.

        Raises :class:`KeyError` when the name is not draining.
        """
        with self._cond:
            if name not in self._draining:
                raise KeyError(f"worker {name!r} is not draining")
            self._draining.discard(name)
            self._cond.notify_all()

    def worker_status(self) -> list[dict]:
        """A point-in-time view of every connected worker link.

        Each row carries the worker name, seconds since its last
        heartbeat, seconds connected, whether a task is in flight,
        whether the worker is draining, and lifetime dispatch counters.
        Rows are sorted by name for stable output.
        """
        now = time.monotonic()
        with self._cond:
            rows = [
                {
                    "name": link.name,
                    "last_heartbeat_age": round(now - link.last_seen, 3),
                    "connected_for": round(now - link.connected_at, 3),
                    "busy": link.task is not None,
                    "draining": link.name in self._draining,
                    "dispatched": link.dispatched,
                    "bytes_sent": link.bytes_sent,
                }
                for link in self._links
            ]
        return sorted(rows, key=lambda row: row["name"])

    def set_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a trace recorder.

        The recorder only needs a callable ``trace_event`` attribute; it
        receives ``wire`` round-trip and ``retry`` events.  Tracing is
        observation-only and never changes dispatch behaviour.
        """
        with self._cond:
            self._tracer = tracer

    def execute(self, fn: Callable, items: list, policy: RetryPolicy) -> list:
        """Run ``fn`` over ``items`` on the connected workers, in order.

        ``fn`` must be a worker pool's resilient shard task and ``items``
        its ``(index, payload)`` pairs (:func:`~repro.federated.wire
        .encode_task`); anything else raises :class:`TypeError` before a
        frame is sent.  Transport failures (dead links, bad results,
        advisory-timeout stragglers) are retried under ``policy``;
        exhausted slots come back as :class:`TaskFailure`.  Worker-side
        task exceptions raise :class:`RemoteTaskError`;
        ``ConnectionError`` is raised only when no worker is connected
        for :attr:`worker_timeout` seconds.

        A payload's ``out`` rows (the shard's rows of the round matrix)
        receive its uploads straight off the wire when
        :meth:`_claim_rows` allows, and that result's uploads are those
        rows; other results arrive as fresh arrays.  Nothing writes the
        rows once this returns.
        """
        encoded = [encode_task(fn, item) for item in items]
        tasks = []
        with self._cond:
            if self._closed:
                raise ConnectionError("coordinator server is shut down")
            if self._execution is not None:
                raise RuntimeError("CoordinatorServer.execute is not reentrant")
            for index, ((header, buffers), (_, payload)) in enumerate(
                zip(encoded, items)
            ):
                tasks.append(_Task(
                    self._next_task_id, index, header, buffers, payload.out
                ))
                self._next_task_id += 1
            self._execution = _Execution(tasks, policy)
        try:
            self._drive(tasks, policy)
        finally:
            with self._cond:
                self._execution = None
                # An aborted round (fatal error, starvation) may leave
                # in-flight tasks assigned; clear them so their links are
                # idle again for the next round (workers drain messages
                # sequentially, so a busy worker just answers later --
                # and that stale answer is ignored).
                for link in self._links:
                    link.task = None
                # The round matrix is the caller's again once this
                # returns: wait out every receive still writing its rows
                # (a stalled one ends when its link is dropped).
                while any(task.claimed for task in tasks):
                    self._cond.wait()
        for task in tasks:
            if task.fatal is not None:
                raise RemoteTaskError(task.fatal)
        return [
            task.failure if task.failure is not None else task.result
            for task in tasks
        ]

    def _drive(self, tasks: list[_Task], policy: RetryPolicy) -> None:
        starved_since: float | None = None
        while True:
            assignments: list[tuple[_Link, _Task]] = []
            with self._cond:
                if self._closed:
                    raise ConnectionError("coordinator server shut down mid-round")
                if all(task.finished for task in tasks):
                    return
                if any(task.fatal is not None for task in tasks):
                    # Abandon the rest of the round; in-flight results for
                    # this execution are discarded once it is cleared.
                    return
                now = time.monotonic()
                self._expire_stragglers(now, policy)
                # Dispatchable = alive and not draining; a paused
                # coordinator dispatches to no one (and suspends the
                # starvation clock -- an operator pause is not an outage).
                dispatchable = [
                    link for link in self._links
                    if link.alive and link.name not in self._draining
                ]
                undispatched = any(
                    not task.finished and task.dispatched_at is None
                    for task in tasks
                )
                if self._paused:
                    starved_since = None
                elif not dispatchable and undispatched:
                    if starved_since is None:
                        starved_since = now
                    elif now - starved_since > self.worker_timeout:
                        if self._links:
                            raise ConnectionError(
                                f"all {len(self._links)} connected worker(s) "
                                f"draining for {self.worker_timeout}s "
                                f"({len(tasks)} tasks pending)"
                            )
                        raise ConnectionError(
                            f"no workers connected for {self.worker_timeout}s "
                            f"({len(tasks)} tasks pending)"
                        )
                else:
                    starved_since = None
                    queue = self._execution.queue
                    idle = deque(
                        link for link in dispatchable if link.task is None
                    )
                    deferred = []
                    while idle and queue:
                        task = queue.popleft()
                        if task.finished:
                            continue
                        if task.not_before > now:
                            deferred.append(task)
                            continue
                        link = idle.popleft()
                        link.task = task
                        link.dispatched += 1
                        task.dispatched_at = now
                        assignments.append((link, task))
                    queue.extend(deferred)
                if not assignments:
                    self._cond.wait(0.05)
            # Sends happen outside the condition: sendall may block, and a
            # send failure is just another way for a link to die.
            for link, task in assignments:
                try:
                    with link.send_lock:
                        link.bytes_sent += send_message(
                            link.sock,
                            {"type": "task", "task_id": task.task_id, "task": task.header},
                            task.buffers,
                        )
                except (ConnectionError, OSError):
                    self._drop_link(
                        link, f"worker {link.name!r}: send failed"
                    )

    def _expire_stragglers(self, now: float, policy: RetryPolicy) -> None:
        """Advisory per-dispatch deadline (lock held): requeue overdue tasks.

        The original worker keeps computing; if its answer arrives before
        a re-dispatch finishes, first-result-wins keeps it (the results
        are identical -- tasks are pure).
        """
        if policy.timeout is None:
            return
        for link in self._links:
            task = link.task
            if (
                task is not None
                and task.dispatched_at is not None
                and now - task.dispatched_at > policy.timeout
            ):
                link.task = None
                self._task_lost(
                    task,
                    f"task exceeded the {policy.timeout}s transport deadline",
                )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self, notify_workers: bool = True) -> None:
        """Stop accepting, drop every link, release the port.

        With ``notify_workers`` each connected worker receives a
        ``shutdown`` message first (it then exits 0); without it the
        sockets just close, which a worker treats as a lost coordinator
        and enters its reconnect loop -- exactly what a crash looks like.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            links = list(self._links)
            self._links.clear()
            self._cond.notify_all()
        if notify_workers:
            for link in links:
                try:
                    with link.send_lock:
                        send_message(link.sock, {"type": "shutdown"})
                except (ConnectionError, OSError):
                    pass
            # Wait for each worker to close its end first.  Closing our
            # socket while heartbeats sit unread in its receive queue
            # turns the close into a RST, which can discard the shutdown
            # frame before the worker reads it -- the worker would then
            # mistake a clean shutdown for a crash and spin in its
            # reconnect loop.  The per-link recv threads flip
            # ``link.alive`` (under ``_cond``) when they see the
            # worker-side EOF.
            deadline = time.monotonic() + 5.0
            with self._cond:
                while any(link.alive for link in links):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=min(remaining, 0.1))
        for link in links:
            _hang_up(link.sock)
        self._listener.close()
        self._accept_thread.join(timeout=2.0)
        self._monitor_thread.join(timeout=2.0)


# ---------------------------------------------------------------------- #
# the worker side
# ---------------------------------------------------------------------- #
def _default_log(line: str) -> None:
    print(f"repro-worker: {line}", flush=True)


def _answer_task(task_id: int, message: dict, buffers: list) -> tuple[dict, list]:
    """The reply frame (header, buffers) to one ``task`` message.

    A task that fails a check is answered like one that raised: with an
    ``error`` frame, never by running it.
    """
    try:
        fn, item = decode_task(message, buffers)
        fields, out = encode_result(fn(item))
    except Exception as error:  # reported upstream; the run decides
        return {
            "type": "error",
            "task_id": task_id,
            "error": f"{type(error).__name__}: {error}",
            "transient": False,
        }, []
    return {"type": "result", "task_id": task_id, **fields}, out


def _serve_session(
    sock: socket.socket,
    name: str,
    throttle: float,
    emit: Callable[[str], None],
    task_emit: Callable[[str], None],
) -> int | None:
    """One connected session.

    Returns ``0`` on clean shutdown, ``1`` when the coordinator speaks
    another protocol version and ``None`` when the connection is lost.
    """
    send_lock = threading.Lock()
    sock.settimeout(10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_message(sock, {
        "type": "hello",
        "worker": name,
        "pid": os.getpid(),
        "protocol": PROTOCOL_VERSION,
    })
    welcome, _ = recv_message(sock)
    if welcome["type"] != "welcome":
        raise WireError(f"expected welcome, got {welcome['type']!r}")
    if welcome.get("protocol") != PROTOCOL_VERSION:
        emit(
            f"coordinator speaks protocol {welcome.get('protocol')!r}, this "
            f"worker speaks protocol {PROTOCOL_VERSION}; exiting"
        )
        sock.close()
        return 1
    interval = welcome.get("heartbeat_interval")
    if type(interval) not in (int, float) or interval <= 0:
        raise WireError(f"welcome announces heartbeat_interval {interval!r}")
    sock.settimeout(None)
    emit(f"registered with coordinator (heartbeat every {interval}s)")

    stop = threading.Event()

    def heartbeat() -> None:
        while not stop.wait(interval):
            try:
                with send_lock:
                    send_message(sock, {"type": "heartbeat"})
            except (ConnectionError, OSError):
                return

    beater = threading.Thread(target=heartbeat, name="repro-worker-heartbeat",
                              daemon=True)
    beater.start()
    try:
        while True:
            message, buffers = recv_message(sock)
            kind = message["type"]
            if kind == "shutdown":
                emit("coordinator sent shutdown; exiting")
                return 0
            if kind != "task":
                continue
            task_id = message.get("task_id")
            if type(task_id) is not int:
                raise WireError(f"task id {task_id!r} is not an integer")
            task_emit(f"task {task_id} started")
            if throttle > 0:
                time.sleep(throttle)
            reply, out = _answer_task(task_id, message, buffers)
            message = buffers = None  # free the task's arrays before the next frame
            with send_lock:
                send_message(sock, reply, out)
            reply = out = None  # hold no upload while waiting for the next task
            task_emit(f"task {task_id} done")
    except (ConnectionError, OSError):
        emit("lost the coordinator; will try to reconnect")
        return None
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


def run_worker(
    host: str,
    port: int,
    name: str | None = None,
    reconnect_timeout: float = 30.0,
    throttle: float = 0.0,
    log: Callable[[str], None] | None = None,
    verbose: bool = False,
) -> int:
    """Serve a coordinator at ``host:port`` until told to shut down.

    The loop connects, registers (``hello``/``welcome``), then executes
    tasks while a daemon thread heartbeats on the coordinator's cadence.
    When the coordinator goes away (crash, restart, network blip) the
    worker re-enters a connect-with-backoff loop and *re-registers* --
    mid-training reconnects just work, because the coordinator holds all
    round state and tasks are self-contained payloads.

    Parameters
    ----------
    host, port:
        Coordinator address.
    name:
        Worker name shown in coordinator diagnostics (default:
        ``worker-<pid>``).
    reconnect_timeout:
        Give up (exit code 1) after this many seconds without managing to
        connect; the clock resets on every successful registration.
    throttle:
        Sleep this long before each task -- a slow-device simulation used
        by the fault-injection smoke tests to make kill timing
        deterministic.
    log:
        Sink for progress lines (default prints to stdout, flushed).
    verbose:
        Also log per-task start/done lines (the smoke tests key on them).

    Returns the process exit code: 0 after a clean ``shutdown``, 1 after
    giving up on reconnecting.
    """
    if throttle < 0:
        raise ValueError("throttle must be non-negative")
    if reconnect_timeout < 0:
        raise ValueError("reconnect_timeout must be non-negative")
    worker_name = name or f"worker-{os.getpid()}"
    emit = log if log is not None else _default_log
    task_emit = emit if verbose else (lambda line: None)
    give_up_at: float | None = None
    attempt = 0
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
        except OSError:
            now = time.monotonic()
            if give_up_at is None:
                give_up_at = now + reconnect_timeout
            if now >= give_up_at:
                emit(
                    f"no coordinator at {host}:{port} for "
                    f"{reconnect_timeout}s; giving up"
                )
                return 1
            time.sleep(min(1.0, 0.05 * 2.0 ** attempt))
            attempt += 1
            continue
        give_up_at = None
        attempt = 0
        try:
            code = _serve_session(sock, worker_name, throttle, emit, task_emit)
        except (ConnectionError, OSError):
            code = None
        if code is not None:
            return code
        # Session lost: loop back to reconnect-and-reregister.
