"""Typed binary frames of the federation service (protocol version 3).

A frame carries one message: a JSON header, then the raw arrays the header
declares::

    +-----------+--------------------------+----------+-----+----------+
    | length    | header                   | buffer 0 | ... | buffer k |
    | 4 B, BE   | `length` B of UTF-8 JSON | raw, LE  |     | raw, LE  |
    +-----------+--------------------------+----------+-----+----------+

The header is one JSON object with a ``"type"`` key.  Its ``"buffers"``
list declares the arrays that follow, in order, as ``{"dtype", "shape",
"nbytes"}`` objects.  Arrays travel as raw little-endian bytes (``<f8`` or
``<i8`` only): :func:`send_message` writes each one with ``sendall`` on a
memoryview of its own memory, and :func:`recv_message` reads each one with
``recv_into`` into a preallocated array (or one its caller names), so no
frame is ever assembled.

Message vocabulary (coordinator <-> worker):

=============  =========  ================================================
type           direction  header fields
=============  =========  ================================================
``hello``      w -> c     ``worker`` (name), ``pid``, ``protocol``
``welcome``    c -> w     ``heartbeat_interval``, ``protocol``
``task``       c -> w     ``task_id``, ``task``; 4 buffers (below)
``result``     w -> c     ``task_id``, ``states``; 1 buffer (below)
``result``     w -> c     ``task_id``, ``failure`` (the shard's
                          :class:`~repro.federated.backends.TaskFailure`)
``error``      w -> c     ``task_id``, ``error``, ``transient``
``heartbeat``  w -> c     (liveness only; no fields)
``shutdown``   c -> w     (worker exits cleanly)
=============  =========  ================================================

Nothing on the wire is code.  The one task the service runs, a worker
pool's shard task, travels as data (:func:`encode_task`).  The ``task``
object holds ``kind`` (``"shard"``), the shard ``index`` and its injected
``crashes``, the ``retry`` policy (``max_attempts``, ``backoff_base``,
``timeout``), the ``model`` layer spec
(:meth:`~repro.nn.network.Sequential.spec`), the registered ``engine``
name, the ``dp`` config and one PCG64 ``bit_generator.state`` per worker
in ``states``.  With ``n`` states, ``d`` parameters in the spec,
batch size ``b`` and ``k`` spec inputs, its buffers are the parameters
``(d,)``, features ``(n*b, k)``, labels ``(n*b,)`` (``<i8``) and momentum
``(n, d)``.  A result carries the ``(n, d)`` uploads and the ``n``
post-noise generator states.

Every check runs before the data it guards is used: :func:`recv_message`
bounds the header length before reading it, accepts only known message
types and dtypes, and checks each declared size against dtype x shape
before allocating; :func:`decode_task` checks every field, name and shape
(the parameter count against the spec before any layer is built), and
:func:`decode_result` checks a result against the task that was
dispatched.  A failed check raises :class:`WireError`, a
``ConnectionError`` subclass, so transport-level handling catches it with
the :class:`ConnectionError` a peer closing its socket raises.

Peers are not authenticated: frames carry no code and every shape is
checked, but anyone who can connect can register as a worker, and any
registered worker that answers a task with ``error`` aborts the run.
Bind the service to loopback or to a trusted network.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.config import DPConfig
from repro.federated.backends import RetryPolicy, TaskFailure, _ResilientRunner
from repro.federated.engines import ENGINES
from repro.federated.worker import _shard_task, _ShardPayload
from repro.nn.network import spec_dimensions

__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "WireError",
    "decode_result",
    "decode_task",
    "encode_result",
    "encode_task",
    "recv_message",
    "send_message",
]

#: Version stamped into ``hello``/``welcome``; bumped on breaking changes.
#: Version 1 sent base64-pickled ``blob`` fields; version 2 sent the
#: engine as ``{name, options}`` and a retry jitter and seed.
PROTOCOL_VERSION = 3

#: Every message type a frame may carry.
_MESSAGE_TYPES = frozenset(
    {"hello", "welcome", "task", "result", "error", "heartbeat", "shutdown"}
)

#: Upper bound on one frame's JSON header, checked before it is read.  A
#: shard task's header grows by ~160 bytes per worker state.
MAX_HEADER_BYTES = 1 << 20

#: Upper bound on one frame's buffers (and on any one of them): guards
#: against a garbage declaration from a non-protocol peer.
MAX_MESSAGE_BYTES = 1 << 30

_LENGTH = struct.Struct(">I")
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
#: A task carries the most buffers; every array is a vector or a matrix.
_MAX_BUFFERS = 4
_MAX_NDIM = 2


class WireError(ConnectionError):
    """The peer sent a frame that is not valid protocol."""


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
def _wire_array(array: np.ndarray) -> np.ndarray:
    """``array`` as C-contiguous little-endian ``<f8``/``<i8`` (no copy if it is)."""
    dtype = array.dtype.newbyteorder("<")
    if dtype.str not in _DTYPES:
        raise TypeError(f"the wire carries float64 and int64 arrays, not {array.dtype}")
    return np.asarray(array, dtype=dtype, order="C")


def send_message(
    sock: socket.socket, message: dict, buffers: Sequence[np.ndarray] = ()
) -> int:
    """Frame ``message`` with ``buffers`` and write it to ``sock``.

    The length and header go out in one ``sendall``, then each array in
    one ``sendall`` on a memoryview of its memory.  Returns the number of
    bytes put on the wire, buffers included, which the coordinator adds
    to per-link traffic counters for the status endpoint.
    """
    arrays = [_wire_array(buffer) for buffer in buffers]
    if arrays:
        message = {**message, "buffers": [
            {"dtype": array.dtype.str, "shape": list(array.shape), "nbytes": array.nbytes}
            for array in arrays
        ]}
    body = json.dumps(message, separators=(",", ":"), allow_nan=False).encode("utf-8")
    total = sum(array.nbytes for array in arrays)
    if len(body) > MAX_HEADER_BYTES or total > MAX_MESSAGE_BYTES:
        raise WireError(
            f"frame of {len(body)} header and {total} buffer bytes exceeds the "
            f"{MAX_HEADER_BYTES}/{MAX_MESSAGE_BYTES}-byte limits"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)
    for array in arrays:
        if array.nbytes:
            sock.sendall(memoryview(array).cast("B"))
    return _LENGTH.size + len(body) + total


def _recv_into(sock: socket.socket, view: memoryview, started: bool = True) -> None:
    """Fill ``view`` from ``sock``.

    EOF raises :class:`WireError` for a truncated frame, but a plain
    :class:`ConnectionError` when ``view`` starts the frame
    (``started=False``) and no byte of it arrived: a peer that hangs up
    between frames breaks no protocol rule.
    """
    while view:
        count = sock.recv_into(view)
        if not count:
            if started:
                raise WireError("peer closed the connection mid-frame")
            raise ConnectionError("peer closed the connection")
        started = True
        view = view[count:]


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not a JSON number")


def _parse_header(body: bytearray) -> dict:
    """The header object, with a known ``type`` and no legacy ``blob``."""
    try:
        message = json.loads(body.decode("utf-8"), parse_constant=_reject_constant)
    except (ValueError, RecursionError) as error:  # bad UTF-8 and JSON included
        raise WireError(f"frame header is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise WireError("frame header must be a JSON object with a 'type' key")
    kind = message.get("type")
    if not isinstance(kind, str) or kind not in _MESSAGE_TYPES:
        raise WireError(f"unknown message type {kind!r}")
    if "blob" in message:
        raise WireError("legacy 'blob' field: the peer speaks protocol 1")
    return message


def _declared(specs: object) -> list[tuple[np.dtype, tuple[int, ...]]]:
    """The header's buffer declarations, checked before anything is allocated."""
    if not isinstance(specs, list) or len(specs) > _MAX_BUFFERS:
        raise WireError(f"'buffers' must list at most {_MAX_BUFFERS} declarations")
    declared: list[tuple[np.dtype, tuple[int, ...]]] = []
    total = 0
    for position, spec in enumerate(specs):
        if not isinstance(spec, dict) or spec.keys() != {"dtype", "shape", "nbytes"}:
            raise WireError(f"buffer {position}: expected {{dtype, shape, nbytes}}")
        name, shape, nbytes = spec["dtype"], spec["shape"], spec["nbytes"]
        if not isinstance(name, str) or name not in _DTYPES:
            raise WireError(f"buffer {position}: dtype {name!r} is not in {sorted(_DTYPES)}")
        if not (
            isinstance(shape, list)
            and len(shape) <= _MAX_NDIM
            and all(type(size) is int and size >= 0 for size in shape)
        ):
            raise WireError(f"buffer {position}: shape {shape!r} is not up to "
                            f"{_MAX_NDIM} non-negative sizes")
        itemsize = _DTYPES[name].itemsize
        if type(nbytes) is not int or nbytes != itemsize * math.prod(shape):
            raise WireError(f"buffer {position}: declares {nbytes!r} bytes, but {name} "
                            f"x {shape} is {itemsize * math.prod(shape)}")
        total += nbytes
        # Zero-length axes count as one: numpy refuses any shape whose other
        # axes overflow, empty or not.
        span = itemsize * math.prod(max(size, 1) for size in shape)
        if span > MAX_MESSAGE_BYTES or total > MAX_MESSAGE_BYTES:
            raise WireError(f"buffer {position}: above the {MAX_MESSAGE_BYTES}-byte limit")
        declared.append((_DTYPES[name], tuple(shape)))
    return declared


def recv_message(
    sock: socket.socket,
    into: Callable[[dict, list[tuple[np.dtype, tuple[int, ...]]]],
                   list[np.ndarray] | None] | None = None,
) -> tuple[dict, list[np.ndarray]]:
    """Read one frame from ``sock``: ``(header, arrays)``; blocks until complete.

    The header comes back without its ``"buffers"`` declarations, the
    arrays in declaration order.  Once the header and its declarations
    passed every check, and before any buffer byte is read,
    ``into(header, [(dtype, shape), ...])`` (if given) may name one
    writable C-contiguous array per declaration to read the buffers
    into -- the coordinator reads a shard's uploads straight into its
    rows of the round matrix this way.  Without ``into``, or when it
    returns ``None``, each buffer gets a fresh array.  A frame that fails
    mid-buffer leaves the named arrays partly written.  Raises
    :class:`ConnectionError` when the peer hangs up, :class:`WireError`
    when the frame is not valid protocol and :class:`ValueError` when
    the named arrays do not match the declarations.
    """
    prefix = bytearray(_LENGTH.size)
    _recv_into(sock, memoryview(prefix), started=False)
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_HEADER_BYTES:
        raise WireError(
            f"peer announced a {length}-byte header, above the "
            f"{MAX_HEADER_BYTES}-byte limit"
        )
    body = bytearray(length)
    _recv_into(sock, memoryview(body))
    message = _parse_header(body)
    declared = _declared(message.pop("buffers", []))
    arrays = None if into is None else into(message, declared)
    if arrays is None:
        arrays = [np.empty(shape, dtype=dtype) for dtype, shape in declared]
    elif [(array.dtype, array.shape) for array in arrays] != declared or not all(
        array.flags.c_contiguous and array.flags.writeable for array in arrays
    ):
        raise ValueError("the destination arrays do not match the frame's declarations")
    for array in arrays:
        if array.nbytes:
            _recv_into(sock, memoryview(array).cast("B"))
    return message, arrays


# ---------------------------------------------------------------------- #
# the shard task and its result
# ---------------------------------------------------------------------- #
_INT = (int,)
_NUMBER = (int, float)

#: The fields of each JSON object in a task or result, with their types.
_TASK_FIELDS = {
    "kind": (str,), "index": _INT, "crashes": _INT, "retry": (dict,),
    "model": (list,), "engine": (str,), "dp": (dict,), "states": (list,),
}
_RETRY_FIELDS = {
    "max_attempts": _INT, "backoff_base": _NUMBER, "timeout": (*_NUMBER, type(None)),
}
_DP_FIELDS = {
    "batch_size": _INT, "sigma": _NUMBER, "momentum": _NUMBER,
    "bounding": (str,), "clip_norm": _NUMBER,
}
_STATE_FIELDS = {
    "bit_generator": (str,), "state": (dict,), "has_uint32": _INT, "uinteger": _INT,
}
_PCG64_FIELDS = {"state": _INT, "inc": _INT}
_FAILURE_FIELDS = {"index": _INT, "attempts": _INT, "error": (str,)}


def _fields(value: object, name: str, fields: dict[str, tuple[type, ...]]) -> dict:
    """``value`` if it is an object with exactly ``fields``, each of its types."""
    if not isinstance(value, dict) or value.keys() != fields.keys():
        raise WireError(f"{name} must be an object with fields {sorted(fields)}")
    for key, types in fields.items():
        if type(value[key]) not in types:
            raise WireError(
                f"{name}.{key} must be {' or '.join(t.__name__ for t in types)}, "
                f"got {type(value[key]).__name__}"
            )
    return value


def _config(cls: type, name: str, value: object, fields: dict[str, tuple[type, ...]]):
    """The ``cls`` config the object ``value`` describes (ints widen to floats)."""
    _fields(value, name, fields)
    try:
        return cls(**{
            key: float(item) if type(item) is int and float in fields[key] else item
            for key, item in value.items()
        })
    except (ValueError, OverflowError) as error:
        raise WireError(f"{name}: {error}") from error


def _rng_state(state: object) -> dict:
    """``state`` if it is a PCG64 ``bit_generator.state`` dict."""
    _fields(state, "state", _STATE_FIELDS)
    if state["bit_generator"] != "PCG64":
        raise WireError(f"unknown bit generator {state['bit_generator']!r}")
    inner = _fields(state["state"], "state.state", _PCG64_FIELDS)
    if not (
        0 <= inner["state"] < 1 << 128
        and 0 <= inner["inc"] < 1 << 128
        and state["has_uint32"] in (0, 1)
        and 0 <= state["uinteger"] < 1 << 32
    ):
        raise WireError("PCG64 state out of range")
    return state


def _expect(array: np.ndarray, name: str, dtype: type, shape: tuple[int, ...]) -> None:
    if array.dtype != dtype or array.shape != shape:
        raise WireError(
            f"{name} must be {np.dtype(dtype)} {shape}, got {array.dtype} {array.shape}"
        )


def encode_task(fn: Callable, item: tuple[int, object]) -> tuple[dict, list[np.ndarray]]:
    """The ``task`` header object and the buffers of one shard task.

    ``fn`` must be a worker pool's shard task under its retry loop (what
    :meth:`~repro.federated.backends.ExecutionBackend.resilient` returns
    for it) and ``item`` its ``(index, payload)`` pair.  Any other
    callable raises :class:`TypeError`: the wire carries no code.  The
    buffers are the payload's own arrays, not copies.
    """
    if not (isinstance(fn, _ResilientRunner) and fn.fn is _shard_task):
        raise TypeError(
            f"the remote backend runs only the worker pools' shard task, not {fn!r}"
        )
    index, payload = item
    dp, policy = payload.dp_config, fn.policy
    for state in payload.rng_states:
        if state["bit_generator"] != "PCG64":
            raise ValueError(
                f"remote workers run PCG64 generators, not {state['bit_generator']}"
            )
    task = {
        "kind": "shard",
        "index": int(index),
        "crashes": fn.crashes.get(index, 0),
        "retry": {
            "max_attempts": policy.max_attempts,
            "backoff_base": float(policy.backoff_base),
            "timeout": None if policy.timeout is None else float(policy.timeout),
        },
        "model": payload.model,
        "engine": payload.engine,
        "dp": {
            "batch_size": int(dp.batch_size),
            "sigma": float(dp.sigma),
            "momentum": float(dp.momentum),
            "bounding": dp.bounding,
            "clip_norm": float(dp.clip_norm),
        },
        "states": payload.rng_states,
    }
    return task, [payload.parameters, payload.features, payload.labels, payload.momentum]


def decode_task(
    message: dict, buffers: list[np.ndarray]
) -> tuple[Callable, tuple[int, object]]:
    """The ``(fn, item)`` pair a ``task`` message describes, checked field by field.

    ``fn(item)`` runs the shard task under the header's retry policy and
    returns what :func:`encode_result` sends back.  Raises
    :class:`WireError` for an unknown task kind, engine, layer or bit
    generator, a malformed field, or a buffer whose dtype or shape does
    not follow from the header: parameters ``(d,)`` with ``d`` the spec's
    parameter count (checked before any layer is built), features with
    workers x ``batch_size`` rows, labels in ``[0, classes)`` and momentum
    ``(n, d)``.
    """
    task = _fields(message.get("task"), "task", _TASK_FIELDS)
    if task["kind"] != "shard":
        raise WireError(f"unknown task kind {task['kind']!r}")
    index, crashes = task["index"], task["crashes"]
    if index < 0 or crashes < 0:
        raise WireError("task index and crash count must be non-negative")
    policy = _config(RetryPolicy, "task.retry", task["retry"], _RETRY_FIELDS)
    dp = _config(DPConfig, "task.dp", task["dp"], _DP_FIELDS)
    if task["engine"] not in ENGINES:
        raise WireError(f"unknown engine {task['engine']!r}")
    try:
        inputs, classes, dimension = spec_dimensions(task["model"])
    except ValueError as error:
        raise WireError(f"task.model: {error}") from error
    states = [_rng_state(state) for state in task["states"]]
    if not states:
        raise WireError("a shard task needs at least one worker state")
    if len(buffers) != 4:
        raise WireError(f"a shard task carries 4 buffers, got {len(buffers)}")
    parameters, features, labels, momentum = buffers
    rows = len(states) * dp.batch_size
    _expect(parameters, "parameters", np.float64, (dimension,))
    _expect(features, "features", np.float64, (rows, inputs))
    _expect(labels, "labels", np.int64, (rows,))
    _expect(momentum, "momentum", np.float64, (len(states), dimension))
    if labels.min() < 0 or labels.max() >= classes:
        raise WireError(f"labels must lie in [0, {classes})")
    payload = _ShardPayload(
        model=task["model"],
        engine=task["engine"],
        parameters=parameters,
        features=features,
        labels=labels,
        momentum=momentum,
        rng_states=states,
        dp_config=dp,
        out=None,
    )
    return _ResilientRunner(_shard_task, policy, crashes={index: crashes}), (index, payload)


def encode_result(result: object) -> tuple[dict, list[np.ndarray]]:
    """The ``result`` header fields and buffers of a finished shard task."""
    if isinstance(result, TaskFailure):
        failure = {"index": result.index, "attempts": result.attempts, "error": result.error}
        return {"failure": failure}, []
    uploads, states = result
    return {"states": states}, [uploads]


def decode_result(
    message: dict, buffers: list[np.ndarray], task: dict
) -> tuple[np.ndarray, list[dict]] | TaskFailure:
    """A ``result`` message, checked against the ``task`` that was dispatched.

    Returns ``(uploads, states)`` -- exactly ``(n, d)`` float64 uploads
    (the received buffer itself) and ``n`` PCG64 states for the shard's
    ``n`` workers and ``d`` parameters -- or the shard's
    :class:`TaskFailure`.  Anything else raises :class:`WireError`.
    """
    if "failure" in message:
        failure = _fields(message["failure"], "failure", _FAILURE_FIELDS)
        if (
            buffers
            or "states" in message
            or failure["index"] != task["index"]
            or not 1 <= failure["attempts"] <= task["retry"]["max_attempts"]
        ):
            raise WireError("a failure result names the dispatched shard and nothing else")
        return TaskFailure(**failure)
    workers = len(task["states"])
    states = message.get("states")
    if not isinstance(states, list) or len(states) != workers:
        raise WireError(f"a result carries {workers} generator states")
    if len(buffers) != 1:
        raise WireError(f"a result carries 1 buffer, got {len(buffers)}")
    _expect(buffers[0], "uploads", np.float64, (workers, spec_dimensions(task["model"])[2]))
    return buffers[0], [_rng_state(state) for state in states]
