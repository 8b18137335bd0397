"""Hostile frames: every malformed input fails typed, and nothing executes.

Covers :func:`~repro.federated.wire.recv_message` and the task and result
decoders against truncation, oversized lengths, buffer declarations that
disagree with dtype x shape, disallowed dtypes, every shape inconsistency
the decoders check, unknown names and legacy pickled ``blob`` frames.
Each case must raise :class:`~repro.federated.wire.WireError` or, on the
worker, produce an ``error`` reply.  A pickled sentinel rides along in
the hostile bytes; its reduction records any call and must never run.
"""

from __future__ import annotations

import base64
import copy
import json
import pickle
import socket
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federated.backends import TaskFailure
from repro.federated.service import _answer_task
from repro.federated.wire import (
    MAX_HEADER_BYTES,
    MAX_MESSAGE_BYTES,
    WireError,
    decode_result,
    decode_task,
    encode_result,
    encode_task,
    recv_message,
    send_message,
)
from tests.federated.test_service import shard_job

#: Every call the sentinel's reduction made; must stay empty.
CALLS: list = []


def _tripwire(*args):
    CALLS.append(args)


class Sentinel:
    """Unpickling this object calls :func:`_tripwire`."""

    def __reduce__(self):
        return _tripwire, ("sentinel unpickled",)


PICKLED = pickle.dumps(Sentinel())
# Pickling only builds the reduction; loading it would run the tripwire.
assert CALLS == []


@pytest.fixture(autouse=True)
def nothing_executes():
    yield
    assert CALLS == [], "a pickled payload was unpickled"


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def feed(raw: bytes):
    """``recv_message`` over a stream holding exactly ``raw``, then EOF."""
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(5.0)
        writer = threading.Thread(target=lambda: (left.sendall(raw), left.close()))
        writer.start()
        try:
            return recv_message(right)
        finally:
            writer.join()


def raw_frame(header: dict | bytes, tail: bytes = b"") -> bytes:
    body = header if isinstance(header, bytes) else json.dumps(header).encode()
    return struct.pack(">I", len(body)) + body + tail


def wire_bytes(message: dict, buffers=()) -> bytes:
    """The exact bytes ``send_message`` puts on the wire."""
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(5.0)

        def send():
            send_message(left, message, buffers)
            left.shutdown(socket.SHUT_WR)

        sender = threading.Thread(target=send)
        sender.start()
        chunks = []
        while chunk := right.recv(1 << 16):
            chunks.append(chunk)
        sender.join()
        return b"".join(chunks)


@pytest.fixture(scope="module")
def job():
    """One valid two-worker shard task: ``(fn, item, header, buffers, expected)``."""
    fn, items, expected = shard_job(2, seed=5, hidden=5)
    # One task over both workers' rows exercises n > 1 in every check.
    (_, first), (_, second) = items
    item = (0, replace(
        first,
        features=np.concatenate([first.features, second.features]),
        labels=np.concatenate([first.labels, second.labels]),
        momentum=np.concatenate([first.momentum, second.momentum]),
        rng_states=first.rng_states + second.rng_states,
    ))
    header, buffers = encode_task(fn, item)
    return fn, item, header, buffers, expected


def task_message(header):
    return {"type": "task", "task_id": 1, "task": header}


def assert_refused(message, buffers, match=None):
    """The decoder raises WireError and the worker answers with an error."""
    with pytest.raises(WireError, match=match):
        decode_task(message, buffers)
    reply, out = _answer_task(1, message, buffers)
    assert reply["type"] == "error" and out == []
    assert reply["error"].startswith("WireError")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=12,
)


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
class TestFraming:
    def test_truncation_at_every_offset(self, job):
        _, _, header, buffers, _ = job
        raw = wire_bytes(task_message(header), buffers)
        message, arrays = feed(raw)
        assert message["task"] == header and len(arrays) == 4
        with pytest.raises(ConnectionError):
            feed(b"")
        for cut in range(1, len(raw)):
            with pytest.raises(WireError):
                feed(raw[:cut])

    @given(length=st.integers(MAX_HEADER_BYTES + 1, (1 << 32) - 1))
    @settings(max_examples=25, deadline=None)
    def test_oversized_header_length(self, length):
        # Only the length arrives: reading on would block, not raise.
        with pytest.raises(WireError, match="above the"):
            feed(struct.pack(">I", length))

    @given(body=st.binary(max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_header_bytes(self, body):
        try:
            message, arrays = feed(raw_frame(body))
        except WireError:
            return
        assert isinstance(message, dict)

    @given(header=st.dictionaries(st.sampled_from(["type", "buffers", "task_id", "blob"]),
                                  json_values, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_json_headers_fail_typed(self, header):
        try:
            message, arrays = feed(raw_frame(header))
        except WireError:
            return
        assert message["type"] in {"hello", "welcome", "task", "result", "error",
                                   "heartbeat", "shutdown"}
        assert "blob" not in message
        if message["type"] == "task":
            try:
                decode_task(message, arrays)
            except WireError:
                pass

    @given(
        dtype=st.sampled_from(["<f8", "<i8"]),
        shape=st.lists(st.integers(0, 6), max_size=2),
        skew=st.integers(-64, 64).filter(bool),
    )
    @settings(max_examples=40, deadline=None)
    def test_declared_size_disagrees_with_dtype_times_shape(self, dtype, shape, skew):
        nbytes = 8 * int(np.prod(shape)) + skew
        header = {"type": "result",
                  "buffers": [{"dtype": dtype, "shape": shape, "nbytes": nbytes}]}
        with pytest.raises(WireError, match="declares"):
            feed(raw_frame(header, b"\0" * max(nbytes, 0)))

    @pytest.mark.parametrize("shape", [
        [1 << 27, 1 << 20],            # 1 PiB, consistently declared
        [0, 1 << 62],                  # empty, but numpy refuses the shape
        [MAX_MESSAGE_BYTES // 8 + 1],  # one element over the limit
    ])
    def test_huge_declarations_refused_before_allocation(self, shape):
        nbytes = 8 * int(np.prod(shape, dtype=object))
        header = {"type": "result",
                  "buffers": [{"dtype": "<f8", "shape": shape, "nbytes": nbytes}]}
        with pytest.raises(WireError, match="limit"):
            feed(raw_frame(header))

    @pytest.mark.parametrize("dtype", [
        "<f4", ">f8", ">i8", "|u1", "<c16", "|O", "object", "<M8[s]", "V8", "|S8", "",
    ])
    def test_disallowed_dtypes(self, dtype):
        header = {"type": "result",
                  "buffers": [{"dtype": dtype, "shape": [1], "nbytes": 8}]}
        with pytest.raises(WireError, match="dtype"):
            feed(raw_frame(header, b"\0" * 8))

    @pytest.mark.parametrize("declaration", [
        "not a list", [1], [{"dtype": "<f8", "shape": [1]}],
        [{"dtype": "<f8", "shape": [1], "nbytes": 8, "extra": 0}],
        [{"dtype": "<f8", "shape": [1, 1, 1], "nbytes": 8}],
        [{"dtype": "<f8", "shape": [-1], "nbytes": -8}],
        [{"dtype": "<f8", "shape": [True], "nbytes": 8}],
        [{"dtype": "<f8", "shape": "1", "nbytes": 8}],
        [{"dtype": "<f8", "shape": [1], "nbytes": 8.0}],
        [{"dtype": "<f8", "shape": [1], "nbytes": 8}] * 5,
    ])
    def test_malformed_buffer_declarations(self, declaration):
        with pytest.raises(WireError):
            feed(raw_frame({"type": "result", "buffers": declaration}, b"\0" * 40))

    def test_legacy_blob_frame(self):
        blob = base64.b64encode(pickle.dumps((Sentinel(), Sentinel()))).decode()
        for kind in ("task", "result"):
            with pytest.raises(WireError, match="protocol 1"):
                feed(raw_frame({"type": kind, "task_id": 1, "blob": blob}))

    def test_pickle_bytes_in_every_position(self):
        """Pickled bytes as a header, as a buffer or inside JSON stay inert."""
        with pytest.raises(WireError):
            feed(raw_frame(PICKLED))
        padded = PICKLED + b"\0" * (-len(PICKLED) % 8)
        header = {"type": "result", "buffers": [
            {"dtype": "<f8", "shape": [len(padded) // 8], "nbytes": len(padded)}]}
        _, (array,) = feed(raw_frame(header, padded))
        assert array.tobytes() == padded  # plain floats, never unpickled
        text = {"type": "heartbeat", "note": base64.b64encode(PICKLED).decode()}
        assert feed(raw_frame(text))[0]["note"] == text["note"]


# ---------------------------------------------------------------------- #
# the worker's task decoder
# ---------------------------------------------------------------------- #
def mutated(header, path, value):
    header = copy.deepcopy(header)
    target = header
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return header


class TestTaskDecoder:
    def test_the_valid_task_decodes_and_runs(self, job):
        _, _, header, buffers, _ = job
        reply, out = _answer_task(1, task_message(header), buffers)
        assert reply["type"] == "result" and len(out) == 1

    def test_features_rows_must_be_workers_times_batch(self, job):
        _, _, header, (parameters, features, labels, momentum), _ = job
        assert_refused(task_message(header), [parameters, features[:-4], labels, momentum],
                       match="features")
        wide = np.zeros((features.shape[0], features.shape[1] + 1))
        assert_refused(task_message(header), [parameters, wide, labels, momentum],
                       match="features")

    @pytest.mark.parametrize("bad", [-1, 3, 1 << 40])
    def test_labels_must_lie_in_range(self, job, bad):
        _, _, header, (parameters, features, labels, momentum), _ = job
        corrupt = labels.copy()
        corrupt[-1] = bad
        assert_refused(task_message(header), [parameters, features, corrupt, momentum],
                       match="labels must lie")

    def test_labels_must_be_integers(self, job):
        _, _, header, (parameters, features, labels, momentum), _ = job
        assert_refused(task_message(header),
                       [parameters, features, labels.astype(np.float64), momentum],
                       match="labels")

    def test_momentum_must_be_workers_by_parameters(self, job):
        _, _, header, (parameters, features, labels, momentum), _ = job
        for bad in (momentum[:1], momentum[:, :-1], momentum.reshape(-1)):
            assert_refused(task_message(header), [parameters, features, labels, bad],
                           match="momentum")

    def test_parameters_must_match_the_spec_count(self, job):
        _, _, header, (parameters, features, labels, momentum), _ = job
        assert_refused(task_message(header), [parameters[:-1], features, labels, momentum],
                       match="parameters")

    def test_parameter_count_checked_before_any_layer_is_built(self, job):
        _, _, header, buffers, _ = job
        # Building this spec would allocate ~8 TB of weights.
        huge = mutated(header, ["model"], [
            {"layer": "Linear", "in_features": 8, "out_features": 1 << 40}])
        assert_refused(task_message(huge), buffers, match="parameters")

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_buffer_count(self, job, count):
        _, _, header, buffers, _ = job
        assert_refused(task_message(header), (list(buffers) * 2)[:count], match="buffers")

    def test_a_protocol_2_task_is_refused(self, job):
        """Protocol 2 sent the engine with options and a retry jitter and seed."""
        _, _, header, buffers, _ = job
        stale = {
            **header,
            "engine": {"name": "materialized", "options": {}},
            "retry": {"max_attempts": 1, "backoff_base": 0.0, "backoff_jitter": 0.0,
                      "timeout": None, "seed": 0},
        }
        assert_refused(task_message(stale), buffers, match="task.engine")
        assert_refused(task_message({**stale, "engine": "materialized"}), buffers,
                       match="task.retry")

    @pytest.mark.parametrize("path, value, match", [
        (["kind"], "exec", "unknown task kind"),
        (["kind"], "pickle", "unknown task kind"),
        (["engine"], "os.system", "unknown engine"),
        (["model", 0, "layer"], "Lambda", "unknown layer"),
        (["model", 1, "layer"], "__import__", "unknown layer"),
        (["states", 0, "bit_generator"], "MT19937", "unknown bit generator"),
        (["states", 1, "bit_generator"], "seed", "unknown bit generator"),
    ])
    def test_unknown_names(self, job, path, value, match):
        _, _, header, buffers, _ = job
        assert_refused(task_message(mutated(header, path, value)), buffers, match=match)

    @pytest.mark.parametrize("path, value", [
        (["index"], -1), (["crashes"], -2), (["index"], 1.5), (["crashes"], True),
        (["dp", "batch_size"], 0), (["dp", "batch_size"], 4.0), (["dp", "sigma"], -1.0),
        (["dp", "momentum"], 1.0), (["dp", "bounding"], "none"), (["dp", "sigma"], 10**400),
        (["retry", "max_attempts"], 0), (["retry", "timeout"], -1.0),
        (["states"], []), (["states", 0, "state", "inc"], -1),
        (["states", 0, "state", "state"], 1 << 128), (["states", 0, "has_uint32"], 2),
        (["states", 0, "uinteger"], 1 << 32), (["states", 0, "state"], "0"),
        (["engine"], {}), (["model"], {}), (["model", 0, "in_features"], 0),
    ])
    def test_malformed_fields(self, job, path, value):
        _, _, header, buffers, _ = job
        assert_refused(task_message(mutated(header, path, value)), buffers)

    @pytest.mark.parametrize("message", [
        {"type": "task", "task_id": 1},
        {"type": "task", "task_id": 1, "task": None},
        {"type": "task", "task_id": 1, "task": [1, 2]},
    ])
    def test_missing_task(self, job, message):
        _, _, _, buffers, _ = job
        assert_refused(message, buffers, match="task")

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_field_mutation_decodes_or_fails_typed(self, job, data):
        _, _, header, buffers, _ = job
        paths = [
            [key] for key in header
        ] + [
            [key, sub] for key in ("retry", "dp") for sub in header[key]
        ] + [
            ["model", index, key] for index, layer in enumerate(header["model"])
            for key in layer
        ] + [
            ["states", 0, key] for key in header["states"][0]
        ]
        path = data.draw(st.sampled_from(paths))
        value = data.draw(json_values)
        try:
            decode_task(task_message(mutated(header, path, value)), list(buffers))
        except WireError:
            pass


# ---------------------------------------------------------------------- #
# the coordinator's result decoder
# ---------------------------------------------------------------------- #
class TestResultDecoder:
    def decoded_result(self, job):
        _, _, header, _, _ = job
        fn, item = decode_task(task_message(header), list(job[3]))
        return header, fn(item)

    def test_the_valid_result_decodes(self, job):
        header, result = self.decoded_result(job)
        fields, out = encode_result(result)
        uploads, states = decode_result({"type": "result", **fields}, out, header)
        np.testing.assert_array_equal(uploads, result[0])
        assert states == result[1]

    @pytest.mark.parametrize("change", [
        "rows", "columns", "flat", "integers", "no buffer", "extra buffer",
        "fewer states", "more states", "no states", "bad state",
    ])
    def test_anything_but_n_by_d_float_uploads_and_n_states(self, job, change):
        header, (uploads, states) = self.decoded_result(job)
        buffers, fields = [uploads], {"states": states}
        if change == "rows":
            buffers = [uploads[:1]]
        elif change == "columns":
            buffers = [uploads[:, 1:]]
        elif change == "flat":
            buffers = [uploads.reshape(-1)]
        elif change == "integers":
            buffers = [uploads.astype(np.int64)]
        elif change == "no buffer":
            buffers = []
        elif change == "extra buffer":
            buffers = [uploads, uploads]
        elif change == "fewer states":
            fields = {"states": states[:1]}
        elif change == "more states":
            fields = {"states": states * 2}
        elif change == "no states":
            fields = {}
        else:
            fields = {"states": [states[0], {**states[1], "bit_generator": "MT19937"}]}
        with pytest.raises(WireError):
            decode_result({"type": "result", **fields}, buffers, header)

    @pytest.mark.parametrize("failure", [
        {"index": 1, "attempts": 1, "error": "not my shard"},
        {"index": 0, "attempts": 0, "error": "no attempt"},
        {"index": 0, "attempts": 99, "error": "beyond the policy"},
        {"index": 0, "attempts": 1},
        {"index": 0, "attempts": 1, "error": 7},
        "crashed",
    ])
    def test_malformed_failures(self, job, failure):
        _, _, header, _, _ = job
        with pytest.raises(WireError):
            decode_result({"type": "result", "failure": failure}, [], header)

    def test_failure_carries_nothing_else(self, job):
        header, (uploads, states) = self.decoded_result(job)
        failure = encode_result(TaskFailure(index=0, attempts=1, error="x"))[0]
        with pytest.raises(WireError):
            decode_result({"type": "result", **failure}, [uploads], header)
        with pytest.raises(WireError):
            decode_result({"type": "result", **failure, "states": states}, [], header)

    @given(fields=st.dictionaries(st.sampled_from(["states", "failure", "extra"]),
                                  json_values, max_size=3))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_result_fields_fail_typed(self, job, fields):
        _, _, header, _, _ = job
        try:
            decode_result({"type": "result", **fields}, [], header)
        except WireError:
            pass
