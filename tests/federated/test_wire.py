"""Tests for the typed frames of service mode: framing and the shard-task codec."""

import ast
import inspect
import json
import socket
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.federated import service, wire, worker
from repro.federated.backends import ExecutionBackend, RetryPolicy, TaskFailure
from repro.federated.wire import (
    MAX_HEADER_BYTES,
    WireError,
    decode_result,
    decode_task,
    encode_result,
    encode_task,
    recv_message,
    send_message,
)
from tests.federated.test_backends import make_pool, make_shards
from tests.federated.test_service import assert_results, shard_job
from tests.helpers import make_model_and_data


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    right.settimeout(10.0)
    yield left, right
    left.close()
    right.close()


def send_raw(sock, header: bytes, tail: bytes = b"") -> None:
    sock.sendall(struct.pack(">I", len(header)) + header + tail)


def through(pair, message, buffers=()):
    """``message`` and ``buffers`` after one trip over the socket pair."""
    left, right = pair
    sender = threading.Thread(target=send_message, args=(left, message, buffers))
    sender.start()
    received = recv_message(right)
    sender.join()
    return received


class TestMessageRoundTrip:
    def test_simple_message(self, pair):
        assert through(pair, {"type": "heartbeat"}) == ({"type": "heartbeat"}, [])

    def test_preserves_fields_and_order_independence(self, pair):
        message = {"type": "task", "task_id": 7, "nested": {"a": [1, 2]}}
        assert through(pair, message) == (message, [])

    def test_multiple_messages_in_sequence(self, pair):
        left, right = pair
        for index in range(5):
            send_message(left, {"type": "task", "task_id": index})
        received = [recv_message(right)[0]["task_id"] for _ in range(5)]
        assert received == list(range(5))

    def test_large_message(self, pair):
        array = np.arange(500_000, dtype=np.float64)
        message, (received,) = through(pair, {"type": "result"}, [array])
        assert message == {"type": "result"}
        np.testing.assert_array_equal(received, array)

    def test_unicode_payload(self, pair):
        message, _ = through(pair, {"type": "hello", "worker": "wörker-π"})
        assert message["worker"] == "wörker-π"

    def test_buffers_arrive_in_order_with_their_dtypes(self, pair):
        rng = np.random.default_rng(0)
        arrays = [
            rng.standard_normal((7, 13)),
            rng.integers(-5, 5, size=9),
            np.empty((0, 4)),
            np.asarray(2.5),
        ]
        _, received = through(pair, {"type": "result"}, arrays)
        assert [array.dtype.str for array in received] == ["<f8", "<i8", "<f8", "<f8"]
        for array, copy in zip(arrays, received):
            assert copy.shape == array.shape
            np.testing.assert_array_equal(copy, array)

    def test_byte_count_covers_the_whole_frame(self, pair):
        left, right = pair
        array = np.ones((3, 4))
        sent = send_message(left, {"type": "result"}, [array])
        left.close()
        raw = b""
        while chunk := right.recv(1 << 16):
            raw += chunk
        assert sent == len(raw)
        assert sent > array.nbytes

    def test_row_views_round_trip(self, pair):
        rows = np.arange(20.0).reshape(5, 4)
        _, (received,) = through(pair, {"type": "result"}, [rows[1:3]])
        np.testing.assert_array_equal(received, rows[1:3])

    @pytest.mark.parametrize("dtype", [np.float32, np.int32, np.complex128, object])
    def test_send_refuses_other_dtypes(self, pair, dtype):
        left, _ = pair
        with pytest.raises(TypeError, match="float64 and int64"):
            send_message(left, {"type": "result"}, [np.zeros(3, dtype=dtype)])


class TestDestinations:
    """``recv_message(sock, into)`` reads buffers into arrays its caller names."""

    def test_buffers_land_in_the_named_arrays(self, pair):
        left, right = pair
        matrix = np.zeros((6, 4))
        sent = [np.arange(12.0).reshape(3, 4), np.arange(3)]
        asked = []

        def into(message, declared):
            asked.append((message, declared))
            return [matrix[2:5], np.empty(3, dtype=np.int64)]

        send_message(left, {"type": "result", "task_id": 4}, sent)
        message, (rows, labels) = recv_message(right, into)
        assert message == {"type": "result", "task_id": 4}
        assert asked == [(message, [(np.dtype("<f8"), (3, 4)), (np.dtype("<i8"), (3,))])]
        assert np.shares_memory(rows, matrix)
        np.testing.assert_array_equal(matrix[2:5], sent[0])
        np.testing.assert_array_equal(labels, sent[1])
        assert not matrix[[0, 1, 5]].any()

    def test_none_means_fresh_arrays(self, pair):
        left, right = pair
        send_message(left, {"type": "result"}, [np.ones((2, 3))])
        _, (received,) = recv_message(right, lambda message, declared: None)
        np.testing.assert_array_equal(received, np.ones((2, 3)))

    def test_declarations_are_checked_before_the_caller_is_asked(self, pair):
        left, right = pair
        header = json.dumps({"type": "result", "buffers": [
            {"dtype": "<f8", "shape": [2, 3], "nbytes": 47},
        ]}).encode()
        send_raw(left, header)

        def into(message, declared):  # pragma: no cover - must not run
            raise AssertionError("asked before the declarations were checked")

        with pytest.raises(WireError, match="declares 47 bytes"):
            recv_message(right, into)

    @pytest.mark.parametrize("named", [
        [np.zeros((3, 2))],  # wrong shape
        [np.zeros((2, 3), dtype=np.int64)],  # wrong dtype
        [np.zeros((3, 2)).T],  # not C-contiguous
        [np.zeros((2, 3)), np.zeros(1)],  # one array too many
    ])
    def test_mismatched_arrays_are_refused_before_any_byte(self, pair, named):
        left, right = pair
        send_message(left, {"type": "result"}, [np.ones((2, 3))])
        with pytest.raises(ValueError, match="declarations"):
            recv_message(right, lambda message, declared: named)
        assert not any(array.any() for array in named)


class TestFraming:
    def test_eof_mid_frame_raises_connection_error(self, pair):
        left, right = pair
        body = b'{"type": "heartbeat"}'
        left.sendall(struct.pack(">I", len(body)) + body[:5])
        left.close()
        with pytest.raises(WireError, match="mid-frame"):
            recv_message(right)

    def test_eof_before_header_raises_connection_error(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(ConnectionError) as excinfo:
            recv_message(right)
        assert not isinstance(excinfo.value, WireError)  # a clean hang-up

    def test_oversized_frame_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", MAX_HEADER_BYTES + 1))
        with pytest.raises(WireError, match="above the"):
            recv_message(right)

    def test_invalid_json_rejected(self, pair):
        left, right = pair
        send_raw(left, b"not json at all")
        with pytest.raises(WireError):
            recv_message(right)

    def test_non_object_json_rejected(self, pair):
        left, right = pair
        send_raw(left, b"[1, 2, 3]")
        with pytest.raises(WireError):
            recv_message(right)

    def test_object_without_type_rejected(self, pair):
        left, right = pair
        send_raw(left, b'{"task_id": 1}')
        with pytest.raises(WireError, match="type"):
            recv_message(right)

    @pytest.mark.parametrize("kind", ['"exec"', '"pickle"', "7", '["task"]', "null"])
    def test_unknown_message_type_rejected(self, pair, kind):
        left, right = pair
        send_raw(left, b'{"type": %s}' % kind.encode())
        with pytest.raises(WireError, match="unknown message type"):
            recv_message(right)

    def test_legacy_blob_rejected(self, pair):
        left, right = pair
        send_raw(left, b'{"type": "task", "task_id": 1, "blob": "gASVAAAA"}')
        with pytest.raises(WireError, match="protocol 1"):
            recv_message(right)

    @pytest.mark.parametrize("constant", [b"NaN", b"Infinity", b"-Infinity"])
    def test_non_json_numbers_rejected(self, pair, constant):
        left, right = pair
        send_raw(left, b'{"type": "heartbeat", "x": %s}' % constant)
        with pytest.raises(WireError, match="not valid JSON"):
            recv_message(right)

    def test_declared_size_must_equal_dtype_times_shape(self, pair):
        left, right = pair
        header = {"type": "result", "buffers": [
            {"dtype": "<f8", "shape": [2, 3], "nbytes": 40},
        ]}
        send_raw(left, json.dumps(header).encode(), b"\0" * 40)
        with pytest.raises(WireError, match="declares 40 bytes"):
            recv_message(right)

    def test_wire_error_is_a_connection_error(self):
        # The coordinator and worker loops catch ConnectionError for every
        # way a peer can go bad; protocol violations must flow through it.
        assert issubclass(WireError, ConnectionError)


class TestTypedFrames:
    """Tasks and results survive the wire exactly: arrays, states, failures."""

    def test_task_round_trips_bitwise(self, pair):
        fn, items, expected = shard_job(2, seed=3)
        index, payload = items[1]
        header, buffers = encode_task(fn, items[1])
        message, received = through(
            pair, {"type": "task", "task_id": 4, "task": header}, buffers
        )
        decoded_fn, (decoded_index, decoded) = decode_task(message, received)
        assert decoded_index == index == 1
        for name in ("parameters", "features", "labels", "momentum"):
            original, copy = getattr(payload, name), getattr(decoded, name)
            assert copy.dtype == original.dtype
            np.testing.assert_array_equal(copy, original)
        assert decoded.rng_states == payload.rng_states
        assert decoded.dp_config == payload.dp_config
        assert decoded.model == payload.model
        assert decoded.engine == payload.engine
        assert decoded_fn.policy == fn.policy
        assert_results([decoded_fn((decoded_index, decoded))], expected[1:])

    def test_buffers_are_the_payload_arrays_not_copies(self):
        fn, items, _ = shard_job(1)
        _, payload = items[0]
        _, buffers = encode_task(fn, items[0])
        assert buffers[1] is payload.features
        assert buffers[3] is payload.momentum

    def test_result_round_trips_uploads_and_states(self, pair):
        fn, items, expected = shard_job(1)
        header, _ = encode_task(fn, items[0])
        fields, buffers = encode_result(expected[0])
        message, received = through(pair, {"type": "result", "task_id": 1, **fields}, buffers)
        assert_results([decode_result(message, received, header)], expected)

    def test_task_failure_round_trips_intact(self, pair):
        fn, items, _ = shard_job(1, policy=RetryPolicy(max_attempts=2))
        header, _ = encode_task(fn, items[0])
        failure = TaskFailure(index=0, attempts=2, error="injected shard crash (attempt 2)")
        fields, buffers = encode_result(failure)
        assert buffers == []
        message, received = through(pair, {"type": "result", "task_id": 1, **fields}, buffers)
        assert decode_result(message, received, header) == failure

    def test_crash_schedule_and_retry_policy_replay_remotely(self, pair):
        fn, items, expected = shard_job(
            2, policy=RetryPolicy(max_attempts=3), crashes=(0, 2)
        )
        header, buffers = encode_task(fn, items[1])
        assert header["crashes"] == 2
        message, received = through(pair, {"type": "task", "task_id": 1, "task": header},
                                    buffers)
        decoded_fn, item = decode_task(message, received)
        assert decoded_fn.crashes == {1: 2}
        assert_results([decoded_fn(item)], expected[1:])

    def test_exhausted_crash_schedule_comes_back_as_task_failure(self, pair):
        fn, items, _ = shard_job(1, policy=RetryPolicy(max_attempts=2), crashes=(2,))
        header, buffers = encode_task(fn, items[0])
        message, received = through(pair, {"type": "task", "task_id": 1, "task": header},
                                    buffers)
        decoded_fn, item = decode_task(message, received)
        failure = decoded_fn(item)
        assert isinstance(failure, TaskFailure)
        fields, out = encode_result(failure)
        message, received = through(pair, {"type": "result", "task_id": 1, **fields}, out)
        assert decode_result(message, received, header) == failure

    def test_encode_task_refuses_any_other_callable(self):
        fn, items, _ = shard_job(1)
        backend = ExecutionBackend()
        for other in (print, lambda item: item, backend.resilient(print, RetryPolicy())):
            with pytest.raises(TypeError, match="shard task"):
                encode_task(other, items[0])

    def test_encode_task_refuses_other_bit_generators(self):
        fn, items, _ = shard_job(1)
        index, payload = items[0]
        state = np.random.Generator(np.random.Philox(1)).bit_generator.state
        with pytest.raises(ValueError, match="PCG64"):
            encode_task(fn, (index, replace(payload, rng_states=[state])))


class _WireLoop(ExecutionBackend):  # repro-lint: disable=REP004 -- test double, constructed directly
    """Every shard task and result makes a full trip through typed frames."""

    in_process = False

    def map_ordered(self, fn, items):
        results = []
        left, right = socket.socketpair()
        with left, right:
            for item in items:
                header, buffers = encode_task(fn, item)
                sender = threading.Thread(target=send_message, args=(
                    left, {"type": "task", "task_id": 0, "task": header}, buffers))
                sender.start()
                task_fn, task_item = decode_task(*recv_message(right))
                sender.join()
                fields, out = encode_result(task_fn(task_item))
                sender = threading.Thread(target=send_message, args=(
                    right, {"type": "result", "task_id": 0, **fields}, out))
                sender.start()
                results.append(decode_result(*recv_message(left), header))
                sender.join()
        return results


class TestPoolsThroughTheCodec:
    @pytest.mark.parametrize("engine", ["materialized", "ghost_norm"])
    @pytest.mark.parametrize("hidden", [None, 5])
    def test_pool_bitwise_identical_to_serial(self, engine, hidden):
        model, _ = make_model_and_data(seed=2, hidden=hidden)
        shards = make_shards(5, seed=3)
        config = DPConfig(batch_size=4, sigma=0.9, momentum=0.2)
        serial = make_pool(shards, config, engine=engine)
        wired = make_pool(shards, config, engine=engine, shard_size=2, backend=_WireLoop())
        for round_index in range(3):
            np.testing.assert_array_equal(
                wired.compute_uploads(model),
                serial.compute_uploads(model),
                err_msg=f"round {round_index}",
            )
        for left, right in zip(wired.rngs, serial.rngs):
            assert left.bit_generator.state == right.bit_generator.state


@pytest.mark.parametrize("module", [wire, service, worker])
def test_no_pickle_on_the_wire_path(module):
    """Nothing a peer sends can reach a deserializer that runs code."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert not imported & {"pickle", "base64", "marshal", "shelve"}
