#!/usr/bin/env python
"""Multi-process CI assertions for service mode (``repro serve``/``worker``).

The service-mode tests in ``tests/federated/test_service.py`` exercise the
coordinator with in-process worker threads; this script is what the
``service-smoke`` CI job runs to pin the *process-level* guarantees with
real ``kill -9``:

- ``identity``: the seeded acceptance run over ``--backend remote``
  (a coordinator plus 4 worker processes) must print byte-identical
  output to ``--backend serial``, and a seeded chaos run must replay the
  identical per-round fault trace over the wire.  A population run
  (cohort sampling plus the label-flipping attack's own pool, served to
  2 workers) must print byte-identical output to ``--backend serial``
  too.
- ``worker-kill``: SIGKILL one of 4 workers mid-task; the round must
  degrade to a partial cohort (``fault_crashed`` in the metrics) and the
  run still completes under the fractional quorum.
- ``coordinator-restart``: SIGKILL the coordinator mid-training of a
  ``chaos`` run with buffered stragglers; a restarted coordinator
  auto-resumes from its ``--state-dir`` snapshot (late reports still
  pending included), the surviving workers re-register, and the final
  model is **bitwise identical** to an uninterrupted in-process run.
  ``repro run --resume-from`` then resumes the served state dir, from
  its round-1 snapshot and from the directory itself, and must print the
  uninterrupted run's stdout byte for byte.
- ``observability``: enabling ``--trace-out`` leaves the CLI output and
  metrics byte-identical; a ``--status-port`` endpoint serves live
  ``/healthz``/``/status``/``/metrics`` mid-run, ``repro admin`` drains
  a worker (which stops receiving new tasks) and pauses/resumes the
  dispatch loop, and the drained run still prints output byte-identical
  to the serial reference.
- ``hostile-peer``: while a seeded ``repro serve --workers 2`` run is
  live, raw sockets send an oversized length, a non-JSON body, a hello
  of the previous protocol version and a truncated frame, and a fake
  worker registers and answers its tasks once with a wrong-shape
  result, once with an extra buffer and once with a truncated upload:
  it declares exactly the ``(n, d)`` float64 upload its shard expects,
  sends half of its bytes and hangs up, so the coordinator's receive
  into the round matrix dies mid-buffer.  The coordinator must hang up on each of them, retry their
  tasks, name both protocol versions on stderr, exit 0, and print stdout
  and metrics byte-identical to ``--backend serial``.

Run::

    python benchmarks/check_service.py identity
    python benchmarks/check_service.py worker-kill
    python benchmarks/check_service.py coordinator-restart
    python benchmarks/check_service.py observability
    python benchmarks/check_service.py hostile-peer
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ACCEPTANCE_FLAGS = [
    "--attack", "lmp", "--defense", "two_stage", "--seed", "1", "--epochs", "2",
]
CHAOS_FLAGS = [
    *ACCEPTANCE_FLAGS, "--faults", "chaos", "--min-quorum", "0.25",
    "--shard-size", "4",
]
POPULATION_FLAGS = [
    "--dataset", "usps_like", "--population", "2000", "--cohort", "16",
    "--byzantine", "0.2", "--attack", "label_flip", "--epochs", "2", "--seed", "1",
]


def _env() -> dict[str, str]:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def spawn(*args: str, stderr: int = subprocess.STDOUT) -> subprocess.Popen:
    """Start ``python -m repro <args>`` with stdout (and stderr) captured."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=stderr,
        text=True, env=_env(), cwd=REPO,
    )


def start_workers(port: int, count: int, **extra: str) -> list[subprocess.Popen]:
    flags = [item for pair in extra.items() for item in pair]
    return [
        spawn("worker", "--port", str(port), "--name", f"smoke-{index}",
              "--reconnect-timeout", "120", *flags)
        for index in range(count)
    ]


def finish(process: subprocess.Popen, timeout: float = 300.0) -> str:
    """Wait for a captured process; returns stdout, dies loudly on rc != 0."""
    try:
        output, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
        raise SystemExit(
            f"process {process.args} timed out after {timeout}s:\n{output}"
        )
    if process.returncode != 0:
        raise SystemExit(
            f"process {process.args} exited {process.returncode}:\n{output}"
        )
    return output


def reap(workers: list[subprocess.Popen]) -> None:
    """Workers must exit 0: the coordinator notified them on shutdown."""
    for worker in workers:
        output = finish(worker, timeout=60.0)
        sys.stdout.write(output)


VOLATILE_MARKERS = (
    "per-round metrics written to",  # echoes the caller-chosen path
    "coordinator listening on",      # serve-only banner with a random port
    "status endpoint on",            # serve-only banner with a random port
)


def strip_volatile(output: str) -> str:
    """Drop the lines that legitimately differ between invocations."""
    return "\n".join(
        line for line in output.splitlines()
        if not any(marker in line for marker in VOLATILE_MARKERS)
    )


def assert_identical(label: str, reference: str, candidate: str) -> None:
    if reference != candidate:
        raise SystemExit(
            f"{label}: outputs differ\n--- reference ---\n{reference}\n"
            f"--- candidate ---\n{candidate}"
        )
    print(f"{label}: byte-identical")


def remote_config(
    path: Path, port: int, workers: int, chaos: bool, population: bool = False
) -> Path:
    """The acceptance config (or ``POPULATION_FLAGS``' run) with the remote backend."""
    sys.path.insert(0, str(SRC))
    from repro.experiments.presets import benchmark_preset

    if population:
        scenario = dict(
            dataset="usps_like", byzantine_fraction=0.2, attack="label_flip",
            population=2000, cohort=16,
        )
    else:
        scenario = dict(dataset="mnist_like", byzantine_fraction=0.6, attack="lmp")
    config = benchmark_preset(
        **scenario,
        defense="two_stage", epsilon=2.0, seed=1, epochs=2,
        shard_size=4 if chaos else None,
        faults="chaos" if chaos else "none",
        min_quorum=0.25 if chaos else 1,
        backend="remote",
        backend_kwargs={"port": port, "max_workers": workers},
    )
    path.write_text(config.to_json())
    return path


def command_identity(arguments: argparse.Namespace) -> int:
    workdir = Path(arguments.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    # Plain acceptance run: remote output must match serial byte for byte.
    serial = finish(spawn("run", *ACCEPTANCE_FLAGS, "--backend", "serial"))
    port = free_port()
    config = remote_config(workdir / "remote.json", port, 4, chaos=False)
    coordinator = spawn("run", "--config", str(config))
    workers = start_workers(port, 4)
    remote = finish(coordinator)
    reap(workers)
    assert_identical("acceptance run", serial, remote)

    # Chaos run: the seeded fault trace replays bitwise over the wire.
    serial_metrics = workdir / "chaos-serial.jsonl"
    remote_metrics = workdir / "chaos-remote.jsonl"
    serial = finish(spawn(
        "run", *CHAOS_FLAGS, "--metrics-out", str(serial_metrics)
    ))
    port = free_port()
    config = remote_config(workdir / "remote-chaos.json", port, 4, chaos=True)
    coordinator = spawn(
        "run", "--config", str(config), "--metrics-out", str(remote_metrics)
    )
    workers = start_workers(port, 4)
    remote = finish(coordinator)
    reap(workers)
    assert_identical(
        "chaos run", strip_volatile(serial), strip_volatile(remote)
    )
    assert_identical(
        "chaos fault trace",
        serial_metrics.read_text(), remote_metrics.read_text(),
    )

    # Population run: a sampled cohort and a Byzantine pool over the wire.
    serial = finish(spawn("run", *POPULATION_FLAGS, "--backend", "serial"))
    port = free_port()
    config = remote_config(
        workdir / "remote-population.json", port, 2, chaos=False, population=True
    )
    coordinator = spawn("run", "--config", str(config))
    workers = start_workers(port, 2)
    remote = finish(coordinator)
    reap(workers)
    assert_identical("population run", serial, remote)
    return 0


def command_worker_kill(arguments: argparse.Namespace) -> int:
    workdir = Path(arguments.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    metrics = workdir / "worker-kill.jsonl"
    port = free_port()

    # One transport attempt: losing a worker mid-task immediately degrades
    # its shard to a TaskFailure instead of re-dispatching, which is the
    # partial-cohort path this mode must observe.
    coordinator = spawn(
        "serve", *ACCEPTANCE_FLAGS, "--port", str(port), "--workers", "4",
        "--min-quorum", "0.25", "--transport-retries", "1",
        "--metrics-out", str(metrics),
    )
    # The victim is throttled and verbose so we can catch it mid-task.
    victim = spawn("worker", "--port", str(port), "--name", "victim",
                   "--reconnect-timeout", "120", "--throttle", "0.5",
                   "--verbose")
    workers = start_workers(port, 3)

    started = threading.Event()

    def watch() -> None:
        for line in victim.stdout:
            sys.stdout.write(line)
            if "started" in line:
                started.set()

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    deadline = time.monotonic() + 120.0
    while not started.wait(timeout=0.1):
        if time.monotonic() > deadline or coordinator.poll() is not None:
            victim.kill()
            for worker in workers:
                worker.kill()
            output, _ = coordinator.communicate()
            raise SystemExit(
                f"victim worker never started a task; coordinator "
                f"(rc={coordinator.returncode}) said:\n{output}"
            )
    victim.kill()  # SIGKILL mid-task: no goodbye on the wire
    victim.wait()
    print("victim worker killed mid-task")

    output = finish(coordinator)
    sys.stdout.write(output)
    reap(workers)
    if "final test accuracy" not in output:
        raise SystemExit("coordinator finished without reporting accuracy")
    records = [
        json.loads(line) for line in metrics.read_text().splitlines() if line
    ]
    lost = [record for record in records if record.get("fault_crashed", 0) > 0]
    if not lost:
        raise SystemExit(
            f"no round recorded fault_crashed > 0 across {len(records)} rounds"
        )
    print(
        f"worker-kill: round {lost[0]['round']} lost "
        f"{int(lost[0]['fault_crashed'])} worker(s), run completed under quorum"
    )
    return 0


def command_coordinator_restart(arguments: argparse.Namespace) -> int:
    workdir = Path(arguments.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state_dir = workdir / "state"
    metrics = workdir / "restart.jsonl"
    port = free_port()

    sys.path.insert(0, str(SRC))
    import numpy as np

    from repro.experiments.presets import benchmark_preset
    from repro.experiments.runner import prepare_experiment
    from repro.federated.pipeline import read_metrics
    from repro.federated.state import (
        STATE_SUFFIX,
        latest_snapshot,
        load_round_state,
        snapshot_name,
    )

    # Buffered stragglers put late reports in every snapshot, so the
    # restart crosses a pending straggler buffer.
    config = benchmark_preset(
        dataset="usps_like", byzantine_fraction=0.4, attack="label_flip",
        defense="two_stage", epochs=2, scale=0.2, n_honest=4, seed=1,
        faults="chaos", faults_kwargs={"straggler": 0.3, "mode": "buffer"},
    )
    config_path = workdir / "restart.json"
    config_path.write_text(config.to_json())

    # Uninterrupted in-process reference for the bitwise comparison.
    setup = prepare_experiment(config)
    try:
        reference_history = setup.simulation.run()
        reference = setup.simulation.model.get_flat_parameters().copy()
    finally:
        setup.simulation.close()
    total_rounds = len(reference_history.rounds)

    serve_args = [
        "serve", "--config", str(config_path), "--port", str(port),
        "--workers", "2", "--state-dir", str(state_dir),
        "--metrics-out", str(metrics), "--metrics-fsync",
    ]
    coordinator = spawn(*serve_args)
    # Throttled workers keep the restarted run going for longer than a
    # worker's reconnect back-off (at most 1 s): unthrottled, the resumed
    # rounds can finish before a backing-off worker reconnects, and that
    # worker then never receives the shutdown.
    workers = start_workers(port, 2, **{"--throttle": "0.1"})

    # Let at least two rounds land durably, then kill -9 the coordinator.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if metrics.exists() and len(metrics.read_text().splitlines()) >= 2:
            break
        if coordinator.poll() is not None:
            raise SystemExit(
                "coordinator exited before it could be killed:\n"
                + coordinator.communicate()[0]
            )
        time.sleep(0.05)
    else:
        coordinator.kill()
        raise SystemExit("coordinator never wrote two metrics rounds")
    coordinator.kill()
    coordinator.wait()
    print("coordinator killed mid-training; restarting")

    # The restarted coordinator resumes from the snapshot; the workers
    # were never told to exit and re-register on their own.
    output = finish(spawn(*serve_args))
    sys.stdout.write(output)
    reap(workers)
    if "resuming from the latest snapshot" not in output:
        raise SystemExit("restarted coordinator did not resume from state")

    snapshots = list(state_dir.glob(f"round_*{STATE_SUFFIX}"))
    buffered = [
        path.name for path in snapshots
        if load_round_state(path).pending is not None
    ]
    if not buffered:
        raise SystemExit("no snapshot holds a pending straggler buffer")
    final = load_round_state(latest_snapshot(state_dir))
    if final.round_index != total_rounds - 1:
        raise SystemExit(
            f"final snapshot is round {final.round_index}, "
            f"expected {total_rounds - 1}"
        )
    if not np.array_equal(final.parameters, reference):
        raise SystemExit(
            "restarted run diverged from the uninterrupted reference "
            f"(max abs diff {np.abs(final.parameters - reference).max()})"
        )
    # The metrics file covers the whole trajectory: a crash between the
    # metrics line and the snapshot of the same round replays that round,
    # so consecutive duplicates are legitimate -- gaps are not.
    rounds = [record["round"] for record in read_metrics(metrics)]
    deduplicated = [
        value for index, value in enumerate(rounds)
        if index == 0 or value != rounds[index - 1]
    ]
    if deduplicated != list(range(total_rounds)):
        raise SystemExit(f"metrics rounds are not contiguous: {rounds}")

    # The served run's full-state snapshots resume through `repro run`.
    uninterrupted = finish(spawn("run", "--config", str(config_path)))
    for target in (state_dir / snapshot_name(1), state_dir):
        resumed = finish(spawn(
            "run", "--config", str(config_path), "--resume-from", str(target)
        ))
        assert_identical(
            f"run --resume-from {target.relative_to(workdir)}", uninterrupted, resumed
        )
    print(
        f"coordinator-restart: resumed run bitwise-identical over "
        f"{total_rounds} rounds ({len(rounds)} metrics lines, "
        f"{len(buffered)} of {len(snapshots)} snapshots with buffered reports)"
    )
    return 0


def command_observability(arguments: argparse.Namespace) -> int:
    workdir = Path(arguments.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    # --- trace neutrality: --trace-out must not change a single byte. ---
    plain_metrics = workdir / "plain.jsonl"
    traced_metrics = workdir / "traced.jsonl"
    trace = workdir / "trace.jsonl"
    plain = finish(spawn(
        "run", *ACCEPTANCE_FLAGS, "--metrics-out", str(plain_metrics)
    ))
    traced = finish(spawn(
        "run", *ACCEPTANCE_FLAGS, "--metrics-out", str(traced_metrics),
        "--trace-out", str(trace),
    ))
    assert_identical(
        "traced run", strip_volatile(plain), strip_volatile(traced)
    )
    if plain_metrics.read_bytes() != traced_metrics.read_bytes():
        raise SystemExit("tracing changed the metrics stream")
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    if not spans:
        raise SystemExit("trace file is empty")
    print(f"trace neutrality: {len(spans)} spans recorded, output unchanged")

    # --- live endpoint + admin verbs against a real serve run. ---------
    sys.path.insert(0, str(SRC))
    from repro.federated.observability import fetch_json, post_admin

    port = free_port()
    status_port = free_port()
    serve_trace = workdir / "serve-trace.jsonl"
    serve_metrics = workdir / "serve-metrics.jsonl"
    coordinator = spawn(
        "serve", *ACCEPTANCE_FLAGS, "--port", str(port), "--workers", "4",
        "--status-port", str(status_port), "--trace-out", str(serve_trace),
        "--metrics-out", str(serve_metrics),
    )
    # Throttled workers keep the run alive long enough to probe it.
    workers = start_workers(port, 4, **{"--throttle": "0.1"})

    def status() -> dict:
        return fetch_json("127.0.0.1", status_port, "/status")

    deadline = time.monotonic() + 180.0
    while True:
        if coordinator.poll() is not None:
            raise SystemExit(
                "coordinator exited before the endpoint could be probed:\n"
                + coordinator.communicate()[0]
            )
        if time.monotonic() > deadline:
            coordinator.kill()
            raise SystemExit("status endpoint never reported a live round")
        try:
            payload = status()
        except ConnectionError:
            time.sleep(0.1)
            continue
        if (len(payload.get("workers", [])) == 4
                and payload.get("rounds_completed", 0) >= 1):
            break
        time.sleep(0.1)
    if fetch_json("127.0.0.1", status_port, "/healthz") != {"status": "ok"}:
        raise SystemExit("/healthz did not answer ok")
    print(f"status endpoint live at round {payload['round']}: "
          f"{len(payload['workers'])} workers connected")

    record = fetch_json("127.0.0.1", status_port, "/metrics")["record"]
    if record is None or "accuracy" not in record:
        raise SystemExit(f"/metrics has no per-round record: {record}")
    import urllib.request

    with urllib.request.urlopen(
        f"http://127.0.0.1:{status_port}/metrics?format=prometheus",
        timeout=5.0,
    ) as reply:
        prometheus = reply.read().decode()
    # repro_accuracy only appears on evaluation rounds; the liveness and
    # round gauges are unconditional.
    if ("repro_up 1" not in prometheus
            or "repro_rounds_completed_total" not in prometheus
            or "repro_round " not in prometheus):
        raise SystemExit(f"prometheus rendering incomplete:\n{prometheus}")
    print("metrics endpoint: JSON and prometheus formats both live")

    # Pause suspends dispatch; resume lets the run continue.
    post_admin("127.0.0.1", status_port, "pause")
    if status()["paused"] is not True:
        raise SystemExit("pause verb did not stick")
    post_admin("127.0.0.1", status_port, "resume")
    if status()["paused"] is not False:
        raise SystemExit("resume verb did not stick")
    print("admin: pause/resume round-trip confirmed")

    # Drain one worker through the CLI; it must stop receiving new tasks.
    finish(spawn("admin", "drain", "smoke-3", "--port", str(status_port)))
    payload = status()
    if payload["draining"] != ["smoke-3"]:
        raise SystemExit(f"drain not visible in /status: {payload}")
    drained = [row for row in payload["workers"] if row["name"] == "smoke-3"]
    if not drained or not drained[0]["draining"]:
        raise SystemExit(f"worker table does not show the drain: {payload}")
    frozen = drained[0]["dispatched"]
    print(f"admin: smoke-3 draining with {frozen} tasks dispatched")

    # Draining an unknown worker must fail loudly (and non-zero).
    ghost = spawn("admin", "drain", "ghost", "--port", str(status_port))
    ghost_output, _ = ghost.communicate(timeout=60.0)
    if ghost.returncode == 0:
        raise SystemExit("draining an unknown worker exited 0")
    print(f"admin: unknown worker rejected (rc={ghost.returncode})")

    # The human-facing status CLI renders the same snapshot.
    rendered = finish(spawn("status", "--port", str(status_port)))
    if "Coordinator status" not in rendered or "smoke-3" not in rendered:
        raise SystemExit(f"repro status output incomplete:\n{rendered}")
    print("repro status: table rendered with live worker rows")

    output = finish(coordinator)
    sys.stdout.write(output)
    reap(workers)
    rows = {
        row["name"]: row
        for line in serve_trace.read_text().splitlines()
        for row in [json.loads(line)]
        if row["kind"] == "wire"
    }
    if not rows:
        raise SystemExit("serve trace recorded no wire round-trips")

    # The drain reshuffled dispatch, not results: output and per-round
    # metrics still match the serial reference byte for byte.
    assert_identical(
        "drained serve run", strip_volatile(plain), strip_volatile(output)
    )
    assert_identical(
        "drained serve metrics",
        plain_metrics.read_text(), serve_metrics.read_text(),
    )
    print("observability: endpoint, admin verbs and tracing all verified")
    return 0


def wait_for_metrics(coordinator: subprocess.Popen, metrics: Path, rounds: int) -> None:
    """Block until the run wrote ``rounds`` metrics lines (it is underway)."""
    deadline = time.monotonic() + 120.0
    while not (metrics.exists() and len(metrics.read_text().splitlines()) >= rounds):
        if coordinator.poll() is not None or time.monotonic() > deadline:
            coordinator.kill()
            raise SystemExit("coordinator never got a round underway:\n"
                             + coordinator.communicate()[0])
        time.sleep(0.05)


def hung_up(sock: socket.socket, timeout: float = 20.0) -> bool:
    """Whether the peer closed ``sock`` (EOF or reset) within ``timeout``."""
    sock.settimeout(timeout)
    try:
        while sock.recv(1 << 16):
            pass
    except socket.timeout:
        return False
    except OSError:
        pass
    return True


def command_hostile_peer(arguments: argparse.Namespace) -> int:
    workdir = Path(arguments.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))
    import numpy as np

    from repro.federated.wire import PROTOCOL_VERSION, recv_message, send_message

    # Five shards a round, so a third worker link gets tasks too.
    flags = [*ACCEPTANCE_FLAGS, "--shard-size", "2"]
    serial_metrics = workdir / "hostile-serial.jsonl"
    serial = finish(spawn("run", *flags, "--metrics-out", str(serial_metrics)))
    port = free_port()
    metrics = workdir / "hostile-serve.jsonl"
    coordinator = spawn(
        "serve", *flags, "--port", str(port), "--workers", "2",
        "--metrics-out", str(metrics), stderr=subprocess.PIPE,
    )
    # Throttled workers keep the run alive while the hostile peers act.
    workers = start_workers(port, 2, **{"--throttle": "0.1"})
    wait_for_metrics(coordinator, metrics, 1)

    def frame(body: bytes) -> bytes:
        return struct.pack(">I", len(body)) + body

    stale = PROTOCOL_VERSION - 1
    old_hello = json.dumps({"type": "hello", "worker": "stale", "protocol": stale})
    attacks = {
        "oversized length": struct.pack(">I", 0xFFFFFFFF),
        "non-JSON body": frame(b"\x80\x04 not json"),
        f"protocol-{stale} hello": frame(old_hello.encode()),
        "truncated frame": struct.pack(">I", 4096) + b'{"type": "hello", "wor',
    }
    for label, payload in attacks.items():
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            if not hung_up(sock):
                raise SystemExit(f"hostile-peer: the coordinator kept the {label} link open")
        print(f"hostile-peer: {label} refused")

    for lie in ("wrong-shape result", "extra buffer", "truncated upload"):
        with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
            send_message(sock, {"type": "hello", "worker": "liar",
                                "protocol": PROTOCOL_VERSION})
            recv_message(sock)  # welcome
            message, buffers = recv_message(sock)
            if message["type"] != "task":
                raise SystemExit(f"hostile-peer: the liar got {message['type']!r}, not a task")
            task = message["task"]
            rows, dimension = len(task["states"]), buffers[0].size
            header = {"type": "result", "task_id": message["task_id"],
                      "states": task["states"]}
            if lie == "truncated upload":
                # The declaration the shard expects, then half the bytes:
                # what a worker dying mid-send looks like.
                uploads = np.full((rows, dimension), 1e300)
                body = json.dumps({**header, "buffers": [{
                    "dtype": "<f8", "shape": [rows, dimension], "nbytes": uploads.nbytes,
                }]}).encode()
                sock.sendall(frame(body) + uploads.tobytes()[: uploads.nbytes // 2])
                sock.shutdown(socket.SHUT_WR)
            else:
                out = ([np.zeros((rows, dimension + 1))] if lie == "wrong-shape result"
                       else [np.zeros((rows, dimension)), np.zeros(1)])
                send_message(sock, header, out)
            if not hung_up(sock):
                raise SystemExit(f"hostile-peer: a {lie} kept its link")
        print(f"hostile-peer: {lie} dropped the liar's link")

    try:
        output, errors = coordinator.communicate(timeout=300.0)
    except subprocess.TimeoutExpired:
        coordinator.kill()
        raise SystemExit("hostile-peer: the served run did not finish")
    if coordinator.returncode != 0:
        raise SystemExit(f"hostile-peer: serve exited {coordinator.returncode}:\n"
                         f"{output}\n{errors}")
    reap(workers)
    if f"protocol {stale}, this coordinator speaks protocol {PROTOCOL_VERSION}" not in errors:
        raise SystemExit(f"hostile-peer: no version rejection on stderr:\n{errors}")
    print(f"hostile-peer: the protocol-{stale} hello was rejected naming both versions")
    assert_identical("hostile-peer run", strip_volatile(serial), strip_volatile(output))
    assert_identical(
        "hostile-peer metrics", serial_metrics.read_text(), metrics.read_text()
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode",
                        choices=["identity", "worker-kill", "coordinator-restart",
                                 "observability", "hostile-peer"])
    parser.add_argument("--workdir", default="service-smoke",
                        help="scratch directory for configs, metrics, state")
    arguments = parser.parse_args(argv)
    command = {
        "identity": command_identity,
        "worker-kill": command_worker_kill,
        "coordinator-restart": command_coordinator_restart,
        "observability": command_observability,
        "hostile-peer": command_hostile_peer,
    }[arguments.mode]
    return command(arguments)


if __name__ == "__main__":
    sys.exit(main())
