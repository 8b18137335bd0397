"""Command-line interface: ``python -m repro ...``.

Eight subcommands cover the common workflows:

- ``run``     -- run a single experiment and print the outcome;
- ``compare`` -- run the protocol, the undefended mean and the Reference
  Accuracy for one attack scenario and print them side by side;
- ``serve``   -- run an experiment as a service-mode *coordinator*:
  shard tasks are dispatched to ``repro worker`` processes over TCP,
  with per-round full-state checkpoints (``--state-dir``) enabling a
  bitwise-exact restart after a coordinator crash;
- ``worker``  -- join a coordinator as a worker process (reconnects
  through coordinator restarts);
- ``status``  -- query a serving coordinator's observability endpoint
  (``repro serve --status-port``) and print round progress, connected
  workers and quorum margin;
- ``admin``   -- send an admin verb (``pause`` / ``resume`` /
  ``drain <worker>`` / ``undrain <worker>``) to that endpoint;
- ``list``    -- show every registered component (datasets, attacks,
  defenses, models, engines, backends, fault models, cohort samplers)
  straight from the registries' ``describe()`` API;
- ``lint``    -- run the AST-based invariant linter
  (:mod:`repro.tools.lint`) over a source tree: determinism,
  concurrency safety, dtype discipline, registry hygiene, service
  robustness and ``out=`` aliasing; an unsuppressed finding exits 1.

Operational failures exit with dedicated codes and one-line messages
instead of tracebacks: ``2`` for a quorum violation (``QuorumError``),
``3`` for a connection failure (the coordinator lost every worker, a
worker could not reach its coordinator, or ``status``/``admin`` could
not reach the observability endpoint).

``run`` and ``compare`` accept either individual flags or a full
:class:`~repro.experiments.configs.ExperimentConfig` serialised to JSON
via ``--config file.json`` (produced by ``ExperimentConfig.to_json()``);
components registered by third-party code through the public
:class:`repro.registry.Registry` API are accepted wherever a built-in
name is.

Examples
--------
::

    python -m repro list
    python -m repro run --dataset mnist_like --attack label_flip \
        --defense two_stage --byzantine 0.6 --epsilon 1.0
    python -m repro run --config experiment.json
    python -m repro compare --attack lmp --byzantine 0.9 --save results.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.io import save_results
from repro.analysis.tables import format_table
from repro.byzantine.registry import ATTACKS, available_attacks
from repro.core.config import ADMIN_VERBS, DEFAULT_STATUS_PORT
from repro.data.registry import DATASETS, available_datasets
from repro.defenses.registry import DEFENSES
from repro.experiments.configs import ExperimentConfig
from repro.experiments.presets import benchmark_preset, paper_preset
from repro.experiments.runner import run_experiment
from repro.federated.backends import BACKENDS
from repro.federated.engines import DEFAULT_ENGINE, ENGINES
from repro.federated.faults import FAULTS
from repro.federated.sampling import SAMPLERS
from repro.nn.models import MODELS
from repro.tools.lint.cli import add_lint_arguments, run_lint_command

__all__ = ["main", "build_parser"]


def _parse_quorum(text: str) -> int | float:
    """Parse --min-quorum: an integer count or a fractional float.

    argparse converts the ValueError of a failed parse into the usual
    "invalid _parse_quorum value" usage error.
    """
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Differentially private and Byzantine-resilient federated learning.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_experiment_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", default=None, metavar="FILE.json",
                         help="load the full ExperimentConfig from this JSON file "
                              "(the other experiment flags are then ignored)")
        sub.add_argument("--dataset", default="mnist_like", choices=available_datasets())
        sub.add_argument("--attack", default="label_flip", choices=available_attacks())
        # choices include aliases so every name build_defense accepts works here
        sub.add_argument("--defense", default="two_stage",
                         choices=DEFENSES.names(include_aliases=True))
        sub.add_argument("--byzantine", type=float, default=0.6,
                         help="fraction of the total worker population that is Byzantine")
        sub.add_argument("--epsilon", type=float, default=2.0,
                         help="per-worker privacy budget (use --no-dp to disable DP)")
        sub.add_argument("--no-dp", action="store_true", help="disable differential privacy")
        sub.add_argument("--gamma", type=float, default=None,
                         help="server belief about the honest fraction (default: exact)")
        sub.add_argument("--epochs", type=int, default=6)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--ttbb", type=float, default=0.0,
                         help="activation point of adaptive_* attacks")
        sub.add_argument("--noniid", action="store_true", help="non-i.i.d. partitioning")
        # choices include aliases so every name build_engine accepts works here
        sub.add_argument("--engine", default=DEFAULT_ENGINE,
                         choices=ENGINES.names(include_aliases=True),
                         help="client compute engine (ghost_norm never materialises "
                              "per-example gradients)")
        sub.add_argument("--shard-size", type=int, default=None, metavar="K",
                         help="max workers per shard, the unit of dispatch, retries "
                              "and crash faults (the engine bounds memory; "
                              "bitwise-identical to unsharded)")
        # choices include aliases so every name build_backend accepts works here
        sub.add_argument("--backend", default="serial",
                         choices=BACKENDS.names(include_aliases=True),
                         help="execution backend for pool shards (results are "
                              "bitwise-identical across backends; "
                              "threaded/process use --jobs workers)")
        sub.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker threads/processes for parallel backends "
                              "(default: all cores; ignored by --backend serial)")
        # choices include aliases so every name build_faults accepts works here
        sub.add_argument("--faults", default="none",
                         choices=FAULTS.names(include_aliases=True),
                         help="seeded fault-injection scenario (dropout, "
                              "straggler, crash, churn, chaos); fault traces "
                              "replay bit-identically across backends")
        sub.add_argument("--min-quorum", type=_parse_quorum, default=1,
                         metavar="Q",
                         help="minimum surviving cohort per round: an integer "
                              "count or a fraction of the population "
                              "(violations abort with a QuorumError)")
        sub.add_argument("--population", type=int, default=None, metavar="N",
                         help="cross-device mode: register N lazy honest "
                              "workers and subsample a cohort each round "
                              "(peak memory scales with the cohort, not N)")
        sub.add_argument("--cohort", type=int, default=None, metavar="K",
                         help="honest workers sampled per round in "
                              "cross-device mode (default: the population)")
        # choices include aliases so every name build_sampler accepts works here
        sub.add_argument("--sampling", default="uniform",
                         choices=SAMPLERS.names(include_aliases=True),
                         help="cohort sampler for cross-device mode; plans "
                              "are seeded per round and replay "
                              "bit-identically across backends and restarts")
        sub.add_argument("--paper-scale", action="store_true",
                         help="use the paper's full-scale settings (slow on CPU)")
        sub.add_argument("--save", default=None, help="write results to this JSON file")

    run_parser = subparsers.add_parser("run", help="run a single experiment")
    add_experiment_arguments(run_parser)
    # run-only: resuming a three-way compare from one snapshot is ill-defined
    run_parser.add_argument("--resume-from", default=None, metavar="SNAPSHOT",
                            help="restore a round_<i>.state.npz snapshot (or "
                                 "the latest one in a --state-dir directory) "
                                 "and replay the rest of the run bitwise")
    run_parser.add_argument("--metrics-out", default=None, metavar="FILE.jsonl",
                            help="stream per-round metrics (accuracy, fault "
                                 "counters) to this JSONL file (appended to "
                                 "when resuming)")
    run_parser.add_argument("--metrics-fsync", action="store_true",
                            help="fsync the metrics file after every line")
    run_parser.add_argument("--trace-out", default=None, metavar="FILE.jsonl",
                            help="record span/event traces (rounds, stages, "
                                 "shard tasks, retries) to this JSONL file; "
                                 "bitwise-neutral: results and output are "
                                 "identical with or without it")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run an experiment as a service-mode coordinator over "
             "`repro worker` processes",
    )
    add_experiment_arguments(serve_parser)
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="address the coordinator listens on")
    serve_parser.add_argument("--port", type=int, default=7733,
                              help="port the coordinator listens on (0 lets "
                                   "the OS pick one)")
    serve_parser.add_argument("--workers", type=int, default=1, metavar="N",
                              help="worker processes to expect: sizes the "
                                   "pools' shard split, and the first round "
                                   "waits up to --worker-timeout for them")
    serve_parser.add_argument("--heartbeat-interval", type=float, default=0.5,
                              metavar="SECONDS",
                              help="seconds between liveness heartbeats")
    serve_parser.add_argument("--heartbeat-timeout", type=float, default=10.0,
                              metavar="SECONDS",
                              help="silence after which a worker connection "
                                   "is declared dead")
    serve_parser.add_argument("--transport-retries", type=int, default=3,
                              metavar="N",
                              help="dispatch attempts per task across worker "
                                   "losses before the task's workers drop "
                                   "out of the round")
    serve_parser.add_argument("--worker-timeout", type=float, default=60.0,
                              metavar="SECONDS",
                              help="how long the coordinator tolerates an "
                                   "empty worker pool mid-round before "
                                   "aborting")
    serve_parser.add_argument("--state-dir", default=None, metavar="DIR",
                              help="write a full-state snapshot there every "
                                   "round and auto-resume from the latest one "
                                   "on restart (bitwise-exact crash recovery)")
    serve_parser.add_argument("--metrics-out", default=None, metavar="FILE.jsonl",
                              help="stream per-round metrics to this JSONL "
                                   "file (appended to when resuming)")
    serve_parser.add_argument("--metrics-fsync", action="store_true",
                              help="fsync the metrics file after every line")
    serve_parser.add_argument("--status-port", type=int, default=None,
                              metavar="PORT",
                              help="serve /healthz, /status, /metrics and the "
                                   "POST /admin verbs on this port (binds the "
                                   f"--host address; {DEFAULT_STATUS_PORT} by "
                                   "convention, 0 picks a free port)")
    serve_parser.add_argument("--trace-out", default=None, metavar="FILE.jsonl",
                              help="record span/event traces (rounds, stages, "
                                   "wire round-trips, retries) to this JSONL "
                                   "file; bitwise-neutral when enabled")

    worker_parser = subparsers.add_parser(
        "worker", help="join a service-mode coordinator as a worker process"
    )
    worker_parser.add_argument("--host", default="127.0.0.1",
                               help="coordinator address to connect to")
    worker_parser.add_argument("--port", type=int, default=7733,
                               help="coordinator port to connect to")
    worker_parser.add_argument("--name", default=None,
                               help="worker name shown in coordinator logs "
                                    "(default: pid-derived)")
    worker_parser.add_argument("--reconnect-timeout", type=float, default=30.0,
                               metavar="SECONDS",
                               help="keep retrying a lost coordinator for "
                                    "this long before giving up")
    worker_parser.add_argument("--throttle", type=float, default=0.0,
                               metavar="SECONDS",
                               help="artificial delay before each task "
                                    "(testing aid)")
    worker_parser.add_argument("--verbose", action="store_true",
                               help="log each task as it starts and finishes")

    status_parser = subparsers.add_parser(
        "status",
        help="query a serving coordinator's status endpoint "
             "(`repro serve --status-port`)",
    )
    status_parser.add_argument("--host", default="127.0.0.1",
                               help="status endpoint address")
    status_parser.add_argument("--port", type=int, default=DEFAULT_STATUS_PORT,
                               help="status endpoint port")
    status_parser.add_argument("--json", action="store_true",
                               help="emit the raw /status document as JSON")

    admin_parser = subparsers.add_parser(
        "admin",
        help="send an admin verb (pause/resume/drain/undrain) to a "
             "serving coordinator's status endpoint",
    )
    admin_parser.add_argument("verb", choices=ADMIN_VERBS,
                              help="pause/resume dispatch globally, or "
                                   "drain/undrain one worker by name")
    admin_parser.add_argument("worker", nargs="?", default=None,
                              help="worker name (required by drain/undrain)")
    admin_parser.add_argument("--host", default="127.0.0.1",
                              help="status endpoint address")
    admin_parser.add_argument("--port", type=int, default=DEFAULT_STATUS_PORT,
                              help="status endpoint port")

    compare_parser = subparsers.add_parser(
        "compare", help="run protocol vs undefended vs Reference Accuracy"
    )
    add_experiment_arguments(compare_parser)

    list_parser = subparsers.add_parser(
        "list",
        help="list the registered datasets, attacks, defenses, models, "
             "engines, backends, fault models and cohort samplers",
    )
    list_parser.add_argument("--json", action="store_true",
                             help="emit the registries' describe() rows as JSON")

    lint_parser = subparsers.add_parser(
        "lint",
        help="statically check a source tree against the repo's "
             "reproducibility invariants (REP001-REP007)",
    )
    # The flags live next to the linter so `python -m repro.tools.lint`
    # and `repro lint` stay identical; mounting them loads no lint rules.
    add_lint_arguments(lint_parser)
    return parser


def _load_config_file(path: str) -> ExperimentConfig:
    """Load an ExperimentConfig from JSON, exiting cleanly on bad input."""
    try:
        text = Path(path).read_text()
    except OSError as error:
        raise SystemExit(f"repro: cannot read --config {path!r}: {error}")
    try:
        return ExperimentConfig.from_json(text)
    except (TypeError, ValueError) as error:  # JSONDecodeError is a ValueError
        raise SystemExit(f"repro: invalid --config {path!r}: {error}")


def _worker_rows(config: ExperimentConfig, cohort: int | None) -> list[list]:
    """Result-table rows describing the per-round worker composition.

    In population mode the honest cohort is drawn per round, so the
    relevant honest count is the run's resolved ``cohort`` (``n_honest``
    is unused there).
    """
    if config.population is None:
        return [
            ["workers (honest + byzantine)",
             f"{config.n_honest} + {config.n_byzantine}"],
        ]
    return [
        ["population (sampling)", f"{config.population} ({config.sampling})"],
        ["cohort (honest + byzantine)", f"{cohort} + {config.n_byzantine}"],
    ]


def _config_from_arguments(arguments: argparse.Namespace) -> ExperimentConfig:
    if arguments.config is not None:
        return _load_config_file(arguments.config)
    preset = paper_preset if arguments.paper_scale else benchmark_preset
    return preset(
        dataset=arguments.dataset,
        byzantine_fraction=arguments.byzantine,
        attack=arguments.attack,
        defense=arguments.defense,
        epsilon=None if arguments.no_dp else arguments.epsilon,
        gamma=arguments.gamma,
        seed=arguments.seed,
        ttbb=arguments.ttbb,
        iid=not arguments.noniid,
        engine=arguments.engine,
        shard_size=arguments.shard_size,
        backend=arguments.backend,
        backend_kwargs=(
            {} if arguments.jobs is None else {"max_workers": arguments.jobs}
        ),
        faults=arguments.faults,
        min_quorum=arguments.min_quorum,
        population=arguments.population,
        cohort=arguments.cohort,
        sampling=arguments.sampling,
        **({} if arguments.paper_scale else {"epochs": arguments.epochs}),
    )


_REGISTRIES = (
    DATASETS, ATTACKS, DEFENSES, MODELS, ENGINES, BACKENDS, FAULTS, SAMPLERS
)


def _json_default(value: object) -> str:
    """JSON text of a metadata value JSON cannot hold (dataset specs,
    callables).  A callable renders by name: its ``repr`` holds a memory
    address, which would make two listings of one tree differ."""
    if callable(value):
        return getattr(value, "__name__", type(value).__name__)
    return str(value)


def _command_list(arguments: argparse.Namespace) -> int:
    rows = [row for registry in _REGISTRIES for row in registry.describe()]
    if getattr(arguments, "json", False):
        print(json.dumps(rows, indent=2, default=_json_default))
        return 0
    table = [
        [row["kind"], row["name"], ", ".join(row["aliases"]), row["summary"]]
        for row in rows
    ]
    print(format_table(["kind", "name", "aliases", "summary"], table,
                       title="Registered components"))
    print("\nEvery attack also has an adaptive variant: adaptive_<name> "
          "(dormant until --ttbb of training).")
    return 0


def _resolve_resume(path: str | None):
    """Load the snapshot ``path`` names (``None``: a fresh run), exiting
    cleanly when it cannot be read; the run takes the state as it is."""
    if path is None:
        return None
    from repro.experiments.runner import resolve_checkpoint

    try:
        return resolve_checkpoint(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro: cannot resume from {path!r}: {error}")


def _run_and_report(
    arguments: argparse.Namespace,
    config: ExperimentConfig,
    resume_path: str | None,
    callbacks: Sequence = (),
    on_prepared=None,
) -> int:
    """The body ``run`` and ``serve`` share.

    Resumes from ``resume_path`` (``None``: a fresh run), runs ``config``
    with the ``--metrics-out`` and ``--trace-out`` recorders followed by
    ``callbacks``, closes the recorders, then prints the result table and
    the metrics and ``--save`` lines.  A round's metrics line is written
    before a ``Checkpoint`` in ``callbacks`` snapshots it, so a restart
    replays a round rather than leaving a gap in the metrics file.
    """
    from repro.experiments.runner import CheckpointMismatchError

    resume_from = _resolve_resume(resume_path)
    recorders = []
    if arguments.metrics_out is not None:
        from repro.federated.pipeline import MetricsWriter

        recorders.append(MetricsWriter(
            arguments.metrics_out,
            append=resume_from is not None,
            fsync=arguments.metrics_fsync,
        ))
    if arguments.trace_out is not None:
        from repro.federated.observability import TraceRecorder

        # No stdout line for the trace file: enabling tracing must keep
        # the CLI output byte-identical (the asserted neutrality gate).
        recorders.append(TraceRecorder(arguments.trace_out))
    try:
        result = run_experiment(
            config,
            callbacks=[*recorders, *callbacks],
            resume_from=resume_from,
            on_prepared=on_prepared,
        )
    except CheckpointMismatchError as error:
        raise SystemExit(f"repro: cannot resume from {resume_path!r}: {error}")
    finally:
        for recorder in recorders:
            recorder.close()
    print(format_table(["field", "value"], [
        ["dataset", config.dataset],
        ["attack / defense", f"{config.attack} / {config.defense}"],
        *_worker_rows(config, result.metadata.get("cohort")),
        ["epsilon", "non-private" if config.epsilon is None else config.epsilon],
        ["noise multiplier sigma", result.sigma],
        ["learning rate", result.learning_rate],
        ["rounds", result.metadata["total_rounds"]],
        ["final test accuracy", result.final_accuracy],
    ], title="Experiment result"))
    if arguments.metrics_out is not None:
        print(f"\nper-round metrics written to {arguments.metrics_out}")
    if arguments.save:
        save_results({"run": result}, arguments.save)
        print(f"\nresults written to {arguments.save}")
    return 0


def _command_run(arguments: argparse.Namespace) -> int:
    return _run_and_report(
        arguments, _config_from_arguments(arguments), arguments.resume_from
    )


def _command_serve(arguments: argparse.Namespace) -> int:
    from repro.federated.pipeline import Checkpoint
    from repro.federated.state import latest_snapshot

    config = _config_from_arguments(arguments).replace(
        backend="remote",
        backend_kwargs={
            "host": arguments.host,
            "port": arguments.port,
            "max_workers": arguments.workers,
            "heartbeat_interval": arguments.heartbeat_interval,
            "heartbeat_timeout": arguments.heartbeat_timeout,
            "transport_attempts": arguments.transport_retries,
            "worker_timeout": arguments.worker_timeout,
        },
    )
    state_dir = arguments.state_dir
    resume_path = None
    callbacks = []
    if state_dir is not None:
        if latest_snapshot(state_dir) is not None:
            resume_path = state_dir
            print(f"resuming from the latest snapshot in {state_dir}")
        callbacks.append(Checkpoint(state_dir))
    status_servers = []
    on_prepared = None
    if arguments.status_port is not None:
        from repro.federated.observability import (
            StatusBoard,
            StatusReporter,
            StatusServer,
        )

        board = StatusBoard()
        callbacks.append(StatusReporter(board))

        def on_prepared(setup) -> None:
            # The remote backend's coordinator exists once the experiment
            # is prepared; attach the endpoint to it so /status sees the
            # worker table and the admin verbs reach the dispatch loop.
            backend = setup.simulation.backend
            coordinator = getattr(backend, "server", None)
            status_servers.append(StatusServer(
                board,
                coordinator,
                host=arguments.host,
                port=arguments.status_port,
            ))
            print(f"status endpoint on {arguments.host}:"
                  f"{status_servers[-1].port}", flush=True)

    print(f"coordinator listening on {arguments.host}:{arguments.port}, "
          f"expecting {arguments.workers} worker(s)")
    try:
        return _run_and_report(
            arguments, config, resume_path, callbacks, on_prepared
        )
    finally:
        for server in status_servers:
            server.close()


def _command_status(arguments: argparse.Namespace) -> int:
    from repro.federated.observability import fetch_json

    payload = fetch_json(arguments.host, arguments.port, "/status")
    if arguments.json:
        print(json.dumps(payload, indent=2, default=str))
        return 0
    workers = payload.pop("workers", [])
    rows = [[key, payload[key]] for key in sorted(payload)]
    print(format_table(["field", "value"], rows, title="Coordinator status"))
    if workers:
        print()
        print(format_table(
            ["worker", "heartbeat age", "busy", "draining", "dispatched"],
            [
                [row["name"], row["last_heartbeat_age"], row["busy"],
                 row["draining"], row["dispatched"]]
                for row in workers
            ],
            title="Workers",
        ))
    return 0


def _command_admin(arguments: argparse.Namespace) -> int:
    from repro.federated.observability import AdminError, post_admin

    try:
        reply = post_admin(
            arguments.host, arguments.port, arguments.verb, arguments.worker
        )
    except AdminError as error:
        raise SystemExit(f"repro: admin {arguments.verb}: {error}")
    print(json.dumps(reply, default=str))
    return 0


def _command_worker(arguments: argparse.Namespace) -> int:
    from repro.federated.service import run_worker

    return run_worker(
        arguments.host,
        arguments.port,
        name=arguments.name,
        reconnect_timeout=arguments.reconnect_timeout,
        throttle=arguments.throttle,
        verbose=arguments.verbose,
    )


def _command_compare(arguments: argparse.Namespace) -> int:
    from repro.experiments.reference import reference_accuracy

    config = _config_from_arguments(arguments)
    reference = reference_accuracy(config)
    undefended = run_experiment(config.replace(defense="mean"))
    protected = run_experiment(config)
    print(format_table(["run", "test accuracy"], [
        ["Reference Accuracy (no attack, no defense)", reference.final_accuracy],
        [f"undefended mean under {config.attack}", undefended.final_accuracy],
        [f"{config.defense} under {config.attack}", protected.final_accuracy],
    ], title=(
        f"{config.dataset}: {int(config.byzantine_fraction * 100)}% Byzantine workers, "
        f"epsilon = {'non-private' if config.epsilon is None else config.epsilon}"
    )))
    if arguments.save:
        save_results(
            {"reference": reference, "undefended": undefended, "protected": protected},
            arguments.save,
        )
        print(f"\nresults written to {arguments.save}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Operational failures of a distributed run are reported as one-line
    messages with dedicated exit codes (quorum violation: 2, connection
    failure: 3) -- the conditions a supervisor restarts on -- instead of
    tracebacks.
    """
    from repro.federated.faults import QuorumError

    arguments = build_parser().parse_args(argv)
    commands = {
        "list": _command_list,
        "run": _command_run,
        "serve": _command_serve,
        "worker": _command_worker,
        "status": _command_status,
        "admin": _command_admin,
        "compare": _command_compare,
        "lint": run_lint_command,
    }
    command = commands.get(arguments.command)
    if command is None:
        return 1
    try:
        return command(arguments)
    except QuorumError as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Not a federation transport failure: our own stdout closed early
        # (``repro list | head``).  Exit with the conventional SIGPIPE
        # code, quietly, instead of telling a supervisor to restart.
        # Pointing the fd at devnull stops the interpreter's exit-time
        # flush from reporting the same broken pipe to stderr.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout has no real fd (e.g. under a capturing harness)
        return 128 + signal.SIGPIPE
    except ConnectionError as error:
        print(f"repro: connection error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
