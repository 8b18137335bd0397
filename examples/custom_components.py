"""Plug a custom attack, defense, engine, backend and fault model into the platform.

Every component family (attacks, defenses, datasets, models, client
compute engines, execution backends, fault models) lives in a public
:class:`repro.registry.Registry`; registering a class makes its name a
first-class citizen everywhere -- ``ExperimentConfig``, presets, sweeps
and the CLI -- without touching repro source.  This example

1. registers a *sign-flip* attack (negate the benign mean) with
   ``@ATTACKS.register``, a *clipped-mean* defense with
   ``@DEFENSES.register``, an upload-norm-tracing client engine with
   ``@ENGINES.register`` and a reverse-completion execution backend with
   ``@BACKENDS.register`` (shard results are pinned to worker indices,
   so completion order is free -- the run is identical to the serial
   backend's);
2. runs them through the exact builder path the CLI uses
   (``benchmark_preset`` -> ``run_experiment``), attaching an
   :class:`~repro.federated.EarlyStopping` callback that terminates
   training once the model is good enough, plus a
   :class:`~repro.federated.RoundLogger`;
3. *chaos-tests* the custom defense: an ``@FAULTS.register``-ed eclipse
   fault model blacks out a contiguous block of workers on a periodic
   schedule, and the run must still complete over the surviving
   sub-cohorts (graceful partial-cohort aggregation);
4. registers a *strided* cohort sampler with ``@SAMPLERS.register`` and
   drives a cross-device run (``population=2000, cohort=8``) through it
   -- the participation trace stays a pure function of
   ``(seed, round)``, so repeating the run replays it bit-identically;
5. hands the same names to ``python -m repro run`` (in-process) to show
   that the CLI accepts freshly registered components too;
6. runs ``repro lint`` over this very file: scenario-pack authors get
   the repo's invariant checks (unregistered components, unseeded RNG,
   ``config_defaults`` typos, ...) on their own modules for free --
   ``repro lint --unscoped mypack/`` from the shell, or
   :func:`repro.tools.lint.lint_paths` from code.  Lint rules are
   themselves registry components, so packs can ship their own checks
   on ``LINT_RULES``.

Run with::

    PYTHONPATH=src python examples/custom_components.py
"""

from __future__ import annotations

import numpy as np

from repro.byzantine import ATTACKS
from repro.byzantine.base import Attack, AttackContext
from repro.defenses import DEFENSES
from repro.defenses.base import AggregationContext, Aggregator
from repro.experiments import benchmark_preset, run_experiment
from repro.federated import (
    BACKENDS,
    ENGINES,
    FAULTS,
    EarlyStopping,
    ExecutionBackend,
    FaultModel,
    MaterializedEngine,
    RoundLogger,
)
from repro.federated.faults import ReportFaultPlan
from repro.federated.sampling import SAMPLERS, CohortSampler

# ``replace=True`` keeps re-imports (notebooks, test runners) idempotent.


@ATTACKS.register(
    "sign_flip_demo",
    summary="negate the benign mean upload (example component)",
    replace=True,
)
class SignFlipAttack(Attack):
    """Every Byzantine worker uploads ``-strength * mean(benign uploads)``."""

    def __init__(self, strength: float = 1.0) -> None:
        if strength <= 0:
            raise ValueError("strength must be positive")
        self.strength = strength

    def craft(self, context: AttackContext) -> np.ndarray:
        mean = context.honest_uploads.mean(axis=0)
        return np.tile(-self.strength * mean, (context.n_byzantine, 1))


@DEFENSES.register(
    "clipped_mean_demo",
    summary="clip upload norms to the median norm, then average (example component)",
    replace=True,
)
class ClippedMeanAggregator(Aggregator):
    """Scale every upload down to at most the median norm and average."""

    def aggregate(
        self, uploads: np.ndarray | list[np.ndarray], context: AggregationContext
    ) -> np.ndarray:
        stacked = self._validate(uploads)
        norms = np.linalg.norm(stacked, axis=1)
        limit = float(np.median(norms))
        scale = np.minimum(1.0, limit / np.maximum(norms, 1e-12))
        return (stacked * scale[:, None]).mean(axis=0)


@ENGINES.register(
    "norm_trace_demo",
    summary="materialized engine that records mean upload norms (example component)",
    replace=True,
)
class NormTracingEngine(MaterializedEngine):
    """A client engine that traces the mean upload norm of every call.

    Subclassing :class:`~repro.federated.MaterializedEngine` keeps the
    exact stacked-gradient compute path; the subclass only observes the
    uploads.  Registered engines are selected like any other component:
    ``ExperimentConfig(engine="norm_trace_demo")`` or
    ``python -m repro run --engine norm_trace_demo``.
    """

    #: the most recently built instance (each thread keeps one instance)
    last_instance: "NormTracingEngine | None" = None

    def __init__(self) -> None:
        super().__init__()
        self.mean_upload_norms: list[float] = []
        NormTracingEngine.last_instance = self

    def compute_uploads(self, model, features, labels, n_workers, *rest):
        uploads = super().compute_uploads(model, features, labels, n_workers, *rest)
        self.mean_upload_norms.append(
            float(np.linalg.norm(uploads, axis=1).mean())
        )
        return uploads


@BACKENDS.register(
    "reverse_completion_demo",
    summary="runs shards in reverse submission order (example component)",
    replace=True,
)
class ReverseCompletionBackend(ExecutionBackend):
    """An execution backend whose tasks *complete* in reverse order.

    The pool pins every shard's uploads, noise draws and momentum rows
    to worker indices and backends reduce results in submission order,
    so completion order is irrelevant -- a run through this backend is
    identical to the serial reference.  (The built-in ``threaded`` and
    ``process`` backends rely on exactly this property.)  Registered
    backends are selected like any other component:
    ``ExperimentConfig(backend="reverse_completion_demo")`` or ``python
    -m repro run --backend reverse_completion_demo``.
    """

    #: submission indices of completed tasks, in completion order (every
    #: run through this backend appends; cleared by the demo before its run)
    completed_tasks: list[int] = []

    @property
    def max_workers(self) -> int:  # parallel slots the pool should prepare
        return 2

    def map_ordered(self, fn, items):
        items = list(items)
        results = [None] * len(items)
        for index in reversed(range(len(items))):
            results[index] = fn(items[index])
            ReverseCompletionBackend.completed_tasks.append(index)
        return results


@FAULTS.register(
    "eclipse_demo",
    summary="a contiguous block of workers goes dark on a schedule (example)",
    replace=True,
)
class EclipseFaults(FaultModel):
    """Every other round, ``width`` consecutive workers fail to report.

    The eclipsed block rotates with the round index, so over a full run
    every worker misses some rounds -- a deterministic worst-ish case for
    defenses that keep per-worker state, because no worker has a complete
    attendance record.  Deriving the block start from :meth:`rng` keeps
    the trace a pure function of ``(seed, round)``: the same chaos run
    replays bit-identically on the serial, threaded and process backends.
    """

    def __init__(self, width: int = 3, seed: int = 0) -> None:
        super().__init__(seed)
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width

    def report_faults(self, round_index: int, n_workers: int) -> ReportFaultPlan:
        dropped = np.zeros(n_workers, dtype=bool)
        if round_index % 2 == 0:
            start = int(self.rng(1, round_index).integers(0, n_workers))
            block = (start + np.arange(self.width)) % n_workers
            dropped[block] = True
        return ReportFaultPlan(dropped=dropped, late=np.zeros(n_workers, dtype=bool))


@SAMPLERS.register(
    "strided_demo",
    summary="evenly spaced cohort with a seeded per-round offset (example)",
    replace=True,
)
class StridedSampler(CohortSampler):
    """Each round covers the population evenly: ids at a fixed stride.

    The stride spreads the cohort across the whole id range and a seeded
    per-round offset rotates the pattern, so over a run every population
    segment participates.  Deriving the offset from :meth:`rng` keeps the
    plan keyed ``(seed, "sampler", round)`` -- the trace replays
    bit-identically across backends and restarts, like every built-in.
    """

    def _plan(self, round_index: int, population: int, cohort: int) -> np.ndarray:
        stride = population // cohort
        if stride < 1:
            raise ValueError("population must be >= cohort")
        offset = int(self.rng(round_index).integers(0, stride))
        return offset + np.arange(cohort, dtype=np.int64) * stride


def main() -> None:
    # The CLI builder path: a preset produces the ExperimentConfig, the
    # runner resolves every component name through the registries --
    # including the client compute engine and the execution backend.
    config = benchmark_preset(
        dataset="usps_like",
        byzantine_fraction=0.4,
        attack="sign_flip_demo",
        defense="clipped_mean_demo",
        engine="norm_trace_demo",
        backend="reverse_completion_demo",
        epochs=3,
        scale=0.2,
        n_honest=5,
    )
    ReverseCompletionBackend.completed_tasks.clear()
    early_stopping = EarlyStopping(target_accuracy=0.9, patience=4)
    result = run_experiment(
        config, callbacks=[early_stopping, RoundLogger(every=5)]
    )
    print(
        f"\ncustom attack vs custom defense: final accuracy "
        f"{result.final_accuracy:.3f} after {result.history.rounds[-1] + 1} "
        f"of {result.metadata['total_rounds']} rounds"
        + (
            f" (early stop at round {early_stopping.stopped_round + 1})"
            if early_stopping.stopped_round is not None
            else ""
        )
    )
    print(
        "custom engine traced "
        f"{len(NormTracingEngine.last_instance.mean_upload_norms)} pool calls; "
        f"first mean upload norm "
        f"{NormTracingEngine.last_instance.mean_upload_norms[0]:.3f}"
    )

    # The custom backend really ran the shards in reverse -- and because
    # shard results are pinned to worker indices, the recorded history is
    # identical to the serial reference backend's.
    assert ReverseCompletionBackend.completed_tasks, "custom backend never ran"
    reference = run_experiment(
        config.replace(backend="serial"),
        callbacks=[EarlyStopping(target_accuracy=0.9, patience=4)],
    )
    assert reference.history.as_dict() == result.history.as_dict(), (
        "reverse-completion backend diverged from the serial reference"
    )
    print(
        "custom backend ran "
        f"{len(ReverseCompletionBackend.completed_tasks)} shard tasks in "
        "reverse order; history identical to the serial backend"
    )

    # Chaos-test the custom defense: the registered eclipse fault model
    # blacks out 3 consecutive workers every other round, and training
    # aggregates gracefully over each round's surviving sub-cohort.
    chaos = run_experiment(
        config.replace(
            backend="serial",
            faults="eclipse_demo",
            faults_kwargs={"width": 3},
            min_quorum=2,
        )
    )
    fault_records = chaos.history.faults
    eclipsed = sum(record["fault_dropped"] for record in fault_records)
    assert eclipsed > 0, "the eclipse fault model never fired"
    smallest = min(record["fault_survivors"] for record in fault_records)
    print(
        f"chaos test: {config.defense!r} survived {int(eclipsed)} eclipsed "
        f"reports (smallest cohort {int(smallest)} of "
        f"{config.n_honest + config.n_byzantine} workers), final accuracy "
        f"{chaos.final_accuracy:.3f}"
    )

    # Cross-device mode through the custom sampler: 2000 registered
    # workers, 8 drawn per round.  The plan stream is keyed by
    # (seed, round), so the repeated run replays the identical trace.
    cross_device = benchmark_preset(
        dataset="usps_like",
        scale=0.2,
        epochs=1,
        population=2000,
        cohort=8,
        sampling="strided_demo",
        seed=3,
    )
    first = run_experiment(cross_device)
    again = run_experiment(cross_device)
    assert first.history.as_dict() == again.history.as_dict(), (
        "strided sampler trace failed to replay bit-identically"
    )
    print(
        f"\ncustom sampler: population {first.metadata['population']}, "
        f"cohort {first.metadata['cohort']} per round -- repeated run "
        f"bit-identical, final accuracy {first.final_accuracy:.3f}"
    )

    # Scenario packs get the repo's invariant linter for free: REP004
    # (registry hygiene) runs on every file, and --unscoped/unscoped=True
    # promotes the path-scoped rules (determinism, dtype, ...) too.  This
    # example registers everything it defines, so it lints clean.
    from repro.tools.lint import lint_paths

    report = lint_paths([__file__], select=["REP004"])
    assert report.findings == [], [f.as_dict() for f in report.findings]
    print(
        f"\nrepro lint: {report.files_checked} pack file checked, "
        f"{len(report.findings)} registry-hygiene finding(s)"
    )

    # The CLI sees registered components immediately -- same names, same
    # builder path, no repro changes.
    from repro import cli

    print("\nthe same components through `python -m repro run`:\n")
    cli.main([
        "run",
        "--dataset", "usps_like",
        "--attack", "sign_flip_demo",
        "--defense", "clipped_mean_demo",
        "--byzantine", "0.4",
        "--epochs", "1",
        "--seed", "1",
    ])


if __name__ == "__main__":
    main()
