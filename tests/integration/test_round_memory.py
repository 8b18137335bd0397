"""Heap guards for paper-shape rounds.

A round fills one ``(n, d)`` round matrix: the pools commit their shards
into its rows, and the two-stage rule masks it rather than copying it.
At the paper shape (``alittle``, Byzantine fraction 0.6: 20 + 30 workers,
d = 6570) that matrix is 2.5 MiB, and the rest of a round's peak is the
capture pass's activations, the materialized engine's one-worker
``(16, d)`` expansion (0.8 MiB) and a few ``(d,)`` vectors: 4.1 MiB
serially and 4.7 MiB on two threads, where an engine that kept its
expansion between rounds read 3.7 and 2.9 MiB.  The ALIE craft returns
one row broadcast over the Byzantine rows and accumulates its standard
deviation row by row (0.20 MiB; ``np.std``'s ``(n_honest, d)``
deviations read 1.15 MiB and the round ~4.3 MiB);
tiling a ``(n_byzantine, d)`` block (1.5 MiB) before copying it into the
matrix took the round to ~4.8 MiB.  Stacking the pools' result blocks and
zeroing a filtered copy took the peak to ~8.8 MiB.  The server's
auxiliary gradient expands its 20 per-example rows four at a time
(0.30 MiB; the whole ``(20, d)`` expansion read 1.08 MiB).

A faulty round moves its survivors to the top of the round matrix and
hands the server those leading rows: a dropout round (rate 0.2) reads
4.1 MiB and a ``chaos`` round at shard size 4 3.7 MiB.  Gathering the
survivors into a second matrix read 6.9 and 6.8 MiB, when the same
rounds without it read 5.0 and 4.5 MiB.  Delivering buffered stragglers
builds the merged matrix in one allocation (5.5 MiB; concatenating and
then reordering read 7.9 MiB against 6.8).

What a warm round allocates cannot show scratch that round 0 builds and
keeps, so round 0's resident heap has its own bounds.  Between rounds an
engine keeps nothing (each shard task builds its own) and FirstAGG only
its rank bounds, so round 0 leaves 1.42 MiB serially and 1.76 MiB on two
threads (in a fresh process): the momentum, the generators and the
round's records.  Kept scratch read more each time it existed:

- an engine per executing thread, each with one worker's expansion, and
  FirstAGG's sort buffer of four rows (0.20 MiB) left 2.34 and 3.31 MiB;
- with the layers also keeping the capture pass's activations and each
  thread a replica of the model, 2.4 and 3.7 MiB;
- with FirstAGG sorting the whole matrix into its buffer, 3.0 and
  4.3 MiB;
- with 64-row engine blocks and the layers' per-example buffers, 6.6 and
  10.1 MiB.

A layer holds only its parameters, so an evaluation leaves nothing on
the model: caching the test set's activations (1,000 rows) on the layers
left 1.47 MiB until the model's next forward.

A population round (the ``population`` benchmark's shape: ``usps_like``,
cohort 64 of 10^4, 50 rows per worker, ``label_flip``) re-points the
honest pool at index views into the base dataset, so drawing the cohort
copies no worker rows: a warm ``prepare_round`` allocated 1,711 KiB when
each sampled worker got a copied dataset (one cohort's feature rows are
1,600 KiB) and ~100 KiB with views.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.first_stage import FirstStageFilter
from repro.experiments.presets import benchmark_preset, paper_preset
from repro.experiments.runner import prepare_experiment
from repro.federated import worker
from repro.federated.engines import build_engine
from repro.nn.network import Sequential

#: most a warm round may allocate above its pre-round heap
ROUND_BUDGET_MIB = 6.0

#: most a warm round that delivers buffered stragglers may allocate;
#: measured 5.5 MiB
STRAGGLER_BUDGET_MIB = 7.25

#: most round 0 may leave on the heap, serially and on two threads
#: (shards of 4 workers); measured 1.42 and 1.76 MiB
RESIDENT_BUDGET_MIB = {"serial": 1.75, "threaded": 2.25}

#: most an evaluation may leave on the heap; caching the test set's
#: activations on the layers left 1.47 MiB
EVALUATE_BUDGET_MIB = 0.05

#: the two parallel setups the resident and evaluation bounds cover
BACKEND_OVERRIDES = {
    "serial": {},
    "threaded": {"shard_size": 4, "backend": "threaded",
                 "backend_kwargs": {"max_workers": 2}},
}


def paper_simulation(attack="alittle", **overrides):
    return prepare_experiment(
        paper_preset(attack=attack, byzantine_fraction=0.6, seed=1, **overrides)
    ).simulation


@contextlib.contextmanager
def traced():
    """``tracemalloc`` for one block, unless the caller already traces."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "overrides, budget_mib",
    [
        ({}, ROUND_BUDGET_MIB),
        ({"faults": "dropout", "faults_kwargs": {"rate": 0.2}, "min_quorum": 0.25},
         ROUND_BUDGET_MIB),
        ({"faults": "chaos", "shard_size": 4}, ROUND_BUDGET_MIB),
        # round 1 delivers round 0's buffered reports next to its survivors
        ({"faults": "chaos", "faults_kwargs": {"straggler": 0.2, "mode": "buffer"},
          "min_quorum": 0.25}, STRAGGLER_BUDGET_MIB),
    ],
    ids=["clean", "dropout", "chaos", "stragglers"],
)
def test_paper_round_allocates_within_budget(overrides, budget_mib):
    simulation = paper_simulation(**overrides)
    try:
        # Round 0 builds what later rounds reuse: the FirstAGG filter and
        # its rank bounds, the selector's scores.
        simulation.run_round(0)
        with traced():
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            simulation.run_round(1)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        simulation.close()
    assert (peak - before) / 2**20 <= budget_mib


def byzantine_stage_peak(attack: str, **overrides) -> tuple[int, int]:
    """``(traced peak, crafted block bytes)`` of one warm Byzantine stage."""
    simulation = paper_simulation(attack=attack, **overrides)
    try:
        simulation.run_round(0)
        simulation.prepare_round(1)
        matrix = np.empty((simulation.n_workers, simulation.model.num_parameters))
        honest, byzantine = matrix[: simulation.n_honest], matrix[simulation.n_honest :]
        simulation.honest_pool.compute_uploads(simulation.model, out=honest)
        with traced():
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            simulation.byzantine_uploads(honest, 1, out=byzantine)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        simulation.close()
    return peak - before, byzantine.nbytes


@pytest.mark.parametrize("attack", ["alittle", "lmp", "inner"])
def test_crafted_rows_are_written_once(attack):
    """A crafting attack broadcasts one row: no ``(n_byzantine, d)`` block
    exists besides the round matrix's rows (measured 0.20 MiB for
    ``alittle`` and 0.10 MiB for ``lmp`` and ``inner``; one block is
    1.5 MiB)."""
    peak, block = byzantine_stage_peak(attack)
    assert peak < block


def test_alie_std_needs_no_deviation_matrix():
    """ALIE's standard deviation adds squared deviations row by row:
    0.20 MiB, where ``np.std``'s ``(n_honest, d)`` temporary read 1.15 MiB
    (one Byzantine block is 1.5 MiB)."""
    peak, block = byzantine_stage_peak("alittle")
    assert peak < 0.25 * block


def test_dormant_attacker_copies_its_rows_once():
    """A dormant adaptive attacker ``np.take``s honest rows straight into
    the round matrix (0.001 MiB; gathering them into a block first read
    1.51 MiB, and copying that block again 3.01 MiB)."""
    peak, block = byzantine_stage_peak("adaptive_alittle", ttbb=1.0)
    assert peak < 0.25 * block


def test_auxiliary_gradient_expands_a_bounded_block():
    """The server's mean auxiliary gradient expands four rows at a time
    (0.30 MiB; the whole ``(20, d)`` expansion read 1.08 MiB)."""
    simulation = paper_simulation()
    try:
        simulation.run_round(0)
        server = simulation.server
        features, labels = server.auxiliary.features, server.auxiliary.labels
        with traced():
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            server.model.mean_gradient(features, labels)
            _, peak = tracemalloc.get_traced_memory()
        rows = len(labels) * server.model.num_parameters * 8
    finally:
        simulation.close()
    assert peak - before < rows / 2


@pytest.mark.parametrize("backend, overrides", list(BACKEND_OVERRIDES.items()))
def test_round_zero_resident_heap_within_budget(backend, overrides):
    simulation = paper_simulation(**overrides)
    try:
        with traced():
            before, _ = tracemalloc.get_traced_memory()
            simulation.run_round(0)
            after, _ = tracemalloc.get_traced_memory()
    finally:
        simulation.close()
    assert (after - before) / 2**20 <= RESIDENT_BUDGET_MIB[backend]


def test_threaded_round_computes_on_the_one_model():
    """Threaded shard tasks compute on the caller's model: after a round no
    template or per-thread replica of it is alive (there were three)."""
    existing = [value for value in gc.get_objects() if isinstance(value, Sequential)]
    simulation = paper_simulation(**BACKEND_OVERRIDES["threaded"])
    try:
        simulation.run_round(0)
        gc.collect()
        alive = [
            value for value in gc.get_objects()
            if isinstance(value, Sequential)
            and not any(value is other for other in existing)
        ]
    finally:
        simulation.close()
    assert alive == [simulation.model]


def population_simulation(**overrides):
    config = benchmark_preset(
        dataset="usps_like", population=10_000, cohort=64, byzantine_fraction=0.2,
        attack="label_flip", epochs=1, seed=1, **overrides,
    )
    return prepare_experiment(config).simulation


def test_warm_prepare_round_copies_no_worker_rows():
    simulation = population_simulation()
    try:
        simulation.prepare_round(0)
        source = simulation.population_source
        cohort_rows = simulation.cohort * source.local_size * source.dim * 8
        with traced():
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            simulation.prepare_round(1)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        simulation.close()
    assert peak - before < cohort_rows / 4


@pytest.mark.parametrize("backend, overrides", list(BACKEND_OVERRIDES.items()))
def test_no_scratch_outlives_its_call(backend, overrides, monkeypatch):
    """After a round no engine the round built and no FirstAGG filter
    holds an array: an engine kept its gradient expansion (0.8 MiB at
    this shape) and the filter its sort buffer between rounds."""
    built = []

    def recording(name):
        built.append(build_engine(name))
        return built[-1]

    monkeypatch.setattr(worker, "build_engine", recording)
    simulation = paper_simulation(**overrides)
    try:
        simulation.run_round(0)
        gc.collect()
        filters = [value for value in gc.get_objects() if isinstance(value, FirstStageFilter)]
    finally:
        simulation.close()
    assert built and filters
    for holder in built + filters:
        arrays = [name for name, value in vars(holder).items() if isinstance(value, np.ndarray)]
        assert arrays == [], type(holder).__name__


def test_evaluation_leaves_nothing_on_the_layers():
    simulation = paper_simulation()
    try:
        simulation.run_round(0)
        with traced():
            before, _ = tracemalloc.get_traced_memory()
            simulation.server.evaluate(simulation.test_dataset)
            after, _ = tracemalloc.get_traced_memory()
    finally:
        simulation.close()
    assert (after - before) / 2**20 <= EVALUATE_BUDGET_MIB


def round_heap_above(backend: str, evaluate: bool) -> tuple[float, float]:
    """MiB a warm round peaks at and leaves above the heap before an
    optional evaluation."""
    simulation = paper_simulation(**BACKEND_OVERRIDES[backend])
    try:
        simulation.run_round(0)
        with traced():
            before, _ = tracemalloc.get_traced_memory()
            if evaluate:
                simulation.server.evaluate(simulation.test_dataset)
            tracemalloc.reset_peak()
            simulation.run_round(1)
            after, peak = tracemalloc.get_traced_memory()
    finally:
        simulation.close()
    return (peak - before) / 2**20, (after - before) / 2**20


@pytest.mark.parametrize("backend, margin_mib", [("serial", 0.1), ("threaded", 0.5)])
def test_round_after_an_evaluation_peaks_like_any_round(backend, margin_mib, monkeypatch):
    """What an evaluation cached lived into the next round: its peak read
    4.56 MiB against 4.29 serially, and 5.38 against 3.92 when the shards
    computed on thread replicas, which never overwrote the server model's
    layers.  Each shard task allocates its own one-worker expansion, so a
    threaded round peaks ~1 MiB higher while two tasks overlap (4.6-4.7
    MiB against 3.6-3.8 in the 4 of 40 rounds where none did); here the
    tasks run one at a time on the pool's threads.  A threaded round's
    peak still moves with thread timing (3.62-3.69 MiB), hence its wider
    margin.  Either way the round leaves no more resident after an
    evaluation than without one."""
    lock = threading.Lock()
    task = worker._shard_task

    def one_at_a_time(payload):
        with lock:
            return task(payload)

    monkeypatch.setattr(worker, "_shard_task", one_at_a_time)
    evaluated_peak, evaluated_left = round_heap_above(backend, evaluate=True)
    peak, left = round_heap_above(backend, evaluate=False)
    assert evaluated_peak <= peak + margin_mib
    assert evaluated_left <= left + 0.1
