"""Micro-benchmarks of the client compute engines (per-round upload cost).

Four groups, the first three at the repo's real client population (n = 30
workers, linear model on 64 features / 10 classes, d = 650):

- ``micro-engine``: one full round of honest uploads through the
  materialized engine vs the ghost-norm Gram-matrix engine, at the
  paper's two client batch sizes.
- ``micro-engine-mlp``: the same comparison on the mlp_small architecture
  (ghost generalises to any stack of Linear layers).
- ``micro-engine-shard``: the unsharded pool vs a sharded pool
  (``shard_size=8``) through the materialized engine -- sharding is the
  unit of dispatch and retries, and should cost nearly nothing.
- ``micro-engine-paper``: the materialized engine at the model size the
  ``paper_train`` benchmark trains (mlp_medium, d = 6570, n = 20, b_c =
  16), where it expands gradients one worker at a time.  The first
  call's ``tracemalloc`` peak and the engine's scratch bytes land in
  ``extra_info``.

Every benchmark *asserts engine equivalence* on freshly seeded pools
before timing (ghost vs materialized within the ``rtol 1e-9`` gate;
sharded vs unsharded and grouped vs one group bitwise), so the CI bench
job fails on an equivalence regression, not only on crashes.

Run (the bench files use a non-default prefix, so the collection overrides
are required)::

    PYTHONPATH=src python -m pytest benchmarks/bench_micro_engine.py \
        -o python_files='bench_*.py' -o python_functions='bench_*' \
        --benchmark-only --benchmark-json=BENCH_micro_engine.json
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.core.config import DPConfig
from repro.data.synthetic import make_classification
from repro.federated import engines
from repro.federated.worker import WorkerPool
from repro.nn.models import build_model
from repro.nn.network import Sequential

N_WORKERS = 30
N_FEATURES = 64
N_CLASSES = 10
BATCH_SIZES = (8, 16)  # the paper's two client batch sizes
SIGMA = 1.0
SHARD_SIZE = 8
PAPER_WORKERS = 20  # the paper_train benchmark's honest pool


@pytest.fixture(scope="module")
def engine_setup():
    """Models and per-worker shards (shared across engine/batch params)."""
    rng = np.random.default_rng(0)
    data = make_classification(
        n_samples=50 * N_WORKERS,
        n_features=N_FEATURES,
        n_classes=N_CLASSES,
        nonlinear=False,
        rng=rng,
        name="micro-engine",
    )
    shards = [
        data.subset(np.arange(i * 50, (i + 1) * 50)) for i in range(N_WORKERS)
    ]
    models = {
        "linear": build_model("linear", N_FEATURES, N_CLASSES, rng=1),
        "mlp_small": build_model("mlp_small", N_FEATURES, N_CLASSES, rng=1),
    }
    return models, shards


def make_pool(shards, config, engine, shard_size=None):
    return WorkerPool(
        shards,
        config,
        [np.random.default_rng(100 + i) for i in range(len(shards))],
        engine=engine,
        shard_size=shard_size,
    )


def assert_engines_agree(model: Sequential, shards, config) -> None:
    """Equivalence gate run before timing: a mismatch fails the bench job."""
    materialized = make_pool(shards, config, "materialized")
    ghost = make_pool(shards, config, "ghost_norm")
    for round_index in range(3):
        np.testing.assert_allclose(
            ghost.compute_uploads(model),
            materialized.compute_uploads(model),
            rtol=1e-9,
            atol=1e-12,
            err_msg=f"engine equivalence violated at round {round_index}",
        )


def assert_sharding_bitwise(model: Sequential, shards, config) -> None:
    unsharded = make_pool(shards, config, "materialized")
    sharded = make_pool(shards, config, "materialized", shard_size=SHARD_SIZE)
    for round_index in range(3):
        np.testing.assert_array_equal(
            sharded.compute_uploads(model),
            unsharded.compute_uploads(model),
            err_msg=f"sharded pool diverged at round {round_index}",
        )


@pytest.mark.benchmark(group="micro-engine")
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("engine", ["materialized", "ghost_norm"])
def bench_micro_engine_linear(benchmark, engine_setup, engine, batch_size):
    """One round of honest uploads at n=30, linear d=650."""
    models, shards = engine_setup
    model = models["linear"]
    config = DPConfig(batch_size=batch_size, sigma=SIGMA)
    assert_engines_agree(model, shards, config)
    pool = make_pool(shards, config, engine)

    uploads = benchmark(pool.compute_uploads, model)
    assert uploads.shape == (N_WORKERS, model.num_parameters)


@pytest.mark.benchmark(group="micro-engine-mlp")
@pytest.mark.parametrize("engine", ["materialized", "ghost_norm"])
def bench_micro_engine_mlp(benchmark, engine_setup, engine):
    """Same comparison on mlp_small (ghost covers any Linear stack)."""
    models, shards = engine_setup
    model = models["mlp_small"]
    config = DPConfig(batch_size=16, sigma=SIGMA)
    assert_engines_agree(model, shards, config)
    pool = make_pool(shards, config, engine)

    uploads = benchmark(pool.compute_uploads, model)
    assert uploads.shape == (N_WORKERS, model.num_parameters)


@pytest.mark.benchmark(group="micro-engine-shard")
@pytest.mark.parametrize("shard_size", [None, SHARD_SIZE])
def bench_micro_engine_sharded(benchmark, engine_setup, shard_size):
    """Sharded vs unsharded pool (materialized engine, b=16)."""
    models, shards = engine_setup
    model = models["linear"]
    config = DPConfig(batch_size=16, sigma=SIGMA)
    assert_sharding_bitwise(model, shards, config)
    pool = make_pool(shards, config, "materialized", shard_size=shard_size)

    uploads = benchmark(pool.compute_uploads, model)
    assert uploads.shape == (N_WORKERS, model.num_parameters)


@pytest.fixture(scope="module")
def paper_setup():
    """mlp_medium on 64 features / 10 classes (d = 6570), 20 worker shards."""
    rng = np.random.default_rng(0)
    data = make_classification(
        n_samples=50 * PAPER_WORKERS,
        n_features=N_FEATURES,
        n_classes=N_CLASSES,
        nonlinear=False,
        rng=rng,
        name="micro-engine-paper",
    )
    shards = [
        data.subset(np.arange(i * 50, (i + 1) * 50)) for i in range(PAPER_WORKERS)
    ]
    return build_model("mlp_medium", N_FEATURES, N_CLASSES, rng=1), shards


@pytest.mark.benchmark(group="micro-engine-paper")
def bench_micro_engine_paper(benchmark, paper_setup):
    """One round of honest uploads at the paper shape (materialized, b=16).

    Gated first: the grouped pool (one worker a group) and a
    one-worker-shard pool must both be bitwise equal to one group over
    the whole pool.
    """
    model, shards = paper_setup
    config = DPConfig(batch_size=16, sigma=SIGMA)
    one_group = make_pool(shards, config, "materialized")
    grouped = make_pool(shards, config, "materialized")
    single = make_pool(shards, config, "materialized", shard_size=1)
    for round_index in range(3):
        with mock.patch.object(engines, "_GROUP_BYTES", 1 << 62):
            expected = one_group.compute_uploads(model)
        for pool, name in ((grouped, "grouped"), (single, "shard-size-1")):
            np.testing.assert_array_equal(
                pool.compute_uploads(model),
                expected,
                err_msg=f"{name} pool diverged at round {round_index}",
            )

    pool = make_pool(shards, config, "materialized")
    tracemalloc.start()
    try:
        pool.compute_uploads(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["first_call_peak_mib"] = round(peak / 2**20, 2)
    benchmark.extra_info["scratch_bytes"] = pool.engine._gradients.nbytes
    uploads = benchmark(pool.compute_uploads, model)
    assert uploads.shape == (PAPER_WORKERS, model.num_parameters)
