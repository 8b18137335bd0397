"""Property tests: ghost-norm engine vs materialized engine, sharded pools.

Three gates from the engine refactors:

- **tolerance gate** -- for any model shape (linear or one-hidden-layer
  stacks of ``Linear``), batch size, worker count, momentum and bounding
  mode, :class:`~repro.federated.engines.GhostNormEngine` produces uploads
  within ``rtol 1e-9`` of :class:`~repro.federated.engines
  .MaterializedEngine` over multiple rounds (the two paths differ only in
  floating-point summation order, observed ~1e-15);
- **bitwise gate** -- a sharded pool (any shard size) is bitwise identical
  to the unsharded pool for either engine, on the linear model and on the
  registered ``mlp_medium`` / ``mlp_large`` widths: every protocol step is
  per-worker row-wise, so splitting the worker axis must not change a
  single operation.  The one shape-dependence left is the stacked
  forward/backward GEMM itself: BLAS picks different micro-kernels (and
  thus accumulation orders) for *degenerate* row counts (1-3 stacked
  rows), so the gate is stated for the protocol's real batch sizes
  (multiples of 4; the paper uses 8 and 16), where every shard shape maps
  to the same kernel on the supported hosts.  A transposed right operand
  used to be a second dependence: OpenBLAS computes ``G @ W.T`` below ~19
  rows in another order, so a one-worker shard of an MLP differed in the
  low bits until ``Linear`` multiplied by a contiguous copy of ``W^T``;
  and the ghost engine's momentum norm was a third until it moved from
  ``einsum`` (which reduces a lone row of d > 8192 in another order) to
  ``vecdot``;
- **group gate** -- the materialized engine's worker groups obey their
  rules, and an engine expanding in many groups under a tiny budget is
  bitwise identical to one group.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import DPConfig
from repro.data.synthetic import make_classification
from repro.federated import engines
from repro.federated.worker import WorkerPool
from repro.nn.layers import ELU, Linear
from repro.nn.models import build_model
from repro.nn.network import Sequential


def build_setup(seed, n_workers, n_features, n_classes, hidden):
    rng = np.random.default_rng(seed)
    data = make_classification(
        n_samples=12 * n_workers,
        n_features=n_features,
        n_classes=n_classes,
        nonlinear=False,
        rng=rng,
        name="prop-engine",
    )
    shards = [
        data.subset(np.arange(i * 12, (i + 1) * 12)) for i in range(n_workers)
    ]
    if isinstance(hidden, str):
        model = build_model(hidden, n_features, n_classes, rng)
    elif hidden is None:
        model = Sequential([Linear(n_features, n_classes, rng)])
    else:
        model = Sequential(
            [Linear(n_features, hidden, rng), ELU(), Linear(hidden, n_classes, rng)]
        )
    return model, shards


def build_pool(shards, config, seed, **kwargs):
    rngs = [np.random.default_rng(seed + i) for i in range(len(shards))]
    return WorkerPool(shards, config, rngs, **kwargs)


class TestGhostVsMaterializedProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_workers=st.integers(1, 6),
        batch=st.integers(1, 8),
        n_features=st.integers(2, 12),
        n_classes=st.integers(2, 5),
        hidden=st.sampled_from([None, None, 4, 7]),
        momentum=st.sampled_from([0.0, 0.1, 0.5, 0.9]),
        sigma=st.sampled_from([0.0, 0.4, 1.5]),
        bounding=st.sampled_from(["normalize", "clip"]),
        rounds=st.integers(1, 3),
    )
    def test_uploads_within_tolerance_gate(
        self, seed, n_workers, batch, n_features, n_classes, hidden,
        momentum, sigma, bounding, rounds,
    ):
        config = DPConfig(
            batch_size=batch, sigma=sigma, momentum=momentum, bounding=bounding
        )
        model, shards = build_setup(seed, n_workers, n_features, n_classes, hidden)
        materialized = build_pool(shards, config, seed + 17, engine="materialized")
        ghost = build_pool(shards, config, seed + 17, engine="ghost_norm")
        for round_index in range(rounds):
            np.testing.assert_allclose(
                ghost.compute_uploads(model),
                materialized.compute_uploads(model),
                rtol=1e-9,
                atol=1e-12,
                err_msg=f"round {round_index}",
            )


#: Models and engines of the sharding gate (``mlp_large`` is d = 10627 here).
SHARDING_CASES = [
    (None, "materialized"),
    (None, "ghost_norm"),
    ("mlp_medium", "materialized"),
    ("mlp_medium", "ghost_norm"),
    ("mlp_large", "materialized"),
    ("mlp_large", "ghost_norm"),
]


class TestShardingBitwiseProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_workers=st.integers(2, 8),
        shard_size=st.integers(1, 8),
        # protocol-realistic batch sizes: multiples of 4 keep every shard's
        # stacked GEMM on the same BLAS micro-kernel (see module docstring)
        batch=st.sampled_from([4, 8, 16]),
        # (model, engine); ``None`` is the linear 6 -> 3 model
        case=st.sampled_from(SHARDING_CASES),
        momentum=st.sampled_from([0.0, 0.3]),
        rounds=st.integers(1, 3),
    )
    # One-worker shards of an MLP: the transposed-product case.
    @example(seed=0, n_workers=4, shard_size=1, batch=16,
             case=("mlp_medium", "materialized"), momentum=0.3, rounds=1)
    @example(seed=0, n_workers=4, shard_size=1, batch=8,
             case=("mlp_large", "materialized"), momentum=0.0, rounds=1)
    # One-worker shards of the ghost engine at d > 8192: the second round's
    # momentum norm is a lone row.
    @example(seed=0, n_workers=3, shard_size=1, batch=4,
             case=("mlp_large", "ghost_norm"), momentum=0.3, rounds=2)
    def test_sharded_pool_bitwise_identical(
        self, seed, n_workers, shard_size, batch, case, momentum, rounds
    ):
        model, engine = case
        config = DPConfig(batch_size=batch, sigma=0.8, momentum=momentum)
        n_features = 6 if model is None else 16
        model, shards = build_setup(seed, n_workers, n_features, 3, model)
        unsharded = build_pool(shards, config, seed + 5, engine=engine)
        sharded = build_pool(
            shards, config, seed + 5, engine=engine, shard_size=shard_size
        )
        for round_index in range(rounds):
            np.testing.assert_array_equal(
                sharded.compute_uploads(model),
                unsharded.compute_uploads(model),
                err_msg=f"round {round_index}",
            )


class TestWorkerGroupsProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        n_workers=st.integers(1, 120),
        batch=st.integers(1, 32),
        dimension=st.integers(1, 20000),
        budget_rows=st.integers(1, 600),
    )
    def test_groups_obey_their_rules(self, n_workers, batch, dimension, budget_rows):
        budget = budget_rows * dimension * 8
        with mock.patch.object(engines, "_GROUP_BYTES", budget):
            groups = engines._worker_groups(n_workers, batch, dimension)
        # contiguous runs of whole workers, in order
        assert groups[0][0] == 0 and groups[-1][1] == n_workers
        assert all(a[1] == b[0] for a, b in zip(groups, groups[1:]))
        sizes = [stop - start for start, stop in groups]
        assert min(sizes) >= 1
        # no lone stacked row unless the whole shard is one
        if n_workers * batch > 1:
            assert min(sizes) * batch >= 2
        # the most workers within budget (at least one, or two at b_c = 1);
        # only a lone last worker merged into the group before it goes past
        most = max(budget_rows // batch, 1 if batch > 1 else 2)
        assert all(size == most for size in sizes[:-1])
        assert sizes[-1] <= most + (batch == 1)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 32),
        workers=st.integers(1, 384),
        model=st.sampled_from(["mlp_small", "mlp_medium", "mlp_large"]),
        budget_fraction=st.floats(0.0, 1.0),
        momentum=st.sampled_from([0.0, 0.3]),
        rounds=st.integers(1, 2),
    )
    # Six equal groups of 64 rows; and an odd batch, where groups hold 69 rows.
    @example(seed=1, batch=16, workers=384, model="mlp_medium", budget_fraction=64 / 384,
             momentum=0.3, rounds=2)
    @example(seed=2, batch=3, workers=384, model="mlp_large", budget_fraction=70 / 384,
             momentum=0.3, rounds=1)
    # b_c = 1 with an odd worker count under a one-row budget: groups of
    # two, and the lone last worker joins the group before it.
    @example(seed=3, batch=1, workers=7, model="mlp_large", budget_fraction=0.0,
             momentum=0.3, rounds=2)
    def test_grouped_equals_one_group(
        self, seed, batch, workers, model, budget_fraction, momentum, rounds
    ):
        n_workers = max(1, workers // batch)  # at most 384 stacked rows
        config = DPConfig(batch_size=batch, sigma=0.8, momentum=momentum)
        model, shards = build_setup(seed, n_workers, 16, 3, model)
        # any budget from one row to the whole shard
        row_bytes = model.num_parameters * 8
        budget_rows = 1 + round(budget_fraction * (n_workers * batch - 1))
        grouped = build_pool(shards, config, seed + 5)
        whole = build_pool(shards, config, seed + 5)
        for round_index in range(rounds):
            with mock.patch.object(engines, "_GROUP_BYTES", budget_rows * row_bytes):
                uploads = grouped.compute_uploads(model)
            with mock.patch.object(engines, "_GROUP_BYTES", 1 << 62):
                expected = whole.compute_uploads(model)
            np.testing.assert_array_equal(
                uploads, expected, err_msg=f"round {round_index}"
            )
        np.testing.assert_array_equal(
            grouped.state.slot_momentum, whole.state.slot_momentum
        )
        assert [rng.bit_generator.state for rng in grouped.rngs] == [
            rng.bit_generator.state for rng in whole.rngs
        ]
