"""Looking inside the protocol: what the server actually sees and filters.

This example drives the low-level API directly (no experiment runner):

1. builds a model and a handful of honest workers running Algorithm 1;
2. crafts Byzantine uploads with three different attacks;
3. runs FirstAGG (norm test + KS test) on the round's upload matrix and
   prints the per-upload report;
4. runs the second-stage inner-product selection and prints the scores.

Both stages take the whole ``(n_workers, d)`` round matrix, as the server
does every round; to look at a single upload, hand it over as a one-row
matrix.

It is the programmatic version of the paper's Section 4.3-4.5 narrative and
doubles as a tutorial for anyone building a new attack or defense.

Run with::

    python examples/inspect_uploads.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.byzantine.base import AttackContext
from repro.byzantine.gaussian import GaussianAttack
from repro.byzantine.lmp import LocalModelPoisoningAttack
from repro.core.config import DPConfig
from repro.core.dp_protocol import upload_noise_std
from repro.core.first_stage import FirstStageFilter
from repro.core.second_stage import SecondStageSelector
from repro.data.auxiliary import sample_auxiliary
from repro.data.partition import partition_iid
from repro.data.registry import DATASETS, load_dataset
from repro.federated.worker import WorkerPool
from repro.nn.models import build_model

N_HONEST = 6
N_BYZANTINE = 4


def main() -> None:
    rng = np.random.default_rng(0)
    train, test = load_dataset("mnist_like", scale=0.3, seed=0)
    spec = DATASETS.metadata("mnist_like")["spec"]
    model = build_model("mlp_small", spec.n_features, spec.n_classes, rng)
    dp_config = DPConfig(batch_size=16, sigma=3.0, momentum=0.1)

    print(f"Model size d = {model.num_parameters}, upload noise std = "
          f"{upload_noise_std(dp_config):.4f} (sigma / batch size)\n")

    # 1. Honest uploads via Algorithm 1.
    shards = partition_iid(train, N_HONEST, rng=rng)
    pool = WorkerPool(
        shards, dp_config, [np.random.default_rng(100 + i) for i in range(N_HONEST)]
    )
    honest_uploads = pool.compute_uploads(model)

    # 2. Byzantine uploads from two crafted attacks plus an obviously broken one.
    context = AttackContext(
        honest_uploads=honest_uploads,
        n_byzantine=N_BYZANTINE,
        upload_noise_std=upload_noise_std(dp_config),
        rng=np.random.default_rng(7),
    )
    gaussian = GaussianAttack().craft(context)[:2]
    lmp = LocalModelPoisoningAttack().craft(context)[:1]
    naive = np.ones((1, model.num_parameters)) * 5.0  # ignores the protocol entirely

    uploads = np.vstack([honest_uploads, gaussian, lmp, naive])
    labels = (
        [f"honest {i}" for i in range(N_HONEST)]
        + ["gaussian attack"] * 2
        + ["LMP attack"]
        + ["naive large upload"]
    )

    # 3. First-stage aggregation: one report over the whole round matrix.
    first_stage = FirstStageFilter(
        sigma=upload_noise_std(dp_config), dimension=model.num_parameters
    )
    first = first_stage.inspect_batch(uploads)
    rows = [
        [
            label,
            float(np.linalg.norm(upload)),
            "pass" if norm_ok else "reject",
            pvalue,
            "pass" if ks_ok else "reject",
            "KEPT" if accepted else "ZEROED",
        ]
        for label, upload, norm_ok, pvalue, ks_ok, accepted in zip(
            labels, uploads, first.norm_ok, first.ks_pvalues, first.ks_ok, first.accepted
        )
    ]
    print(format_table(
        ["upload", "l2 norm", "norm test", "KS p-value", "KS test", "FirstAGG"],
        rows,
        title="First-stage aggregation (Algorithm 2) on one round of uploads",
    ))

    # 4. Second-stage aggregation: one matvec scores every upload; a row
    #    FirstAGG rejected scores 0.0, as its zero vector would.
    auxiliary = sample_auxiliary(test, per_class=2, rng=rng)
    _, server_gradient = model.mean_gradient(auxiliary.features, auxiliary.labels)
    scores = uploads @ server_gradient
    scores[~first.accepted] = 0.0
    selector = SecondStageSelector(n_workers=len(uploads), gamma=N_HONEST / len(uploads))
    second = selector.select_scored(scores, np.arange(len(uploads)))

    selected = np.zeros(len(uploads), dtype=bool)
    selected[second.selected] = True
    rows = [
        [label, score, "selected" if kept else "dropped"]
        for label, score, kept in zip(labels, second.scores, selected)
    ]
    print()
    print(format_table(
        ["upload", "inner-product score", "second stage"],
        rows,
        title="Second-stage aggregation (Algorithm 3, lines 4-14)",
    ))

    # The reading guide counts what the two tables show.
    byzantine = np.arange(len(uploads)) >= N_HONEST
    zeroed = ~first.accepted
    print(
        f"\nReading guide: FirstAGG zeroed {zeroed[byzantine].sum()} of "
        f"{byzantine.sum()} Byzantine and {zeroed[~byzantine].sum()} of "
        f"{N_HONEST} honest uploads. The selection kept {selector.keep}: "
        f"{selected[byzantine].sum()} Byzantine and {selected[~byzantine].sum()} "
        f"honest. Scores below the threshold {second.threshold:.3f} (the mean "
        f"of the top {selector.keep}) count as zero, so those uploads tie and "
        "the lowest-indexed of them fill the remaining places."
    )


if __name__ == "__main__":
    main()
