"""Figure 5 -- the non-i.i.d. partition produced by Algorithm 4.

The paper visualises the per-worker label histograms of the non-i.i.d.
split of MNIST across 20 workers: each worker's class proportions differ
visibly from the uniform 10% per class, while the i.i.d. split stays close
to uniform.  We regenerate the histogram table and check both properties.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.data.partition import partition_iid, partition_noniid
from repro.data.registry import load_dataset

N_WORKERS = 10


@pytest.mark.benchmark(group="figure5")
def bench_fig5_noniid_label_histograms(benchmark, record_table):
    # A partition regroups its dataset in place (and freezes it), so each
    # scheme splits its own copy of the same training split.
    train, _ = load_dataset("mnist_like", scale=0.5, seed=1)
    iid_train, _ = load_dataset("mnist_like", scale=0.5, seed=1)

    def run():
        noniid = partition_noniid(train, N_WORKERS, rng=1)
        iid = partition_iid(iid_train, N_WORKERS, rng=1)
        noniid_fractions = np.array([s.class_counts() / len(s) for s in noniid])
        iid_fractions = np.array([s.class_counts() / len(s) for s in iid])
        return noniid_fractions, iid_fractions

    noniid_fractions, iid_fractions = benchmark.pedantic(run, rounds=1, iterations=1)

    headers = ["worker"] + [f"class {c}" for c in range(train.num_classes)]
    rows = [
        [f"worker {w}"] + [float(noniid_fractions[w, c]) for c in range(train.num_classes)]
        for w in range(N_WORKERS)
    ]
    record_table(
        "fig5_noniid_partition",
        format_table(
            headers,
            rows,
            title=(
                "Figure 5 (shape): per-worker class fractions of the Algorithm-4 "
                "non-i.i.d. split (i.i.d. would be 0.100 everywhere)"
            ),
        ),
    )

    # Shape 1: the non-i.i.d. split is visibly skewed -- some worker's share
    # of some class is far from the uniform 1/C.
    uniform = 1.0 / train.num_classes
    assert float(np.abs(noniid_fractions - uniform).max()) > 0.1

    # Shape 2: it is substantially more skewed than the i.i.d. split.
    noniid_spread = float(noniid_fractions.std(axis=0).mean())
    iid_spread = float(iid_fractions.std(axis=0).mean())
    assert noniid_spread > 2.0 * iid_spread

    # Shape 3: no worker is left without data and all classes are covered.
    assert noniid_fractions.shape == (N_WORKERS, train.num_classes)
    assert np.all(noniid_fractions.sum(axis=1) > 0.999)
