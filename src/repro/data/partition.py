"""Partitioning a dataset across federated workers.

Two schemes from the paper:

- i.i.d.: every worker's shard follows the global distribution (random equal
  split).
- non-i.i.d.: Algorithm 4 ("GetNonIID") -- partition each class by a fresh
  normalised vector of uniform random variables, concatenate the per-class
  shards, then cut the concatenation into equal contiguous pieces.  The
  resulting per-worker label distributions are visibly skewed (Figure 5).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset

__all__ = ["partition_iid", "partition_noniid"]


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def partition_iid(
    dataset: Dataset,
    n_workers: int,
    rng: np.random.Generator | int | None = None,
) -> list[Dataset]:
    """Split ``dataset`` into ``n_workers`` random shards of (near-)equal size.

    The shards are views of ``dataset``'s buffer, whose rows
    :meth:`~repro.data.dataset.Dataset.regroup` reorders in place: no row
    is copied, and ``dataset`` itself becomes read-only, so partitioning it
    a second time raises :class:`ValueError`.
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    if len(dataset) < n_workers:
        raise ValueError("cannot give every worker at least one example")
    rng = _as_rng(rng)
    permutation = rng.permutation(len(dataset))
    return dataset.regroup(np.array_split(permutation, n_workers))


def partition_noniid(
    dataset: Dataset,
    n_workers: int,
    rng: np.random.Generator | int | None = None,
    min_fraction: float = 0.01,
) -> list[Dataset]:
    """Algorithm 4: non-i.i.d. split with skewed per-worker label distributions.

    Parameters
    ----------
    dataset:
        The dataset to distribute.
    n_workers:
        Number of workers.
    rng:
        Generator or seed.
    min_fraction:
        Floor on each worker's share of a class before normalisation, which
        prevents degenerate empty splits while keeping the distribution
        strongly non-uniform.

    Like :func:`partition_iid`, the shards are views of ``dataset``'s
    buffer, regrouped in place, and ``dataset`` becomes read-only.
    """
    if n_workers <= 0:
        raise ValueError("n_workers must be positive")
    if len(dataset) < n_workers:
        raise ValueError("cannot give every worker at least one example")
    rng = _as_rng(rng)

    # Line 1: partition by class.
    class_indices = [
        np.flatnonzero(dataset.labels == label) for label in range(dataset.num_classes)
    ]

    # Lines 3-7: split every class according to a normalised uniform vector
    # and append each part to the corresponding worker's list.
    per_worker: list[list[np.ndarray]] = [[] for _ in range(n_workers)]
    for indices in class_indices:
        if indices.size == 0:
            continue
        indices = indices.copy()
        rng.shuffle(indices)
        weights = rng.uniform(min_fraction, 1.0, size=n_workers)
        weights /= weights.sum()
        counts = np.floor(weights * indices.size).astype(int)
        # distribute the rounding remainder to the largest shares
        remainder = indices.size - counts.sum()
        if remainder > 0:
            order = np.argsort(-weights)
            counts[order[:remainder]] += 1
        start = 0
        for worker, count in enumerate(counts):
            if count > 0:
                per_worker[worker].append(indices[start : start + count])
            start += count

    # Lines 8-12: concatenate all per-worker lists into one sequence L and
    # cut it into n equal contiguous pieces.
    concatenated = np.concatenate(
        [np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64) for chunks in per_worker]
    )
    shards = np.array_split(concatenated, n_workers)
    if any(indices.size == 0 for indices in shards):
        raise RuntimeError("non-i.i.d. partition produced an empty shard")
    return dataset.regroup(shards)
