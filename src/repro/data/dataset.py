"""In-memory dataset container used throughout the library."""

from __future__ import annotations

import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset"]

#: The in-place data stages (generation, :meth:`Dataset.regroup`) work
#: through scratch blocks of at most this many bytes.
BLOCK_BYTES = 128 << 10


@dataclass
class Dataset:
    """A labelled classification dataset held in memory.

    Attributes
    ----------
    features:
        Array of shape ``(n, dim)`` with ``float64`` features.
    labels:
        Integer labels of shape ``(n,)`` in ``[0, num_classes)``.
    num_classes:
        Number of classes of the underlying task (may exceed the number of
        distinct labels present, e.g. in a non-i.i.d. shard).
    name:
        Optional human-readable name.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = ""

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {self.labels.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have the same length")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def dim(self) -> int:
        """Feature dimensionality."""
        return int(self.features.shape[1])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New dataset containing only the rows selected by ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            name=self.name,
        )

    def regroup(self, groups: Sequence[np.ndarray]) -> list["Dataset"]:
        """Reorder the rows in place so that each group is contiguous.

        ``groups`` are index arrays that together name every row exactly
        once.  Afterwards the rows of ``groups[0]`` come first, in that
        order, then those of ``groups[1]``, and so on; the result is one
        writable row-slice view per group, with the same contents a
        ``subset`` of each group would copy.  The rows move along the
        cycles of that permutation with one spare row per cycle, through
        scratch blocks of at most :data:`BLOCK_BYTES`, so the data is never
        held twice.

        This dataset's own arrays are then made read-only: the views hold
        the data now, and a second ``regroup`` (or partition) of this
        dataset raises :class:`ValueError` instead of silently rewriting
        the views it returned the first time.
        """
        if not (self.features.flags.writeable and self.labels.flags.writeable):
            raise ValueError(
                "cannot regroup a read-only dataset: it was regrouped or "
                "partitioned before, or its arrays are shared read-only"
            )
        n = len(self)
        groups = [np.asarray(group, dtype=np.int64) for group in groups]
        order = np.concatenate(groups) if groups else np.zeros(0, dtype=np.int64)
        pending = np.zeros(n, dtype=bool)
        if order.size == n and np.all((order >= 0) & (order < n)):
            pending[order] = True
        if order.size != n or not pending.all():
            raise ValueError("groups must name every row of the dataset exactly once")

        # Position i receives row order[i]: walk each cycle of the
        # permutation, set its first row aside and shift the rest one step
        # along it, a bounded chunk of rows at a time.  The walk reads
        # ``order`` through a memoryview and collects the cycle in an int64
        # array: 8 bytes a row, where Python lists of the rows would take 36.
        features, labels = self.features, self.labels
        chunk = max(1, BLOCK_BYTES // max(1, features.itemsize * self.dim))
        pending &= order != np.arange(n)
        successor = memoryview(order)
        start = 0
        while start < n:
            start += int(np.argmax(pending[start:]))
            if not pending[start]:
                break
            cycle = array.array("q", [start])
            position = successor[start]
            while position != start:
                cycle.append(position)
                position = successor[position]
            members = np.frombuffer(cycle, dtype=np.int64)
            pending[members] = False
            spare_features, spare_label = features[start].copy(), labels[start]
            last = members.size - 1
            for lo in range(0, last, chunk):
                targets = members[lo : min(lo + chunk, last)]
                sources = members[lo + 1 : lo + 1 + targets.size]
                features[targets] = features[sources]
                labels[targets] = labels[sources]
            features[members[last]] = spare_features
            labels[members[last]] = spare_label

        bounds = np.cumsum([0] + [group.size for group in groups])
        views = [
            Dataset(
                features=features[lo:hi],
                labels=labels[lo:hi],
                num_classes=self.num_classes,
                name=self.name,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        features.flags.writeable = False
        labels.flags.writeable = False
        return views

    def gather(self, picks: np.ndarray, features: np.ndarray, labels: np.ndarray) -> None:
        """Copy rows ``picks`` into ``features`` and ``labels``.

        ``picks`` must lie in ``[0, len(self))``.  ``mode="wrap"`` lets
        ``np.take`` write straight into the buffers: its default mode
        builds the whole result in a temporary first, so that an
        out-of-range index leaves the buffer untouched.
        """
        np.take(self.features, picks, axis=0, out=features, mode="wrap")
        np.take(self.labels, picks, out=labels, mode="wrap")

    def sample_batch(self, batch_size: int, rng: np.random.Generator) -> "Dataset":
        """Uniformly sample a mini-batch with replacement.

        Sampling with replacement matches the Poisson/uniform subsampling
        assumption of the DP analysis in Theorem 1 ("each data example is
        sampled from dataset independently with replacement").
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(self) == 0:
            raise ValueError("cannot sample from an empty dataset")
        indices = rng.integers(0, len(self), size=batch_size)
        return self.subset(indices)

    def with_flipped_labels(self) -> "Dataset":
        """Label ``I`` becomes ``H - 1 - I`` (Section 2.3).

        The flipped dataset shares this one's features through a
        read-only view: only the labels are new.
        """
        features = self.features.view()
        features.flags.writeable = False
        return Dataset(
            features=features,
            labels=(self.num_classes - 1) - self.labels,
            num_classes=self.num_classes,
            name=f"{self.name}_flipped" if self.name else "flipped",
        )

    def class_counts(self) -> np.ndarray:
        """Number of examples per class, shape ``(num_classes,)``."""
        return np.bincount(self.labels, minlength=self.num_classes)
