"""Datasets, partitioning and server auxiliary data.

The paper evaluates on MNIST, Fashion-MNIST, USPS and Colorectal.  This
offline reproduction registers synthetic stand-ins with matching class
counts and relative sizes/difficulty (see "What this reproduction
substitutes" in README.md):

================  =======  =========  ========  ==========================
registered name   classes  train size test size mirrors
================  =======  =========  ========  ==========================
``mnist_like``    10       6000       1000      MNIST (easiest, largest)
``fashion_like``  10       6000       1000      Fashion-MNIST (harder)
``usps_like``     10       2400       600       USPS (smaller)
``colorectal_like``  8     1000       250       Colorectal (smallest/hardest)
================  =======  =========  ========  ==========================

Partitioning across workers follows the paper: i.i.d. splits and the
non-i.i.d. construction of Algorithm 4.  Server auxiliary data is sampled as
2 examples per class from the test split, optionally from a *different* data
space to reproduce the Table 17 mismatch experiment.
"""

from repro.data.auxiliary import sample_auxiliary, sample_mismatched_auxiliary
from repro.data.dataset import Dataset
from repro.data.partition import partition_iid, partition_noniid
from repro.data.registry import (
    DATASETS,
    DatasetSpec,
    available_datasets,
    load_dataset,
    register_dataset_spec,
)
from repro.data.synthetic import make_classification, make_mismatched_space

__all__ = [
    "Dataset",
    "make_classification",
    "make_mismatched_space",
    "partition_iid",
    "partition_noniid",
    "sample_auxiliary",
    "sample_mismatched_auxiliary",
    "DATASETS",
    "DatasetSpec",
    "available_datasets",
    "load_dataset",
    "register_dataset_spec",
]
