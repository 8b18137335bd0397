"""Experiment configuration and execution.

Benchmarks, examples and tests all go through
:func:`repro.experiments.runner.run_experiment`, so every table and figure
is regenerated by the same code path the library's users would call.
The Reference Accuracy and the grid helpers load on first access: a
single ``repro run`` uses neither.
"""

import importlib

from repro.experiments.configs import ExperimentConfig
from repro.experiments.presets import (
    BYZANTINE_LEVELS,
    DROPOUT_RATES,
    PAPER_EPSILONS,
    benchmark_preset,
    dropout_sweep,
    exact_gamma,
    paper_preset,
)
from repro.experiments.runner import (
    ExperimentSetup,
    prepare_experiment,
    run_experiment,
    run_seeds,
)

#: Names re-exported on first access (PEP 562), and the submodule
#: defining each.
_LAZY = {
    "reference_accuracy": "reference",
    "reference_config": "reference",
    "run_grid": "sweep",
    "accuracy_grid": "sweep",
    "series_from_grid": "sweep",
}


def __getattr__(name: str):
    """Import the submodule that defines a lazily re-exported name."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "ExperimentConfig",
    "ExperimentSetup",
    "prepare_experiment",
    "run_experiment",
    "run_seeds",
    "reference_accuracy",
    "reference_config",
    "benchmark_preset",
    "dropout_sweep",
    "paper_preset",
    "exact_gamma",
    "PAPER_EPSILONS",
    "BYZANTINE_LEVELS",
    "DROPOUT_RATES",
    "run_grid",
    "accuracy_grid",
    "series_from_grid",
]
