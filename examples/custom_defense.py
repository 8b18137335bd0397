"""Extending the library: plug a custom aggregation rule into the simulation.

The library treats every server-side rule as an
:class:`~repro.defenses.base.Aggregator`; anything implementing
``aggregate(uploads, context)`` can be dropped into the federated loop and
evaluated against the built-in attacks.  This example implements a
norm-capped mean ("cap every upload at the median norm, then average"),
runs it against the Local-Model-Poisoning attack and compares it with the
undefended mean and the paper's two-stage protocol.

Run with::

    python examples/custom_defense.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.core.config import ProtocolConfig
from repro.core.protocol import TwoStageAggregator
from repro.defenses.base import AggregationContext, Aggregator
from repro.defenses.mean import MeanAggregator
from repro.experiments import benchmark_preset, reference_accuracy
from repro.experiments.runner import run_experiment as _run  # noqa: F401 (shown for reference)
from repro.federated.simulation import FederatedSimulation


# This example predates the registry and constructs the rule directly;
# examples/custom_components.py shows the registered (lint-clean) idiom.
class NormCappedMean(Aggregator):  # repro-lint: disable=REP004 -- constructed directly below
    """Average the uploads after capping each one at the median upload norm.

    A deliberately simple defense: it bounds the damage any single upload
    can do (like the protocol's first stage) but has no way to identify a
    coordinated majority (unlike the second stage).
    """

    def aggregate(
        self, uploads: list[np.ndarray], context: AggregationContext
    ) -> np.ndarray:
        stacked = self._validate(uploads)
        norms = np.linalg.norm(stacked, axis=1)
        cap = float(np.median(norms))
        if cap <= 0.0:
            return stacked.mean(axis=0)
        factors = np.minimum(1.0, cap / np.maximum(norms, 1e-12))
        return (stacked * factors[:, None]).mean(axis=0)


def evaluate(aggregator: Aggregator, config) -> float:
    """Run one federated training with an explicit aggregator instance."""
    from repro.core.config import DPConfig
    from repro.core.hyperparams import protocol_sigma, transfer_learning_rate
    from repro.byzantine.registry import build_attack
    from repro.data.auxiliary import sample_auxiliary
    from repro.data.partition import partition_iid
    from repro.data.registry import DATASETS, load_dataset
    from repro.federated.simulation import SimulationSettings
    from repro.nn.models import build_model

    import math

    rng = np.random.default_rng(config.seed)
    train, test = load_dataset(config.dataset, scale=config.scale, seed=config.seed)
    shards = partition_iid(train, config.n_honest, rng=rng)
    local_size = min(len(shard) for shard in shards)
    auxiliary = sample_auxiliary(test, per_class=config.aux_per_class, rng=rng)

    total_rounds = max(1, math.ceil(config.epochs * local_size / config.batch_size))
    delta = 1.0 / local_size**1.1
    sampling_rate = min(1.0, config.batch_size / local_size)
    sigma = protocol_sigma(config.epsilon, delta, sampling_rate, total_rounds)
    base_sigma = protocol_sigma(config.base_epsilon, delta, sampling_rate, total_rounds)
    learning_rate = transfer_learning_rate(config.base_lr, base_sigma, sigma)

    spec = DATASETS.metadata(config.dataset)["spec"]
    model = build_model(config.model or "linear", spec.n_features, spec.n_classes, rng)
    attack = build_attack(config.attack) if config.n_byzantine else None

    simulation = FederatedSimulation(
        model=model,
        honest_datasets=shards,
        n_byzantine=config.n_byzantine,
        attack=attack,
        aggregator=aggregator,
        dp_config=DPConfig(batch_size=config.batch_size, sigma=sigma, momentum=config.momentum),
        auxiliary=auxiliary,
        test_dataset=test,
        settings=SimulationSettings(
            total_rounds=total_rounds, learning_rate=learning_rate,
            eval_every=max(1, total_rounds // 4),
        ),
        seed=config.seed,
    )
    return simulation.run().final_accuracy


def main() -> None:
    attacked = benchmark_preset(
        byzantine_fraction=0.6, attack="lmp", defense="two_stage", epochs=6
    )
    reference = reference_accuracy(attacked)

    print("Evaluating aggregation rules under a 60% Local-Model-Poisoning attack...")
    results = {
        "plain mean": evaluate(MeanAggregator(), attacked),
        "norm-capped mean (custom)": evaluate(NormCappedMean(), attacked),
        "two-stage protocol (paper)": evaluate(
            TwoStageAggregator(ProtocolConfig(gamma=attacked.gamma)), attacked
        ),
    }

    rows = [["Reference Accuracy (no attack)", reference.final_accuracy]]
    rows += [[name, accuracy] for name, accuracy in results.items()]
    print()
    print(format_table(["aggregation rule", "test accuracy"], rows,
                       title="Custom defense vs the built-in rules (60% LMP attack)"))
    print(
        "\nThe norm cap limits the damage of each Byzantine upload but cannot reject "
        "a coordinated majority; the two-stage protocol identifies and excludes it."
    )


if __name__ == "__main__":
    main()
