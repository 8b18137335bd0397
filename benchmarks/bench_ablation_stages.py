"""Ablation -- first stage only vs second stage only vs the full protocol.

The co-design of the two stages is the paper's central claim (Section 4.7:
the first stage bounds the damage of any accepted upload, the second stage
filters the uploads that slip through).  This ablation turns each stage off
in turn under the Local-Model-Poisoning attack, on the scaled-down substrate
that README.md describes ("What this reproduction substitutes").
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_table
from repro.experiments import benchmark_preset, reference_accuracy, run_grid
from repro.experiments.sweep import accuracy_grid

VARIANTS = ("mean", "first_stage_only", "second_stage_only", "two_stage")
CHANCE = 0.1


@pytest.mark.benchmark(group="ablation")
def bench_ablation_aggregation_stages(benchmark, record_table):
    base = benchmark_preset(epochs=6)
    grid = {
        variant: benchmark_preset(
            byzantine_fraction=0.6, attack="lmp", defense=variant, epochs=6
        )
        for variant in VARIANTS
    }

    def run():
        reference = reference_accuracy(base).final_accuracy
        return reference, accuracy_grid(run_grid(grid))

    reference, measured = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [[variant, measured[variant]] for variant in VARIANTS]
    record_table(
        "ablation_stages",
        format_table(
            ["aggregation", "accuracy @60% LMP"],
            rows,
            title=(
                "Ablation (design choice): contribution of each aggregation stage\n"
                f"Reference Accuracy (no attack): {reference:.3f}"
            ),
        ),
    )

    # Shape: the full protocol is the best variant; removing the second stage
    # costs the most (the LMP attack is crafted to slip past the first stage),
    # and the undefended mean collapses entirely.
    assert measured["two_stage"] >= max(measured["mean"], measured["first_stage_only"]) - 0.02
    assert measured["two_stage"] > measured["mean"] + 0.15
    assert measured["mean"] < CHANCE + 0.1
    assert measured["second_stage_only"] > measured["mean"]
