"""Heap guard for one paper-shape round.

A round fills one ``(n, d)`` round matrix: the pools commit their shards
into its rows, and the two-stage rule masks it rather than copying it.
At the paper shape (``alittle``, Byzantine fraction 0.6: 20 + 30 workers,
d = 6570) that matrix is 2.5 MiB, and the rest of a round's peak is the
ALIE craft's temporaries (~4.4 MiB in all).  Stacking the pools' result
blocks and zeroing a filtered copy took the peak to ~8.8 MiB.
"""

from __future__ import annotations

import tracemalloc

from repro.experiments.presets import paper_preset
from repro.experiments.runner import prepare_experiment
from repro.federated.pipeline import RoundPipeline

#: most a warm round may allocate above its pre-round heap
ROUND_BUDGET_MIB = 6.0


def test_paper_round_allocates_within_budget():
    setup = prepare_experiment(
        paper_preset(attack="alittle", byzantine_fraction=0.6, seed=1)
    )
    simulation = setup.simulation
    try:
        pipeline = RoundPipeline(simulation)
        # Round 0 builds what later rounds reuse: engine scratch, the
        # FirstAGG filter and its KS workspace, the selector's scores.
        pipeline.run_round(0)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            pipeline.run_round(1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
    finally:
        simulation.close()
    assert (peak - before) / 2**20 <= ROUND_BUDGET_MIB
