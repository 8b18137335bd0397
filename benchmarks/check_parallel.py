#!/usr/bin/env python
"""Multi-core CI assertions for the parallel execution paths.

The in-repo bench host has a single core, so the threaded backend and
the process-parallel sweep can only *demonstrate* their speedups on the
multi-core CI runner.  This script is what the ``bench-parallel`` CI job
runs there:

- ``speedup``: read a ``BENCH_micro_parallel.json`` export (from
  ``benchmarks/bench_micro_parallel.py``), print the serial/threaded
  min-time ratio per group and fail unless the required group reaches
  the minimum speedup (default: >= 1.5x round throughput at n=120 with
  4 jobs).
- ``sweep``: run a small ``run_grid`` twice -- serially and with
  ``max_workers=4`` -- and fail unless every (cell, seed) result is
  identical, which pins the process-parallel sweep path end to end.
- ``shards``: run a paper-scale 1-epoch config (``alittle`` at Byzantine
  fraction 0.6: 20 honest workers, d = 6570) with ``shard_size`` None, 1
  and 3 on the serial and threaded backends, and fail unless all six
  final-parameter sha256 values match.  Stdout alone misses low-bit
  drift; this pins capture passes of 320, 16 and 48 rows (and the
  threaded split) to the same bits end to end.  A population run
  (``usps_like``, population 2000, cohort 16, ``label_flip`` at
  Byzantine fraction 0.2, 2 epochs) must likewise hash to one digest on
  the serial, threaded and process backends at the same three shard
  sizes: it re-points the honest pool at a sampled cohort every round
  and runs the label-flipping attack's own pool.  A buffered-straggler
  run (the paper-scale config under ``chaos`` faults with
  ``straggler=0.2, mode="buffer"`` and ``min_quorum=0.25``) is hashed
  the same way on all three backends: stragglers are buffered in every
  round, so each round merges last round's late reports with its
  survivors by worker id.

Run::

    python benchmarks/check_parallel.py speedup BENCH_micro_parallel.json
    PYTHONPATH=src python benchmarks/check_parallel.py sweep
    PYTHONPATH=src python benchmarks/check_parallel.py shards
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def group_min_times(path: Path) -> dict[str, dict[str, float]]:
    """``group -> {backend param -> min seconds}`` from the JSON export."""
    data = json.loads(path.read_text())
    groups: dict[str, dict[str, float]] = {}
    for bench in data.get("benchmarks", []):
        group = bench.get("group") or "default"
        backend = bench.get("params", {}).get("backend", bench["fullname"])
        groups.setdefault(group, {})[backend] = float(bench["stats"]["min"])
    if not groups:
        raise SystemExit(f"{path}: export contains no benchmarks")
    return groups


def command_speedup(arguments: argparse.Namespace) -> int:
    groups = group_min_times(arguments.results)
    failures = []
    for group in sorted(groups):
        times = groups[group]
        if "serial" not in times or "threaded" not in times:
            print(f"{group}: missing serial/threaded pair, skipping")
            continue
        speedup = times["serial"] / times["threaded"]
        required = arguments.min_speedup if group == arguments.require_group else None
        verdict = ""
        if required is not None and speedup < required:
            verdict = f"  FAIL (required >= {required:.2f}x)"
            failures.append(group)
        elif required is not None:
            verdict = f"  OK (required >= {required:.2f}x)"
        print(
            f"{group}: serial {times['serial'] * 1e3:.2f}ms, "
            f"threaded {times['threaded'] * 1e3:.2f}ms -> "
            f"{speedup:.2f}x{verdict}"
        )
    if arguments.require_group not in groups:
        print(f"required group {arguments.require_group!r} missing from the export")
        return 1
    return 1 if failures else 0


def command_sweep(arguments: argparse.Namespace) -> int:
    from repro.experiments.presets import benchmark_preset
    from repro.experiments.sweep import run_grid

    base = benchmark_preset(scale=0.1, epochs=1, n_honest=4)
    grid = {
        ("mnist_like", epsilon): base.replace(epsilon=epsilon)
        for epsilon in (0.25, 0.5, 1.0, 2.0)
    }
    seeds = [1, 2]
    serial = run_grid(grid, seeds=seeds)
    parallel = run_grid(grid, seeds=seeds, max_workers=arguments.jobs)
    mismatches = []
    for key in grid:
        for seed_index, (a, b) in enumerate(zip(serial[key], parallel[key])):
            if a.history.as_dict() != b.history.as_dict():
                mismatches.append((key, seeds[seed_index]))
    for key, seed in mismatches:
        print(f"MISMATCH {key} seed {seed}: parallel sweep diverged from serial")
    if mismatches:
        return 1
    cells = len(grid) * len(seeds)
    print(
        f"run_grid(max_workers={arguments.jobs}) identical to the serial sweep "
        f"across {cells} (cell, seed) runs"
    )
    return 0


def _paper_config(**execution):
    from repro.experiments.presets import paper_preset

    return paper_preset(attack="alittle", byzantine_fraction=0.6, epochs=1, **execution)


def _population_config(**execution):
    from repro.experiments.presets import benchmark_preset

    return benchmark_preset(
        dataset="usps_like", population=2000, cohort=16, byzantine_fraction=0.2,
        attack="label_flip", epochs=2, seed=1, **execution,
    )


def _straggler_config(**execution):
    return _paper_config(
        faults="chaos", faults_kwargs={"straggler": 0.2, "mode": "buffer"},
        min_quorum=0.25, **execution,
    )


#: ``name -> (config factory, backends)``; every shard size runs on each.
SHARD_CASES = {
    "paper": (_paper_config, ("serial", "threaded")),
    "population": (_population_config, ("serial", "threaded", "process")),
    "stragglers": (_straggler_config, ("serial", "threaded", "process")),
}


def command_shards(arguments: argparse.Namespace) -> int:
    from repro.experiments.runner import prepare_experiment

    mismatched = []
    for case, (build_config, backends) in SHARD_CASES.items():
        digests = {}
        for backend in backends:
            jobs = {} if backend == "serial" else {"max_workers": arguments.jobs}
            for shard_size in (None, 1, 3):
                config = build_config(
                    shard_size=shard_size, backend=backend, backend_kwargs=jobs
                )
                simulation = prepare_experiment(config).simulation
                try:
                    simulation.run()
                finally:
                    simulation.close()
                parameters = simulation.model.get_flat_parameters()
                digest = hashlib.sha256(
                    parameters.astype("<f8", copy=False).tobytes()
                ).hexdigest()
                digests[backend, shard_size] = digest
                print(f"{case} {backend} shard_size={shard_size}: {digest}")
        if len(set(digests.values())) != 1:
            print(f"MISMATCH: the {case} run's final parameters depend on the "
                  "backend or shard size")
            mismatched.append(case)
        else:
            print(f"{case}: final parameters identical across {len(digests)} "
                  "(backend, shard_size) runs")
    return 1 if mismatched else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Assert the parallel paths' speedup and determinism in CI."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    speedup = commands.add_parser(
        "speedup", help="check serial/threaded ratios in a BENCH export"
    )
    speedup.add_argument("results", type=Path, metavar="BENCH_micro_parallel.json")
    speedup.add_argument("--min-speedup", type=float, default=1.5,
                         help="required serial/threaded ratio (default: 1.5)")
    speedup.add_argument("--require-group", default="micro-parallel-n120",
                         help="benchmark group the requirement applies to")
    speedup.set_defaults(run=command_speedup)

    sweep = commands.add_parser(
        "sweep", help="run a small grid serially and process-parallel, compare"
    )
    sweep.add_argument("--jobs", type=int, default=4,
                       help="worker processes for the parallel sweep (default: 4)")
    sweep.set_defaults(run=command_sweep)

    shards = commands.add_parser(
        "shards", help="hash a paper-scale, a population and a buffered-"
        "straggler run's parameters across shard sizes and backends"
    )
    shards.add_argument("--jobs", type=int, default=4,
                        help="threads or processes for the parallel runs (default: 4)")
    shards.set_defaults(run=command_shards)

    arguments = parser.parse_args(argv)
    return arguments.run(arguments)


if __name__ == "__main__":
    sys.exit(main())
