"""Grid execution helpers used by the benchmark harness and the examples.

A "sweep" is a mapping from a descriptive key (any hashable, typically a
tuple like ``(dataset, epsilon, byzantine_fraction)``) to an
:class:`~repro.experiments.configs.ExperimentConfig`.  :func:`run_grid`
executes every cell and returns the results under the same keys, so the
benchmark code stays declarative: build the grid, run it, format the table.
Each (cell, seed) run is independent and fully seeded, so ``run_grid`` can
optionally fan the runs out over worker processes (``max_workers``) with
results identical to a serial sweep.

Every cell goes through the same registry-driven builder path as the CLI
(:func:`~repro.experiments.runner.run_experiment` ->
:func:`~repro.experiments.runner.prepare_experiment`), so grids may name
any component registered through the public :class:`repro.registry.Registry`
API; with ``max_workers`` the worker processes must import the module that
registers those components (e.g. via the config's import side effects)
before building -- registries are per-process.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from concurrent.futures import FIRST_COMPLETED, wait

from repro.analysis.results import RunResult
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import run_experiment

__all__ = ["run_grid", "accuracy_grid", "population_grid", "series_from_grid"]


def population_grid(
    populations: Iterable[int],
    cohort: int = 64,
    **overrides,
) -> dict[int, ExperimentConfig]:
    """Population-scaling grid: one cell per registered population size.

    Every cell draws ``cohort`` honest workers per round (capped by its
    population), so the sweep isolates how cost scales with the
    *registered* population at a fixed per-round compute budget -- the
    cross-device scaling question ``benchmarks/bench_macro_population.py``
    measures.  Extra keywords are forwarded to
    :func:`~repro.experiments.presets.benchmark_preset` for every cell.
    """
    from repro.experiments.presets import benchmark_preset

    if cohort <= 0:
        raise ValueError("cohort must be positive")
    grid: dict[int, ExperimentConfig] = {}
    for population in populations:
        population = int(population)
        if population <= 0:
            raise ValueError("populations must be positive")
        grid[population] = benchmark_preset(
            population=population,
            cohort=min(cohort, population),
            **overrides,
        )
    return grid


def run_grid(
    grid: Mapping[Hashable, ExperimentConfig],
    seeds: Iterable[int] | None = None,
    progress: Callable[[Hashable, RunResult], None] | None = None,
    max_workers: int | None = None,
) -> dict[Hashable, list[RunResult]]:
    """Run every configuration in ``grid``.

    Parameters
    ----------
    grid:
        Mapping from cell key to configuration.
    seeds:
        Seeds to run per cell (default: just the config's own seed).  Any
        iterable works -- it is materialised once up front, so a generator
        is *not* exhausted by the first cell.
    progress:
        Optional callback invoked after each run with ``(key, result)``;
        benchmarks use it to stream progress lines.  Always invoked in the
        parent process; with ``max_workers`` the invocation order follows
        run *completion*, not grid order.
    max_workers:
        If greater than 1, distribute the runs over that many worker
        processes.  Every (cell, seed) run is independent and fully seeded,
        so the returned results are identical to a serial sweep -- only
        wall-clock time changes.  ``None`` or 1 runs serially in-process.

    Returns
    -------
    Mapping from the same keys (in grid order) to the list of per-seed
    results (in ``seeds`` order).
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError("max_workers must be a positive integer")
    # Materialise once: a generator passed as ``seeds`` would otherwise be
    # consumed by the first cell, silently running zero seeds afterwards.
    seed_list = list(seeds) if seeds is not None else None
    jobs = [
        (key, config, seed)
        for key, config in grid.items()
        for seed in (seed_list if seed_list is not None else [config.seed])
    ]
    results: dict[Hashable, list[RunResult]] = {key: [] for key in grid}

    if max_workers is None or max_workers == 1 or len(jobs) <= 1:
        for key, config, seed in jobs:
            result = run_experiment(config, seed=seed)
            results[key].append(result)
            if progress is not None:
                progress(key, result)
        return results

    # Fan the independent runs out over processes.  Slots are preallocated
    # so per-seed order inside each cell matches the serial sweep no matter
    # which run finishes first.  (Imported here: it loads multiprocessing.)
    from concurrent.futures import ProcessPoolExecutor

    for key, config, seed in jobs:
        results[key].append(None)  # type: ignore[arg-type]
    slot_of = {}
    counts: dict[Hashable, int] = {key: 0 for key in grid}
    with ProcessPoolExecutor(max_workers=max_workers) as executor:
        try:
            for key, config, seed in jobs:
                future = executor.submit(run_experiment, config, seed=seed)
                slot_of[future] = (key, counts[key])
                counts[key] += 1
            pending = set(slot_of)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    key, slot = slot_of[future]
                    result = future.result()
                    results[key][slot] = result
                    if progress is not None:
                        progress(key, result)
        except BaseException:
            # Fail fast like the serial path: drop queued runs instead of
            # letting a long sweep grind on after the first failure.
            executor.shutdown(wait=False, cancel_futures=True)
            raise
    return results


def accuracy_grid(
    results: Mapping[Hashable, list[RunResult]],
) -> dict[Hashable, float]:
    """Mean final accuracy of every cell."""
    return {
        key: sum(run.final_accuracy for run in cell) / len(cell)
        for key, cell in results.items()
        if cell
    }


def series_from_grid(
    accuracies: Mapping[Hashable, float],
    x_values: Iterable[Hashable],
    key_for: Callable[[Hashable], Hashable],
) -> list[float]:
    """Extract an ordered series from a cell->accuracy mapping.

    ``key_for(x)`` maps an x-axis value to the grid key holding its result;
    missing cells yield ``nan`` so partially-run sweeps still format cleanly.
    """
    series: list[float] = []
    for x in x_values:
        key = key_for(x)
        series.append(accuracies.get(key, float("nan")))
    return series
