"""Seeded cohort subsampling for cross-device populations.

Real cross-device federated learning draws a small cohort from a huge
registered population each round.  This module makes population size a
free variable:

- :data:`SAMPLERS` is the registry axis of cohort samplers.  A sampler
  draws the round's participation plan -- a sorted array of worker ids --
  from a counter-derived stream keyed ``(seed, "sampler", round_index)``,
  so the plan for any round is a pure function of the experiment seed and
  the round number.  Traces therefore replay bit-identically regardless
  of execution backend or restart point.
- :func:`derive_rng` is the keyed-derivation helper the fault models share:
  string component tags (hashed through CRC-32) or integer tags plus
  integer counters feed a ``SeedSequence``.  Streams are keyed by
  *stable identifiers* (worker id, round index), never by execution
  order -- the property lint rule REP007 enforces.
- :class:`WorkerSource` is the lazy population: it can stand in for a
  million registered workers while allocating nothing until a worker is
  actually sampled.  A worker's local dataset and per-round generator are
  derived on demand from ``(seed, "worker_data", worker_id)`` and
  ``(seed, "worker", worker_id, round_index)`` respectively, so clients
  are stateless between participations.  A sampled worker's dataset is
  an :class:`IndexView`: its sorted row indices into the base dataset,
  so a round copies only the mini-batch rows its workers draw.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.data.dataset import Dataset
from repro.registry import Registry

__all__ = [
    "SAMPLERS",
    "CohortSampler",
    "FixedSampler",
    "IndexView",
    "UniformSampler",
    "WeightedSampler",
    "WorkerSource",
    "build_sampler",
    "build_seeded",
    "derive_rng",
]

#: Registry of cohort samplers (the eighth scenario axis).
SAMPLERS = Registry("sampler")


def _component_tag(component: str | int) -> int:
    """Stable integer tag for a derivation component name."""
    if isinstance(component, str):
        return zlib.crc32(component.encode("utf-8"))
    return int(component)


def derive_rng(
    seed: int, component: str | int, *counters: int
) -> np.random.Generator:
    """Generator for the stream keyed ``(seed, component, *counters)``.

    ``component`` names the consumer ("sampler", "worker", "server", ...)
    and the counters are stable identifiers such as worker ids or round
    indices.  Equal keys give bitwise-equal streams on every backend and
    across restarts; distinct keys give independent streams.
    """
    entropy = (int(seed), _component_tag(component)) + tuple(
        int(counter) for counter in counters
    )
    return np.random.default_rng(np.random.SeedSequence(entropy))


def build_seeded(registry: Registry, spec: str, default_seed: int | None, kwargs: dict):
    """``registry.build(spec, **kwargs)``, adding ``seed=default_seed`` when
    it is given, ``kwargs`` pins no ``seed`` and the builder takes one."""
    if default_seed is not None and "seed" not in kwargs:
        try:
            registry.validate_kwargs(spec, {**kwargs, "seed": default_seed})
        except TypeError:
            pass  # builder takes no seed; leave the spec's kwargs alone
        else:
            kwargs = {**kwargs, "seed": default_seed}
    return registry.build(spec, **kwargs)


class CohortSampler:
    """Base class: draw a sorted cohort of worker ids for each round.

    Subclasses implement :meth:`_plan`.  A sampler holds no state between
    draws: the plan depends only on ``(seed, round_index, population,
    cohort)``, so the round index is all a resumed run needs to continue
    the schedule.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def rng(self, round_index: int) -> np.random.Generator:
        """The round's plan stream, keyed ``(seed, "sampler", round)``."""
        return derive_rng(self.seed, "sampler", round_index)

    def draw(self, round_index: int, population: int, cohort: int) -> np.ndarray:
        """Sorted ``int64`` ids of the workers participating this round."""
        population = int(population)
        cohort = int(cohort)
        if population <= 0:
            raise ValueError("population must be positive")
        if not 0 < cohort <= population:
            raise ValueError(
                f"cohort must be in [1, population]; got cohort={cohort} "
                f"for population={population}"
            )
        plan = np.asarray(
            self._plan(int(round_index), population, cohort), dtype=np.int64
        )
        if plan.shape != (cohort,):
            raise ValueError(
                f"sampler returned {plan.shape[0] if plan.ndim == 1 else plan.shape} "
                f"ids, expected {cohort}"
            )
        if plan.size and (plan[0] < 0 or plan[-1] >= population):
            raise ValueError("sampled worker ids out of range")
        if np.any(np.diff(plan) <= 0):
            raise ValueError("sampler must return strictly increasing worker ids")
        return plan

    def _plan(self, round_index: int, population: int, cohort: int) -> np.ndarray:
        raise NotImplementedError


@SAMPLERS.register(
    "uniform",
    summary="uniform cohort without replacement (Floyd; O(cohort) memory)",
)
class UniformSampler(CohortSampler):
    """Uniform sampling without replacement via Robert Floyd's algorithm.

    Memory and draw cost scale with the *cohort*, not the population, so
    drawing 64 workers from 10**6 registered ones is as cheap as from 100.
    """

    def _plan(self, round_index: int, population: int, cohort: int) -> np.ndarray:
        rng = self.rng(round_index)
        chosen: set[int] = set()
        for upper in range(population - cohort, population):
            candidate = int(rng.integers(0, upper + 1))
            chosen.add(upper if candidate in chosen else candidate)
        return np.sort(np.fromiter(chosen, dtype=np.int64, count=cohort))


@SAMPLERS.register(
    "fixed",
    summary="deterministic cohort: the first `cohort` worker ids every round",
)
class FixedSampler(CohortSampler):
    """Always select workers ``0 .. cohort-1`` (debug / ablation baseline)."""

    def _plan(self, round_index: int, population: int, cohort: int) -> np.ndarray:
        return np.arange(cohort, dtype=np.int64)


@SAMPLERS.register(
    "weighted",
    summary="weighted cohort without replacement (O(population) per draw)",
)
class WeightedSampler(CohortSampler):
    """Sample proportionally to per-worker weights, without replacement.

    Parameters
    ----------
    seed:
        Stream seed (injected from the experiment seed by
        :func:`build_sampler` unless given explicitly).
    weights:
        Optional explicit per-worker weights; must have length
        ``population`` at draw time.
    exponent:
        When ``weights`` is omitted, worker ``i`` gets weight
        ``(i + 1) ** exponent`` -- a simple skew knob for availability
        heterogeneity studies.

    Unlike :class:`UniformSampler` this materialises the probability
    vector, so a draw costs O(population) time and memory.
    """

    def __init__(
        self,
        seed: int = 0,
        weights: np.ndarray | list[float] | None = None,
        exponent: float = 1.0,
    ) -> None:
        super().__init__(seed=seed)
        self.weights = None if weights is None else np.asarray(weights, dtype=np.float64)
        self.exponent = float(exponent)

    def _plan(self, round_index: int, population: int, cohort: int) -> np.ndarray:
        if self.weights is not None:
            probabilities = self.weights
            if probabilities.shape != (population,):
                raise ValueError(
                    f"weights must have shape ({population},), "
                    f"got {probabilities.shape}"
                )
        else:
            probabilities = (
                np.arange(1, population + 1, dtype=np.float64) ** self.exponent
            )
        if not np.all(np.isfinite(probabilities)) or np.any(probabilities < 0):
            raise ValueError("weights must be finite and non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise ValueError("weights must not sum to zero")
        rng = self.rng(round_index)
        plan = rng.choice(
            population, size=cohort, replace=False, p=probabilities / total
        )
        return np.sort(plan.astype(np.int64))


def build_sampler(
    spec: str, *, default_seed: int | None = None, **kwargs
) -> CohortSampler:
    """Build a sampler from its registry name.

    ``default_seed`` seeds the sampler's derivation stream unless the
    caller pins a ``seed`` or the builder takes none (see
    :func:`build_seeded`).
    """
    return build_seeded(SAMPLERS, spec, default_seed, kwargs)


class IndexView:
    """A worker's local dataset as sorted row indices into a base dataset.

    Making a view copies no rows.  :meth:`gather` copies a mini-batch
    straight from the base into the caller's buffers -- the same bits
    ``base.subset(indices).gather`` copies -- and ``features`` and
    ``labels`` gather the view's rows on access, as read-only arrays, for
    readers that want them.
    """

    __slots__ = ("base", "indices")

    def __init__(self, base: Dataset, indices: np.ndarray) -> None:
        self.base = base
        self.indices = indices

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    @property
    def dim(self) -> int:
        """Feature dimensionality, delegated to the base dataset."""
        return self.base.dim

    @property
    def features(self) -> np.ndarray:
        """The view's feature rows, gathered now (read-only)."""
        return _read_only(self.base.features[self.indices])

    @property
    def labels(self) -> np.ndarray:
        """The view's labels, gathered now (read-only)."""
        return _read_only(self.base.labels[self.indices])

    def gather(self, picks: np.ndarray, features: np.ndarray, labels: np.ndarray) -> None:
        """Copy the view's rows ``picks`` into ``features`` and ``labels``.

        ``picks`` must lie in ``[0, len(self))`` (see :meth:`Dataset.gather`).
        """
        self.base.gather(self.indices[picks], features, labels)

    def materialize(self) -> Dataset:
        """A :class:`Dataset` holding a copy of the view's rows."""
        return self.base.subset(self.indices)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class WorkerSource:
    """Lazy registered population backed by one base dataset.

    Nothing is allocated per registered worker: a worker's local dataset
    is derived on demand from the stream keyed
    ``(seed, "worker_data", worker_id)`` and its per-round generator from
    ``(seed, "worker", worker_id, round_index)``.  Both are pure
    functions of stable identifiers, so the same worker id yields the
    same data and the same round yields the same batch stream on every
    backend and after any restart.  The dataset is an :class:`IndexView`
    into the base: deriving it draws ``local_size`` row indices and
    copies no rows.
    """

    def __init__(
        self, base: Dataset, population: int, local_size: int, seed: int
    ) -> None:
        if population <= 0:
            raise ValueError("population must be positive")
        if local_size <= 0:
            raise ValueError("local_size must be positive")
        if len(base) == 0:
            raise ValueError("base dataset must be non-empty")
        self.base = base
        self.population = int(population)
        self.local_size = int(local_size)
        self.seed = int(seed)

    def __len__(self) -> int:
        return self.population

    @property
    def dim(self) -> int:
        """Feature dimensionality, delegated to the base dataset."""
        return self.base.dim

    def _check_id(self, worker_id: int) -> int:
        worker_id = int(worker_id)
        if not 0 <= worker_id < self.population:
            raise ValueError(
                f"worker_id {worker_id} out of range for population "
                f"{self.population}"
            )
        return worker_id

    def dataset(self, worker_id: int) -> IndexView:
        """The worker's local dataset, as an index view into the base."""
        worker_id = self._check_id(worker_id)
        rng = derive_rng(self.seed, "worker_data", worker_id)
        replace = self.local_size > len(self.base)
        indices = rng.choice(len(self.base), size=self.local_size, replace=replace)
        indices.sort()
        return IndexView(self.base, indices)

    def round_rng(self, worker_id: int, round_index: int) -> np.random.Generator:
        """The worker's generator for one round's participation."""
        worker_id = self._check_id(worker_id)
        return derive_rng(self.seed, "worker", worker_id, int(round_index))

    def datasets(self, worker_ids: np.ndarray) -> list[IndexView]:
        """Local datasets (index views) for a sampled cohort."""
        return [self.dataset(worker_id) for worker_id in worker_ids]

    def round_rngs(
        self, worker_ids: np.ndarray, round_index: int
    ) -> list[np.random.Generator]:
        """Per-round generators for a sampled cohort."""
        return [
            self.round_rng(worker_id, round_index) for worker_id in worker_ids
        ]
