"""End-to-end cross-device (population/cohort) mode.

The guarantees under test:

- a population-mode run is deterministic and bitwise-identical across
  execution backends (serial / threaded / remote), because every stream
  -- sampler plans, worker data, per-round noise -- is keyed by stable
  identifiers, never execution order;
- both pools of a protocol-following attack commit their shards into the
  round matrix identically on a parallel backend;
- a run resumed from a full-state snapshot mid-schedule replays the
  identical participation trace: plans are keyed by the round index, so
  the snapshot holds no sampler state;
- faults compose: partial cohorts under fault injection stay
  backend-invariant, with per-worker server state keyed by global ids.

Cross-backend comparisons pin ``shard_size`` so serial and parallel
pools share the same shard partition (the documented sharding caveat:
degenerate small-row GEMMs may hit different BLAS micro-kernels when the
partitions differ).
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.experiments.presets import benchmark_preset
from repro.experiments.runner import prepare_experiment, run_experiment
from repro.federated.pipeline import Checkpoint

BASE = dict(
    dataset="usps_like",
    scale=0.2,
    epochs=1,
    population=300,
    cohort=8,
    shard_size=4,  # identical shard partition on every backend
    seed=13,
)


def population_config(**overrides):
    merged = {**BASE, **overrides}
    return benchmark_preset(**merged)


def run_params(config, tmp_path=None, resume_from=None):
    """History dict plus final flat parameters of one run."""
    callbacks = []
    if tmp_path is not None:
        callbacks.append(Checkpoint(tmp_path))
    setup = prepare_experiment(config, resume_from=resume_from)
    try:
        history = setup.simulation.run(callbacks)
        parameters = setup.simulation.model.get_flat_parameters().copy()
    finally:
        setup.simulation.close()
    return history.as_dict(), parameters


class TestPopulationRuns:
    def test_run_completes_with_metadata(self):
        result = run_experiment(population_config())
        assert result.metadata["population"] == 300
        assert result.metadata["cohort"] == 8
        assert np.isfinite(result.final_accuracy)

    def test_repeat_run_bitwise_deterministic(self):
        config = population_config(byzantine_fraction=0.25, attack="label_flip")
        _, first = run_params(config)
        _, second = run_params(config)
        np.testing.assert_array_equal(first, second)

    def test_serial_vs_threaded_bitwise(self):
        config = population_config(byzantine_fraction=0.25, attack="label_flip")
        _, serial = run_params(config)
        _, threaded = run_params(
            config.replace(backend="threaded", backend_kwargs={"max_workers": 2})
        )
        np.testing.assert_array_equal(serial, threaded)

    def test_cohort_changes_the_trace(self):
        _, small = run_params(population_config())
        _, large = run_params(population_config(cohort=12))
        assert not np.array_equal(small, large)

    def test_fixed_sampler_selects_prefix(self):
        config = population_config(sampling="fixed")
        setup = prepare_experiment(config)
        try:
            setup.simulation.prepare_round(0)
            ids = setup.simulation.global_worker_ids()
            np.testing.assert_array_equal(ids[: setup.simulation.cohort],
                                          np.arange(setup.simulation.cohort))
        finally:
            setup.simulation.close()

    def test_sampling_kwargs_hold_only_sampler_keywords(self):
        """The runner sizes a worker's local data itself; a ``local_size``
        in ``sampling_kwargs`` reaches the sampler builder, which refuses
        it by name."""
        config = population_config(sampling_kwargs={"local_size": 10})
        with pytest.raises(TypeError, match="local_size"):
            prepare_experiment(config)


class TestRoundMatrix:
    def test_protocol_attack_serial_vs_threaded_bitwise(self):
        # A protocol-following (data poisoning) attack runs its own pool,
        # so the honest and the Byzantine pool both commit shards -- an
        # uneven last one included (10 = 4 + 4 + 2) -- into the round
        # matrix while threads compute the next ones.
        config = population_config(
            byzantine_fraction=0.25, attack="label_flip", cohort=10
        )
        _, serial = run_params(config)
        _, threaded = run_params(
            config.replace(backend="threaded", backend_kwargs={"max_workers": 2})
        )
        np.testing.assert_array_equal(serial, threaded)


    def test_clean_round_hands_the_server_global_ids(self):
        """A clean population round passes its whole round matrix with the
        sampled cohort's global ids (Byzantine ids above the population)
        and the registered population."""
        setup = prepare_experiment(
            population_config(byzantine_fraction=0.25, attack="label_flip")
        )
        simulation = setup.simulation
        update = simulation.server.update
        calls = []

        def recording_update(uploads, **kwargs):
            calls.append((uploads.shape, kwargs))
            return update(uploads, **kwargs)

        simulation.server.update = recording_update
        try:
            simulation.run_round(0)
            (shape, kwargs), = calls
            assert shape == (simulation.n_workers, simulation.model.num_parameters)
            ids = kwargs["worker_ids"]
            np.testing.assert_array_equal(ids, simulation.global_worker_ids())
            np.testing.assert_array_equal(
                ids[: simulation.n_honest], simulation.current_plan
            )
            assert (ids[simulation.n_honest:] >= simulation.byzantine_id_floor).all()
            assert kwargs["population"] == simulation.total_population
        finally:
            simulation.close()

    def test_ids_before_the_first_draw_follow_the_bootstrap_plan(self):
        """Before ``prepare_round`` the honest rows belong to the bootstrap
        cohort and the Byzantine rows still sit above the population."""
        simulation = prepare_experiment(
            population_config(byzantine_fraction=0.25, attack="label_flip")
        ).simulation
        try:
            ids = simulation.global_worker_ids()
        finally:
            simulation.close()
        n_honest = simulation.n_honest
        np.testing.assert_array_equal(ids[:n_honest], np.arange(simulation.cohort))
        np.testing.assert_array_equal(
            ids[n_honest:],
            simulation.byzantine_id_floor + np.arange(simulation.n_byzantine),
        )
        assert simulation.byzantine_id_floor == 300


class TestSamplerResume:
    def test_resume_mid_schedule_is_bitwise_identical(self, tmp_path):
        config = population_config(byzantine_fraction=0.25, attack="label_flip")
        history, parameters = run_params(config, tmp_path=tmp_path)
        snapshots = sorted(tmp_path.glob("round_*.state.npz"))
        assert len(snapshots) >= 3
        middle = snapshots[len(snapshots) // 2]
        resumed_history, resumed = run_params(config, resume_from=middle)
        np.testing.assert_array_equal(parameters, resumed)
        # The resumed tail of the history matches the uninterrupted run.
        for key, series in resumed_history.items():
            full = history[key]
            assert series == full[len(full) - len(series):], key


class TestFaultyPopulationRounds:
    CONFIG = dict(
        byzantine_fraction=0.25,
        attack="label_flip",
        faults="chaos",
        faults_kwargs={"seed": 11},
        min_quorum=1,
    )

    def test_faults_compose_with_population_mode(self):
        result = run_experiment(population_config(**self.CONFIG))
        assert np.isfinite(result.final_accuracy)

    def test_faulty_serial_vs_threaded_bitwise(self):
        config = population_config(**self.CONFIG)
        _, serial = run_params(config)
        _, threaded = run_params(
            config.replace(backend="threaded", backend_kwargs={"max_workers": 2})
        )
        np.testing.assert_array_equal(serial, threaded)

    def test_faulty_resume_replays_identical_trace(self, tmp_path):
        config = population_config(**self.CONFIG)
        _, parameters = run_params(config, tmp_path=tmp_path)
        snapshots = sorted(tmp_path.glob("round_*.state.npz"))
        middle = snapshots[len(snapshots) // 2]
        _, resumed = run_params(config, resume_from=middle)
        np.testing.assert_array_equal(parameters, resumed)


class TestRemoteTrace:
    def test_subsampling_trace_serial_vs_remote_bitwise(self):
        from tests.federated.test_service import start_worker_thread

        config = population_config(byzantine_fraction=0.25, attack="label_flip")
        serial_history, serial_params = run_params(config)

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        threads = [
            start_worker_thread(port, name=f"w{i}", reconnect_timeout=30.0)
            for i in range(2)
        ]
        remote_history, remote_params = run_params(config.replace(
            backend="remote",
            backend_kwargs={
                "port": port, "max_workers": 2, "worker_timeout": 30.0,
            },
        ))
        for thread, codes in threads:
            thread.join(timeout=15.0)
            assert codes == [0]
        np.testing.assert_array_equal(serial_params, remote_params)
        assert serial_history == remote_history
