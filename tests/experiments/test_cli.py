"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


FAST_ARGUMENTS = [
    "--dataset", "usps_like", "--byzantine", "0.5", "--epochs", "1", "--seed", "1",
]


class TestParser:
    def test_list_command(self):
        arguments = build_parser().parse_args(["list"])
        assert arguments.command == "list"

    def test_run_defaults(self):
        arguments = build_parser().parse_args(["run"])
        assert arguments.dataset == "mnist_like"
        assert arguments.defense == "two_stage"
        assert arguments.byzantine == pytest.approx(0.6)
        assert not arguments.no_dp

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_rejects_unknown_defense(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--defense", "blockchain"])

    def test_rejects_unknown_attack(self, capsys):
        # A bad --attack must exit at the parser, not deep inside the run.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--attack", "quantum"])
        assert excinfo.value.code == 2
        assert "--attack" in capsys.readouterr().err

    def test_accepts_adaptive_attacks(self):
        arguments = build_parser().parse_args(["run", "--attack", "adaptive_lmp"])
        assert arguments.attack == "adaptive_lmp"

    def test_accepts_defense_aliases(self):
        # Registry aliases are valid everywhere, including the CLI flag.
        arguments = build_parser().parse_args(["run", "--defense", "geometric_median"])
        assert arguments.defense == "geometric_median"

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_backend_defaults_and_jobs(self):
        arguments = build_parser().parse_args(["run"])
        assert arguments.backend == "serial"
        assert arguments.jobs is None
        arguments = build_parser().parse_args(
            ["run", "--backend", "threaded", "--jobs", "4"]
        )
        assert arguments.backend == "threaded"
        assert arguments.jobs == 4

    def test_accepts_backend_aliases(self):
        arguments = build_parser().parse_args(["run", "--backend", "threads"])
        assert arguments.backend == "threads"

    def test_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--backend", "gpu"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_faults_defaults_and_choices(self):
        arguments = build_parser().parse_args(["run"])
        assert arguments.faults == "none"
        assert arguments.min_quorum == 1
        arguments = build_parser().parse_args(
            ["run", "--faults", "dropout", "--min-quorum", "0.5"]
        )
        assert arguments.faults == "dropout"
        assert arguments.min_quorum == pytest.approx(0.5)
        assert isinstance(arguments.min_quorum, float)

    def test_min_quorum_integer_stays_integer(self):
        arguments = build_parser().parse_args(["run", "--min-quorum", "3"])
        assert arguments.min_quorum == 3
        assert isinstance(arguments.min_quorum, int)

    def test_accepts_fault_aliases(self):
        arguments = build_parser().parse_args(["run", "--faults", "dropout_crash"])
        assert arguments.faults == "dropout_crash"

    def test_rejects_unknown_fault_model(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--faults", "meteor"])
        assert excinfo.value.code == 2
        assert "--faults" in capsys.readouterr().err


class TestServiceParser:
    def test_serve_defaults(self):
        arguments = build_parser().parse_args(["serve"])
        assert arguments.command == "serve"
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 7733
        assert arguments.workers == 1
        assert arguments.heartbeat_interval == pytest.approx(0.5)
        assert arguments.heartbeat_timeout == pytest.approx(10.0)
        assert arguments.transport_retries == 3
        assert arguments.worker_timeout == pytest.approx(60.0)
        assert arguments.state_dir is None
        assert arguments.metrics_out is None
        assert not arguments.metrics_fsync

    def test_serve_accepts_experiment_flags(self):
        arguments = build_parser().parse_args([
            "serve", "--dataset", "usps_like", "--workers", "4",
            "--state-dir", "/tmp/state", "--port", "0",
        ])
        assert arguments.dataset == "usps_like"
        assert arguments.workers == 4
        assert arguments.state_dir == "/tmp/state"
        assert arguments.port == 0

    def test_worker_defaults(self):
        arguments = build_parser().parse_args(["worker"])
        assert arguments.command == "worker"
        assert arguments.host == "127.0.0.1"
        assert arguments.port == 7733
        assert arguments.name is None
        assert arguments.reconnect_timeout == pytest.approx(30.0)
        assert arguments.throttle == pytest.approx(0.0)
        assert not arguments.verbose

    def test_metrics_fsync_flag_on_run_and_serve(self):
        assert build_parser().parse_args(
            ["run", "--metrics-fsync"]
        ).metrics_fsync
        assert build_parser().parse_args(
            ["serve", "--metrics-fsync"]
        ).metrics_fsync


class TestOperationalExitCodes:
    def test_quorum_violation_exits_2_with_one_line_message(self, capsys):
        # Full-population quorum under injected dropout: some round loses
        # a worker, and the CLI must report it, not traceback.
        code = main([
            "run", *FAST_ARGUMENTS, "--attack", "gaussian",
            "--faults", "chaos", "--min-quorum", "1.0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert len(err.strip().splitlines()) == 1

    def test_broken_stdout_pipe_exits_quietly(self, monkeypatch, capsys):
        # BrokenPipeError subclasses ConnectionError, but ``repro list |
        # head`` closing our stdout is not a federation transport failure:
        # conventional 128+SIGPIPE exit, nothing on stderr.
        def explode(arguments):
            raise BrokenPipeError

        monkeypatch.setattr("repro.cli._command_list", explode)
        assert main(["list"]) == 141
        assert capsys.readouterr().err == ""

    def test_connection_failure_exits_3_with_one_line_message(self, capsys):
        # A coordinator whose workers never show up aborts with the
        # connection exit code a supervisor restarts on.
        code = main([
            "serve", *FAST_ARGUMENTS, "--attack", "gaussian",
            "--port", "0", "--worker-timeout", "0.2",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("repro: connection error: ")
        assert len(err.strip().splitlines()) == 1


class TestCommands:
    def test_list_prints_registries(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for expected in ("mnist_like", "label_flip", "two_stage", "mlp_small"):
            assert expected in output

    def test_list_json_emits_describe_rows(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        kinds = {row["kind"] for row in rows}
        assert kinds == {
            "dataset", "attack", "defense", "model", "engine", "backend",
            "fault", "sampler",
        }
        by_name = {row["name"]: row for row in rows}
        assert by_name["two_stage"]["summary"]

    def test_list_json_renders_callables_by_name(self, capsys):
        """A callable's ``repr`` holds a memory address, which made two
        listings of one tree differ."""
        assert main(["list", "--json"]) == 0
        output = capsys.readouterr().out
        assert " at 0x" not in output
        by_name = {row["name"]: row for row in json.loads(output)}
        defaults = by_name["trimmed_mean"]["metadata"]["config_defaults"]
        assert defaults["trim_fraction"] == "_default_trim_fraction"

    def test_run_with_faults_and_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "rounds.jsonl"
        assert main([
            "run", *FAST_ARGUMENTS, "--attack", "gaussian",
            "--faults", "dropout", "--min-quorum", "0.25",
            "--metrics-out", str(metrics),
        ]) == 0
        output = capsys.readouterr().out
        assert "final test accuracy" in output
        assert f"per-round metrics written to {metrics}" in output
        records = [
            json.loads(line) for line in metrics.read_text().strip().splitlines()
        ]
        assert records
        assert all("fault_survivors" in record for record in records)

    def test_run_from_config_file(self, tmp_path, capsys):
        from repro.experiments.presets import benchmark_preset

        config = benchmark_preset(
            dataset="usps_like", byzantine_fraction=0.5, attack="gaussian",
            epochs=1, scale=0.2, n_honest=4,
        )
        path = tmp_path / "experiment.json"
        path.write_text(config.to_json())
        assert main(["run", "--config", str(path)]) == 0
        output = capsys.readouterr().out
        assert "usps_like" in output
        assert "gaussian / two_stage" in output

    def test_config_file_with_unknown_key_exits_cleanly(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"dataset": "usps_like", "atack": "lmp"}))
        with pytest.raises(SystemExit, match="atack"):
            main(["run", "--config", str(path)])

    def test_missing_config_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["run", "--config", str(tmp_path / "nope.json")])

    def test_malformed_config_json_exits_cleanly(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit, match="invalid --config"):
            main(["run", "--config", str(path)])

    def test_run_prints_accuracy(self, capsys):
        code = main(["run", *FAST_ARGUMENTS, "--attack", "gaussian"])
        assert code == 0
        output = capsys.readouterr().out
        assert "final test accuracy" in output
        assert "noise multiplier sigma" in output

    def test_run_output_byte_identical_across_backends(self, capsys):
        """The acceptance gate: backend choice is invisible in the output."""
        assert main(["run", *FAST_ARGUMENTS, "--backend", "serial"]) == 0
        serial_output = capsys.readouterr().out
        assert main(
            ["run", *FAST_ARGUMENTS, "--backend", "threaded", "--jobs", "2"]
        ) == 0
        assert capsys.readouterr().out == serial_output

    def test_population_run_without_cohort_prints_the_resolved_cohort(self, capsys):
        """Without --cohort the cohort is the whole population."""
        code = main([
            "run", "--dataset", "usps_like", "--population", "40",
            "--byzantine", "0.2", "--attack", "label_flip", "--epochs", "1",
            "--seed", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "cohort (honest + byzantine)  40 + 10" in output

    def test_run_no_dp(self, capsys):
        code = main(["run", *FAST_ARGUMENTS, "--attack", "gaussian", "--no-dp"])
        assert code == 0
        assert "non-private" in capsys.readouterr().out

    def test_run_saves_results(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(["run", *FAST_ARGUMENTS, "--attack", "gaussian", "--save", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert "run" in payload

    def test_compare_prints_three_rows(self, capsys):
        code = main(["compare", *FAST_ARGUMENTS, "--attack", "gaussian"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Reference Accuracy" in output
        assert "undefended mean" in output
        assert "two_stage under gaussian" in output

    def test_compare_saves_three_results(self, tmp_path, capsys):
        path = tmp_path / "compare.json"
        code = main([
            "compare", *FAST_ARGUMENTS, "--attack", "gaussian", "--save", str(path)
        ])
        assert code == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"reference", "undefended", "protected"}
