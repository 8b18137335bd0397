"""Tests of the end-to-end benchmark harness (no training is spawned)."""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, HERE / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


bench = _load("e2e_bench", "bench.py")
child = _load("e2e_child", "child.py")


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def test_p90_needs_ten_samples_beyond_it():
    assert bench.percentile([float(v) for v in range(99)], 0.9) is None
    assert bench.percentile([float(v) for v in range(100)], 0.9) == pytest.approx(89.1)


def test_p50_needs_twenty_samples():
    assert bench.percentile([float(v) for v in range(19)], 0.5) is None
    assert bench.percentile([float(v) for v in range(20)], 0.5) == pytest.approx(9.5)
    assert bench.percentile([], 0.5) is None


def test_missing_percentile_is_left_out_not_zero():
    # two rounds per rep: far too few samples for p50 or p90
    summary = bench.summarize([_fake_rep("aa"), _fake_rep("aa")], bench.load_spec())
    assert summary["round_ms_p50"]["value"] is None
    metrics = bench.reported(summary, ["wall_s", "round_ms_p50"])
    assert list(metrics) == ["wall_s"]
    assert metrics["wall_s"] == {"value": pytest.approx(2.0), "unit": "s"}


# ---------------------------------------------------------------------- #
# self time of nested wrappers
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = child.SpanTracer(clock=clock)
    tracer.in_round = True
    outer = tracer.enter("server.update")  # 0 -> 10
    clock.now = 1.0
    first = tracer.enter("first_stage.filter")  # 1 -> 4
    clock.now = 2.0
    nested = tracer.enter("worker.upload")  # 2 -> 3
    clock.now = 3.0
    tracer.exit(nested)
    clock.now = 4.0
    tracer.exit(first)
    clock.now = 5.0
    second = tracer.enter("first_stage.filter")  # 5 -> 6
    clock.now = 6.0
    tracer.exit(second)
    clock.now = 10.0
    tracer.exit(outer)

    assert tracer.self_s["server.update"] == pytest.approx(6.0)
    assert tracer.self_s["first_stage.filter"] == pytest.approx(3.0)
    assert tracer.total_s["first_stage.filter"] == pytest.approx(4.0)
    assert tracer.self_s["worker.upload"] == pytest.approx(1.0)
    assert tracer.calls["first_stage.filter"] == 2
    # only the outermost span counts towards round coverage
    assert tracer.root_s == pytest.approx(10.0)


def test_span_wrapper_closes_on_exception():
    clock = FakeClock()
    tracer = child.SpanTracer(clock=clock)

    def fails():
        clock.now += 2.0
        raise ValueError("boom")

    wrapped = child._span_wrapper(tracer, fails, "data.load")
    with pytest.raises(ValueError):
        wrapped()
    assert tracer._stack() == []
    assert tracer.self_s["data.load"] == pytest.approx(2.0)
    assert tracer.root_s == 0.0  # no round was open


def test_streamed_blocks_are_timed_per_next():
    clock = FakeClock()
    tracer = child.SpanTracer(clock=clock)

    class Block:
        shape = (4, 3)

    def blocks(pool, model):
        for _ in range(3):
            clock.now += 1.0
            yield Block()

    wrapped = child._upload_blocks_wrapper(tracer, blocks)
    outer = tracer.enter("server.update")
    for _ in wrapped(object(), None):
        clock.now += 0.5  # the consumer's own work
    tracer.exit(outer)
    assert tracer.self_s["worker.upload"] == pytest.approx(3.0)
    assert tracer.self_s["server.update"] == pytest.approx(1.5)
    assert tracer.counts["worker.upload.rows"] == 12


# ---------------------------------------------------------------------- #
# compare verdicts
# ---------------------------------------------------------------------- #
SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def _results(wall=(1.0, 0.99, 1.01), rate=(100.0, 99.0, 101.0), uploads=380.0, failed=0.0):
    def entry(value, q1, q3):
        return {"value": value, "q1": q1, "q3": q3, "n": 5, "unit": "-"}

    return {"workloads": {"reference": {
        "metrics": {"wall_s": entry(*wall), "rounds_per_s": entry(*rate),
                    "runs_failed": entry(failed, 0.0, 0.0)},
        "layers": {name: {"value": uploads if name == "worker.uploads" else 1.0, "unit": "-"}
                   for name in bench.LAYERS},
    }}}


def _verdicts(rows):
    return {row[1]: row[-1] for row in rows}


def test_compare_agrees_within_bound():
    rows, status = bench.compare(_results(), _results(wall=(1.05, 1.04, 1.06)), SPEC)
    assert _verdicts(rows) == {"wall_s": "agree", "rounds_per_s": "agree"}
    assert status == 0


def test_compare_flags_worse_and_better():
    rows, status = bench.compare(
        _results(), _results(wall=(1.2, 1.19, 1.21), rate=(120.0, 119.0, 121.0)), SPEC)
    assert _verdicts(rows) == {"wall_s": "worse", "rounds_per_s": "better"}
    assert status == 1
    rows, _ = bench.compare(_results(), _results(rate=(80.0, 79.0, 81.0)), SPEC)
    assert _verdicts(rows)["rounds_per_s"] == "worse"


def test_compare_wide_spread_is_unresolved():
    rows, status = bench.compare(_results(), _results(wall=(1.2, 0.9, 1.4)), SPEC)
    assert _verdicts(rows)["wall_s"] == "unresolved"
    assert status == 0


def test_compare_deterministic_counts_must_match():
    rows, status = bench.compare(_results(), _results(uploads=381.0), SPEC)
    assert _verdicts(rows)["worker.uploads"] == "differs"
    assert status == 1


# ---------------------------------------------------------------------- #
# fingerprints and failures
# ---------------------------------------------------------------------- #
def _fake_rep(params: str, exit_code: int = 0, stdout: bytes = b"result 0.5\n") -> bench.Rep:
    """A rep as a child process would leave it: exit code, stdout, report."""
    return bench.Rep(
        "paper_train", 7, spawned=0.0, reaped=2.0, exit_codes=[exit_code],
        peak_rss_kb=2048, stdout=stdout,
        reports=[{"runs": [{"rounds": [[0.5, 0.75], [0.75, 1.5]], "diagnostics": [],
                            "params_sha256": params, "final_accuracy": 0.5}]}],
    )


def test_fingerprint_mismatch_counts_as_failure():
    expected = _fake_rep("aa").fingerprint()
    reps = [_fake_rep("aa"), _fake_rep("bb"), _fake_rep("aa", exit_code=3)]
    assert bench.judge(reps, expected) == 2
    assert [rep.ok for rep in reps] == [True, False, False]
    summary = bench.summarize(reps, bench.load_spec())
    assert summary["runs_failed"]["value"] == pytest.approx(2 / 3)
    assert summary["wall_s"]["n"] == 1
    assert summary["setup_s"]["value"] == pytest.approx(0.5)
    assert summary["rounds_per_s"]["value"] == pytest.approx(2.0)


def test_unchecked_seed_reps_must_agree():
    reps = [_fake_rep("aa"), _fake_rep("aa"), _fake_rep("cc")]
    assert bench.judge(reps, None) == 1
    assert not reps[2].ok


def test_volatile_lines_leave_the_fingerprint_alone():
    first = _fake_rep("aa", stdout=b"coordinator listening on 127.0.0.1:4000, x\nresult\n")
    second = _fake_rep("aa", stdout=b"coordinator listening on 127.0.0.1:5123, x\nresult\n")
    assert first.fingerprint() == second.fingerprint()
    assert first.fingerprint() != _fake_rep("aa", stdout=b"other\n").fingerprint()


def test_committed_fingerprints_name_their_files():
    files = sorted(bench.EXPECTED_DIR.glob("*.json"))
    assert files == sorted(bench.expected_path(workload, seed)
                           for workload in bench.WORKLOADS for seed in bench.EXPECTED_SEEDS)
    for path in files:
        record = json.loads(path.read_text())
        assert path == bench.expected_path(record["workload"], record["seed"])
        assert re.fullmatch(r"[0-9a-f]{64}", record["params_sha256"])


# ---------------------------------------------------------------------- #
# BENCHMARK.json
# ---------------------------------------------------------------------- #
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_schema():
    raw = bench.SPEC_PATH.read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][1:] == ["benchmarks/e2e/bench.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    # a full evaluation (4 + 22 runs per workload, each with a few seconds
    # of start-up on top of the measured time) stays under 57 minutes
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 6) <= 3420

    names = []
    assert 2 <= len(spec["workloads"]) <= 8
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    assert names == list(bench.WORKLOADS)

    e2e = spec["end_to_end"]
    assert 1 <= len(e2e) <= 16
    for entry in e2e:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    bounds = {entry["name"]: entry["bound"] for entry in e2e}
    assert (bounds["setup_s"], "s") == (max(bounds.values()), bench.units(spec)["setup_s"])

    # every untraced metric is listed once: end to end with a bound, or first
    # among the per-layer ones; the traced layer metrics follow
    assert {entry["name"] for entry in e2e} <= set(bench.UNTRACED)
    layers = spec["per_layer"]
    assert 1 <= len(layers) <= 128
    for entry in layers:
        assert set(entry) == {"name", "unit", "better"}
    assert [entry["name"] for entry in layers] == [
        name for name in bench.UNTRACED if name not in bounds] + list(bench.LAYERS)

    every = names + [entry["name"] for entry in e2e + layers]
    assert len(every) == len(set(every))
    for name in every:
        assert NAME.fullmatch(name), name
    for entry in e2e + layers:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")


def test_summary_holds_every_untraced_metric():
    summary = bench.summarize([_fake_rep("aa")], bench.load_spec())
    # the failure share is 0 when healthy, so it is reported as `failed`
    assert set(summary) == {*bench.UNTRACED, "runs_failed"}


def test_every_layer_metric_names_untraced_metrics_and_workloads():
    for name, layer in bench.LAYERS.items():
        assert layer.moves and set(layer.moves) <= set(bench.UNTRACED), name
        assert layer.large_on and set(layer.large_on) <= set(bench.WORKLOADS), name


def test_reps_of_a_set_are_spread_over_it():
    order = [workload.name for workload in bench.interleaved()]
    first_half = order[:len(order) // 2]
    for workload in bench.WORKLOADS.values():
        assert order.count(workload.name) == workload.reps
        # half of every workload's reps run in each half of the set, give or take one
        assert abs(2 * first_half.count(workload.name) - workload.reps) <= 1
