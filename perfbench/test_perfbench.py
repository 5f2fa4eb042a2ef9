"""Tests of the benchmark itself: metric names, smoke runs, tracing."""

import json
import re
from pathlib import Path

import pytest

import run
import tracing
from workloads import SMOKE, WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    for table, key in ((run.END_TO_END, "end_to_end"), (tracing.PER_LAYER, "per_layer")):
        for name, _, _ in table:
            assert METRIC_NAME.fullmatch(name), name
        assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]] == list(table)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name, tmp_path):
    result = run.run_workload(name, seed=3, seconds=0.2, trace=False, size=SMOKE[name], out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _, _ in run.END_TO_END}
    assert all(v > 0 for v in result["metrics"].values())


def test_traced_run_restores_every_patched_attribute(tmp_path):
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracing.PATCH_TABLE]
    result = run.run_workload("train", seed=3, seconds=0.2, trace=True, size=SMOKE["train"], out_dir=tmp_path)
    assert result["correct"] and result["detail"]["flop_check"]["ok"]
    assert set(result["metrics"]) == {n for n, _, _ in tracing.PER_LAYER}
    assert result["metrics"]["tensor.Tape.records"] > 0
    with pytest.raises(RuntimeError), tracing.Tracer().patched():
        raise RuntimeError("patches must come off on an error too")
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["model.stem_forward", 0.000, 0.010, -1],
        ["tensor.conv2d", 0.001, 0.004, 0],
        ["tensor.resize_weights", 0.002, 0.003, 1],
        ["tensor.relu", 0.005, 0.006, 0],
    ]
    m = tracing.layer_metrics(tracer, (0, {}), ops=1, conv_flops=0, forward_mflop=0.0, overhead_pct=0.0)
    assert m["model.stem_forward.ms"] == pytest.approx(10.0)
    assert m["tensor.conv2d.self_ms"] == pytest.approx(2.0)
    assert m["tensor.resize_weights.self_ms"] == pytest.approx(1.0)
    assert m["tensor.other_ops.self_ms"] == pytest.approx(1.0)
    assert m["tensor.conv2d.calls"] == 1


def test_latency_and_throughput_take_each_piece_at_its_fastest_repeat():
    from workloads import Outcome, Window

    slow = Window(marks=[0.0, 0.04, 0.12, 0.16, 0.20], items=4, latencies_ms=[40.0, 80.0, 40.0, 40.0])
    quiet = Window(marks=[0.0, 0.02, 0.07, 0.09, 0.11], items=4, latencies_ms=[20.0, 50.0, 20.0, 20.0])
    mixed = Window(marks=[0.0, 0.01, 0.10, 0.13, 0.16], items=4, latencies_ms=[10.0, 90.0, 30.0, 30.0])
    m = run.loop_metrics([Outcome(windows=[slow, quiet, mixed])])
    assert m["latency_ms_p50"] == pytest.approx(20.0)  # fastest repeats: 10, 50, 20, 20
    assert m["latency_ms_p90"] == pytest.approx(41.0)
    assert m["throughput_per_s"] == pytest.approx(4 / 0.10)  # fastest segments: 0.01, 0.05, 0.02, 0.02
