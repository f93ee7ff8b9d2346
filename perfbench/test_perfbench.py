"""The benchmark's own tests: determinism, percentile rule, metric names.

Fast by default. ``PERFBENCH_SLOW=1`` adds a short end-to-end run of the
serving workload in both modes, checking its printed names against
BENCHMARK.json.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from pb_common import ROOT, BenchError, percentile, supports, tail_percentile  # noqa: E402
import pb_offline  # noqa: E402
import pb_serve  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


def test_same_seed_same_inputs():
    a, ca = pb_offline.make_inputs(7, (3, 32, 32))
    b, cb = pb_offline.make_inputs(7, (3, 32, 32))
    c, _ = pb_offline.make_inputs(8, (3, 32, 32))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(ca, cb)
    assert not np.array_equal(a[0], c[0])
    assert np.array_equal(pb_serve.make_frames(7, (3, 16, 16)), pb_serve.make_frames(7, (3, 16, 16)))
    assert not np.array_equal(pb_serve.make_frames(7, (3, 16, 16)), pb_serve.make_frames(8, (3, 16, 16)))


def test_same_seed_same_arrival_schedule():
    first = pb_serve.phase_plan(3, 20)
    again = pb_serve.phase_plan(3, 20)
    other = pb_serve.phase_plan(4, 20)
    assert [(n, r) for n, r, _ in first] == [(n, r) for n, r, _ in again]
    assert all(np.array_equal(x[2], y[2]) for x, y in zip(first, again))
    assert not np.array_equal(first[0][2], other[0][2])
    stream = first[0][2]
    assert len(stream) == int(pb_serve.STREAM_RPS * 20 * pb_serve.STREAM_SHARE)
    # Poisson at the nominal rate: mean gap within 10% of 1/rate.
    assert abs(np.mean(np.diff(stream)) * pb_serve.STREAM_RPS - 1) < 0.1


def test_frames_are_distinct_for_the_delta_cache():
    frames = pb_serve.make_frames(1, (3, 16, 16))
    gaps = np.abs(np.diff(frames, axis=0)).reshape(len(frames) - 1, -1).max(axis=1)
    assert gaps.min() > 1e-3  # the server's default delta threshold


def test_percentile_needs_ten_samples_beyond_it():
    assert supports(1000, 99) and not supports(999, 99)
    assert supports(100, 90) and not supports(99, 90)
    assert tail_percentile(1000) == 99 and tail_percentile(500) == 98
    assert tail_percentile(20) == 50
    with pytest.raises(BenchError):
        percentile(list(range(999)), 99)
    with pytest.raises(BenchError):
        tail_percentile(19)


def test_schedule_counts():
    rows = [{"kind": "winograd4"}, {"kind": "winograd2"}, {"kind": "im2col+int8:blocked"},
            {"kind": "gather"}, {"kind": "im2col"}]
    assert pb_offline.schedule_counts(rows) == {
        "winograd4": 1, "winograd2": 1, "im2col": 1, "gather": 1, "int8": 1}


def test_knee_interpolates_towards_first_latency_miss():
    def step(rate, p90, ok=True, failed=0):
        return {"rate": rate, "slo_ms": p90, "meets_slo": ok, "valid": True,
                "failed": failed, "backlog_grows": False}

    slo = pb_serve.SLO_MS
    steps = [step(800, 10), step(1000, 30), step(1200, slo + 20, ok=False)]
    assert pb_serve.knee_rps(steps) == pytest.approx(1000 + 200 * (slo - 30) / (slo + 20 - 30))
    assert pb_serve.knee_rps([step(800, 10), step(1000, 20, ok=False, failed=3)]) == 800
    assert pb_serve.knee_rps([step(800, 10), step(1000, 20)]) == 1000
    assert pb_serve.knee_rps([step(800, 90, ok=False)]) == 0.0
    # A lone miss below the knee does not end the search.
    steps = [step(800, 10), step(1000, 80, ok=False), step(1200, 30), step(1400, slo + 20, ok=False)]
    assert pb_serve.knee_rps(steps) == pytest.approx(1200 + 200 * (slo - 30) / (slo + 20 - 30))


def test_histogram_p50_from_scrape_differences():
    text_before = (
        'repro_request_latency_seconds_bucket{model="patternnet",le="0.001"} 0\n'
        'repro_request_latency_seconds_bucket{model="patternnet",le="0.0025"} 0\n'
        'repro_request_latency_seconds_bucket{model="patternnet",le="+Inf"} 0\n'
    )
    text_after = (
        "# TYPE repro_request_latency_seconds histogram\n"
        'repro_request_latency_seconds_bucket{model="patternnet",le="0.001"} 20\n'
        'repro_request_latency_seconds_bucket{model="patternnet",le="0.0025"} 100\n'
        'repro_request_latency_seconds_bucket{model="patternnet",le="+Inf"} 100\n'
    )
    before = {"metrics": pb_serve.parse_metrics(text_before)}
    after = {"metrics": pb_serve.parse_metrics(text_after)}
    # 50 of 100: 30 of the 80 in (1, 2.5] ms.
    assert pb_serve.histogram_p50_ms(before, after) == pytest.approx(1 + 1.5 * 30 / 80)


def test_benchmark_json_follows_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.NOT_LOADED) == set(run.WORKLOADS)
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"} and UNIT.match(entry["unit"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    per_layer = {e["name"] for e in spec["per_layer"]}
    for name in pb_offline.PASS_NAMES:
        assert f"runtime.pass.{name}_s" in per_layer
    for kind in pb_offline.SCHEDULES:
        assert f"runtime.sched.{kind}" in per_layer


def test_collect_rejects_names_outside_benchmark_json(spec):
    measured = {e["name"]: (1.0, e["unit"], 1) for e in spec["end_to_end"]}
    result = {"end_to_end": measured, "per_layer": {}}
    assert list(run.collect(spec, "vgg16_f32", False, result)) == [
        e["name"] for e in spec["end_to_end"]]
    with pytest.raises(BenchError):
        run.collect(spec, "vgg16_f32", False, {"end_to_end": {**measured, "bogus": (1.0, "s", 1)}})
    del measured["setup_s"]
    with pytest.raises(BenchError):
        run.collect(spec, "vgg16_f32", False, {"end_to_end": measured})


@pytest.mark.skipif(os.environ.get("PERFBENCH_SLOW") != "1", reason="set PERFBENCH_SLOW=1")
@pytest.mark.parametrize("trace", [0, 1])
def test_serving_run_prints_the_declared_metrics(spec, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_patternnet",
         "--seed", "1", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [e["name"] for e in section]
    assert result["correct"] and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["runtime.sched.gather"]["value"] == 3
        assert result["metrics"]["stream.cache_hit_rate"]["value"] == 0
