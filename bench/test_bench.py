"""Tests of the benchmark itself: span arithmetic, repeatable counts, the
metric table against BENCHMARK.json, and refusal to run without sources."""

import json
import shutil
import subprocess
import sys

import metrics
import pytest
import shbif
import workloads
from tracing import Span, Tracer, self_times

ROOT = workloads.ROOT


def test_self_times_on_synthetic_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0, False),
        Span(1, "a", 1.0, 3.0, 0, 0, False),
        Span(2, "b", 2.0, 5.0, 0, 0, False),  # overlaps a: covered once
        Span(3, "c", 8.0, 12.0, 0, 0, False),  # clipped to the parent's end
        Span(4, "d", 1.5, 2.5, 1, 0, False),  # grandchild: only a loses it
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 1.0, 2: 3.0, 3: 4.0, 4: 1.0})


def test_wrapped_calls_nest_and_fold_per_op():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.op = 7
    assert outer(1) == 4
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("bad", lambda: 1 / 0)()
    first, second, bad = tracer.spans
    assert (first.name, second.name) == ("inner", "outer")
    assert first.parent == second.sid and second.parent is None
    assert {s.op for s in tracer.spans} == {7}
    tracer.end_op()
    assert tracer.spans == []
    assert tracer.calls == {"inner": 1, "outer": 1, "bad": 1}
    assert tracer.failed["bad"] == 1 and tracer.failed["outer"] == 0


def _exact_counts(name, seed, n_ops, scratch):
    w = workloads.WORKLOADS[name]
    tracer, log, _ = workloads.traced_pass(w, seed, n_ops, str(scratch))
    values = {**tracer.metrics(), **log.metrics()}
    return {k: v for k, v in values.items()
            if k.endswith(".calls") or k.startswith("check.")
            or k == "spectral.fft.points"}


def test_traced_runs_repeat_exact_counts(tmp_path):
    # census-2d ops take about a minute each, too long for a unit test
    original = shbif.spectral.cube
    first = _exact_counts("stepping-1d", 11, 2, tmp_path)
    assert shbif.spectral.cube is original and shbif.dynamics.cube is original
    assert first == _exact_counts("stepping-1d", 11, 2, tmp_path)
    assert first["spectral.fft.points"] > 0
    assert first["check.no_raise.failed"] == 0


def test_metric_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == \
            [row[:3] for row in table]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stepping-1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
