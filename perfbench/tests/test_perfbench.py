"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
from workloads import Workload, make_workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SMOKE_CONFIG = {
    "model": {"label_prob": 0.5, "cond_p": [0.5, 0.5], "cond_q": [0.25, 0.75]},
    "n_values": [20, 1000],
    "replications": 40,
    "master_seed": 7,
    "ci_level": 0.9,
    "checks": ["lln", "coverage", "bounds"],
}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert UNIT.fullmatch(metric["unit"])
    assert {w["name"] for w in SPEC["workloads"]} == set(make_workloads(0))


def test_layer_metrics_report_every_listed_metric_with_its_unit():
    spans = [[0, tracer.ROOT, "montecarlo.run_experiment", 0, 1000],
             [1, 0, "streams.replication_stream", 10, 20]]
    report = {"import_s": 0.5, "main_s": 1.1, "rss_delta_mb": {},
              "records_bytes": 10, "degenerate_frac": 0.0}
    metrics = run.layer_metrics(spans, report, replications=1, untraced_s=1.0)
    assert {k: unit for k, (_v, unit) in metrics.items()} == _units("per_layer")
    assert metrics["montecarlo.run_experiment.self_s"][0] == pytest.approx(990e-9)
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.1)


def test_self_times_subtract_the_union_of_child_spans():
    spans = [
        [0, tracer.ROOT, "root", 0, 100],
        [1, 0, "a", 10, 40],
        [2, 1, "leaf", 15, 25],
        [3, 0, "b", 50, 90],
        [4, 3, "leaf", 55, 70],
        [5, 3, "leaf", 60, 80],  # overlaps its sibling: counted once
    ]
    assert tracer.self_times_ns(spans) == [30, 20, 10, 15, 15, 20]
    agg = tracer.aggregate(spans)
    assert agg["leaf"] == {"calls": 3, "total_ns": 45, "self_ns": 45}
    assert agg["root"] == {"calls": 1, "total_ns": 100, "self_ns": 30}


def test_tracer_records_nesting_and_restores_names():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner, module.outer
    t = tracer.Tracer()
    t.patch(module, "inner", "m.inner")
    t.patch(module, "outer", "m.outer")
    assert module.outer(1) == 4
    t.restore()
    assert (module.inner, module.outer) == original
    (outer_id, outer_parent, outer_name, *_), (_, inner_parent, inner_name, *_) = t.spans
    assert (outer_name, inner_name) == ("m.outer", "m.inner")
    assert outer_parent == tracer.ROOT and inner_parent == outer_id


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """One small simulate run with every output file."""
    root = tmp_path_factory.mktemp("smoke")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(SMOKE_CONFIG))
    out = root / "out"
    proc = subprocess.run(
        run.CLI + ["simulate", "--config", str(config_path), "--out-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=run.SRC), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode in (0, 3), proc.stderr
    return out, proc.returncode


@pytest.fixture
def outputs(smoke_outputs, tmp_path):
    out, code = smoke_outputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy, code


def _verify(out, code):
    return verify.verify_run(out, "simulate", SMOKE_CONFIG, code)[0]


def test_clean_outputs_verify(outputs):
    assert _verify(*outputs) == []


def test_corrupted_records_are_flagged(outputs):
    out, code = outputs
    lines = (out / "records.csv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.endswith(",0"))
    fields = lines[row].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)  # eta no longer estimate - truth
    lines[row] = ",".join(fields)
    (out / "records.csv").write_text("\n".join(lines) + "\n")
    assert any("eta = estimate - truth" in p for p in _verify(out, code))


def test_missing_record_row_is_flagged(outputs):
    out, code = outputs
    lines = (out / "records.csv").read_text().splitlines()
    (out / "records.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows, expected" in p for p in _verify(out, code))


def test_corrupted_summary_is_flagged(outputs):
    out, code = outputs
    summary = json.loads((out / "summary.json").read_text())
    summary["per_n"][-1]["median_abs_eta"] *= 1.001
    summary["per_n"][0]["degenerate_count"] += 1
    summary["sigma2_exact"] *= 1.001
    (out / "summary.json").write_text(json.dumps(summary))
    problems = " ".join(_verify(out, code))
    for what in ("median_abs_eta", "degenerate_count", "sigma2_exact"):
        assert what in problems


def test_corrupted_bounds_are_flagged(outputs):
    out, code = outputs
    lines = (out / "bounds.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[5] = "1.5"
    lines[1] = ",".join(fields)
    (out / "bounds.csv").write_text("\n".join(lines) + "\n")
    assert any("outside [0, 1]" in p for p in _verify(out, code))


def test_timed_run_reports_every_end_to_end_metric(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    monkeypatch.setattr(run, "MIN_RUNS", 1)
    # enough replications that the run outlasts its set-up
    config = dict(SMOKE_CONFIG, replications=2000)
    workload = Workload(name="smoke", command="simulate", workers=1, config=config)
    bench = run.Bench(workload, str(tmp_path))
    metrics = run.timed(bench, seconds=0.0)
    assert bench.problems == [] and bench.attempted == 2
    assert {k: unit for k, (_v, unit) in metrics.items()} == _units("end_to_end")
    assert all(value > 0 for value, _unit in metrics.values())


def test_seed_fixes_the_inputs():
    assert make_workloads(3) == make_workloads(3)
    assert make_workloads(3)["mc-r1000-w2"].config != make_workloads(4)["mc-r1000-w2"].config
