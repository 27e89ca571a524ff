"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q

The workloads run on the ``tiny`` preset and the ``smoke`` tier for
about a second each, traced and untraced.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.calibration import Calibrator
from perfbench.catalogue import END_TO_END, LAYERS, PER_LAYER, WORKLOADS, benchmark_json
from perfbench.ledger import layer_self_times, op_span_times
from perfbench.workloads import WORKLOADS as WORKLOAD_CLASSES

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 3
SECONDS = 1.0
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: bool, seconds: float = SECONDS) -> harness.RunReport:
    return harness.run_workload(workload, SEED, seconds, trace=trace, size="tiny")


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request) -> harness.RunReport:
    return _run(request.param, trace=True)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def untraced(request) -> harness.RunReport:
    return _run(request.param, trace=False)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert document == benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_prediction_names_a_known_metric_and_workload():
    e2e = {name for name, _, _, _ in END_TO_END}
    for layer, _, moves in LAYERS:
        for metric, workload in moves:
            assert metric in e2e and workload in WORKLOADS, (layer, metric, workload)


# ----------------------------------------------------------------------
# Runs at tiny size
# ----------------------------------------------------------------------
def test_untraced_run_reports_every_end_to_end_metric(untraced):
    result = untraced.result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [name for name, _, _, _ in END_TO_END]
    for name, unit, _, _ in END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name
    json.dumps(result)


def test_traced_run_reports_every_per_layer_metric(traced):
    result = traced.result
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    for name, unit, _ in PER_LAYER:
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])


def test_ledger_self_times_add_up_to_each_op(traced):
    spans = op_span_times(traced.tracer)
    traced_ops = [op for op in traced.ops if op.traced]
    assert traced_ops and set(spans) == {op.index for op in traced_ops}
    for op in traced_ops:
        layers = layer_self_times(spans[op.index])
        assert all(own >= -1e-9 for own in layers.values()), layers
        assert math.isclose(sum(layers.values()), op.seconds, rel_tol=1e-9, abs_tol=1e-9)
        program = sum(own for layer, own in layers.items() if layer != "bench")
        assert program <= op.seconds


EXERCISED = {
    "fig4-hs1": {"worldgen", "osn.network", "osn.pages", "osn.frontend", "crawler.client", "core"},
    "recrawl-city": {"colgen", "colgen.serve", "osn.rendercache", "crawler.engine", "osn.pages"},
    "befriend-hs1": {
        "worldgen", "osn.network", "osn.rendercache", "crawler.engine", "telemetry", "crawler.client"
    },
}


def test_ledger_prints_a_row_for_each_exercised_layer(traced):
    rows = {line.split()[0] for line in traced.lines}
    assert EXERCISED[traced.workload] <= rows
    assert any(line.startswith("tracing overhead:") for line in traced.lines)


def test_layers_a_workload_never_touches_stay_empty(traced):
    metrics = traced.result["metrics"]
    absent = {
        "fig4-hs1": ("colgen.serve.", "osn.rendercache.", "crawler.engine.", "telemetry."),
        "recrawl-city": ("osn.network.", "core.", "telemetry.", "worldgen."),
        "befriend-hs1": ("colgen.", "core."),
    }[traced.workload]
    for name, value in metrics.items():
        if name.startswith(absent):
            assert value["value"] == 0, name


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def test_a_span_is_scaled_by_the_speed_sampled_within_it():
    calibrator = Calibrator()
    calibrator.times = [0.0, 1.0, 2.0, 3.0]
    calibrator.speeds = [1.0, 0.5, 1.5, 2.0]
    # Samples at 1.0 and 2.0 fall within; 0.25 s of it was sampling.
    assert calibrator.scale((0.5, 0.0), (2.5, 0.25)) == pytest.approx(1.75 * 1.0)
    # No sample within: the one before and the one after.
    assert calibrator.scale((1.2, 0.0), (1.4, 0.0)) == pytest.approx(0.2 * 1.0)


def test_the_calibration_timer_is_stopped_and_its_handler_restored():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with Calibrator() as calibrator:
        deadline = calibrator.mark()[0] + 0.2
        while calibrator.mark()[0] < deadline:
            pass
    assert len(calibrator.speeds) >= 3 and all(speed > 0 for speed in calibrator.speeds)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


# ----------------------------------------------------------------------
# The checks catch wrong outputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_golden_digest_fails_its_op(workload, monkeypatch):
    cls = WORKLOAD_CLASSES[workload]
    monkeypatch.setattr(cls, "golden", {("tiny", SEED): ["0000000000000000"]})
    report = _run(workload, trace=False)
    assert not report.result["correct"]
    assert report.ops[0].failed and report.result["failed"] >= 1


# recrawl-city's reference is its first (cold, slower) pass over the
# smoke tier's 4 schools, so its drifted op is a warm one and the run
# is longer.
@pytest.mark.parametrize("workload, drifted", [("fig4-hs1", 3), ("recrawl-city", 5)])
def test_an_op_that_drifts_from_the_reference_fails(workload, drifted, monkeypatch):
    cls = WORKLOAD_CLASSES[workload]
    original = cls.fingerprint

    def fingerprint(self, result):
        value = original(self, result)
        return ("corrupted", value) if len(self.digests) == drifted else value

    monkeypatch.setattr(cls, "fingerprint", fingerprint)
    report = _run(workload, trace=False, seconds=4.0)
    assert len(report.ops) > drifted
    assert [op.index for op in report.ops if op.failed] == [drifted]
    assert report.result["failed"] == 1 and not report.result["correct"]


def test_befriend_final_check_catches_a_stale_cache(monkeypatch):
    from repro.osn.network import SocialNetwork

    # Without version bumps the render cache keeps serving pages the
    # accepted friend requests have changed.
    monkeypatch.setattr(SocialNetwork, "bump_version", lambda self: None)
    report = _run("befriend-hs1", trace=False)
    assert not report.result["correct"]
    assert report.ops[-1].failed


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------
def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4-hs1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
