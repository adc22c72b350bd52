"""Tests of the benchmark itself, on shrunken inputs.

Run with the repository's suite: ``PYTHONPATH=src python -m pytest -x -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


@pytest.fixture(autouse=True)
def _scratch(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SCRATCH", tmp_path / "scratch")


def _tiny(shards: int = 1):
    from repro import scenarios

    return (
        scenarios.get("fast")
        .to_builder()
        .with_duration_days(8.0)
        .with_emails_per_account(8, 12)
        .with_shards(shards)
        .build()
    )


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == spans.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert set(SPEC["workloads"]) == set(run.WORKLOADS)
    assert set(SPEC["end_to_end"]) == set(run.END_TO_END)
    assert set(SPEC["per_layer"]) == set(spans.LAYER_METRICS)
    for name, unit in run.SERVICE_METRICS.items():
        assert SPEC["report_metrics"][name]["unit"] == unit
    for entry in SPEC["per_layer"].values():
        assert set(entry["workloads"]) <= set(run.WORKLOADS)
        assert set(entry["moves"]) <= set(run.END_TO_END) | set(
            SPEC["report_metrics"]
        )


def test_benchmark_json_stays_within_its_format_limits():
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_inputs_are_deterministic_for_a_seed():
    assert workloads.paper_serial_inputs(7) == workloads.paper_serial_inputs(7)
    assert workloads.paper_serial_inputs(7) != workloads.paper_serial_inputs(8)
    assert workloads.scaled_sharded_inputs(7) == workloads.scaled_sharded_inputs(7)
    first = workloads.live_inputs(3, _tiny(), events=1500)
    second = workloads.live_inputs(3, _tiny(), events=1500)
    assert first.bodies == second.bodies
    assert first.batch_fingerprint == second.batch_fingerprint
    assert first.events == 1500 and first.batch_sizes[-1] == 100


def test_traced_pipeline_run_matches_untraced():
    inputs = workloads.RunInputs(_tiny(shards=2).with_seed(5).to_json(), jobs=2)
    untraced = workloads.in_child(workloads.run_once, inputs)
    traced, dumps = workloads.traced(
        lambda trace_dir: workloads.in_child(workloads.run_once, inputs, trace_dir)
    )
    assert traced["fingerprint"] == untraced["fingerprint"]
    assert traced["fingerprint"] == workloads.in_child(
        workloads.serial_reference, inputs
    )
    assert set(run.END_TO_END) <= set(untraced)
    layers = spans.layer_metrics(dumps, overhead_ratio=1.0)
    assert set(layers) == set(spans.LAYER_METRICS)
    # Coordinator plus two shard workers, each with its own record.
    assert len(dumps) == 3
    assert layers["supervise.attempts"] == 2
    assert layers["sim.events"] > 0 and layers["script.notifications"] > 0
    assert 0 < layers["analysis.rows_kept"] < layers["analysis.rows_scanned"]
    assert layers["webmail.login.monitor"] == layers["monitor.scrapes"]


def test_traced_service_run_matches_untraced():
    inputs = workloads.live_inputs(4, _tiny(), events=2000)
    untraced = workloads.live_once(inputs)
    traced, dumps = workloads.traced(
        lambda trace_dir: workloads.live_once(inputs, trace_dir)
    )
    # Both runs check the restored classification against the batch
    # pipeline's fingerprint of the same events.
    assert untraced.tally.failures == [] and traced.tally.failures == []
    assert set(run.END_TO_END) | set(run.SERVICE_METRICS) <= set(untraced.metrics)
    layers = spans.layer_metrics(
        dumps,
        client_request_s=traced.client_request_s,
        wal_bytes=traced.wal_bytes,
        overhead_ratio=1.0,
    )
    assert layers["wal.records"] == layers["service.apply_calls"] == 2000
    assert layers["wal.replay_eps"] > 0 and layers["service.http_s"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        "paper_serial",
        "--seed",
        "1",
        "--seconds",
        "1",
    ]
    result = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert result.returncode != 0
    assert result.stdout == ""
