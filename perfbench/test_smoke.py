"""Smoke test of the repository benchmark at toy size.

Runs every workload through ``sample.py`` in fresh processes, untraced and
then traced, round-robin over the workloads, and checks that each output
passes its check, that the exact counts repeat between the two samples and
that the traced sample reports every per-layer metric. Also checks that the
runner refuses to run where there is no program to measure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run

REQUIRED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def toy_samples(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("perfbench")
    records = {}
    for traced in (False, True):
        for workload in run.WORKLOADS:
            trace_file = str(scratch / f"{workload}.json") if traced else ""
            arguments = [workload, "7", "toy"] + ([trace_file] if traced else [])
            env = run.child_env(7, scratch / f"cache-{workload}-{traced}")
            record, error = run.run_child(arguments, env, timeout=120)
            assert record is not None, error
            records[workload, traced] = record
    return scratch, records


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_sample_passes_its_check(toy_samples, workload):
    _, records = toy_samples
    for traced in (False, True):
        record = records[workload, traced]
        assert record["ok"], record.get("error")
        assert record["solve_raw_s"] > 0 and record["setup_raw_s"] > 0
        assert record["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exact_counts_repeat_under_tracing(toy_samples, workload):
    _, records = toy_samples
    assert records[workload, False]["counts"] == records[workload, True]["counts"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_sample_reports_every_layer(toy_samples, workload):
    scratch, records = toy_samples
    reported = set(records[workload, True]["layers"])
    measured_by_runner = {"trace_overhead_s", "runtime.worker_cpu_s", "runtime.parent_cpu_s"}
    declared = {metric["name"] for metric in REQUIRED["per_layer"]}
    assert reported | measured_by_runner == declared
    assert set(layers.COUNTS) <= reported
    document = json.loads((scratch / f"{workload}.json").read_text())
    assert any(event["name"] == layers.ROOT_SPAN for event in document["traceEvents"])


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"),
         "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
