"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench/tests -q

They take a few minutes: the paper-mc reference check replays a full
round of the Figure-4 campaigns.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    result = result_of(run_bench(
        "--workload", "event-observed", "--seed", "0", "--seconds", "1",
        "--trace", str(trace),
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_every_workload_is_declared():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_speed_sampler_rescales_intervals_and_stops():
    with SpeedSampler() as speed:
        start = time.perf_counter()
        time.sleep(0.3)
        end = time.perf_counter()
    assert speed._proc.returncode == 0
    assert len(speed.samples) >= 5
    assert speed.factor(start, end) > 0
    assert speed.reference_seconds(start, end) == pytest.approx(
        (end - start) / speed.factor(start, end)
    )


def test_same_seed_gives_identical_digests():
    first = workloads.unit_event_observed(workloads.build_event(3))
    second = workloads.unit_event_observed(workloads.build_event(3))
    assert all(first.ok) and first.digests == second.digests
    other = workloads.unit_event_observed(workloads.build_event(4))
    assert other.digests != first.digests


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_outputs_match_recorded_reference(name):
    build, unit_of, _ = workloads.WORKLOADS[name]
    unit = unit_of(build(0))
    assert all(unit.ok)
    assert unit.digests == REFERENCE[name]["0"]


def test_tampered_reference_counts_as_errors(tmp_path):
    tampered = json.loads(json.dumps(REFERENCE))
    tampered["event-observed"]["0"] = ["0" * 16]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(tampered))
    result = result_of(run_bench(
        "--workload", "event-observed", "--seed", "0", "--seconds", "1",
        "--reference", str(path),
    ))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "event-lru", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
