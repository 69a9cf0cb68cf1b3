"""Self-test of the benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench -q

Every workload runs end to end on tiny inputs, untraced and traced; the
printed metrics must be exactly the ones ``BENCHMARK.json`` names, with
its units. A deliberately corrupted output must count as a failed
operation, and a directory without the program must make the benchmark
exit non-zero without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER, WORKLOADS, execute  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

TINY_SECONDS = 3.0


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _declared("end_to_end") == END_TO_END
    assert _declared("per_layer") == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = execute(ROOT, workload, seed=3, seconds=TINY_SECONDS,
                     trace=bool(trace), scale="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if not trace:
        for name in expected:
            assert result["metrics"][name]["value"] > 0, name


def test_corrupted_output_counts_in_failed_share():
    result = execute(ROOT, "tall_34k", seed=3, seconds=TINY_SECONDS,
                     trace=True, scale="tiny", corrupt=True)
    assert result["correct"] is False
    assert result["failed"] == 1
    share = result["metrics"]["failed_share"]["value"]
    assert share == pytest.approx(1 / result["attempted"])


def test_command_prints_result_as_last_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tall_34k",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tall_34k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
