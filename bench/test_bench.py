"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""

import importlib.util
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer

ROOT = workloads.ROOT


def test_toy_matches_the_test_suite_builder():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    ours, theirs = workloads.build_commutant_toy(), suite.build_commutant_toy()
    assert ours.space == theirs.space
    assert (ours.scenario, ours.control_labels) == (theirs.scenario, theirs.control_labels)
    assert len(ours.controls) == len(theirs.controls)
    pairs = [(ours.drift, theirs.drift), (ours.interaction, theirs.interaction),
             (ours.output_op, theirs.output_op), *zip(ours.controls, theirs.controls)]
    for a, b in pairs:
        assert a.kind == b.kind
        assert np.array_equal(a.matrix, b.matrix)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def _traced_counts(runner) -> dict:
    with Tracer() as tracer:
        _, _, _, layers = runner.run(0, tracer)
    assert tracer.absent == []
    return {name: value for name, (value, unit) in layers[0].items() if unit == "count"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_runs_and_seeds(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    runner = run.Runner(workload, workload.setup(1), tmp_path / "seed1")
    runner.run(0)  # the untraced op whose outputs the traced ones must equal
    first = _traced_counts(runner)
    second = _traced_counts(runner)
    other = run.Runner(workload, workload.setup(2), tmp_path / "seed2")
    third = _traced_counts(other)
    # each op passed its gate, its wrapper counts and the byte comparison
    assert (runner.attempted, runner.failed, other.failed) == (3, 0, 0)
    assert first == second
    assert first == third


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdict_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
