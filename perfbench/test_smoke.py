"""Smoke test of the benchmark at a tiny size.

Run: python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tiny(name):
    # one short sequence at the workload's own density, which its APE and RPE
    # ceilings are set for
    return dataclasses.replace(WORKLOADS[name], sequences=1, scans=8)


def _targets():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _, _ in tracing._TARGETS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_a_unit(name, trace):
    before = _targets()
    result = run.run(_tiny(name), seed=3, seconds=0.0, trace=trace)
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert set(result["metrics"]) == set(expected)
    for metric, m in result["metrics"].items():
        assert m["unit"] == expected[metric]
        assert math.isfinite(m["value"])
    # no wrapper leaks into dynlo after the run
    assert _targets() == before


def test_wrappers_restored_when_the_block_raises():
    before = _targets()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracing.Tracer()):
            assert all(vars(owner)[attr] is not original
                       for (owner, attr), original in before.items())
            raise RuntimeError("boom")
    assert _targets() == before


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lane_traffic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
