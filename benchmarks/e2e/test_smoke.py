"""Harness self-test: ``--quick`` runs of every workload, both runs.

Not part of tier-1 (``testpaths = ["tests"]``); run it with

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_quick(workload: str, trace: int, out: Path) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--quick",
         "--trace", str(trace), "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_meets_the_contract(workload, trace, section, tmp_path):
    line, doc = run_quick(workload, trace, tmp_path / "doc.json")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
    for name, metric in doc["metrics"].items():
        assert set(metric) >= {"value", "unit", "clock", "samples"}, name
        assert metric["clock"] in ("wall", "replay", "count"), name
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert doc["info"]["measured_s"] <= 5.0


def test_workload_table_matches_the_contract():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS as specs

    assert list(specs) == WORKLOADS


def test_compare_accepts_identical_runs_and_flags_a_regression(tmp_path):
    _, doc = run_quick("ppi_small", 0, tmp_path / "a.json")
    compare = [sys.executable, str(HERE / "compare.py"), str(tmp_path / "a.json")]
    same = subprocess.run(compare + [str(tmp_path / "a.json")], capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    doc["metrics"]["time_to_f1_s"]["value"] *= 2.0
    (tmp_path / "b.json").write_text(json.dumps(doc))
    worse = subprocess.run(compare + [str(tmp_path / "b.json")], capture_output=True, text=True)
    assert worse.returncode == 1 and "BREACH" in worse.stdout
