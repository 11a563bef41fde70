"""One bench writer: the CLI verb (``--out``) and the pytest bench
(``benchmarks/conftest.py``'s ``paper_bench``) write the same files for a
runner — names, bench name, series key at seed 0, series names, units
and directions — because both go through ``repro.obs.record.write_bench``.

Each runner runs small here, once per entry point.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.experiments import samplerbench, serving

REPO = pathlib.Path(__file__).resolve().parents[2]


def _bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "_bench_conftest", REPO / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Once:
    """pytest-benchmark's ``benchmark`` as ``paper_bench`` uses it."""

    def pedantic(self, fn, rounds, iterations):
        return fn()


#: bench name -> (CLI argv, the same small run as the pytest bench calls
#: it, its table renderer).
RUNS = {
    "sampler_throughput": (
        ["sampler-bench", "--repeats", "1"],
        lambda: samplerbench.run(repeats=1, seed=0),
        samplerbench.format_results,
    ),
    "sampler_zoo": (
        ["sampler-zoo", "--family", "edge", "--repeats", "1"],
        lambda: samplerbench.run_zoo(families=("edge",), repeats=1, seed=0),
        samplerbench.format_zoo_results,
    ),
    "serving": (
        ["serve-bench", "--queries", "200"],
        lambda: serving.run(num_queries=200, seed=0),
        serving.format_results,
    ),
    "serve_cluster": (
        ["serve-cluster", "--cluster-vertices", "4000", "--queries", "200"],
        lambda: serving.run_cluster(
            num_queries=200, num_vertices=4000, soak_vertices=4000, seed=0
        ),
        serving.format_cluster_results,
    ),
}


def _shape(path: pathlib.Path) -> dict:
    """What must match between the two entry points' BENCH files."""
    payload = json.loads(path.read_text())
    record = payload["record"]
    return {
        "bench": payload["bench"],
        "key": record["key"],
        "seed": record["env"]["seed"],
        "clock": record["env"]["clock"],
        "series": {n: (s["unit"], s["direction"]) for n, s in record["series"].items()},
    }


@pytest.fixture(scope="module", params=sorted(RUNS))
def both(request, tmp_path_factory):
    """``(name, cli_dir, pytest_dir)`` after one small run through each."""
    name = request.param
    argv, run, text = RUNS[name]
    cli_dir = tmp_path_factory.mktemp(f"cli_{name}")
    pytest_dir = tmp_path_factory.mktemp(f"pytest_{name}")
    assert main([*argv, "--out", str(cli_dir)]) == 0
    _bench_conftest().run_paper_bench(_Once(), pytest_dir, name, run, text=text)
    return name, cli_dir, pytest_dir


def test_cli_and_pytest_bench_write_the_same_record(both):
    name, cli_dir, pytest_dir = both
    files = sorted(p.name for p in cli_dir.iterdir())
    assert files == [f"BENCH_{name}.json", f"OBS_{name}.json", f"{name}.txt"]
    assert sorted(p.name for p in pytest_dir.iterdir()) == files
    cli, bench = _shape(cli_dir / f"BENCH_{name}.json"), _shape(pytest_dir / f"BENCH_{name}.json")
    assert cli == bench
    assert cli["bench"] == name and cli["seed"] == "0" and cli["series"]
    expected_clock = "virtual" if name.startswith("serv") else "wall"
    assert cli["clock"] == expected_clock
    # Raw samples are stored once, in the record.
    results = json.loads((pytest_dir / f"BENCH_{name}.json").read_text())["results"]
    assert not {"series", "samples", "latency_samples", "trace"} & set(results)


@pytest.mark.parametrize("both", ["serve_cluster"], indirect=True)
def test_the_pytest_serve_cluster_obs_file_is_the_hedged_trace(both, capsys):
    _, _, pytest_dir = both
    path = pytest_dir / "OBS_serve_cluster.json"
    doc = json.loads(path.read_text())
    assert doc["obs"] == "serve_cluster_hedged" and doc["spans"]
    capsys.readouterr()
    assert main(["obs-report", "--trace", str(path), "--exemplars"]) == 0
    out = capsys.readouterr().out
    assert "(no exemplars retained)" not in out
    assert re.search(r"t\d+\.req-\d+", out)


def test_the_bench_files_name_each_runner_as_the_cli_does():
    names = set()
    for path in (REPO / "benchmarks").glob("bench_*.py"):
        names |= set(re.findall(r'paper_bench\(\s*"(\w+)"', path.read_text()))
    assert set(RUNS) <= names
