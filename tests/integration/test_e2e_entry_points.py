"""Tier-1 guard for what ``benchmarks/e2e`` reaches into.

The e2e benchmark measures the program from outside: ``tracing.py`` swaps
wrappers over the entry points in its ``TARGETS`` table, ``pipeline.py``
imports the public front-ends by name. The benchmark's own files may not
change with the code they measure, so a refactor that moves one of these
names has to fail here — in tier-1 — and not in the benchmark driver.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib

import pytest

E2E = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def _tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", E2E / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _tracing().TARGETS


def _pipeline_imports():
    tree = ast.parse((E2E / "pipeline.py").read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.")
        for alias in node.names
    ]


@pytest.mark.parametrize("module, path, span_name", _targets())
def test_traced_entry_point_resolves(module, path, span_name):
    # Exactly how Recorder.install finds what it wraps: the attribute has
    # to sit in the owner's own __dict__, not be inherited or re-exported.
    owner = importlib.import_module(module)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    assert attr in owner.__dict__, f"{module}:{path} ({span_name}) moved"
    assert callable(owner.__dict__[attr])


def test_one_pool_get_is_one_span_under_both_target_names(medium_graph):
    # Two TARGETS rows name the one pool class, so install() wraps its
    # get twice; the inner wrapper sees the name open and calls through.
    from repro.sampling.pipeline import PrefetchingSubgraphPool
    from repro.sampling.scheduler import SubgraphPool
    from repro.sampling.zoo import make_sampler

    assert PrefetchingSubgraphPool is SubgraphPool
    original = SubgraphPool.__dict__["get"]
    recorder = _tracing().Recorder(enabled=True)
    recorder.install()
    try:
        pool = SubgraphPool(make_sampler("rw", medium_graph, budget=60))
        with recorder.stage("train") as timing:
            pool.get()
    finally:
        recorder.uninstall()
    assert timing.names["sampling.pool_get"][0] == 1
    assert SubgraphPool.__dict__["get"] is original


def test_targets_cover_the_serving_layer():
    paths = {(module, path) for module, path, _ in _targets()}
    assert ("repro.serving.cluster", "ShardedIndex.replace_shard") in paths
    assert ("repro.serving.router", "CentroidRouter.route") in paths
    assert ("repro.serving.cache", "GenerationalCache.get") in paths


@pytest.mark.parametrize("module, name", _pipeline_imports())
def test_pipeline_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_pipeline_imports_the_serving_front_ends():
    names = set(_pipeline_imports())
    assert ("repro.serving.server", "EmbeddingServer") in names
    assert ("repro.serving.cluster", "ClusterServer") in names
    assert ("repro.train.trainer", "GraphSamplingTrainer") in names


def test_replay_results_keep_the_fields_the_layer_table_reads():
    # benchmarks/e2e/layers.py: batch_stats / metrics of the single
    # server's replay, stats / shard_metrics of the cluster's.
    import numpy as np

    from repro.serving.cluster import ClusterConfig, ClusterServer
    from repro.serving.server import EmbeddingServer, ServerConfig
    from repro.serving.workload import zipf_trace

    emb = np.random.default_rng(0).standard_normal((120, 8))
    trace = zipf_trace(40, 120, rate=1e4, k=5, rng=np.random.default_rng(1))
    single = EmbeddingServer(emb, config=ServerConfig(max_batch=8)).serve_trace(
        trace, collect_results=True
    )
    assert {"mean_batch_size", "batches"} <= set(single.batch_stats)
    assert single.metrics.rows_scanned > 0 and len(single.results) == 40
    server = ClusterServer(emb, config=ClusterConfig(num_shards=2, replicas=1))
    cluster = server.serve_trace(trace, collect_results=True)
    assert {"upserts_applied", "max_staleness_s", "subqueries", "mean_fanout"} <= set(
        cluster.stats
    )
    assert len(cluster.shard_metrics) == 2 and len(cluster.results) == 40
    assert server.upserts_applied == 0


def test_pool_stats_keep_the_fields_the_layer_table_reads():
    # benchmarks/e2e/layers.py reads these three off a prefetching run's
    # trainer.pool.stats through getattr, so no import names them.
    import numpy as np

    from repro.graphs.generators import ring_of_cliques
    from repro.sampling.scheduler import SubgraphPool
    from repro.sampling.zoo import make_sampler

    sampler = make_sampler("rw", ring_of_cliques(6, 5), frontier_size=4, budget=12)
    with SubgraphPool(sampler, depth=2, workers=1, seed=0) as pool:
        for _ in range(3):
            pool.get()
        stats = pool.stats
    for attr in ("consumer_stall_seconds", "producer_stall_seconds", "mean_staleness"):
        assert np.isfinite(getattr(stats, attr)) and getattr(stats, attr) >= 0.0, attr
    assert stats.mean_staleness == stats.staleness_seconds / stats.gets
