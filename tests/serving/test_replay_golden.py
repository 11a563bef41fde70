"""Golden replays: the serving event loop, pinned bit for bit.

``golden_replays.json`` was generated at commit c0cb39a — the last one
with two event loops (``EmbeddingServer._serve_trace`` and the closure
nest in ``ClusterServer._serve_trace``) — from replays priced by a
``service_model``, so every number is a function of the code and the
seeds alone. The one loop in :mod:`repro.serving.replay` has to
reproduce each of them exactly, with obs off and with obs on.

A digest is the sha256 of a canonical JSON form (floats as
``float.hex``); the ``summary`` next to it is there to read when a
digest moves. Regenerate (only when a behaviour change is intended)::

    PYTHONPATH=src python tests/serving/test_replay_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

import repro.obs as obs
from repro.obs.flight import get_flight_recorder
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.serving.cluster import ClusterConfig, ClusterServer
from repro.serving.server import EmbeddingServer, ServerConfig
from repro.serving.upsert import SlabUpsertProducer
from repro.serving.workload import bursty_trace, zipf_trace

GOLDEN = pathlib.Path(__file__).with_name("golden_replays.json")
VERTICES, DIM, K = 480, 16, 6


def _embeddings():
    rng = np.random.default_rng(42)
    centers = rng.standard_normal((12, DIM))
    which = rng.integers(0, 12, size=VERTICES)
    return centers[which] + 0.3 * rng.standard_normal((VERTICES, DIM))


def _zipf(n, rate, seed):
    return zipf_trace(
        n, VERTICES, skew=1.1, rate=rate, k=K, rng=np.random.default_rng(seed)
    )


def _rows_model(base, per_row):
    def single(batch, rows):
        return base + per_row * rows

    return single


def _straggler(shard, replica, batch, rows):
    return (8e-4 + 2e-8 * rows) * (12.0 if replica == 1 else 1.0)


def _uniform(shard, replica, batch, rows):
    return 4e-4 + 1e-8 * rows


def _rows_model_cluster(base):
    def model(shard, replica, batch, rows):
        return base + 1e-8 * rows

    return model


def single_brute_cache_shed():
    server = EmbeddingServer(
        _embeddings(),
        config=ServerConfig(
            max_batch=8, max_wait=5e-4, queue_capacity=16, cache_capacity=48
        ),
        service_model=_rows_model(2e-3, 1e-8),
    )
    return server, _zipf(1200, 12000.0, 1)


def single_ann_deadline():
    server = EmbeddingServer(
        _embeddings(),
        config=ServerConfig(
            max_batch=8, queue_capacity=512, deadline=4e-3, min_probes=1
        ),
        index="cluster",
        index_kwargs={
            "num_clusters": 16, "probes": 8, "rng": np.random.default_rng(3),
        },
        service_model=_rows_model(5e-4, 4e-6),
    )
    return server, _zipf(600, 9000.0, 2)


def _cluster(model, **cfg):
    return ClusterServer(
        _embeddings(),
        config=ClusterConfig(num_shards=4, replicas=2, fanout=2, **cfg),
        service_model=model,
        rng=np.random.default_rng(0),
    )


def cluster_hedged_straggler():
    server = _cluster(
        _straggler, max_batch=8, hedge=True, hedge_percentile=60.0,
        hedge_min_samples=32, hedge_fallback=4e-3,
    )
    trace = bursty_trace(
        900, VERTICES, base_rate=600.0, burst_rate=5000.0, base_seconds=0.2,
        burst_seconds=0.05, k=K, rng=np.random.default_rng(3),
    )
    return server, trace


def cluster_upserts_cache():
    server = _cluster(_uniform, max_batch=8, max_wait=2e-4, cache_capacity=96)
    trace = _zipf(900, 2500.0, 4)
    server.upserts = SlabUpsertProducer(
        _embeddings(), server.sharded.assignment,
        start=0.02, interval=0.03, rounds=2, seed=11,
    )
    return server, trace


def cluster_overload_shed():
    server = _cluster(
        _rows_model_cluster(3e-3), max_batch=4, queue_capacity=6,
        cache_capacity=32,
    )
    return server, _zipf(900, 9000.0, 5)


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        single_brute_cache_shed,
        single_ann_deadline,
        cluster_hedged_straggler,
        cluster_upserts_cache,
        cluster_overload_shed,
    )
}


# -- canonical form -----------------------------------------------------
def _canon(obj):
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _digest(obj) -> str:
    blob = json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _metrics_form(m) -> dict:
    return {
        "row": m.as_dict(),
        "latency": m.latency.samples,
        "cache": [m.cache_hits, m.cache_misses],
        "service_time_total": m.service_time_total,
        "first_arrival": m.first_arrival,
        "last_completion": m.last_completion,
    }


def _tree_form(sp) -> dict:
    return {
        "name": sp.name, "t_start": sp.t_start, "t_end": sp.t_end,
        "attrs": sp.attrs, "children": [_tree_form(c) for c in sp.children],
    }


def _ours(name: str) -> bool:
    return name.startswith(("serve.", "cluster."))


def _replay_sections(replay) -> dict:
    sections = {
        "latency": replay.metrics.latency.samples,
        "results": replay.results,
        "metrics": _metrics_form(replay.metrics),
    }
    if hasattr(replay, "shard_metrics"):  # a cluster replay
        sections["shard_metrics"] = [_metrics_form(m) for m in replay.shard_metrics]
        sections["stats"] = replay.stats
    else:
        sections["batch_stats"] = replay.batch_stats
    return sections


def _obs_sections() -> dict:
    registry = get_registry()
    trees = [_tree_form(r) for r in get_tracer().roots if r.name == "request"]
    return {
        "request_trees": trees,
        "counters": {
            k: c.value for k, c in registry.counters.items() if _ours(k)
        },
        "histograms": {
            k: h.samples for k, h in registry.histograms.items() if _ours(k)
        },
        "exemplars": {
            k: [[e.value, e.request_id] for e in h.exemplars]
            for k, h in registry.histograms.items()
            if _ours(k) and h.exemplars
        },
        "flight_events": [
            [e["name"], e["attrs"]] for e in get_flight_recorder().events
        ],
    }


def run_scenario(name: str) -> dict:
    """Digests of one scenario, replayed with obs off and with obs on."""
    server, trace = SCENARIOS[name]()
    replay = server.serve_trace(trace, collect_results=True)
    off = _replay_sections(replay)
    m = replay.metrics
    summary = {
        "requests": len(trace), "served": m.served, "shed": m.shed,
        "cache_hits": m.cache_hits, "degraded_batches": m.degraded_batches,
        "p99_ms": m.latency.percentile(99) * 1e3,
    }
    if hasattr(replay, "shard_metrics"):
        for key in ("hedges", "hedge_wins", "upserts_applied", "subqueries"):
            summary[key] = replay.stats[key]

    server, trace = SCENARIOS[name]()
    with obs.enabled():
        obs.reset()
        traced = server.serve_trace(trace, collect_results=True)
        on = {**_replay_sections(traced), **_obs_sections()}
        summary["request_trees"] = len(on["request_trees"])
        summary["flight_events"] = len(on["flight_events"])
        obs.reset()
    return {
        "summary": summary,
        "obs_off": {k: _digest(v) for k, v in off.items()},
        "obs_on": {k: _digest(v) for k, v in on.items()},
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_replay_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    got = run_scenario(name)
    assert got["summary"] == golden["summary"]
    # Instrumentation observes the replay; it never steers it.
    for section in ("latency", "results", "metrics"):
        assert got["obs_on"][section] == got["obs_off"][section], section
    for mode in ("obs_off", "obs_on"):
        moved = {k for k, v in golden[mode].items() if got[mode].get(k) != v}
        assert not moved, f"{name} [{mode}]: digests moved: {sorted(moved)}"


def test_scenarios_cover_what_they_claim():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(SCENARIOS)
    assert golden["single_brute_cache_shed"]["summary"]["shed"] > 0
    assert golden["single_brute_cache_shed"]["summary"]["cache_hits"] > 0
    assert golden["single_ann_deadline"]["summary"]["degraded_batches"] > 0
    assert golden["cluster_hedged_straggler"]["summary"]["hedge_wins"] > 0
    assert golden["cluster_upserts_cache"]["summary"]["upserts_applied"] == 8
    assert golden["cluster_upserts_cache"]["summary"]["cache_hits"] > 0
    assert golden["cluster_overload_shed"]["summary"]["shed"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_replay_golden.py --write")
    doc = {name: run_scenario(name) for name in sorted(SCENARIOS)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, entry in doc.items():
        print(name, entry["summary"])
