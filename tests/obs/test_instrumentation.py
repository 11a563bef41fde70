"""End-to-end instrumentation: trainer, samplers, propagation, serving.

The acceptance criterion from the issue lives here: on a real training
run, the sample/forward/backward spans must cover >= 95% of each
iteration's wall time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs.trace import walk
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer


@pytest.fixture(scope="module")
def traced_run(request):
    """One instrumented training run shared by the assertions below."""
    ppi_small = request.getfixturevalue("ppi_small")
    config = TrainConfig(
        hidden_dims=(32, 32),
        frontier_size=20,
        budget=120,
        epochs=2,
        eval_every=1,
        seed=0,
    )
    trainer = GraphSamplingTrainer(ppi_small, config)
    obs.set_enabled(False)
    obs.reset()
    with obs.enabled():
        result = trainer.train()
    roots = list(obs.get_tracer().roots)
    snapshot = obs.metrics.snapshot()
    obs.reset()
    return result, roots, snapshot


def _named(roots, name):
    return [sp for root in roots for sp in walk(root) if sp.name == name]


class TestTrainerSpans:
    def test_iteration_coverage_at_least_95_percent(self, traced_run):
        result, roots, _ = traced_run
        iterations = _named(roots, "trainer.iteration")
        assert len(iterations) == result.iterations
        total = sum(sp.duration for sp in iterations)
        covered = sum(
            child.duration for sp in iterations for child in sp.children
        )
        assert total > 0
        assert covered / total >= 0.95

    def test_phase_structure(self, traced_run):
        _, roots, _ = traced_run
        assert all(r.name == "trainer.epoch" for r in roots)
        for it in _named(roots, "trainer.iteration"):
            names = [c.name for c in it.children]
            assert names == [
                "trainer.sample",
                "trainer.forward",
                "trainer.backward",
            ]

    def test_propagation_nested_inside_model_phases(self, traced_run):
        _, roots, _ = traced_run
        for phase, prop in (
            ("trainer.forward", "prop.forward"),
            ("trainer.backward", "prop.backward"),
        ):
            parents = _named(roots, phase)
            nested = [
                sp
                for parent in parents
                for sp in walk(parent)
                if sp.name == prop
            ]
            assert nested, f"no {prop} spans under {phase}"
            assert all(sp.attrs["n"] > 0 and sp.attrs["f"] > 0 for sp in nested)

    def test_optimizer_span_nested_inside_backward(self, traced_run):
        _, roots, _ = traced_run
        backwards = _named(roots, "trainer.backward")
        assert backwards
        for bw in backwards:
            assert [c.name for c in bw.children][-1] == "trainer.optimizer"
        assert len(_named(roots, "trainer.optimizer")) == len(backwards)

    def test_iteration_attrs(self, traced_run):
        _, roots, _ = traced_run
        for it in _named(roots, "trainer.iteration"):
            assert it.attrs["vertices"] > 0
            assert it.attrs["edges"] > 0

    def test_eval_spans_inside_epochs(self, traced_run):
        _, roots, _ = traced_run
        assert _named(roots, "trainer.eval")

    def test_counters_populated(self, traced_run):
        result, _, snapshot = traced_run
        counters = snapshot["counters"]
        assert counters["trainer.iterations"] == float(result.iterations)
        assert counters["sampler.pops"] > 0
        assert counters["sampler.subgraphs"] > 0
        assert counters["prop.passes"] > 0
        assert counters["spmm.ops"] > 0
        assert counters["spmm.flops"] > 0

    def test_sampler_spans_under_sample_phase(self, traced_run):
        _, roots, _ = traced_run
        samples = _named(roots, "trainer.sample")
        dashboards = [
            sp
            for parent in samples
            for sp in walk(parent)
            if sp.name == "sampler.dashboard"
        ]
        assert dashboards
        assert all("pops" in sp.attrs for sp in dashboards)


class TestServingSpans:
    def test_serve_trace_records_spans_and_counters(self, rng):
        from repro.serving import EmbeddingServer, QueryTrace, ServerConfig

        embeddings = rng.standard_normal((60, 8))
        server = EmbeddingServer(
            embeddings,
            config=ServerConfig(max_batch=8, max_wait=0.0, queue_capacity=64),
            service_model=lambda batch, rows: 1e-4,
        )
        ids = np.arange(30, dtype=np.int64) % 60
        trace = QueryTrace(
            query_ids=ids,
            arrivals=np.arange(30, dtype=np.float64) * 0.01,
            k=5,
            skew=0.0,
        )
        obs.reset()
        with obs.enabled():
            replay = server.serve_trace(trace)
        roots = obs.get_tracer().roots
        serve_spans = _named(roots, "serve.trace")
        assert len(serve_spans) == 1
        assert serve_spans[0].attrs["requests"] == 30
        batches = _named(roots, "serve.batch")
        assert batches
        assert all(
            any(c.name == "serve.search" for c in b.children) for b in batches
        )
        counters = obs.metrics.snapshot()["counters"]
        assert counters["serve.requests"] == 30.0
        assert counters["serve.served"] == float(replay.metrics.served)
        assert counters["serve.batches"] == float(len(batches))

    def test_serving_silent_when_disabled(self, rng):
        from repro.serving import EmbeddingServer, QueryTrace, ServerConfig

        embeddings = rng.standard_normal((20, 4))
        server = EmbeddingServer(
            embeddings,
            config=ServerConfig(max_batch=4, max_wait=0.0, queue_capacity=16),
            service_model=lambda batch, rows: 1e-4,
        )
        ids = np.arange(8, dtype=np.int64)
        trace = QueryTrace(
            query_ids=ids,
            arrivals=np.arange(8, dtype=np.float64) * 0.01,
            k=3,
            skew=0.0,
        )
        server.serve_trace(trace)
        assert obs.get_tracer().roots == []
        assert obs.metrics.snapshot()["counters"] == {}
