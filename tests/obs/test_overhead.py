"""The kill switch is genuinely free: no allocation, <2% trainer cost."""

from __future__ import annotations

import gc
import time
import tracemalloc

from repro import obs
from repro.obs import metrics
from repro.obs.trace import NOOP_SPAN, span
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer


class TestDisabledPath:
    def test_span_returns_shared_singleton(self):
        spans = {id(span(f"site.{i}")) for i in range(100)}
        assert spans == {id(NOOP_SPAN)}

    def test_noop_span_absorbs_the_full_protocol(self):
        with span("anything") as sp:
            assert sp.set(a=1, b=2) is sp
        assert obs.get_tracer().roots == []

    def test_disabled_calls_allocate_nothing(self):
        """Net traced memory does not grow with the number of disabled
        instrumentation calls — the hot-loop contract."""
        tracemalloc.start()
        try:
            for _ in range(64):  # warm caches / interned names
                span("probe")
                metrics.inc("probe")
                metrics.observe("probe", 1.0)
                metrics.set_gauge("probe", 1.0)
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(4096):
                span("probe")
                metrics.inc("probe")
                metrics.observe("probe", 1.0)
                metrics.set_gauge("probe", 1.0)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 1024  # noise floor, not O(calls)

    def test_nothing_recorded_while_disabled(self):
        span("x").set(n=1)
        metrics.inc("x")
        assert obs.get_tracer().roots == []
        assert metrics.snapshot()["counters"] == {}

    def test_disabled_tail_debug_entry_points_allocate_nothing(self):
        """The request-tracing / flight-recorder additions keep the
        disabled hot path allocation-free: flight_event and the
        exemplar-carrying observe() are gate-guarded like span()/inc()."""
        from repro.obs.flight import flight_event

        tracemalloc.start()
        try:
            for _ in range(64):  # warm caches / interned names
                flight_event("probe", x=1)
                metrics.observe("probe", 1.0, request_id="req-000001")
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(4096):
                flight_event("probe", x=1)
                metrics.observe("probe", 1.0, request_id="req-000001")
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 1024  # noise floor, not O(calls)


class TestEnabledRecorderBudget:
    def test_enabled_serve_overhead_under_five_percent(self):
        """Request tracing + exemplars + the always-on flight recorder
        cost ≤5% on the serve hot path at a paper-realistic index size
        (~64k vertices, the PPI scale).

        Same structure as the trainer bound below, because a direct
        enabled-vs-disabled wall-clock A/B is dominated by scheduler and
        BLAS noise on shared runners: measure (a) the obs-disabled
        replay wall time and (b) the per-request cost of everything the
        enabled path adds — a RequestContext tree (id, queue + service
        children, finish into the tracer's roots, which flight dumps
        read) plus the latency sample and its exemplar offer — then
        assert the per-request cost across every served request stays
        under 5% of the replay.
        """
        import numpy as np

        from repro.obs import context as obs_context
        from repro.serving.server import EmbeddingServer, ServerConfig
        from repro.serving.workload import zipf_trace

        rows, queries = 65536, 400
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((rows, 64)).astype(np.float32)
        trace = zipf_trace(queries, rows, skew=1.1, rate=5000.0, k=10)
        obs.reset()
        server = EmbeddingServer(emb, config=ServerConfig(max_batch=32))

        def replay_once() -> float:
            t0 = time.perf_counter()
            server.serve_trace(trace)
            return time.perf_counter() - t0

        disabled = min(replay_once() for _ in range(3))

        reps = 2000

        def instrumentation_once() -> float:
            obs.reset()
            hist = metrics.get_registry().histogram("serve.latency_seconds")
            t0 = time.perf_counter()
            for i in range(reps):
                ctx = obs_context.RequestContext(
                    obs_context.new_request_id("t1.req"), 0.0, qid=i, k=10
                )
                ctx.child("serve.queue", 0.0, t_end=0.001)
                ctx.child(
                    "serve.service", 0.001, t_end=0.002, size=32, rows=rows
                )
                ctx.finish(0.002)
                hist.record(0.002)
                hist.record_exemplar(0.002, ctx.request_id)
            return (time.perf_counter() - t0) / reps

        with obs.enabled():
            per_request = min(instrumentation_once() for _ in range(3))
        obs.reset()

        overhead = queries * per_request / disabled
        assert overhead < 0.05, (
            f"enabled-recorder overhead {overhead * 100:.2f}% "
            f"({per_request * 1e6:.2f}us/request x {queries} requests vs "
            f"disabled replay {disabled * 1e3:.1f}ms)"
        )


class TestTrainerOverhead:
    def test_disabled_overhead_under_two_percent(self, ppi_small):
        """Bound the instrumentation tax on a real training iteration.

        Measures (a) the wall time of an uninstrumented-in-effect
        (gate off) training iteration and (b) the per-call cost of a
        disabled span()/inc() pair, then asserts that even a generous
        count of instrumented call sites per iteration costs <2% of the
        iteration — the acceptance bound from the issue.
        """
        config = TrainConfig(
            hidden_dims=(32, 32),
            frontier_size=20,
            budget=120,
            epochs=2,
            eval_every=1,
            seed=0,
        )
        trainer = GraphSamplingTrainer(ppi_small, config)
        t0 = time.perf_counter()
        result = trainer.train()
        per_iteration = (time.perf_counter() - t0) / max(1, result.iterations)

        calls = 100_000
        t0 = time.perf_counter()
        for _ in range(calls):
            span("overhead.probe")
            metrics.inc("overhead.probe")
        per_call = (time.perf_counter() - t0) / (2 * calls)

        # Far more call sites than the trainer actually has per iteration
        # (spans + guarded counters across sampler/prop/spmm/trainer).
        generous_sites = 200
        overhead = generous_sites * per_call
        assert overhead < 0.02 * per_iteration, (
            f"disabled instrumentation {overhead * 1e6:.2f}us/iter vs "
            f"iteration {per_iteration * 1e3:.3f}ms"
        )
