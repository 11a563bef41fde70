"""SLO rules: each builtin evaluator, breach counters, live-run check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SLOContext,
    SLOResult,
    SLORule,
    default_rules,
    evaluate,
    render_slo_report,
)
from repro.obs.trace import Tracer
from repro.serving.metrics import ServingMetrics


def _serving_with_latencies(values) -> ServingMetrics:
    m = ServingMetrics()
    for i, v in enumerate(values):
        m.observe_arrival(float(i))
        m.observe_completion(float(i), float(i) + float(v))
    return m


def _tracer_with_iteration(fake_clock, child_steps=(30, 30, 30), slack=10) -> Tracer:
    """One trainer.iteration with sample/forward/backward children.

    ``child_steps`` are fake-clock ticks per child; ``slack`` ticks remain
    unattributed inside the parent, so coverage is sum(children)/total.
    """
    tracer = Tracer(clock=fake_clock)
    with tracer.span("trainer.iteration"):
        for name, steps in zip(
            ("trainer.sample", "trainer.forward", "trainer.backward"), child_steps
        ):
            with tracer.span(name):
                fake_clock.t += steps
        fake_clock.t += slack
    return tracer


class TestServingDeadlineMiss:
    RULE = SLORule(
        name="miss",
        kind="serving_deadline_miss",
        params={"deadline": 0.050, "max_miss_rate": 0.10},
    )

    def test_ok_under_the_rate(self):
        serving = _serving_with_latencies([0.01] * 19 + [0.09])
        (res,) = evaluate([self.RULE], SLOContext(registry=MetricsRegistry(), serving=serving))
        assert res.ok
        assert res.value == pytest.approx(0.05)

    def test_breach_over_the_rate(self):
        serving = _serving_with_latencies([0.01] * 10 + [0.09] * 10)
        (res,) = evaluate([self.RULE], SLOContext(registry=MetricsRegistry(), serving=serving))
        assert not res.ok
        assert res.value == pytest.approx(0.5)

    def test_no_samples_is_a_breach(self):
        """An SLO that measured nothing cannot be claimed met."""
        (res,) = evaluate(
            [self.RULE], SLOContext(registry=MetricsRegistry(), serving=None)
        )
        assert not res.ok
        assert res.value != res.value  # NaN


class TestSpanCoverage:
    RULE = SLORule(
        name="cov", kind="span_coverage", params={"min_coverage": 0.95}
    )

    def test_ok_when_children_explain_the_parent(self, fake_clock):
        tracer = _tracer_with_iteration(
            fake_clock, child_steps=(100, 100, 100), slack=2
        )
        (res,) = evaluate(
            [self.RULE], SLOContext(registry=MetricsRegistry(), tracer=tracer)
        )
        assert res.ok
        assert res.value > 0.95

    def test_breach_when_time_goes_missing(self, fake_clock):
        tracer = _tracer_with_iteration(fake_clock, slack=50)
        (res,) = evaluate(
            [self.RULE], SLOContext(registry=MetricsRegistry(), tracer=tracer)
        )
        assert not res.ok
        assert res.value < 0.95

    def test_no_iterations_is_a_breach(self):
        (res,) = evaluate(
            [self.RULE], SLOContext(registry=MetricsRegistry(), tracer=Tracer())
        )
        assert not res.ok


class TestFlopDrift:
    RULE = SLORule(
        name="drift", kind="flop_drift", params={"max_rel_drift": 1e-6}
    )

    def _registry_with_flops(self, gemm, spmm):
        reg = MetricsRegistry()
        reg.counter("gemm.flops").add(gemm)
        reg.counter("spmm.flops").add(spmm)
        return reg

    def test_exact_agreement(self):
        reg = self._registry_with_flops(2e9, 1e9)
        (res,) = evaluate(
            [self.RULE], SLOContext(registry=reg, expected_flops=3e9)
        )
        assert res.ok
        assert res.value == 0.0

    def test_drift_breaches(self):
        reg = self._registry_with_flops(2e9, 1e9)
        (res,) = evaluate(
            [self.RULE], SLOContext(registry=reg, expected_flops=3.1e9)
        )
        assert not res.ok
        assert res.value == pytest.approx(0.1 / 3.1, rel=1e-6)

    def test_missing_expectation_is_a_breach(self):
        (res,) = evaluate([self.RULE], SLOContext(registry=MetricsRegistry()))
        assert not res.ok


class TestHistogramP99:
    def test_threshold_comparison(self):
        reg = MetricsRegistry()
        reg.histogram("t_s").extend(np.linspace(0.001, 0.100, 100))
        rule = SLORule(
            name="p99", kind="histogram_p99", params={"metric": "t_s", "threshold": 0.2}
        )
        (res,) = evaluate([rule], SLOContext(registry=reg))
        assert res.ok
        tight = SLORule(
            name="p99", kind="histogram_p99", params={"metric": "t_s", "threshold": 0.05}
        )
        (res,) = evaluate([tight], SLOContext(registry=reg))
        assert not res.ok


class TestEvaluate:
    def test_breach_counters_written(self):
        reg = MetricsRegistry()
        rules = [
            SLORule(name="a", kind="flop_drift"),  # breaches: no expectation
            SLORule(
                name="b",
                kind="histogram_p99",
                params={"metric": "none", "threshold": 1.0},
            ),  # breaches: no samples
        ]
        evaluate(rules, SLOContext(registry=reg))
        assert reg.counter("slo.evaluated").value == 2.0
        assert reg.counter("slo.breaches").value == 2.0
        assert reg.counter("slo.breach.a").value == 1.0
        assert reg.counter("slo.breach.b").value == 1.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown SLO rule kind"):
            evaluate(
                [SLORule(name="x", kind="nope")],
                SLOContext(registry=MetricsRegistry()),
            )

    def test_default_rules_cover_three_contracts(self):
        rules = default_rules()
        assert [r.kind for r in rules] == [
            "serving_deadline_miss",
            "span_coverage",
            "flop_drift",
        ]


class TestRender:
    def test_report_shows_breaches(self):
        results = [
            SLOResult("good", "k", 0.1, 1.0, True),
            SLOResult("bad", "k", 2.0, 1.0, False),
        ]
        text = render_slo_report(results)
        assert "BREACH" in text
        assert "1 breach(es): bad" in text

    def test_all_met(self):
        text = render_slo_report([SLOResult("good", "k", 0.1, 1.0, True)])
        assert "all SLOs met" in text

    def test_empty(self):
        assert "no rules evaluated" in render_slo_report([])


class TestAgainstRealServingReplay:
    def test_deadline_rule_on_a_replayed_trace(self):
        """Evaluate the serving SLO against a real EmbeddingServer replay."""
        from repro.serving.server import EmbeddingServer, ServerConfig
        from repro.serving.workload import zipf_trace

        rng = np.random.default_rng(0)
        emb = rng.standard_normal((512, 16))
        server = EmbeddingServer(
            emb,
            config=ServerConfig(max_batch=16, queue_capacity=64),
            index="cluster",
            index_kwargs={"num_clusters": 8, "probes": 2, "rng": rng},
        )
        trace = zipf_trace(200, 512, skew=1.1, rate=500.0, k=5)
        replay = server.serve_trace(trace)
        rule = SLORule(
            name="miss",
            kind="serving_deadline_miss",
            params={"deadline": 10.0, "max_miss_rate": 0.05},  # generous
        )
        (res,) = evaluate(
            [rule],
            SLOContext(registry=MetricsRegistry(), serving=replay.metrics),
        )
        assert res.ok
        assert res.value == 0.0


class TestClusterRules:
    def _registry_with_shards(self, per_shard, staleness=()):
        reg = MetricsRegistry()
        for shard, samples in enumerate(per_shard):
            hist = reg.histogram(f"cluster.shard.{shard}.latency_seconds")
            for v in samples:
                hist.record(v)
        stale = reg.histogram("cluster.staleness_seconds")
        for v in staleness:
            stale.record(v)
        return reg

    def test_per_shard_p99_takes_the_worst_shard(self):
        from repro.obs.slo import cluster_rules

        reg = self._registry_with_shards(
            per_shard=[[0.001] * 50, [0.001] * 49 + [0.2]],
            staleness=[0.1],
        )
        rule = SLORule(
            name="p", kind="per_shard_p99", params={"threshold": 0.1}
        )
        (res,) = evaluate([rule], SLOContext(registry=reg))
        assert not res.ok
        # Shard 1's outlier drags its interpolated p99 past the cap.
        assert 0.1 < res.value < 0.2
        assert "cluster.shard.1" in res.detail
        # A generous threshold passes on the same registry.
        ok_rule = SLORule(
            name="p", kind="per_shard_p99", params={"threshold": 0.5}
        )
        (res,) = evaluate([ok_rule], SLOContext(registry=reg))
        assert res.ok

    def test_per_shard_p99_fails_closed_without_data(self):
        rule = SLORule(
            name="p", kind="per_shard_p99", params={"threshold": 1.0}
        )
        (res,) = evaluate([rule], SLOContext(registry=MetricsRegistry()))
        assert not res.ok
        assert "no histograms" in res.detail

    def test_staleness_bound_gates_on_max(self):
        reg = self._registry_with_shards(
            per_shard=[], staleness=[0.1, 0.4, 0.2]
        )
        ok = SLORule(name="s", kind="staleness_bound", params={"bound": 0.5})
        bad = SLORule(name="s", kind="staleness_bound", params={"bound": 0.3})
        (res_ok,) = evaluate([ok], SLOContext(registry=reg))
        (res_bad,) = evaluate([bad], SLOContext(registry=reg))
        assert res_ok.ok and res_ok.value == pytest.approx(0.4)
        assert not res_bad.ok

    def test_staleness_bound_fails_closed_without_data(self):
        rule = SLORule(name="s", kind="staleness_bound", params={"bound": 1.0})
        (res,) = evaluate([rule], SLOContext(registry=MetricsRegistry()))
        assert not res.ok

    def test_cluster_rules_bundle(self):
        from repro.obs.slo import cluster_rules

        rules = cluster_rules(per_shard_p99=0.05, staleness_bound=2.0)
        assert [r.name for r in rules] == [
            "cluster-per-shard-p99",
            "cluster-staleness-bound",
        ]
        reg = self._registry_with_shards(
            per_shard=[[0.001] * 10, [0.002] * 10], staleness=[0.5, 1.0]
        )
        results = evaluate(rules, SLOContext(registry=reg))
        assert all(r.ok for r in results)

    def test_cluster_rules_against_real_cluster_replay(self):
        """Evaluate the bundle against a live ClusterServer replay."""
        import repro.obs as obs
        from repro.obs import metrics as obs_metrics_mod
        from repro.obs.slo import cluster_rules
        from repro.serving.cluster import ClusterConfig, ClusterServer
        from repro.serving.upsert import SlabUpsertProducer
        from repro.serving.workload import zipf_trace

        emb = np.random.default_rng(0).standard_normal((400, 8))
        trace = zipf_trace(
            200, 400, skew=1.1, rate=2000.0, k=5,
            rng=np.random.default_rng(1),
        )
        with obs.enabled():
            obs_metrics_mod.reset()
            server = ClusterServer(
                emb,
                config=ClusterConfig(num_shards=3, replicas=2),
                service_model=lambda s, r, b, rows: 1e-4,
                rng=np.random.default_rng(2),
            )
            server.upserts = SlabUpsertProducer(
                emb, server.sharded.assignment, interval=0.01, rounds=2,
                seed=3,
            )
            server.serve_trace(trace)
            results = evaluate(
                cluster_rules(per_shard_p99=0.5, staleness_bound=5.0),
                SLOContext(),
            )
        assert all(r.ok for r in results)
        assert {r.kind for r in results} == {
            "per_shard_p99", "staleness_bound",
        }
