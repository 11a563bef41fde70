"""Request-scoped tracing: ids, span trees, critical paths, rendering."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import context
from repro.obs.context import (
    RequestContext,
    critical_path,
    critical_path_coverage,
    find_request,
    new_request_id,
    new_trace_id,
    render_request_tree,
    request_ids,
)
from repro.obs.export import span_from_dict, span_to_dict
from repro.obs.trace import Tracer, covered_seconds

from .conftest import installed


def _hedged_request(rid: str = "req-000001") -> RequestContext:
    """A request whose slow first dispatch was hedged; hedge won."""
    ctx = RequestContext(rid, 0.0, qid=7, k=10)
    ctx.child("cluster.route", 0.0, t_end=0.0)
    sub = ctx.child("cluster.subrequest", 0.0, shard=1)
    ctx.child(
        "cluster.dispatch", 0.0, parent=sub, t_end=9.0,
        shard=1, replica=0, lost=True,
    )
    ctx.child(
        "cluster.dispatch", 3.0, parent=sub, t_end=5.0,
        shard=1, replica=1, hedge=True, winner=True,
    )
    sub.t_end = 5.0
    return ctx


class TestIds:
    def test_request_ids_are_sequential(self):
        assert new_request_id() == "req-000001"
        assert new_request_id() == "req-000002"
        assert new_request_id("t3.req") == "t3.req-000003"

    def test_trace_ids_namespace_replays(self):
        assert new_trace_id() == "t1"
        assert new_trace_id() == "t2"

    def test_obs_reset_rewinds_counters(self):
        new_request_id()
        new_trace_id()
        obs.reset()
        assert new_request_id() == "req-000001"
        assert new_trace_id() == "t1"


class TestRequestContext:
    def test_finish_attaches_root_to_tracer(self, fake_clock):
        ctx = RequestContext("req-000009", 1.0, qid=3)
        ctx.child("serve.queue", 1.0, t_end=2.0)
        with installed(Tracer(clock=fake_clock)) as tr:
            root = ctx.finish(4.0)
        assert tr.roots == [root]
        assert root.name == "request"
        assert root.attrs["request_id"] == "req-000009"
        assert root.attrs["qid"] == 3
        assert root.t_end == 4.0

    def test_finish_closes_open_descendants(self, fake_clock):
        ctx = RequestContext("req-000001", 0.0)
        open_child = ctx.child("serve.service", 1.0)  # never closed
        with installed(Tracer(clock=fake_clock)):
            ctx.finish(3.0, shed=True)
        assert open_child.t_end == 3.0
        assert ctx.root.attrs["shed"] is True

    def test_children_nest_under_explicit_parent(self, fake_clock):
        ctx = RequestContext("req-000001", 0.0)
        sub = ctx.child("cluster.subrequest", 0.0)
        d = ctx.child("cluster.dispatch", 0.0, parent=sub, t_end=1.0)
        assert ctx.root.children == [sub]
        assert sub.children == [d]

    def test_virtual_spans_have_no_tid(self):
        ctx = RequestContext("req-000001", 0.0)
        child = ctx.child("x", 0.0, t_end=1.0)
        assert ctx.root.tid is None
        assert child.tid is None


class TestForestQueries:
    def test_find_request_on_spans_and_dicts(self, fake_clock):
        with installed(Tracer(clock=fake_clock)) as tr:
            for i in (1, 2):
                RequestContext(f"req-{i:06d}", 0.0).finish(1.0)
        found = find_request(tr.roots, "req-000002")
        assert found is tr.roots[1]
        exported = [span_from_dict(span_to_dict(r)) for r in tr.roots]
        found_d = find_request(exported, "req-000002")
        assert found_d.attrs["request_id"] == "req-000002"
        assert find_request(exported, "req-999999") is None

    def test_request_ids_in_recording_order(self, fake_clock):
        with installed(Tracer(clock=fake_clock)) as tr:
            for i in (3, 1, 2):
                RequestContext(f"req-{i:06d}", 0.0).finish(1.0)
        assert request_ids(tr.roots) == [
            "req-000003", "req-000001", "req-000002",
        ]


class TestCriticalPath:
    def test_queue_then_service_chain(self):
        ctx = RequestContext("req-000001", 0.0)
        q = ctx.child("serve.queue", 0.0, t_end=2.0)
        s = ctx.child("serve.service", 2.0, t_end=5.0)
        ctx.root.t_end = 5.0
        path = critical_path(ctx.root)
        assert path[0] is ctx.root
        assert q in path and s in path
        assert critical_path_coverage(ctx.root) == pytest.approx(1.0)

    def test_lost_hedge_copies_are_excluded(self):
        ctx = _hedged_request()
        ctx.root.t_end = 5.0
        names = {
            (n.name, n.attrs.get("replica"))
            for n in critical_path(ctx.root)[1:]
        }
        # The lost dispatch outlives the completion (t_end=9) but the
        # request never waited on it: the walk must not pick it.
        assert ("cluster.dispatch", 0) not in names
        assert critical_path_coverage(ctx.root) == pytest.approx(1.0)

    def test_gap_counts_against_coverage(self):
        ctx = RequestContext("req-000001", 0.0)
        ctx.child("serve.queue", 0.0, t_end=1.0)
        ctx.child("serve.service", 3.0, t_end=5.0)  # 2s unattributed gap
        ctx.root.t_end = 5.0
        cov = critical_path_coverage(ctx.root)
        assert cov == pytest.approx(3.0 / 5.0)

    def test_zero_latency_request_is_fully_covered(self):
        ctx = RequestContext("req-000001", 2.0)
        ctx.child("serve.cache_hit", 2.0, t_end=2.0)
        ctx.root.t_end = 2.0
        assert critical_path_coverage(ctx.root) == 1.0

    def test_works_on_exported_dicts(self):
        ctx = _hedged_request()
        ctx.root.t_end = 5.0
        d = span_from_dict(span_to_dict(ctx.root))
        assert critical_path_coverage(d) == pytest.approx(1.0)
        assert [n.name for n in critical_path(d)][0] == "request"


class TestRender:
    def test_tree_marks_and_footer(self):
        ctx = _hedged_request()
        ctx.root.t_end = 5.0
        text = render_request_tree(ctx.root)
        assert "request req-000001" in text
        assert "[hedge/winner]" in text
        assert "[lost]" in text
        assert "covers 100.0% of it" in text

    def test_renders_exported_dict_identically(self):
        ctx = _hedged_request()
        ctx.root.t_end = 5.0
        live = render_request_tree(ctx.root)
        post = render_request_tree(span_from_dict(span_to_dict(ctx.root)))
        assert live == post


class TestSelfSeconds:
    def test_hedged_request_self_time_is_the_uncovered_part(self):
        """A subrequest whose lost and hedged dispatches overlap: self
        time is the duration minus the union of the children's
        intervals, never negative (their summed durations, 9 + 2, exceed
        the subrequest's 5)."""
        ctx = _hedged_request()
        ctx.root.t_end = 5.0
        sub = ctx.root.children[1]
        union = covered_seconds([(c.t_start, c.t_end) for c in sub.children], 0.0, 5.0)
        assert union == 5.0
        assert sub.self_seconds == sub.duration - union == 0.0
        # The route span is instantaneous; the subrequest covers [0, 5].
        assert ctx.root.self_seconds == 0.0
        for sp in (ctx.root, sub, *sub.children):
            assert sp.self_seconds >= 0.0
        assert all(sp.clock == "virtual" for sp in (ctx.root, sub, *sub.children))


class TestServingIntegration:
    def test_server_replay_builds_resolvable_request_trees(self):
        import numpy as np

        from repro.serving.server import EmbeddingServer, ServerConfig
        from repro.serving.workload import zipf_trace

        rng = np.random.default_rng(0)
        emb = rng.standard_normal((256, 8))
        server = EmbeddingServer(
            emb,
            config=ServerConfig(max_batch=8),
            service_model=lambda b, rows: 0.001,
        )
        trace = zipf_trace(60, 256, skew=1.1, rate=5000.0, k=5, rng=rng)
        with obs.enabled():
            obs.reset()
            replay = server.serve_trace(trace)
            roots = obs.get_tracer().roots
        ids = request_ids(roots)
        assert len(ids) == replay.metrics.served
        covs = [
            critical_path_coverage(find_request(roots, rid)) for rid in ids
        ]
        assert min(covs) >= 0.95

    def test_cluster_replay_marks_exactly_one_winner_per_subrequest(self):
        import numpy as np

        from repro.serving.cluster import ClusterConfig, ClusterServer
        from repro.serving.workload import bursty_trace

        rng = np.random.default_rng(0)
        emb = rng.standard_normal((512, 8))
        server = ClusterServer(
            emb,
            config=ClusterConfig(
                num_shards=2, replicas=2, fanout=2,
                hedge=True, hedge_min_samples=16, hedge_fallback=0.002,
            ),
            service_model=lambda s, r, b, rows: 0.004 if r else 0.001,
            rng=np.random.default_rng(1),
        )
        trace = bursty_trace(
            120, 512, skew=1.1, base_rate=500.0, burst_rate=4000.0,
            base_seconds=0.2, burst_seconds=0.1, k=5,
            rng=np.random.default_rng(2),
        )
        with obs.enabled():
            obs.reset()
            server.serve_trace(trace)
            roots = obs.get_tracer().roots
        hedged = 0
        for rid in request_ids(roots):
            root = find_request(roots, rid)
            if root.attrs.get("shed"):
                continue
            for sub in root.children:
                if sub.name != "cluster.subrequest":
                    continue
                dispatches = [
                    d for d in sub.children if d.name == "cluster.dispatch"
                ]
                winners = [d for d in dispatches if d.attrs.get("winner")]
                finished = [
                    d for d in dispatches if not d.attrs.get("cancelled")
                ]
                if finished:
                    assert len(winners) == 1
                if any(d.attrs.get("hedge") for d in dispatches):
                    hedged += 1
            assert critical_path_coverage(root) >= 0.95
        assert hedged > 0  # the straggler model must actually trigger hedges
