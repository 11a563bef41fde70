"""Exporters: trace documents, Chrome events, OBS_*.json, reports."""

from __future__ import annotations

import json

from repro.obs import export, metrics
from repro.obs.export import (
    load_trace,
    render_report,
    span_to_dict,
    to_chrome_trace,
    trace_document,
    write_chrome_trace,
    write_obs_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

from .conftest import FakeClock


def _small_trace() -> Tracer:
    tr = Tracer(clock=FakeClock(step=1.0))
    with tr.span("iter", n=10):
        with tr.span("work"):
            pass
    return tr


class TestSpanToDict:
    def test_roundtrips_structure(self):
        tr = _small_trace()
        d = span_to_dict(tr.roots[0])
        assert d["name"] == "iter"
        assert d["duration"] == 3.0
        assert d["attrs"] == {"n": 10}
        assert [c["name"] for c in d["children"]] == ["work"]

    def test_non_finite_attrs_become_null(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("s") as sp:
            sp.set(bad=float("nan"), worse=float("inf"), ok=1.5)
        d = span_to_dict(tr.roots[0])
        assert d["attrs"] == {"bad": None, "worse": None, "ok": 1.5}
        json.dumps(d)  # strictly JSON-serializable


class TestTraceDocument:
    def test_shape(self):
        tr = _small_trace()
        reg = MetricsRegistry()
        reg.counter("ops").add(4)
        doc = trace_document("demo", tr, reg)
        assert doc["obs"] == "demo"
        assert set(doc["phases"]) == {"iter", "work"}
        assert set(doc["phases"]["iter"]) == {"count", "wall_seconds", "self_seconds"}
        assert doc["metrics"]["counters"] == {"ops": 4.0}
        assert [s["name"] for s in doc["spans"]] == ["iter"]


class TestChromeTrace:
    def test_events(self):
        tr = _small_trace()
        events = to_chrome_trace(tr.roots)
        assert [e["name"] for e in events] == ["iter", "work"]
        iter_ev, work_ev = events
        assert iter_ev["ph"] == "X"
        assert iter_ev["ts"] == 0.0
        assert iter_ev["dur"] == 3.0 * 1e6
        assert work_ev["ts"] == 1.0 * 1e6
        assert work_ev["dur"] == 1.0 * 1e6
        assert iter_ev["args"] == {"n": 10}

    def test_open_spans_skipped_and_empty_ok(self):
        assert to_chrome_trace([]) == []
        tr = Tracer(clock=FakeClock())
        tr.span("never-closed")
        assert to_chrome_trace(tr.roots) == []

    def test_write_chrome_trace(self, tmp_path):
        tr = _small_trace()
        path = write_chrome_trace(tmp_path / "t.chrome.json", tr)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == 2

    def test_multithreaded_spans_get_per_thread_lanes(self):
        """Spans opened on different threads land on distinct dense tid
        lanes, numbered in first-seen order."""
        import threading

        tr = Tracer(clock=FakeClock(step=1.0))
        with tr.span("main.work"):
            pass

        barrier = threading.Barrier(3)

        def worker(name):
            # All three rendezvous so their thread idents are distinct
            # (a joined thread's ident can be reused by the next one).
            barrier.wait()
            with tr.span(name):
                pass

        threads = [
            threading.Thread(target=worker, args=(f"worker.{i}",))
            for i in range(3)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        events = to_chrome_trace(tr.roots)
        by_name = {e["name"]: e["tid"] for e in events}
        assert by_name["main.work"] == 0  # first-seen thread gets lane 0
        worker_lanes = {by_name[f"worker.{i}"] for i in range(3)}
        assert worker_lanes == {1, 2, 3}
        assert all(e["pid"] == events[0]["pid"] for e in events)

    def test_virtual_clock_spans_share_lane_zero(self):
        """Request trees built with explicit timestamps (tid=None) render
        on lane 0 rather than inventing a lane per span."""
        from repro.obs.context import RequestContext

        tr = Tracer(clock=FakeClock())
        ctx = RequestContext("req-000001", 0.0)
        ctx.child("serve.service", 0.0, t_end=1.0)
        ctx.finish(1.0, tracer=tr)
        events = to_chrome_trace(tr.roots)
        assert {e["tid"] for e in events} == {0}


class TestFileRoundtrips:
    def test_obs_json_flat_and_sorted(self, tmp_path):
        tr = _small_trace()
        reg = MetricsRegistry()
        reg.counter("z").add(1)
        reg.counter("a").add(2)
        path = write_obs_json(tmp_path / "OBS_demo.json", "demo", tr, reg)
        doc = load_trace(path)
        assert doc["obs"] == "demo"
        assert "spans" not in doc  # flat summary, no tree
        assert doc["phases"]["iter"]["count"] == 1.0
        assert list(doc["metrics"]["counters"]) == ["a", "z"]

    def test_global_default_arguments(self, tmp_path):
        from repro import obs

        with obs.enabled():
            with obs.span("g"):
                metrics.inc("touched")
        doc = export.trace_document("global")
        assert "g" in doc["phases"]
        assert doc["metrics"]["counters"]["touched"] == 1.0
        path = export.write_obs_json(tmp_path / "OBS_global.json", "global")
        assert load_trace(path)["obs"] == "global"


class TestExemplarRoundtrip:
    def _registry_with_exemplars(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        hist = reg.histogram("serve.latency_seconds")
        hist.record(0.250)
        hist.record_exemplar(0.250, "t1.req-000007", "OBS_serve.json")
        return reg

    def test_trace_document_carries_exemplars(self):
        doc = trace_document("demo", _small_trace(), self._registry_with_exemplars())
        (entry,) = doc["exemplars"]["serve.latency_seconds"]
        assert entry == {
            "value": 0.250,
            "request_id": "t1.req-000007",
            "span_ref": "OBS_serve.json",
        }
        json.dumps(doc)  # strictly serializable with exemplars attached

    def test_exemplars_survive_obs_json_roundtrip(self, tmp_path):
        reg = self._registry_with_exemplars()
        path = write_obs_json(tmp_path / "OBS_demo.json", "demo", _small_trace(), reg)
        doc = load_trace(path)
        (entry,) = doc["exemplars"]["serve.latency_seconds"]
        assert entry["request_id"] == "t1.req-000007"
        assert entry["value"] == 0.250

    def test_span_to_dict_keeps_tid(self):
        tr = _small_trace()
        d = span_to_dict(tr.roots[0])
        assert d["tid"] == tr.roots[0].tid
        assert d["children"][0]["tid"] == tr.roots[0].children[0].tid

    def test_render_exemplars_table_and_empty(self):
        from repro.obs.export import render_exemplars

        doc = trace_document("demo", _small_trace(), self._registry_with_exemplars())
        text = render_exemplars(doc)
        assert "tail exemplars: demo" in text
        assert "t1.req-000007" in text
        assert "250" in text  # value rendered in milliseconds
        empty = render_exemplars({"obs": "empty", "exemplars": {}})
        assert "no exemplars retained" in empty


class TestRenderReport:
    def test_report_contains_phases_and_counters(self):
        tr = _small_trace()
        reg = MetricsRegistry()
        reg.counter("sampler.pops").add(42)
        text = render_report(trace_document("demo", tr, reg))
        assert "obs report: demo" in text
        assert "iter" in text and "work" in text
        assert "wall_%" in text
        assert "sampler.pops" in text

    def test_upsert_histograms_side_by_side(self):
        reg = MetricsRegistry()
        for name, v in (("cluster.upsert_lag_seconds", 0.25), ("upsert.produce_seconds", 0.5)):
            reg.histogram(name).record(v)
        reg.histogram("cluster.latency_seconds").record(0.125)
        text = render_report(trace_document("demo", _small_trace(), reg))
        upserts = text[text.index("upserts") :]
        assert "cluster.upsert_lag_seconds" in upserts
        assert "upsert.produce_seconds" in upserts and "500.000" in upserts  # ms
        assert "cluster.latency_seconds" not in text
        assert "upserts" not in render_report(
            trace_document("demo", _small_trace(), MetricsRegistry())
        )

    def test_self_time_percentages_sum_to_100(self):
        tr = _small_trace()
        doc = trace_document("demo", tr, MetricsRegistry())
        total_self = sum(p["self_seconds"] for p in doc["phases"].values())
        shares = [
            100.0 * p["self_seconds"] / total_self for p in doc["phases"].values()
        ]
        assert sum(shares) == 100.0

    def test_empty_document(self):
        text = render_report({"obs": "empty", "phases": {}})
        assert "no spans recorded" in text
