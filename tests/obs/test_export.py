"""Exporters: trace documents, Chrome events, OBS_*.json, reports."""

from __future__ import annotations

import json

import numpy as np

from repro import obs
from repro.cli import main
from repro.experiments.common import format_float
from repro.graphs import edges_to_csr
from repro.kernels import accounting
from repro.kernels import ops as kernel_ops
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
from repro.obs.trace import Tracer

from .conftest import FakeClock, installed


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
        metrics.get_registry().counter("ops").add(4)
        with installed(_small_trace()):
            doc = trace_document("demo")
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
        with installed(_small_trace()):
            path = write_chrome_trace(tmp_path / "t.chrome.json")
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

        ctx = RequestContext("req-000001", 0.0)
        ctx.child("serve.service", 0.0, t_end=1.0)
        with installed(Tracer(clock=FakeClock())) as tr:
            ctx.finish(1.0)
        events = to_chrome_trace(tr.roots)
        assert {e["tid"] for e in events} == {0}


class TestFileRoundtrips:
    def test_obs_json_flat_and_sorted(self, tmp_path):
        reg = metrics.get_registry()
        reg.counter("z").add(1)
        reg.counter("a").add(2)
        with installed(_small_trace()):
            path = write_obs_json(tmp_path / "OBS_demo.json", "demo")
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
    @staticmethod
    def _record_exemplar() -> None:
        hist = metrics.get_registry().histogram("serve.latency_seconds")
        hist.record(0.250)
        hist.record_exemplar(0.250, "t1.req-000007")

    def test_trace_document_carries_exemplars(self):
        self._record_exemplar()
        with installed(_small_trace()):
            doc = trace_document("demo")
        (entry,) = doc["exemplars"]["serve.latency_seconds"]
        assert entry == {"value": 0.250, "request_id": "t1.req-000007"}
        json.dumps(doc)  # strictly serializable with exemplars attached

    def test_exemplars_survive_obs_json_roundtrip(self, tmp_path):
        self._record_exemplar()
        with installed(_small_trace()):
            path = write_obs_json(tmp_path / "OBS_demo.json", "demo")
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

        self._record_exemplar()
        with installed(_small_trace()):
            doc = trace_document("demo")
        text = render_exemplars(doc)
        assert "tail exemplars: demo" in text
        assert "t1.req-000007" in text
        assert "250" in text  # value rendered in milliseconds
        empty = render_exemplars({"obs": "empty", "exemplars": {}})
        assert "no exemplars retained" in empty


class TestRenderReport:
    def test_report_contains_phases_and_counters(self):
        metrics.get_registry().counter("sampler.pops").add(42)
        with installed(_small_trace()):
            text = render_report(trace_document("demo"))
        assert "obs report: demo" in text
        assert "iter" in text and "work" in text
        assert "wall_%" in text
        assert "sampler.pops" in text

    def test_upsert_histograms_side_by_side(self):
        with installed(_small_trace()):
            assert "upserts" not in render_report(trace_document("demo"))
            reg = metrics.get_registry()
            for name, v in (("cluster.upsert_lag_seconds", 0.25), ("upsert.produce_seconds", 0.5)):
                reg.histogram(name).record(v)
            reg.histogram("cluster.latency_seconds").record(0.125)
            text = render_report(trace_document("demo"))
        upserts = text[text.index("upserts") :]
        assert "cluster.upsert_lag_seconds" in upserts
        assert "upsert.produce_seconds" in upserts and "500.000" in upserts  # ms
        assert "cluster.latency_seconds" not in text

    def test_self_time_percentages_sum_to_100(self):
        with installed(_small_trace()):
            doc = trace_document("demo")
        total_self = sum(p["self_seconds"] for p in doc["phases"].values())
        shares = [
            100.0 * p["self_seconds"] / total_self for p in doc["phases"].values()
        ]
        assert sum(shares) == 100.0

    def test_empty_document(self):
        text = render_report({"obs": "empty", "phases": {}})
        assert "no spans recorded" in text


class TestKernelWindow:
    """A document's kernel work covers its spans' window: ``obs.reset()``
    empties the kernel layer's per-class book with the spans."""

    def test_rollup_equals_a_capture_over_the_window(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        ring = np.arange(12)
        graph = edges_to_csr(np.stack([ring, (ring + 1) % 12], axis=1), 12)
        a = rng.standard_normal((12, 5))
        kernel_ops.gemm(a, a.T)  # before the window: not in the document
        kernel_ops.spmm(graph, a)
        obs.reset()
        try:
            with obs.enabled(), accounting.capture() as window, obs.span("window"):
                kernel_ops.gemm(a, a.T)
                kernel_ops.gemm(a.T, a, out=np.empty((5, 5)))
                kernel_ops.spmm(graph, a)
                take = np.array([0, 3, 3, 7])
                kernel_ops.gather_segment_sum(a, take, np.array([0, 1, 4]), 2)
                kernel_ops.scatter_add_rows(a[take], take, 12)
            doc = trace_document("window")
        finally:
            obs.reset()
        booked = {
            op: (getattr(window, f"{op}_calls"), getattr(window, f"{op}_flops"))
            for op in ("gemm", "spmm")
        }
        assert booked["gemm"][0] == 2 and booked["spmm"][0] == 3
        rollup = export.kernel_rollup(doc)
        assert {op: (row["calls"], row["flops"]) for op, row in rollup.items()} == booked

        path = tmp_path / "OBS_window.json"
        path.write_text(json.dumps(doc))
        assert main(["obs-report", "--trace", str(path)]) == 0
        report = capsys.readouterr().out
        table = report[report.index("kernel work") :].splitlines()
        assert table[1].split() == ["op", "|", "calls", "|", "flops", "|", "seconds"]
        rows = {cells[0]: cells[1:3] for cells in (
            [c.strip() for c in line.split("|")] for line in table[3:5]
        )}
        assert rows == {
            op: [format_float(calls), format_float(flops)]
            for op, (calls, flops) in booked.items()
        }
