"""Flight recorder: the event ring, the span trees a dump reads from the
process tracer, dumps, debounce."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import flight, metrics
from repro.obs.context import RequestContext
from repro.obs.flight import FlightRecorder, flight_event, get_flight_recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

from .conftest import FakeClock, installed


@pytest.fixture
def recorder(tmp_path, fake_clock):
    """A small recorder installed as the process recorder; restored after."""
    rec = FlightRecorder(clock=fake_clock)
    rec.out_dir = tmp_path
    prev = flight.set_flight_recorder(rec)
    yield rec
    flight.set_flight_recorder(prev)


def _root(name: str, t0: float = 0.0, t1: float = 1.0) -> Span:
    return Span(name, t0, "wall", t_end=t1)


def _dumped_spans(recorder) -> list[dict]:
    """The ``spans`` of a fresh dump of ``recorder``."""
    path = recorder.dump("spans", registry=MetricsRegistry())
    return json.loads(path.read_text())["spans"]


class TestRings:
    def test_span_ring_keeps_the_newest(self, recorder, fake_clock):
        """A dump holds the newest SPAN_CAPACITY finished roots of the
        process tracer, oldest first."""
        with installed(Tracer(clock=fake_clock)) as tr:
            for i in range(flight.SPAN_CAPACITY + 2):
                tr.add_root(_root(f"s{i}"))
            names = [sp["name"] for sp in _dumped_spans(recorder)]
        assert len(names) == flight.SPAN_CAPACITY
        assert names[0] == "s2" and names[-1] == f"s{flight.SPAN_CAPACITY + 1}"

    def test_event_ring_keeps_the_newest(self, recorder):
        for i in range(flight.EVENT_CAPACITY + 2):
            recorder.event("e", i=i)
        assert [e["attrs"]["i"] for e in recorder.events] == list(
            range(2, flight.EVENT_CAPACITY + 2)
        )

    def test_events_are_clock_stamped(self, recorder):
        recorder.event("first")
        recorder.event("second")
        ts = [e["t"] for e in recorder.events]
        assert ts == sorted(ts) and ts[0] < ts[1]

    def test_clear_empties_everything(self, recorder):
        reg = MetricsRegistry()
        reg.counter("a").add(3)
        recorder.event("e")
        recorder.dump("before", registry=reg)  # rebases the deltas
        recorder.clear()
        assert recorder.events == []
        assert recorder.counter_deltas(reg) == {"a": 3.0}


class TestRootSinkCapture:
    """What a dump captures from the process tracer's roots, the only
    copy of finished span trees."""

    def test_tracer_roots_land_in_the_ring(self, recorder, fake_clock):
        with installed(Tracer(clock=fake_clock)) as tr:
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
            spans = _dumped_spans(recorder)
        assert [sp["name"] for sp in spans] == ["outer"]
        # The whole tree is dumped, not just the root.
        assert [c["name"] for c in spans[0]["children"]] == ["inner"]
        assert spans[0]["clock"] == "wall"

    def test_request_trees_land_via_add_root(self, recorder, fake_clock):
        ctx = RequestContext("req-000001", 0.0)
        with installed(Tracer(clock=fake_clock)):
            ctx.finish(1.0)
            spans = _dumped_spans(recorder)
        assert [sp["name"] for sp in spans] == ["request"]
        assert spans[0]["clock"] == "virtual"

    def test_open_roots_added_explicitly_are_not_recorded(self, recorder, fake_clock):
        with installed(Tracer(clock=fake_clock)) as tr:
            tr.add_root(Span("open", 0.0, "wall"))  # t_end is None
            tr.span("still-open")  # entered, never exited
            assert _dumped_spans(recorder) == []

    def test_flight_event_is_gate_guarded(self, recorder):
        flight_event("hidden", x=1)
        assert recorder.events == []
        with obs.enabled():
            flight_event("visible", x=2)
        assert [e["name"] for e in recorder.events] == ["visible"]

    def test_obs_reset_clears_the_process_recorder(self):
        rec = get_flight_recorder()
        rec.event("stale")
        obs.reset()
        assert rec.events == []


class TestCounterDeltas:
    def test_deltas_only_show_movement(self, recorder):
        reg = MetricsRegistry()
        reg.counter("a").add(3)
        reg.counter("b").add(1)
        assert recorder.counter_deltas(reg) == {"a": 3.0, "b": 1.0}
        recorder.dump("d", registry=reg)  # rebases
        reg.counter("a").add(2)
        assert recorder.counter_deltas(reg) == {"a": 2.0}


class TestDump:
    def test_dump_writes_a_complete_bundle(self, recorder, tmp_path):
        reg = MetricsRegistry()
        reg.counter("serve.shed").add(4)
        reg.histogram("lat").record(0.5)
        reg.histogram("lat").record_exemplar(0.5, "req-000001")
        recorder.event("cluster.hedge_fired", shard=1)
        with installed(Tracer()) as tr:
            tr.add_root(_root("request"))
            path = recorder.dump("unit", reason="because", registry=reg)
        assert path == tmp_path / "OBS_flightdump_unit_001.json"
        doc = json.loads(path.read_text())
        assert {"obs", "env", "phases", "metrics", "exemplars", "kernel_classes"} <= set(doc)
        assert doc["phases"]["wall"]["request"]["count"] == 1.0
        assert doc["kind"] == "flightdump"
        assert doc["reason"] == "because"
        assert doc["dump_index"] == 1
        assert [s["name"] for s in doc["spans"]] == ["request"]
        assert [e["name"] for e in doc["events"]] == ["cluster.hedge_fired"]
        assert doc["counter_deltas"] == {"serve.shed": 4.0}
        assert doc["exemplars"]["lat"][0]["request_id"] == "req-000001"
        assert "python" in json.dumps(doc["env"]).lower() or doc["env"]

    def test_dump_indices_increment(self, recorder):
        reg = MetricsRegistry()
        p1 = recorder.dump("seq", registry=reg)
        p2 = recorder.dump("seq", registry=reg)
        assert p1.name.endswith("_001.json")
        assert p2.name.endswith("_002.json")

    def test_maybe_dump_debounces(self, recorder):
        reg = MetricsRegistry()
        clock = recorder.clock
        assert recorder.maybe_dump("auto", registry=reg) is not None
        # FakeClock steps 1s per read; the debounce suppresses this.
        assert recorder.maybe_dump("auto", registry=reg) is None
        clock.t += 2 * flight.DEBOUNCE_SECONDS
        assert recorder.maybe_dump("auto", registry=reg) is not None


class TestBreachTriggeredDump:
    def test_slo_breach_auto_dumps_debounced(self, recorder):
        from repro.obs.slo import SLOContext, SLORule, evaluate

        reg = MetricsRegistry()
        reg.histogram("lat").extend([1.0] * 10)  # max = 1.0 >> 0.001
        rule = SLORule(
            name="impossible",
            kind="staleness_bound",
            params={"metric": "lat", "bound": 0.001},
        )
        ctx = SLOContext(registry=reg)
        results = evaluate([rule], ctx)
        assert not results[0].ok
        assert recorder.dump_count == 1
        dumps = list(recorder.out_dir.glob("OBS_flightdump_slo_breach_*.json"))
        assert len(dumps) == 1
        doc = json.loads(dumps[0].read_text())
        assert "impossible" in doc["reason"]
        assert reg.counters["slo.flight_dumps"].value == 1.0
        # A second breached evaluation inside the debounce window does
        # not produce a second bundle.
        evaluate([rule], ctx)
        assert recorder.dump_count == 1

    def test_passing_rules_never_dump(self, recorder):
        from repro.obs.slo import SLOContext, SLORule, evaluate

        reg = MetricsRegistry()
        reg.histogram("lat").extend([0.001] * 10)
        rule = SLORule(
            name="fine",
            kind="staleness_bound",
            params={"metric": "lat", "bound": 1.0},
        )
        results = evaluate([rule], SLOContext(registry=reg))
        assert results[0].ok
        assert recorder.dump_count == 0


class TestDisabledPath:
    def test_disabled_replay_records_nothing(self, recorder):
        import numpy as np

        from repro.serving.server import EmbeddingServer, ServerConfig
        from repro.serving.workload import zipf_trace

        rng = np.random.default_rng(0)
        server = EmbeddingServer(
            rng.standard_normal((128, 8)),
            config=ServerConfig(max_batch=8),
            service_model=lambda b, rows: 0.001,
        )
        trace = zipf_trace(30, 128, skew=1.1, rate=1000.0, k=5, rng=rng)
        server.serve_trace(trace)  # gate off
        assert _dumped_spans(recorder) == []
        assert recorder.events == []
