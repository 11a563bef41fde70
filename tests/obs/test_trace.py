"""Span/tracer semantics: nesting, clocks, determinism, aggregation."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.trace import NOOP_SPAN, Span, Tracer, aggregate, walk

from .conftest import FakeClock


class TestNesting:
    def test_children_attach_to_open_parent(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        with tr.span("outer"):
            with tr.span("inner"):
                with tr.span("innermost"):
                    pass
            with tr.span("sibling"):
                pass
        assert [r.name for r in tr.roots] == ["outer"]
        outer = tr.roots[0]
        assert [c.name for c in outer.children] == ["inner", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["innermost"]

    def test_sequential_roots(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        assert [r.name for r in tr.roots] == ["a", "b"]
        assert all(not r.children for r in tr.roots)

    def test_current_tracks_stack(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        assert tr.current() is None
        with tr.span("outer") as outer:
            assert tr.current() is outer
            with tr.span("inner") as inner:
                assert tr.current() is inner
            assert tr.current() is outer
        assert tr.current() is None

    def test_out_of_order_exit_unwinds(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        outer = tr.span("outer")
        leaked = tr.span("leaked")
        outer.__exit__(None, None, None)  # exit parent before child
        assert tr.current() is None
        assert leaked.t_end is not None  # closed at the same instant
        assert leaked.t_end == outer.t_end

    def test_out_of_order_exit_marks_leaked_spans(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        outer = tr.span("outer")
        a = tr.span("leaked-a")
        b = tr.span("leaked-b")
        outer.__exit__(None, None, None)
        assert a.attrs.get("leaked") is True
        assert b.attrs.get("leaked") is True
        assert "leaked" not in outer.attrs  # the finished span is clean

    def test_leak_counter_incremented_when_enabled(self, fake_clock):
        from repro.obs import metrics

        with obs.enabled():
            tr = Tracer(clock=fake_clock)
            outer = tr.span("outer")
            tr.span("leaked")
            outer.__exit__(None, None, None)
            assert metrics.snapshot()["counters"]["obs.spans.leaked"] == 1.0

    def test_leak_counter_silent_when_disabled(self, fake_clock):
        from repro.obs import metrics

        tr = Tracer(clock=fake_clock)
        outer = tr.span("outer")
        tr.span("leaked")
        outer.__exit__(None, None, None)
        assert metrics.snapshot()["counters"] == {}

    def test_exception_recorded_and_reraised(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        with pytest.raises(ValueError):
            with tr.span("failing"):
                raise ValueError("boom")
        sp = tr.roots[0]
        assert sp.attrs["error"] == "ValueError"
        assert sp.t_end is not None


class TestClockAndTimes:
    def test_deterministic_clock_gives_exact_durations(self):
        tr = Tracer(clock=FakeClock(step=1.0))
        with tr.span("outer"):          # start t=0
            with tr.span("inner"):      # start t=1
                pass                    # end   t=2
        # outer ends t=3
        outer = tr.roots[0]
        inner = outer.children[0]
        assert outer.duration == 3.0
        assert inner.duration == 1.0
        assert outer.self_seconds == 2.0

    def test_two_runs_identical(self):
        def run():
            tr = Tracer(clock=FakeClock(step=0.5))
            with tr.span("outer", k=1):
                with tr.span("inner"):
                    pass
            from repro.obs.export import span_to_dict

            return [span_to_dict(r) for r in tr.roots]

        assert run() == run()

    def test_open_span_duration_zero(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        sp = tr.span("open")
        assert sp.duration == 0.0

    def test_attrs_via_kwargs_and_set(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        with tr.span("s", a=1) as sp:
            sp.set(b=2).set(a=3)
        assert sp.attrs == {"a": 3, "b": 2}


class TestGlobalApi:
    def test_disabled_returns_noop_singleton(self):
        assert obs.span("anything") is NOOP_SPAN
        assert obs.span("other") is NOOP_SPAN
        assert obs.get_tracer().current() is None
        assert obs.get_tracer().roots == []

    def test_enabled_records_then_restores(self):
        assert not obs.is_enabled()
        with obs.enabled():
            assert obs.is_enabled()
            with obs.span("root") as sp:
                assert isinstance(sp, Span)
                assert obs.get_tracer().current() is sp
        assert not obs.is_enabled()
        assert [r.name for r in obs.get_tracer().roots] == ["root"]

    def test_enabled_nests_and_restores_prior_state(self):
        with obs.enabled():
            with obs.enabled(False):
                assert not obs.is_enabled()
                assert obs.span("hidden") is NOOP_SPAN
            assert obs.is_enabled()

    def test_set_tracer_swaps_global(self, fake_clock):
        prev = obs.get_tracer()
        mine = Tracer(clock=fake_clock)
        try:
            assert obs.set_tracer(mine) is prev
            with obs.enabled():
                with obs.span("x"):
                    pass
            assert [r.name for r in mine.roots] == ["x"]
            assert prev.roots == []
        finally:
            obs.set_tracer(prev)

    def test_reset_clears(self):
        with obs.enabled():
            with obs.span("x"):
                pass
        obs.reset()
        assert obs.get_tracer().roots == []


class TestThreadSafety:
    def test_worker_spans_never_parent_under_another_thread(self, fake_clock):
        """Regression: with a shared stack, spans opened by a prefetch
        worker attached under whatever span the consumer had open
        (``trainer.iteration`` gaining ``sampler.*`` children it never
        ran). The stack is thread-local now."""
        from concurrent.futures import ThreadPoolExecutor

        tr = Tracer(clock=fake_clock)

        def produce(i):
            with tr.span(f"sampler.sample.{i}"):
                pass

        with tr.span("trainer.iteration") as it:
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(produce, range(8)))
        assert it.children == []
        root_names = {r.name for r in tr.roots}
        assert "trainer.iteration" in root_names
        # Every producer span became its own root on its own thread.
        assert {f"sampler.sample.{i}" for i in range(8)} <= root_names
        for r in tr.roots:
            if r.name.startswith("sampler."):
                assert r.tid is not None and r.tid != it.tid

    def test_pipeline_prefetch_never_nests_under_iteration(self, ppi_small):
        """End-to-end: a thread-pool prefetcher samples while the trainer
        iterates; no producer span may appear inside trainer.iteration."""
        from repro.obs.trace import walk as walk_spans
        from repro.train.config import TrainConfig
        from repro.train.trainer import GraphSamplingTrainer

        config = TrainConfig(
            hidden_dims=(16, 16),
            epochs=1,
            seed=0,
            prefetch_depth=2,
            prefetch_workers=1,
        )
        with obs.enabled():
            obs.reset()
            with GraphSamplingTrainer(ppi_small, config) as trainer:
                trainer.train()
            roots = obs.get_tracer().roots
        iterations = [
            sp
            for r in roots
            for sp in walk_spans(r)
            if sp.name == "trainer.iteration"
        ]
        assert iterations
        producer_names = ("sampler.dashboard", "sampler.frontier")
        for it in iterations:
            for sp in walk_spans(it):
                assert sp.name not in producer_names, (
                    f"producer span {sp.name} nested under trainer.iteration"
                )
        # The producers did run — their spans exist as their own roots.
        assert any(
            sp.name in producer_names for r in roots for sp in walk_spans(r)
        )

    def test_concurrent_roots_all_recorded(self, fake_clock):
        import threading

        tr = Tracer(clock=fake_clock)
        n_threads, per_thread = 8, 50

        def worker(t):
            for i in range(per_thread):
                with tr.span(f"w{t}.{i}"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(tr.roots) == n_threads * per_thread


class TestAggregate:
    def test_walk_depth_first(self, fake_clock):
        tr = Tracer(clock=fake_clock)
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
            with tr.span("d"):
                pass
        names = [sp.name for sp in walk(tr.roots[0])]
        assert names == ["a", "b", "c", "d"]

    def test_aggregate_groups_by_name(self):
        tr = Tracer(clock=FakeClock(step=1.0))
        for _ in range(3):
            with tr.span("iter"):
                with tr.span("work"):
                    pass
        stats = aggregate(tr.roots)["wall"]
        assert stats["iter"].count == 3
        assert stats["work"].count == 3
        # each iter spans 3 ticks, each work 1 tick
        assert stats["iter"].seconds == pytest.approx(9.0)
        assert stats["work"].seconds == pytest.approx(3.0)
        assert stats["iter"].self_seconds == pytest.approx(6.0)
        assert stats["iter"].as_dict()["count"] == 3.0
