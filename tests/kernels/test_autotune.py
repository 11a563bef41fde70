"""Plan-based autotuned dispatch: numerics, determinism, fallback.

The load-bearing properties:

* the ``reference`` policy is *structurally* bit-identical — float64
  calls pin the static plan even in ``auto`` mode, so no tuned plan
  can ever perturb reference-dtype numerics;
* float32 autotuned results stay within the fast policy's tolerance
  (the tuner drops candidates that stray, so this holds by construction
  — the tests check it holds through the real dispatch seam too);
* the plan table is deterministic per environment fingerprint: a second
  cache over the same directory loads the persisted table and runs zero
  microbenchmarks;
* an unreadable table degrades to static dispatch with a warning — it
  never takes a run down.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.kernels import autotune
from repro.kernels import ops as kernel_ops
from repro.kernels.autotune import (
    STATIC_PLAN,
    ExecutionPlan,
    PlanCache,
    ShapeClass,
    Tuner,
)


@pytest.fixture
def plan_cache(tmp_path):
    """A persisted cache installed as the process cache for one test."""
    cache = PlanCache(tmp_path / "plans")
    previous = autotune.set_plan_cache(cache)
    yield cache
    autotune.set_plan_cache(previous)


@pytest.fixture
def memory_cache():
    """An in-memory cache installed as the process cache for one test."""
    cache = PlanCache(persist=False)
    previous = autotune.set_plan_cache(cache)
    yield cache
    autotune.set_plan_cache(previous)


def _resolve_gemm(cache, a, b, out=None, *, transient=False):
    """The plan ``cache`` holds (or tunes) for this GEMM call's class."""
    variant = "out" if out is not None else ("transient" if transient else "alloc")
    sc = ShapeClass.for_gemm(a.shape[0], a.shape[1], b.shape[1], a.dtype, variant=variant)
    return cache.resolve(sc, autotune.gemm_recipe, a, b, variant)


def _counting_timer():
    """Deterministic timer: every timed region lasts exactly one tick."""
    state = {"t": 0.0}

    def timer() -> float:
        state["t"] += 1.0
        return state["t"]

    return timer


class TestShapeClass:
    def test_nearby_sizes_share_a_bucket(self):
        a = ShapeClass.for_gemm(1000, 16, 64, np.float32)
        b = ShapeClass.for_gemm(1024, 16, 64, np.float32)
        c = ShapeClass.for_gemm(1025, 16, 64, np.float32)
        assert a.key == b.key
        assert a.key != c.key

    def test_key_carries_dtype_and_variant(self):
        sc = ShapeClass.for_gemm(100, 8, 8, np.float32, variant="transient")
        assert sc.key == "gemm[7.3.3|float32|transient]"
        assert (
            ShapeClass.for_gemm(100, 8, 8, np.float64, variant="out").key
            == "gemm[7.3.3|float64|out]"
        )

    def test_spmm_density_decade(self):
        sparse = ShapeClass.for_spmm(1000, 5_000, 64, np.float32)
        dense = ShapeClass.for_spmm(1000, 500_000, 64, np.float32)
        assert sparse.buckets[-1] != dense.buckets[-1]
        assert sparse.op == "spmm"


class TestPlanMode:
    def test_planning_restores_previous_mode(self):
        assert autotune.plan_mode() == "fast"
        with autotune.planning("auto"):
            assert autotune.plan_mode() == "auto"
            with autotune.planning("fast"):
                assert autotune.plan_mode() == "fast"
            assert autotune.plan_mode() == "auto"
        assert autotune.plan_mode() == "fast"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="plan mode"):
            with autotune.planning("turbo"):
                pass
        assert autotune.plan_mode() == "fast"

    def test_fast_and_reference_modes_never_touch_the_cache(
        self, plan_cache, medium_graph, monkeypatch
    ):
        # Static dispatch — the default, and "fast" re-entered inside an
        # "auto" scope — runs the static plan and never asks the cache.
        a = np.ones((8, 4), dtype=np.float32)
        x = np.ones((medium_graph.num_vertices, 4), dtype=np.float32)
        seen = []
        real = autotune.execute_gemm

        def spy(impl, plan, *args, **kwargs):
            seen.append(plan)
            return real(impl, plan, *args, **kwargs)

        monkeypatch.setattr(autotune, "execute_gemm", spy)
        kernel_ops.gemm(a, a.T)
        kernel_ops.spmm(medium_graph, x)
        with autotune.planning("auto"), autotune.planning("fast"):
            kernel_ops.gemm(a, a.T)
            kernel_ops.spmm(medium_graph, x)
        assert len(seen) == 2 and all(plan is STATIC_PLAN for plan in seen)
        assert plan_cache.tuner.microbenchmarks == 0
        assert not plan_cache.plans


class TestReferencePinning:
    def test_float64_pins_reference_even_in_auto(self, plan_cache, rng):
        a = rng.standard_normal((64, 8))
        b = rng.standard_normal((8, 8))
        # The pin is the cache's own: no caller can tune a float64 class.
        assert _resolve_gemm(plan_cache, a, b) is STATIC_PLAN
        with autotune.planning("auto"):
            kernel_ops.gemm(a, b)
        assert plan_cache.tuner.microbenchmarks == 0
        assert not plan_cache.plans

    def test_float64_spmm_pins_reference(self, plan_cache, medium_graph, rng):
        x = rng.standard_normal((medium_graph.num_vertices, 4))
        sc = ShapeClass.for_spmm(
            medium_graph.num_vertices, medium_graph.num_edges_directed, 4, x.dtype
        )
        assert plan_cache.resolve(sc, autotune.spmm_recipe, medium_graph, x) is STATIC_PLAN
        with autotune.planning("auto"):
            kernel_ops.spmm(medium_graph, x)
        assert plan_cache.tuner.microbenchmarks == 0
        assert not plan_cache.plans

    def test_mixed_dtype_pins_reference(self, plan_cache, rng):
        a = rng.standard_normal((16, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4))  # float64
        with autotune.planning("auto"):
            got = kernel_ops.gemm(a, b)
        np.testing.assert_array_equal(got, a @ b)
        assert plan_cache.tuner.microbenchmarks == 0
        assert not plan_cache.plans

    def test_float64_gemm_bit_identical_under_auto(self, plan_cache, rng):
        # The whole-property check through the real dispatch seam.
        a = rng.standard_normal((300, 24))
        b = rng.standard_normal((24, 12))
        with autotune.planning("fast"):
            expected = kernel_ops.gemm(a, b)
        with autotune.planning("auto"):
            got = kernel_ops.gemm(a, b)
        np.testing.assert_array_equal(got, expected)

    def test_float64_spmm_bit_identical_under_auto(
        self, plan_cache, medium_graph, rng
    ):
        x = rng.standard_normal((medium_graph.num_vertices, 6))
        with autotune.planning("fast"):
            expected = kernel_ops.spmm(medium_graph, x)
        with autotune.planning("auto"):
            got = kernel_ops.spmm(medium_graph, x)
        np.testing.assert_array_equal(got, expected)


class TestFloat32Tolerance:
    """Autotuned float32 plans stay within the fast policy's tolerance."""

    @pytest.mark.parametrize(
        "m,k,n,kwargs",
        [
            (3000, 8, 16, {}),
            (3000, 8, 16, {"transient": True}),
            (700, 33, 9, {}),
        ],
    )
    def test_gemm_within_tuner_tolerance(self, plan_cache, rng, m, k, n, kwargs):
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        with autotune.planning("fast"):
            expected = np.array(kernel_ops.gemm(a, b))
        with autotune.planning("auto"):
            got = np.array(kernel_ops.gemm(a, b, **kwargs))
        tuner = plan_cache.tuner
        np.testing.assert_allclose(got, expected, rtol=tuner.rtol, atol=tuner.atol)
        assert tuner.microbenchmarks > 0  # tuning actually happened

    def test_gemm_out_variant_within_tolerance(self, plan_cache, rng):
        a = rng.standard_normal((3000, 16)).astype(np.float32)
        b = rng.standard_normal((16, 8)).astype(np.float32)
        out = np.empty((3000, 8), dtype=np.float32)
        with autotune.planning("fast"):
            expected = np.array(kernel_ops.gemm(a, b))
        with autotune.planning("auto"):
            returned = kernel_ops.gemm(a, b, out=out)
        assert returned is out
        tuner = plan_cache.tuner
        np.testing.assert_allclose(out, expected, rtol=tuner.rtol, atol=tuner.atol)

    def test_spmm_within_tolerance(self, plan_cache, medium_graph, rng):
        x = rng.standard_normal((medium_graph.num_vertices, 8)).astype(np.float32)
        with autotune.planning("fast"):
            expected = np.array(kernel_ops.spmm(medium_graph, x))
        with autotune.planning("auto"):
            got = np.array(kernel_ops.spmm(medium_graph, x))
        tuner = plan_cache.tuner
        np.testing.assert_allclose(got, expected, rtol=tuner.rtol, atol=tuner.atol)

    def test_repeated_transient_calls_each_correct(self, plan_cache, rng):
        # Arena plans may reuse one buffer across same-class calls; each
        # call's *immediate* value must still be right.
        k, n = 8, 16
        b = rng.standard_normal((k, n)).astype(np.float32)
        with autotune.planning("auto"):
            for _ in range(4):
                a = rng.standard_normal((3000, k)).astype(np.float32)
                got = kernel_ops.gemm(a, b, transient=True)
                with autotune.planning("fast"):
                    expected = kernel_ops.gemm(a, b)
                np.testing.assert_allclose(
                    got, expected, rtol=plan_cache.tuner.rtol, atol=plan_cache.tuner.atol
                )


class TestDeterminismAndPersistence:
    def test_same_environment_same_fingerprint_key(self, tmp_path):
        first = PlanCache(tmp_path)
        second = PlanCache(tmp_path)
        assert first.key == second.key
        assert first.path == second.path

    def test_second_cache_loads_table_with_zero_microbenchmarks(
        self, tmp_path, rng
    ):
        a = rng.standard_normal((2048, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        first = PlanCache(tmp_path, tuner=Tuner(timer=_counting_timer()))
        _resolve_gemm(first, a, b, transient=True)
        assert first.tuner.microbenchmarks > 0
        assert first.path.exists()

        second = PlanCache(tmp_path, tuner=Tuner(timer=_counting_timer()))
        plan = _resolve_gemm(second, a, b, transient=True)
        assert second.tuner.microbenchmarks == 0
        assert plan == first.plans[
            ShapeClass.for_gemm(2048, 8, 8, np.float32, variant="transient").key
        ]

    def test_deterministic_timer_gives_identical_plan_tables(self, tmp_path, rng):
        # Same fingerprint key + same (injected) measurements => the two
        # independently tuned tables agree entry for entry.
        a = rng.standard_normal((2048, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        tables = []
        for sub in ("one", "two"):
            cache = PlanCache(
                tmp_path / sub, tuner=Tuner(timer=_counting_timer())
            )
            _resolve_gemm(cache, a, b, transient=True)
            _resolve_gemm(cache, a, b, np.empty((2048, 8), dtype=np.float32))
            tables.append({k: p.as_dict() for k, p in cache.plans.items()})
        assert tables[0] == tables[1]

    def test_persisted_table_is_schema_stamped(self, tmp_path, rng):
        a = rng.standard_normal((1024, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        cache = PlanCache(tmp_path, tuner=Tuner(timer=_counting_timer()))
        _resolve_gemm(cache, a, b)
        payload = json.loads(cache.path.read_text())
        assert payload["schema"] == autotune.PLAN_SCHEMA_VERSION
        assert payload["key"] == cache.key
        assert payload["plans"]


class TestUnreadableCacheFallback:
    def test_garbage_table_warns_and_degrades_to_static(self, tmp_path, rng):
        cache = PlanCache(tmp_path, tuner=Tuner(timer=_counting_timer()))
        cache.cache_dir.mkdir(parents=True, exist_ok=True)
        cache.path.write_text("{not json")
        a = rng.standard_normal((1024, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        with pytest.warns(RuntimeWarning, match="unreadable"):
            plan = _resolve_gemm(cache, a, b)
        assert plan is STATIC_PLAN
        assert cache.load_failed
        assert cache.tuner.microbenchmarks == 0
        # The latch holds without re-warning on every call.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_gemm(cache, a, b) is STATIC_PLAN

    def test_clear_resets_the_latch_and_tuning_resumes(self, tmp_path, rng):
        cache = PlanCache(tmp_path, tuner=Tuner(timer=_counting_timer()))
        cache.cache_dir.mkdir(parents=True, exist_ok=True)
        cache.path.write_text("{not json")
        a = rng.standard_normal((1024, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        with pytest.warns(RuntimeWarning):
            _resolve_gemm(cache, a, b)
        assert cache.clear() == 1
        assert not cache.load_failed
        plan = _resolve_gemm(cache, a, b)
        assert plan.source == "tuned"
        assert cache.tuner.microbenchmarks > 0

    def test_unknown_backend_entry_is_dropped_with_warning(self, tmp_path, rng):
        probe = PlanCache(tmp_path)
        key = ShapeClass.for_gemm(1024, 4, 4, np.float32).key
        probe.cache_dir.mkdir(parents=True, exist_ok=True)
        probe.path.write_text(
            json.dumps(
                {
                    "schema": autotune.PLAN_SCHEMA_VERSION,
                    "key": probe.key,
                    "plans": {
                        key: {"plan": {"backend": "gone-backend"}},
                    },
                }
            )
        )
        cache = PlanCache(tmp_path, tuner=Tuner(timer=_counting_timer()))
        a = rng.standard_normal((1024, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        with pytest.warns(RuntimeWarning, match="unknown backend"):
            plan = _resolve_gemm(cache, a, b)
        # The bad entry was dropped, the class re-tuned fresh.
        assert plan.backend != "gone-backend"
        assert cache.tuner.microbenchmarks > 0


class TestExplicitOverrides:
    def test_explicit_plan_wins_over_auto_mode(self, plan_cache, rng):
        a = rng.standard_normal((512, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        forced = ExecutionPlan(block_rows=64)
        with autotune.planning("auto"):
            got = kernel_ops.gemm(a, b, plan=forced)
        assert plan_cache.tuner.microbenchmarks == 0  # no tuning ran
        with autotune.planning("fast"):
            expected = kernel_ops.gemm(a, b)
        np.testing.assert_allclose(got, expected, rtol=2e-3, atol=1e-4)

    def test_explicit_backend_wins_over_auto_mode(self, plan_cache, medium_graph, rng):
        x = rng.standard_normal((medium_graph.num_vertices, 4)).astype(np.float32)
        with autotune.planning("auto"):
            got = kernel_ops.spmm(medium_graph, x, backend="numpy")
        assert plan_cache.tuner.microbenchmarks == 0
        expected = kernel_ops.spmm(medium_graph, x, backend="numpy")
        np.testing.assert_array_equal(got, expected)


class TestTrainConfigThreading:
    """The plan mode is a scope around a run, not a field threaded into it."""

    def test_kernel_plan_validated(self):
        # An unknown mode — the deleted "reference" among them — is
        # rejected by `planning`, the one place a mode is named.
        from repro.train.config import TrainConfig

        for mode in ("reference", "warp-speed"):
            with pytest.raises(ValueError, match="plan mode"):
                with autotune.planning(mode):
                    pass
        assert autotune.plan_mode() == "fast"
        with pytest.raises(TypeError):
            TrainConfig(kernel_plan="auto")

    def test_auto_training_f1_within_fast_policy_tolerance(
        self, memory_cache, ppi_small
    ):
        # The downstream acceptance property: a float32 run under
        # autotuned dispatch lands within 0.01 F1 of the same run under
        # static dispatch — and the tuner really ran on its kernels.
        from repro.train.config import TrainConfig
        from repro.train.trainer import GraphSamplingTrainer

        config = TrainConfig(
            hidden_dims=(32, 32), epochs=1, seed=3, dtype_policy="fast"
        )
        with GraphSamplingTrainer(ppi_small, config) as trainer:
            static_f1 = trainer.train().final_val_f1
        assert not memory_cache.plans
        with GraphSamplingTrainer(ppi_small, config) as trainer:
            with autotune.planning("auto"):
                auto_f1 = trainer.train().final_val_f1
        assert abs(auto_f1 - static_f1) <= 0.01
        assert memory_cache.tuner.microbenchmarks > 0
        tuned = set(memory_cache.plans)
        assert all("|float32|" in key for key in tuned)
        assert any(key.startswith("gemm[") for key in tuned)
        assert any(key.startswith("spmm[") for key in tuned)

    def test_full_graph_evaluation_resolves_through_the_cache(
        self, memory_cache, ppi_small
    ):
        # The largest SpMM of a run — full-graph evaluation — is planned
        # like every other call: no aggregator pins a backend by default.
        from repro.train.config import TrainConfig
        from repro.train.trainer import GraphSamplingTrainer

        config = TrainConfig(hidden_dims=(16,), dtype_policy="fast")
        graph = ppi_small.graph
        full_graph_class = ShapeClass.for_spmm(
            graph.num_vertices,
            graph.num_edges_directed,
            ppi_small.features.shape[1],
            np.float32,
        )
        assert full_graph_class.key.endswith("|float32|alloc]")
        with GraphSamplingTrainer(ppi_small, config) as trainer:
            with autotune.planning("auto"):
                trainer.evaluator.evaluate(trainer.model, "val")
        assert full_graph_class.key in memory_cache.plans
