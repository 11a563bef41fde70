"""Benchmark K1 — raw kernel throughput (real wall-clock microbenches).

Unlike the experiment benches (single-round paper regenerations), these
are proper pytest-benchmark microbenchmarks of the hot kernels: sparse
aggregation, induced-subgraph extraction, Dashboard sampling, one full
GCN training iteration, and the GraphSAGE support sampler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.datasets import make_dataset
from repro.kernels import accounting
from repro.kernels import ops as kernel_ops
from repro.nn.loss import make_loss
from repro.nn.network import GCN
from repro.propagation.feature_prop import PartitionedPropagator
from repro.propagation.spmm import MeanAggregator, spmm_sum_numpy, spmm_sum_scipy
from repro.sampling.dashboard import DashboardFrontierSampler
from repro.sampling.frontier import FrontierSampler
from repro.baselines.graphsage import sample_supports
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer


@pytest.fixture(scope="module")
def dataset():
    return make_dataset("reddit", scale=0.01, seed=0)


@pytest.fixture(scope="module")
def features(dataset):
    rng = np.random.default_rng(0)
    return rng.standard_normal((dataset.graph.num_vertices, 256))


class TestGemmKernels:
    """Dense throughput of the two dtype-policy paths."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_gemm(self, benchmark, dtype):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2000, 256)).astype(dtype)
        b = rng.standard_normal((256, 256)).astype(dtype)
        out = np.empty((2000, 256), dtype=dtype)
        benchmark(kernel_ops.gemm, a, b, out=out)

    def test_gemm_dispatch_small(self, benchmark):
        """One probed IVF cell for one query: ~4 us of BLAS, so the
        series is the dispatch cost of ``ops.gemm`` itself (wall clock:
        ``BENCH_kernels.json`` is recorded with ``env.clock = "wall"``)."""
        rng = np.random.default_rng(0)
        query = rng.standard_normal((1, 256))
        cell = rng.standard_normal((64, 256))
        # Microsecond calls: 20 per timed round, a bounded 500-sample series.
        benchmark.pedantic(
            kernel_ops.gemm, args=(query, cell.T), rounds=500, iterations=20,
            warmup_rounds=5,
        )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_spmm(self, benchmark, dataset, dtype):
        x = (
            np.random.default_rng(0)
            .standard_normal((dataset.graph.num_vertices, 128))
            .astype(dtype)
        )
        benchmark(kernel_ops.spmm, dataset.graph, x)


class TestSpmmKernels:
    def test_spmm_scipy(self, benchmark, dataset, features):
        benchmark(spmm_sum_scipy, dataset.graph, features)

    def test_spmm_numpy(self, benchmark, dataset, features):
        benchmark(spmm_sum_numpy, dataset.graph, features)

    def test_mean_aggregator_forward(self, benchmark, dataset, features):
        agg = MeanAggregator(dataset.graph)
        benchmark(agg.forward, features)

    def test_partitioned_propagator_forward(self, benchmark, dataset, features):
        prop = PartitionedPropagator(dataset.graph)
        benchmark(prop.forward, features)


class TestGraphKernels:
    def test_induced_subgraph(self, benchmark, dataset):
        rng = np.random.default_rng(1)
        keep = rng.choice(dataset.graph.num_vertices, size=400, replace=False)
        benchmark(dataset.graph.induced_subgraph, keep)


class TestSamplers:
    def test_frontier_reference(self, benchmark, dataset):
        s = FrontierSampler(dataset.graph, frontier_size=100, budget=500)
        rng = np.random.default_rng(2)
        benchmark(s.sample, rng)

    def test_dashboard_sampler(self, benchmark, dataset):
        s = DashboardFrontierSampler(
            dataset.graph, frontier_size=100, budget=500, eta=2.0
        )
        rng = np.random.default_rng(2)
        benchmark(s.sample, rng)

    def test_graphsage_support_sampling(self, benchmark, dataset):
        rng = np.random.default_rng(3)
        batch = rng.choice(dataset.graph.num_vertices, size=128, replace=False)
        benchmark(sample_supports, dataset.graph, batch, (10, 10), rng)


class TestTrainingIteration:
    def test_gs_gcn_forward_backward(self, benchmark, dataset):
        """One complete-GCN forward+backward on a sampled subgraph."""
        rng = np.random.default_rng(4)
        sampler = DashboardFrontierSampler(
            dataset.graph, frontier_size=100, budget=500
        )
        sub = sampler.sample(rng)
        agg = MeanAggregator(sub.graph)
        feats = dataset.features[sub.vertex_map]
        labels = dataset.labels[sub.vertex_map]
        model = GCN(dataset.attribute_dim, [128, 128], dataset.num_classes, seed=0)
        loss = make_loss(dataset.task)

        def step():
            logits = model.forward(feats, agg, train=True)
            value = loss.forward(logits, labels)
            model.backward(loss.backward(logits, labels))
            return value

        benchmark(step)


class TestDtypePolicyComparison:
    """The acceptance numbers for the dtype-policy tentpole.

    Trains the same fixed-seed model under the float64 reference policy
    and the float32 fast policy, then asserts the two promises the fast
    path makes: validation F1 within 0.01 of the reference, and the
    weight-application (GEMM) phase at least 1.25x faster. The measured
    payload is stashed on the pytest config so the session-finish hook
    merges it into ``BENCH_kernels.json``.
    """

    def _run_policy(self, dataset, policy: str) -> dict:
        config = TrainConfig(
            hidden_dims=(128, 128),
            frontier_size=100,
            budget=500,
            epochs=6,
            eval_every=6,
            seed=0,
            dtype_policy=policy,
        )
        trainer = GraphSamplingTrainer(dataset, config)
        with accounting.capture() as costs:
            result = trainer.train()
        return {
            "policy": policy,
            "final_val_f1": result.final_val_f1,
            "iterations": result.iterations,
            "gemm_seconds": costs.gemm_seconds,
            "spmm_seconds": costs.spmm_seconds,
            "gemm_flops": costs.gemm_flops,
        }

    def test_reference_vs_fast_policy(self, request, dataset):
        reference = self._run_policy(dataset, "reference")
        fast = self._run_policy(dataset, "fast")
        f1_gap = abs(reference["final_val_f1"] - fast["final_val_f1"])
        speedup = reference["gemm_seconds"] / fast["gemm_seconds"]
        payload = {
            "reference": reference,
            "fast": fast,
            "f1_gap": f1_gap,
            "weight_application_speedup": speedup,
        }
        request.config._kernel_policy_bench = payload
        print(
            f"\n[policy] f1 ref={reference['final_val_f1']:.4f} "
            f"fast={fast['final_val_f1']:.4f} (gap {f1_gap:.4f}); "
            f"gemm {reference['gemm_seconds']:.3f}s -> "
            f"{fast['gemm_seconds']:.3f}s ({speedup:.2f}x)"
        )
        assert f1_gap <= 0.01
        assert speedup >= 1.25
