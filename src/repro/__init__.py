"""repro — reproduction of "Accurate, Efficient and Scalable Graph Embedding"
(Zeng, Zhou, Srivastava, Kannan, Prasanna; IPDPS 2019).

A from-scratch Python implementation of the paper's graph-sampling-based
GCN ("GS-GCN", the GraphSAINT precursor) and everything it depends on:

* :mod:`repro.graphs` — CSR graph engine, synthetic dataset profiles
  mirroring Table I, connectivity statistics;
* :mod:`repro.sampling` — frontier sampling, the parallel Dashboard data
  structure (Algorithms 3-4), the subgraph-pool scheduler (Algorithm 5),
  cost models (Eq. 2, Theorem 1), and extension samplers;
* :mod:`repro.nn` — GCN layers with self/neighbor weights, losses, Adam,
  F1 metrics, gradient checking;
* :mod:`repro.kernels` — the unified compute-kernel layer every GEMM and
  SpMM dispatches through: backend registry, dtype policies
  (float64 reference / float32 fast), centralized flop/time accounting
  per shape class, and the measured roofline;
* :mod:`repro.propagation` — spmm kernels, Algorithm 6 feature-partitioned
  propagation, the communication model and Theorem 2;
* :mod:`repro.parallel` — the simulated 40-core Xeon used to regenerate
  the paper's scaling results on any host;
* :mod:`repro.baselines` — GraphSAGE, FastGCN and Batched GCN;
* :mod:`repro.train` — the Algorithm 1/5 training loop and evaluation;
* :mod:`repro.serving` — the downstream serving layer (Section I's
  motivating workload): ANN index, micro-batching, caching, metrics;
* :mod:`repro.obs` — cross-cutting observability: hierarchical spans,
  process-wide counters/histograms, trace export (off by default;
  see ``docs/observability.md``);
* :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import make_dataset, TrainConfig, GraphSamplingTrainer

    ds = make_dataset("ppi", scale=0.08, seed=0)
    trainer = GraphSamplingTrainer(ds, TrainConfig(epochs=20))
    result = trainer.train()
    print(result.final_val_f1)
"""

from . import kernels, obs
from .graphs import CSRGraph, Dataset, make_dataset
from .nn import GCN, Adam, f1_micro
from .parallel import MachineSpec, xeon_40core
from .propagation import MeanAggregator, PartitionedPropagator
from .sampling import (
    DashboardFrontierSampler,
    FrontierSampler,
    GraphSampler,
    SampledSubgraph,
    SubgraphPool,
)
from .serving import EmbeddingServer, ServerConfig, zipf_trace
from .train import Evaluator, GraphSamplingTrainer, TrainConfig, TrainResult

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "Dataset",
    "make_dataset",
    "GCN",
    "Adam",
    "f1_micro",
    "MachineSpec",
    "xeon_40core",
    "MeanAggregator",
    "PartitionedPropagator",
    "GraphSampler",
    "SampledSubgraph",
    "FrontierSampler",
    "DashboardFrontierSampler",
    "SubgraphPool",
    "TrainConfig",
    "GraphSamplingTrainer",
    "TrainResult",
    "Evaluator",
    "EmbeddingServer",
    "ServerConfig",
    "zipf_trace",
    "kernels",
    "obs",
    "__version__",
]
