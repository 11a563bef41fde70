"""The four benchmark workloads.

Every workload runs the whole pipeline — generate → train → embed →
build index → serve → serve a sharded cluster beside writes — at a
different operating point, so every end-to-end metric is defined on
every workload. What differs is where the time goes, and ``trials``
and ``rounds`` spend the ``--seconds`` budget accordingly.

The corpus (dataset profile, scale and ``corpus_seed``) is part of the
workload, like the paper's four datasets are fixed files. ``--seed``
drives everything stochastic the system is handed: initial weights,
sampler and dropout streams (trial ``j`` trains with config seed
``1000 * seed + j``), query traces and upsert drift. Time-to-accuracy on
a *fresh random graph* per seed spreads by ±25%, which would hide the
7% regressions the benchmark exists to catch; on a fixed corpus the
spread across seeds is the optimiser's own.

Sizes are set by the driver's cap (92 runs in 3420 s, 37 s a run; a run
is 23-30 s with set-up measured three times): see README.md, "Sizing".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Corpus.
    profile: str
    scale: float
    corpus_seed: int
    # Training: TrainConfig keyword arguments (seed is added per trial),
    # the fixed recipe length and the frozen F1 threshold.
    train: dict
    epochs: int
    f1_threshold: float
    # Index and serving.
    num_clusters: int
    probes: int
    requests: int
    cache_capacity: int
    fixed_qps: float  # phase b: single server, about a quarter of saturation
    cluster_qps: float  # phase c: cluster beside writes
    # Training trials and serving rounds (embed, build index, one replay of
    # each phase); they alternate. Sized to fit --seconds on the reference
    # host, so the counts are the same on every run.
    trials: int = 1
    rounds: int = 3
    # Workload contrasts the design rests on, asserted in the traced run:
    # per-layer metric -> (">=" | "<=", value).
    contrast: dict = field(default_factory=dict)
    # Field overrides for --quick (harness self-test; bounds not enforced).
    quick: dict = field(default_factory=dict)

    def quick_variant(self) -> "Workload":
        # The contrasts are statements about the full sizes.
        return replace(self, **self.quick, quick={}, contrast={})


# Serving knobs shared by all workloads (ISSUE 11, phases a-c).
SERVE_MAX_BATCH = 64
SERVE_MAX_WAIT = 2e-3
SERVE_QUEUE_CAPACITY = 256
SATURATING_QPS = 1e6
ZIPF_SKEW = 1.1
TOP_K = 10
CLUSTER_SHARDS = 4
CLUSTER_REPLICAS = 2
CLUSTER_FANOUT = 2
UPSERT_ROUNDS = 3
UPSERT_DRIFT = 0.01
RECALL_FLOOR = 0.95



WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ppi_small",
            why=(
                "140-vertex subgraphs: sampler and per-iteration Python glue are "
                "about half of every iteration and kernels are small - the regime "
                "where Fig. 2 wall-clock is <1x"
            ),
            profile="ppi", scale=0.08, corpus_seed=0,
            train=dict(
                hidden_dims=(128, 128), budget=194, frontier_size=16,
                dropout=0.2, weight_decay=1e-3, lr=0.01,
            ),
            epochs=32, f1_threshold=0.30,
            num_clusters=16, probes=12,
            requests=2000, cache_capacity=64,
            fixed_qps=2500.0, cluster_qps=1500.0,
            trials=4, rounds=5,
            contrast={"sampling.pool_get_share": (">=", 0.35)},
            quick=dict(epochs=12, f1_threshold=0.25, requests=400, trials=1, rounds=1),
        ),
        Workload(
            name="reddit_wide",
            why=(
                "f=602 and hidden 512 as in the paper: GEMM-bound (GEMM ~80% of a "
                "training pass, sampler <10%), so a sampler or glue change must "
                "leave it unchanged and a kernel change must move it"
            ),
            profile="reddit", scale=0.008, corpus_seed=0,
            train=dict(
                hidden_dims=(512, 512), budget=480, frontier_size=40, lr=0.005,
            ),
            epochs=4, f1_threshold=0.70,
            num_clusters=32, probes=8,
            requests=800, cache_capacity=64,
            fixed_qps=1500.0, cluster_qps=1000.0,
            trials=5, rounds=3,
            contrast={
                "sampling.pool_get_share": ("<=", 0.10),
                "nn.forward_backward_share": (">=", 0.65),
            },
            quick=dict(
                epochs=3, f1_threshold=0.5, requests=400, trials=1, rounds=1,
                train=dict(hidden_dims=(128, 128), budget=480, frontier_size=40, lr=0.005),
            ),
        ),
        Workload(
            name="amazon_saint_prefetch",
            why=(
                "same sampling layer used differently: rw zoo family, SAINT "
                "pre-sampling in set-up and the prefetching pool with a real "
                "producer thread, on heavy-tailed degrees"
            ),
            profile="amazon", scale=0.004, corpus_seed=0,
            train=dict(
                hidden_dims=(128, 128), budget=500, frontier_size=40,
                sampler_family="rw", loss_norm="saint",
                prefetch_depth=2, prefetch_workers=1,
                dropout=0.3, weight_decay=1e-3, lr=0.02,
            ),
            epochs=10, f1_threshold=0.50,
            num_clusters=64, probes=16,
            requests=1200, cache_capacity=128,
            fixed_qps=1500.0, cluster_qps=1200.0,
            trials=3, rounds=4,
            quick=dict(scale=0.0025, epochs=7, f1_threshold=0.05, requests=300,
                       trials=1, rounds=1),
        ),
        Workload(
            name="serve_mixed",
            why=(
                "largest corpus, short training: full-graph inference is one big "
                "SpMM+GEMM, then index scan + batching + cache at saturation, a "
                "latency at a fixed rate, and reads beside index rebuilds"
            ),
            profile="yelp", scale=0.010, corpus_seed=0,
            train=dict(
                hidden_dims=(128, 128), budget=600, frontier_size=50,
                dropout=0.3, weight_decay=1e-3, lr=0.02,
            ),
            epochs=8, f1_threshold=0.20,
            num_clusters=128, probes=16,
            requests=1000, cache_capacity=256,
            fixed_qps=1500.0, cluster_qps=1500.0,
            trials=3, rounds=4,
            quick=dict(scale=0.006, epochs=2, f1_threshold=0.0, requests=400,
                       num_clusters=32, trials=1, rounds=1),
        ),
    )
}
