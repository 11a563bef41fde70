"""Ablation experiments (design choices DESIGN.md calls out).

* X1 — feature-only partitioning (Theorem 2): modeled ``g_comm`` of the
  paper's P=1 plan vs the brute-force optimum with an *ideal* partitioner
  (``gamma_P = 1/P``) and vs a realistic random partitioner. The paper
  proves the ratio to the ideal optimum is <= 2 under its preconditions.
* X1b — measured ``gamma_P`` of real partitioners (random / BFS /
  greedy-LDG) on an actual frontier-sampled subgraph.
* X2 — Dashboard enlargement factor ``eta``: probe cost vs cleanup cost
  trade-off, measured on real sampler runs and compared to Eq. 2.
* X3 — degree cap on skewed graphs: subgraph overlap / hub concentration /
  vertex coverage with and without the paper's cap of 30 entries.
* X4 — sampler comparison (the paper's future-work section): frontier
  sampling vs six alternative samplers on connectivity preservation and
  downstream GCN accuracy. Section VII announces "extend[ing] the
  parallel sampler implementation to support a wider class of sampling
  algorithms"; four of the six live here, next to their one run, behind
  the same :class:`~repro.sampling.base.GraphSampler` draw hook as the
  zoo's ``rw`` and ``edge`` families: :class:`RandomNodeSampler`
  (uniform vertices, no connectivity bias), :class:`ForestFireSampler`
  (probabilistic BFS burn, Leskovec et al.),
  :class:`MetropolisHastingsWalkSampler` (degree-unbiased walks) and
  :class:`SnowballSampler` (bounded-fanout BFS). None of them meters its
  work: each is priced by subgraph size.
* X8 — alias tables vs the Dashboard on dynamic degree distributions
  (Section IV-A's rejected alternative, quantified).

(X6/X7 live in :mod:`repro.experiments.extensions`.)
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.datasets import make_dataset, training_view
from ..graphs.stats import connectivity_summary, degree_ks_distance
from ..parallel.machine import xeon_40core
from ..propagation.partition_model import (
    brute_force_optimum,
    gamma_random_partition,
    gcomm_lower_bound,
    theorem2_conditions_hold,
    theorem2_plan,
)
from ..sampling.cost import sampler_cost_eq2, simulated_sampler_time
from ..sampling.base import GraphSampler
from ..sampling.dashboard import DashboardFrontierSampler
from ..sampling.zoo import make_sampler
from ..train.config import TrainConfig
from ..train.trainer import GraphSamplingTrainer
from .common import EXPERIMENT_SCALES, paper_budget

__all__ = [
    "run_partitioning",
    "run_partitioner_gamma",
    "run_dashboard_eta",
    "run_alias_contrast",
    "run_degree_cap",
    "run_sampler_comparison",
    "RandomNodeSampler",
    "ForestFireSampler",
    "MetropolisHastingsWalkSampler",
    "SnowballSampler",
]


# ----------------------------------------------------------------------
# X1 — partitioning
# ----------------------------------------------------------------------
#: X1's modeled machine and graph: the paper's 40 cores, a 256 KB cache
#: per core and average degree 15.
PARTITION_CORES = 40
PARTITION_CACHE_BYTES = 256 * 1024
PARTITION_DEGREE = 15.0


def run_partitioning(
    *,
    sizes: tuple[int, ...] = (1000, 2000, 4000, 8000),
    feature_dims: tuple[int, ...] = (128, 512, 1024),
) -> dict[str, object]:
    """X1: modeled g_comm of the P=1 plan vs brute-force optima (no
    randomness: the random partitioner enters through its expected
    expansion)."""
    d, cores, cache_bytes = PARTITION_DEGREE, PARTITION_CORES, PARTITION_CACHE_BYTES
    rows = []
    for n in sizes:
        degrees = np.full(n, d)
        for f in feature_dims:
            ours = theorem2_plan(n=n, d=d, f=f, cores=cores, cache_bytes=cache_bytes)
            ideal = brute_force_optimum(
                n=n, d=d, f=f, cores=cores, cache_bytes=cache_bytes
            )
            realistic = brute_force_optimum(
                n=n,
                d=d,
                f=f,
                cores=cores,
                cache_bytes=cache_bytes,
                gamma_fn=lambda p: gamma_random_partition(p, degrees),
            )
            rows.append(
                {
                    "n": n,
                    "f": f,
                    "Q_ours": ours.q,
                    "gcomm_ours_MB": ours.comm_bytes / 2**20,
                    "gcomm_ideal_MB": ideal.comm_bytes / 2**20,
                    "gcomm_random_MB": realistic.comm_bytes / 2**20,
                    "ratio_vs_ideal": ours.comm_bytes / ideal.comm_bytes,
                    "ratio_vs_lb": ours.comm_bytes / gcomm_lower_bound(n, f),
                    "thm2_conditions": theorem2_conditions_hold(
                        n=n, d=d, f=f, cores=cores, cache_bytes=cache_bytes
                    ),
                }
            )
    return {"rows": rows}


# ----------------------------------------------------------------------
# X1b — measured gamma_P of real partitioners on sampled subgraphs
# ----------------------------------------------------------------------
def run_partitioner_gamma(*, seed: int = 0) -> dict[str, object]:
    """Measure source-set expansion of actual partitioners, into 2, 4 and
    8 parts, on an actual frontier-sampled Reddit subgraph — the concrete
    version of Theorem 2's "gamma_P stays near 1" argument.
    """
    from ..graphs.partition import (
        bfs_partition,
        greedy_edge_partition,
        random_partition,
    )
    from ..propagation.partition_model import gamma_of_partition

    ds = make_dataset("reddit", scale=EXPERIMENT_SCALES["reddit"], seed=seed)
    budget = paper_budget(ds.graph.num_vertices)
    # engine="reference" in the ablations: the committed modeled-cost
    # tables were produced with the scalar oracle's RNG stream.
    sampler = DashboardFrontierSampler(
        ds.graph,
        frontier_size=max(budget // 6, 16),
        budget=budget,
        engine="reference",
    )
    sub = sampler.sample(np.random.default_rng(seed)).graph
    rng = np.random.default_rng(seed + 1)
    rows = []
    for parts in (2, 4, 8):
        row: dict[str, object] = {"parts": parts, "gamma_lower_bound": 1.0 / parts}
        for name, fn in (
            ("random", random_partition),
            ("bfs", bfs_partition),
            ("greedy", greedy_edge_partition),
        ):
            row[f"gamma_{name}"] = gamma_of_partition(sub, fn(sub, parts, rng=rng))
        rows.append(row)
    return {"rows": rows, "subgraph": sub}


# ----------------------------------------------------------------------
# X2 — Dashboard eta sweep
# ----------------------------------------------------------------------
def run_dashboard_eta(
    *,
    etas: tuple[float, ...] = (1.25, 1.5, 2.0, 3.0, 4.0),
    num_subgraphs: int = 5,
    seed: int = 0,
) -> dict[str, object]:
    """X2: measured probe/cleanup trade-off across eta values on PPI."""
    ds = make_dataset("ppi", scale=EXPERIMENT_SCALES["ppi"], seed=seed)
    machine = xeon_40core()
    budget = paper_budget(ds.graph.num_vertices)
    m = max(budget // 6, 16)
    rows = []
    for eta in etas:
        sampler = DashboardFrontierSampler(
            ds.graph, frontier_size=m, budget=budget, eta=eta, engine="reference"
        )
        rng = np.random.default_rng(seed)
        agg = {"probes": 0.0, "pops": 0.0, "cleanups": 0.0, "time": 0.0, "bytes": 0.0}
        for _ in range(num_subgraphs):
            stats = sampler.sample(rng).stats
            agg["probes"] += stats["probes"]
            agg["pops"] += stats["pops"]
            agg["cleanups"] += stats["cleanups"]
            agg["bytes"] += stats["modeled_bytes"]
            agg["time"] += simulated_sampler_time(stats, machine, p_intra=1)
        rows.append(
            {
                "eta": eta,
                "probes_per_pop": agg["probes"] / agg["pops"],
                "cleanups_per_subgraph": agg["cleanups"] / num_subgraphs,
                "sim_time_per_subgraph": agg["time"] / num_subgraphs,
                "eq2_predicted": sampler_cost_eq2(
                    n=budget, m=m, d=ds.graph.average_degree, eta=eta, p=1
                ),
                "dashboard_KB": agg["bytes"] / num_subgraphs / 1024,
            }
        )
    return {"rows": rows}


# ----------------------------------------------------------------------
# X8 — alias tables vs Dashboard for dynamic distributions
# ----------------------------------------------------------------------
def run_alias_contrast(*, avg_degree: float = 30.0) -> dict[str, object]:
    """Section IV-A's claim, quantified: alias tables sample in O(1) but
    cannot absorb the frontier's single-vertex updates, so the pop-replace
    loop pays an O(m) rebuild per pop; the Dashboard's incremental update
    (at eta = 2) wins increasingly with frontier size m = 50 ... 4000."""
    from ..sampling.alias import dynamic_sampling_cost

    rows = []
    for m in (50, 200, 1000, 4000):
        pops = 7 * m  # the paper's n = 8m shape (n - m pops)
        cost = dynamic_sampling_cost(m=m, pops=pops, avg_degree=avg_degree, eta=2.0)
        rows.append(
            {
                "frontier_m": m,
                "pops": pops,
                "alias_ops": cost["alias_ops"],
                "dashboard_ops": cost["dashboard_ops"],
                "dashboard_advantage": cost["dashboard_advantage"],
            }
        )
    return {"rows": rows}


# ----------------------------------------------------------------------
# X3 — degree cap
# ----------------------------------------------------------------------
def _pairwise_jaccard(sets: list[np.ndarray]) -> float:
    vals = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            inter = np.intersect1d(sets[i], sets[j]).size
            union = np.union1d(sets[i], sets[j]).size
            vals.append(inter / union if union else 0.0)
    return float(np.mean(vals)) if vals else 0.0


def run_degree_cap(*, num_subgraphs: int = 8, seed: int = 0) -> dict[str, object]:
    """X3: subgraph overlap/coverage on Amazon with and without the
    paper's cap of 30 Dashboard entries per vertex."""
    ds = make_dataset("amazon", scale=EXPERIMENT_SCALES["amazon"], seed=seed)
    graph = ds.graph
    n = graph.num_vertices
    budget = paper_budget(n)
    m = max(budget // 6, 16)
    hubs = np.argsort(graph.degrees)[-max(n // 100, 5) :]
    rows = []
    for cap_value in (None, 30):
        sampler = DashboardFrontierSampler(
            graph,
            frontier_size=m,
            budget=budget,
            eta=2.0,
            max_entries_per_vertex=cap_value,
            engine="reference",
        )
        rng = np.random.default_rng(seed)
        vertex_sets = [sampler.sample(rng).vertex_map for _ in range(num_subgraphs)]
        covered = np.unique(np.concatenate(vertex_sets)).size
        hub_hits = float(
            np.mean([np.isin(hubs, vs).mean() for vs in vertex_sets])
        )
        rows.append(
            {
                "cap": "none" if cap_value is None else cap_value,
                "mean_pairwise_jaccard": _pairwise_jaccard(vertex_sets),
                "hub_inclusion_rate": hub_hits,
                "vertex_coverage": covered / n,
            }
        )
    return {"rows": rows}


# ----------------------------------------------------------------------
# X4 — sampler comparison
# ----------------------------------------------------------------------
#: Forest fire's burn ratio: each burning vertex ignites a geometric
#: number of unburned neighbors with mean ``BURN_RATIO / (1 - BURN_RATIO)``.
BURN_RATIO = 0.7
#: Snowball sampling's roots and per-vertex fanout.
SNOWBALL_SEEDS = 4
SNOWBALL_FANOUT = 5


class RandomNodeSampler(GraphSampler):
    """Uniformly sample ``budget`` distinct vertices."""

    tag = "node"

    def __init__(self, graph: CSRGraph, *, budget: int) -> None:
        super().__init__(graph)
        if not (0 < budget <= graph.num_vertices):
            raise ValueError("budget must lie in [1, num_vertices]")
        self.budget = budget

    def _draw(self, rng: np.random.Generator):
        vertices = rng.choice(self.graph.num_vertices, size=self.budget, replace=False)
        return vertices, {}, None


class ForestFireSampler(GraphSampler):
    """Forest-fire sampling: BFS burn where each frontier vertex ignites a
    geometric number of unburned neighbors (mean ``BURN_RATIO / (1 -
    BURN_RATIO)``), restarted from fresh uniform roots until ``budget``
    vertices burned."""

    tag = "forest_fire"

    def __init__(self, graph: CSRGraph, *, budget: int) -> None:
        super().__init__(graph)
        if not (0 < budget <= graph.num_vertices):
            raise ValueError("budget must lie in [1, num_vertices]")
        self.budget = budget

    def _draw(self, rng: np.random.Generator):
        graph = self.graph
        burned = np.zeros(graph.num_vertices, dtype=bool)
        count = 0
        while count < self.budget:
            root = int(rng.integers(graph.num_vertices))
            if burned[root]:
                continue
            burned[root] = True
            count += 1
            frontier = [root]
            while frontier and count < self.budget:
                v = frontier.pop()
                nbrs = graph.neighbors(v)
                fresh = nbrs[~burned[nbrs]]
                if fresh.size == 0:
                    continue
                k = min(int(rng.geometric(1.0 - BURN_RATIO)), fresh.size)
                picks = rng.choice(fresh, size=k, replace=False)
                burned[picks] = True
                count += k
                frontier.extend(int(p) for p in picks)
        vertices = np.flatnonzero(burned)[: self.budget]
        return vertices, {}, None


class MetropolisHastingsWalkSampler(GraphSampler):
    """Metropolis–Hastings random walk: a degree-*unbiased* walker.

    A proposal to move from ``u`` to neighbor ``v`` is accepted with
    probability ``min(1, deg(u)/deg(v))``, making the stationary
    distribution uniform over vertices instead of degree-proportional —
    the classic contrast to frontier sampling for the X4 ablation.
    """

    tag = "mh_walk"

    def __init__(
        self, graph: CSRGraph, *, num_roots: int, walk_length: int
    ) -> None:
        super().__init__(graph)
        if num_roots <= 0 or walk_length <= 0:
            raise ValueError("num_roots and walk_length must be positive")
        self._require_min_degree()
        self.num_roots = num_roots
        self.walk_length = walk_length

    def _draw(self, rng: np.random.Generator):
        graph = self.graph
        current = rng.choice(
            graph.num_vertices,
            size=self.num_roots,
            replace=self.num_roots > graph.num_vertices,
        ).astype(np.int64)
        visited = [current.copy()]
        deg = graph.degrees
        for _ in range(self.walk_length):
            proposal = graph.random_neighbors(current, rng)
            accept_prob = np.minimum(
                1.0, deg[current].astype(np.float64) / deg[proposal]
            )
            accept = rng.random(current.shape[0]) < accept_prob
            current = np.where(accept, proposal, current).astype(np.int64)
            visited.append(current.copy())
        vertices = np.concatenate(visited)
        return vertices, {}, None


class SnowballSampler(GraphSampler):
    """Snowball sampling: BFS from ``SNOWBALL_SEEDS`` roots keeping at
    most ``SNOWBALL_FANOUT`` fresh neighbors per expanded vertex, until
    ``budget`` vertices are collected. A bounded-breadth contrast to
    forest fire."""

    tag = "snowball"

    def __init__(self, graph: CSRGraph, *, budget: int) -> None:
        super().__init__(graph)
        if not (0 < budget <= graph.num_vertices):
            raise ValueError("budget must lie in [1, num_vertices]")
        self.budget = budget

    def _draw(self, rng: np.random.Generator):
        graph = self.graph
        taken = np.zeros(graph.num_vertices, dtype=bool)
        seeds = rng.choice(
            graph.num_vertices,
            size=min(SNOWBALL_SEEDS, self.budget),
            replace=False,
        )
        taken[seeds] = True
        count = int(taken.sum())
        frontier = list(int(s) for s in seeds)
        while frontier and count < self.budget:
            next_frontier: list[int] = []
            for v in frontier:
                if count >= self.budget:
                    break
                nbrs = graph.neighbors(v)
                fresh = nbrs[~taken[nbrs]]
                if fresh.size == 0:
                    continue
                k = min(SNOWBALL_FANOUT, fresh.size, self.budget - count)
                picks = rng.choice(fresh, size=k, replace=False)
                taken[picks] = True
                count += k
                next_frontier.extend(int(p) for p in picks)
            frontier = next_frontier
            if not frontier and count < self.budget:
                # Graph exhausted locally: reseed from unvisited vertices.
                remaining = np.flatnonzero(~taken)
                if remaining.size == 0:
                    break
                seed = int(remaining[rng.integers(remaining.size)])
                taken[seed] = True
                count += 1
                frontier = [seed]
        vertices = np.flatnonzero(taken)[: self.budget]
        return vertices, {}, None


#: X4's dataset.
SAMPLER_COMPARISON_DATASET = "ppi"


def run_sampler_comparison(
    *,
    epochs: int = 10,
    seed: int = 0,
) -> dict[str, object]:
    """X4: frontier vs alternative samplers, connectivity + accuracy, on
    :data:`SAMPLER_COMPARISON_DATASET`."""
    dataset = SAMPLER_COMPARISON_DATASET
    ds = make_dataset(dataset, scale=EXPERIMENT_SCALES[dataset], seed=seed)
    base_summary = connectivity_summary(ds.graph)

    cfg = TrainConfig(
        hidden_dims=(64, 64),
        frontier_size=32,
        budget=256,
        lr=0.005,
        epochs=epochs,
        eval_every=epochs,  # evaluate once at the end
        seed=seed,
    )
    # The (patched) training graph all samplers share: the view every
    # trainer below derives from the same seed.
    g, _ = training_view(ds, np.random.default_rng(seed))
    budget = min(cfg.budget, g.num_vertices)
    samplers = {
        "frontier": DashboardFrontierSampler(
            g,
            frontier_size=min(cfg.frontier_size, budget),
            budget=budget,
            engine="reference",
        ),
        "random_node": RandomNodeSampler(g, budget=budget),
        "random_edge": make_sampler("edge", g, budget=budget),
        "random_walk": make_sampler("rw", g, budget=budget, walk_depth=7),
        "mh_walk": MetropolisHastingsWalkSampler(
            g, num_roots=max(budget // 8, 4), walk_length=7
        ),
        "forest_fire": ForestFireSampler(g, budget=budget),
        "snowball": SnowballSampler(g, budget=budget),
    }
    rows = []
    for name, sampler in samplers.items():
        rng = np.random.default_rng(seed)
        sub = sampler.sample(rng)
        summary = connectivity_summary(sub.graph)
        trainer = GraphSamplingTrainer(ds, cfg, sampler=sampler)
        result = trainer.train()
        rows.append(
            {
                "sampler": name,
                "subgraph_vertices": summary["num_vertices"],
                "subgraph_avg_degree": summary["avg_degree"],
                "degree_ks_vs_full": degree_ks_distance(ds.graph, sub.graph),
                "clustering_gap": abs(
                    summary["global_clustering"] - base_summary["global_clustering"]
                ),
                "largest_cc_frac": summary["largest_component_fraction"],
                "val_f1_micro": result.final_val_f1,
            }
        )
    return {"rows": rows, "full_graph": base_summary}
