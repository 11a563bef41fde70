"""Extension experiments X6/X7 — the paper's deferred questions.

* X6 — **accuracy of deeper GCNs**. Section VI-D: "Accuracy evaluation
  for deeper GCN models is out of scope of this paper." The graph-sampling
  design makes depth cheap (Table II); this experiment measures what that
  depth buys: validation F1 of 1-4-layer GS-GCNs under a matched epoch
  budget.

* X7 — **subgraph budget need not grow with the graph**. Section III-B:
  "by choosing proper graph sampling algorithms, we can construct
  subgraphs whose sizes are small, and do not need to be grown with the
  training graph (as shown in Section VI)." This experiment fixes the
  sampler budget and scales the training graph 1x/2x/4x, checking that
  accuracy holds — the property that makes per-epoch complexity
  ``O(L |V| f (f + d))`` with a constant subgraph term.
"""

from __future__ import annotations

import numpy as np

from ..graphs.datasets import make_dataset
from ..train.config import TrainConfig
from ..train.trainer import GraphSamplingTrainer
from .common import EXPERIMENT_SCALES, paper_budget

__all__ = ["run_depth_accuracy", "run_budget_scaling"]


def run_depth_accuracy(
    *,
    depths: tuple[int, ...] = (1, 2, 3, 4),
    hidden: int = 64,
    epochs: int = 12,
    seed: int = 0,
) -> dict[str, object]:
    """X6: validation F1 and per-iteration cost of deeper GS-GCNs on the
    Reddit profile."""
    ds = make_dataset("reddit", scale=EXPERIMENT_SCALES["reddit"], seed=seed)
    budget = paper_budget(ds.train_idx.shape[0])
    rows = []
    for depth in depths:
        cfg = TrainConfig(
            hidden_dims=(hidden,) * depth,
            frontier_size=max(budget // 12, 16),
            budget=budget,
            lr=0.005,  # Reddit's step, as in fig2.RECIPES
            epochs=epochs,
            eval_every=epochs,
            seed=seed,
        )
        trainer = GraphSamplingTrainer(ds, cfg)
        result = trainer.train()
        mean_flops = float(
            np.mean([m.gemm_flops for m in result.iteration_metrics])
        )
        rows.append(
            {
                "layers": depth,
                "val_f1_micro": result.final_val_f1,
                "gemm_flops_per_iter": mean_flops,
                "num_parameters": trainer.model.num_parameters(),
            }
        )
    return {"rows": rows}


def run_budget_scaling(
    *,
    base_scale: float | None = None,
    scale_factors: tuple[float, ...] = (1.0, 2.0, 4.0),
    budget: int = 300,
    hidden: int = 64,
    epochs: int = 12,
    seed: int = 0,
) -> dict[str, object]:
    """X7: fixed sampler budget across growing Reddit-profile graphs.

    The claim holds when validation F1 stays roughly flat while the
    graph (and with it, the per-epoch batch count) grows.
    """
    base_scale = base_scale or EXPERIMENT_SCALES["reddit"]
    rows = []
    for factor in scale_factors:
        ds = make_dataset("reddit", scale=base_scale * factor, seed=seed)
        cfg = TrainConfig(
            hidden_dims=(hidden, hidden),
            frontier_size=max(budget // 12, 16),
            budget=budget,
            lr=0.005,  # Reddit's step, as in fig2.RECIPES
            epochs=epochs,
            eval_every=epochs,
            seed=seed,
        )
        trainer = GraphSamplingTrainer(ds, cfg)
        result = trainer.train()
        rows.append(
            {
                "graph_scale": factor,
                "num_vertices": ds.num_vertices,
                "budget": budget,
                "budget_fraction": budget / trainer.train_graph.num_vertices,
                "batches_per_epoch": trainer.batches_per_epoch,
                "val_f1_micro": result.final_val_f1,
            }
        )
    return {"rows": rows}
