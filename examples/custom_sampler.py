"""Extending the sampler interface (the paper's future-work direction).

Section VII: "We will extend the parallel sampler implementation to
support a wider class of sampling algorithms, so as to make our model more
generic." This example implements a *custom* sampler — degree-weighted
node sampling with a locality boost — on the public
:class:`~repro.sampling.GraphSampler` draw hook and plugs it into the
unmodified trainer, then compares it with the built-in frontier sampler.

Usage::

    python examples/custom_sampler.py
"""

from __future__ import annotations

import numpy as np

from repro import GraphSamplingTrainer, TrainConfig, make_dataset
from repro.sampling import GraphSampler


class DegreeWeightedNodeSampler(GraphSampler):
    """Sample seed vertices proportional to degree, then add one random
    neighbor per seed (a cheap locality boost so the induced subgraph is
    not edge-starved)."""

    tag = "degree_weighted"

    def __init__(self, graph, *, budget: int) -> None:
        super().__init__(graph)
        if not (0 < budget <= graph.num_vertices):
            raise ValueError("budget must lie in [1, num_vertices]")
        self.budget = budget
        deg = graph.degrees.astype(np.float64)
        self._probs = deg / deg.sum()

    def _draw(self, rng: np.random.Generator):
        seeds = rng.choice(
            self.graph.num_vertices,
            size=self.budget // 2,
            replace=False,
            p=self._probs,
        )
        companions = self.graph.random_neighbors(seeds, rng)
        # Visited vertices, no extra stats, no metering: the base class
        # induces the subgraph and the pool prices it by its size.
        return np.concatenate([seeds, companions]), {}, None


def train_with(name: str, dataset, sampler=None) -> None:
    cfg = TrainConfig(
        hidden_dims=(64, 64),
        frontier_size=40,
        budget=240,
        lr=0.005,
        epochs=12,
        eval_every=12,
        seed=0,
    )
    if sampler is not None:
        ref = GraphSamplingTrainer(dataset, cfg)  # supplies the train graph
        trainer = GraphSamplingTrainer(
            dataset, cfg, sampler=sampler(ref.train_graph)
        )
    else:
        trainer = GraphSamplingTrainer(dataset, cfg)
    result = trainer.train()
    print(f"{name:<28} val F1 = {result.final_val_f1:.4f}")


def main() -> None:
    dataset = make_dataset("reddit", scale=0.008, seed=0)
    print(f"dataset: {dataset.graph}\n")
    train_with("frontier (built-in)", dataset)
    train_with(
        "degree-weighted (custom)",
        dataset,
        sampler=lambda g: DegreeWeightedNodeSampler(g, budget=240),
    )
    print(
        "\nA GraphSampler subclass with a `_draw(rng)` hook drops into the"
        "\ntrainer; the pool, cost accounting and evaluation are reused."
    )


if __name__ == "__main__":
    main()
