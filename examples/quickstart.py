"""Quickstart: train the graph-sampling GCN on a synthetic PPI-profile graph.

Runs in ~30 seconds on a laptop. Demonstrates the three-line core API:
make a dataset, configure training, train — then evaluates on the test
split and prints the modeled-time breakdown, priced after the run from
the iteration counters training recorded.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import GraphSamplingTrainer, TrainConfig, make_dataset, xeon_40core
from repro.experiments import iteration_time, phase_times_per_iteration


def main() -> None:
    # A scaled instance of the paper's PPI dataset (Table I profile):
    # multi-label protein-function prediction, 121 classes.
    dataset = make_dataset("ppi", scale=0.08, seed=0)
    print(f"dataset: {dataset.name}, {dataset.graph}")
    print(
        f"attributes: {dataset.attribute_dim}-dim, "
        f"{dataset.num_classes} classes ({dataset.task}-label)"
    )

    config = TrainConfig(
        hidden_dims=(128, 128),  # 2-layer GCN, as in the paper's Figure 2
        frontier_size=50,        # m: frontier size of the sampler
        budget=300,              # n: vertices per sampled subgraph
        lr=0.01,
        epochs=30,
        eval_every=5,
    )
    trainer = GraphSamplingTrainer(dataset, config)
    result = trainer.train()

    print("\nepoch  train-loss  val-F1(micro)")
    for rec in result.epochs:
        if rec.val is not None:
            print(f"{rec.epoch:>5}  {rec.train_loss:>10.4f}  {rec.val.f1_micro:>12.4f}")

    test = trainer.evaluator.evaluate(trainer.model, "test")
    print(f"\ntest F1-micro: {test.f1_micro:.4f}  F1-macro: {test.f1_macro:.4f}")

    phases = phase_times_per_iteration(
        result.iteration_metrics,
        xeon_40core(),
        cores=1,
        p_intra=1,
        instances=trainer.pool.instances,
    )
    print("\nmodeled time breakdown (1 core):")
    for phase, t in phases.items():
        print(f"  {phase:<20} {t / iteration_time(phases):6.1%}")


if __name__ == "__main__":
    main()
