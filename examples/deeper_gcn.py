"""Deeper GCNs: the Table II experiment at example scale.

Section VI-D shows the graph-sampling design's advantage *grows* with
depth: per-epoch work is linear in L, while layer sampling explodes like
fanout^L. This example trains 1-, 2- and 3-layer GS-GCNs on the Reddit
profile, prints their accuracy and per-epoch cost, and contrasts with the
analytic layer-sampling work of an equivalent GraphSAGE configuration.

Usage::

    python examples/deeper_gcn.py
"""

from __future__ import annotations

from repro import GraphSamplingTrainer, TrainConfig, make_dataset, xeon_40core
from repro.analysis.complexity import (
    gs_gcn_epoch_ops,
    layer_sampling_epoch_ops,
)
from repro.experiments.repricing import iteration_time, phase_times_per_iteration


def main() -> None:
    dataset = make_dataset("reddit", scale=0.01, seed=0)
    machine = xeon_40core()
    n_train = dataset.train_idx.shape[0]
    print(f"dataset: {dataset.graph}, training vertices: {n_train}\n")

    print(f"{'L':>2} {'val F1':>8} {'epoch cost (1 core)':>20} "
          f"{'epoch cost (40 cores)':>22} {'SAGE work ratio':>16}")
    for layers in (1, 2, 3):
        cfg = TrainConfig(
            hidden_dims=(128,) * layers,
            frontier_size=60,
            budget=380,
            lr=0.005,
            epochs=6,
            eval_every=6,
            seed=0,
        )
        trainer = GraphSamplingTrainer(dataset, cfg)
        result = trainer.train()
        metrics = result.iteration_metrics
        batches = trainer.batches_per_epoch
        t1, t40 = (
            iteration_time(
                phase_times_per_iteration(
                    metrics, machine, cores=c, p_intra=8, instances=c
                )
            )
            for c in (1, 40)
        )

        # Analytic comparison: GraphSAGE's epoch work over ours (Eq. 1
        # based; fanout 10, paper-ratio batch size).
        sage_ops = layer_sampling_epoch_ops(
            num_train=n_train,
            batch_size=max(8, n_train * 512 // 153_000),
            fanouts=(10,) * layers,
            f=128,
            num_vertices=n_train,
        )
        gs_ops = gs_gcn_epoch_ops(
            num_layers=layers, num_vertices=n_train, subgraph_degree=10.0, f=128
        )
        print(
            f"{layers:>2} {result.final_val_f1:>8.4f} {t1 * batches:>20.3g} "
            f"{t40 * batches:>22.3g} {sage_ops / gs_ops:>16.1f}"
        )

    print(
        "\nShapes to note (cf. Table II): GS-GCN epoch cost grows ~linearly"
        "\nwith L, while the layer-sampling work ratio grows by orders of"
        "\nmagnitude — deeper GCNs are where graph sampling wins biggest."
    )


if __name__ == "__main__":
    main()
