"""Embedding extraction and retrieval — the paper's end product.

Graph embedding "facilitates data mining on graphs ... such as content
recommendation" (Section I). This example trains a GS-GCN on the Reddit
profile, extracts final-layer vertex embeddings, and uses them for
nearest-neighbor retrieval; it reports label homogeneity of the retrieved
neighbors against a shuffled base rate, and saves/reloads the model with
the checkpoint API.

Usage::

    python examples/embedding_retrieval.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import GraphSamplingTrainer, TrainConfig, make_dataset
from repro.nn.network import GCN
from repro.train import (
    compute_embeddings,
    cosine_nearest_neighbors,
    embedding_report,
    load_checkpoint,
    save_checkpoint,
)


def main() -> None:
    dataset = make_dataset("reddit", scale=0.008, seed=0)
    print(f"dataset: {dataset.graph}")

    trainer = GraphSamplingTrainer(
        dataset,
        TrainConfig(
            hidden_dims=(64, 64),
            frontier_size=30,
            budget=300,
            lr=0.005,
            epochs=10,
            eval_every=10,
        ),
    )
    result = trainer.train()
    print(f"trained: val F1 = {result.final_val_f1:.4f}")

    # ------------------------------------------------------------------
    # Checkpoint round-trip.
    with tempfile.TemporaryDirectory() as tmp:
        path = save_checkpoint(trainer.model, f"{tmp}/model")
        print(f"checkpoint written: {path.name}")
        restored = GCN(
            dataset.attribute_dim,
            [64, 64],
            dataset.num_classes,
            seed=123,  # different init — overwritten by the checkpoint
        )
        load_checkpoint(restored, path)

    # ------------------------------------------------------------------
    # Embedding extraction + retrieval.
    embeddings = compute_embeddings(restored, dataset)
    print(f"embeddings: {embeddings.shape}")

    rng = np.random.default_rng(0)
    queries = rng.choice(dataset.num_vertices, size=3, replace=False)
    idx, sims = cosine_nearest_neighbors(embeddings, queries, k=5)
    for q, row, s in zip(queries, idx, sims):
        labels = dataset.labels[row]
        print(
            f"query v{q} (label {dataset.labels[q]}): "
            f"neighbors {row.tolist()} labels {labels.tolist()} "
            f"sims {[round(float(x), 3) for x in s]}"
        )

    report = embedding_report(restored, dataset)
    print("\nembedding quality:")
    for key, value in report.items():
        print(f"  {key:<24} {value:.3f}")


if __name__ == "__main__":
    main()
