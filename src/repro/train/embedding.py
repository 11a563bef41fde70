"""Vertex-embedding utilities — the paper's actual output artifact.

"Taking an unstructured, attributed graph as input, the embedding process
outputs structured vectors which capture information of the original
graph" (Section I). This module extracts those vectors from a trained GCN
and provides the downstream operations the paper motivates embeddings
with: nearest-neighbor retrieval (content recommendation) and clustering
quality against labels. Extraction is the same shared-weight full-graph
pass evaluation runs, over the same memoized input
(:func:`repro.propagation.spmm.full_graph_input`): features and their
aggregate in the model's dtype, computed once per dataset.
"""

from __future__ import annotations

import numpy as np

from ..graphs.datasets import Dataset
from ..nn.network import GCN
from ..propagation.spmm import full_graph_input
from ..serving.index import BruteForceIndex

__all__ = [
    "compute_embeddings",
    "cosine_nearest_neighbors",
    "label_homogeneity",
    "embedding_report",
]


def compute_embeddings(model: GCN, dataset: Dataset) -> np.ndarray:
    """Final-layer embeddings ``H^(L)`` for every vertex of the dataset."""
    aggregator, features, aggregate = full_graph_input(dataset, model.dtype)
    return model.embeddings(features, aggregator, input_aggregate=aggregate)


def cosine_nearest_neighbors(
    embeddings: np.ndarray,
    queries: np.ndarray,
    k: int = 10,
    *,
    chunk_size: int | None = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` cosine neighbors of each query vertex.

    Returns ``(indices, similarities)`` of shape ``(len(queries), k)``;
    each query's own row is excluded. Queries are scanned in blocks of
    ``chunk_size`` rows so peak memory is ``O(chunk_size * n)`` instead
    of ``O(len(queries) * n)``; the chunking does not change results.

    Delegates to :class:`repro.serving.index.BruteForceIndex` — the same
    exact-search code path the serving subsystem uses as its oracle.
    """
    queries = np.asarray(queries, dtype=np.int64)
    index = BruteForceIndex(embeddings, chunk_size=chunk_size)
    return index.search_ids(queries, k)


def label_homogeneity(
    embeddings: np.ndarray,
    labels: np.ndarray,
    *,
    k: int = 10,
    sample: int | None = 256,
    rng: np.random.Generator | None = None,
) -> float:
    """Mean fraction of a vertex's k nearest neighbors sharing its label.

    For multi-label matrices, "sharing" means Jaccard similarity of label
    sets >= 0.5. A useful embedding scores far above the label-frequency
    base rate; this is the quantitative check behind the retrieval demo.
    """
    n = embeddings.shape[0]
    if sample is not None and sample < n:
        rng = rng or np.random.default_rng(0)
        queries = rng.choice(n, size=sample, replace=False)
    else:
        queries = np.arange(n)
    idx, _ = cosine_nearest_neighbors(embeddings, queries, k=k)
    labels = np.asarray(labels)
    if labels.ndim == 1:
        same = labels[idx] == labels[queries][:, None]
        return float(same.mean())
    q = labels[queries][:, None, :]
    nb = labels[idx]
    inter = (q * nb).sum(axis=2)
    union = np.maximum(q, nb).sum(axis=2)
    jac = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)
    return float((jac >= 0.5).mean())


def embedding_report(
    model: GCN, dataset: Dataset, *, k: int = 10, seed: int = 0
) -> dict[str, float]:
    """Summary quality metrics of a model's embeddings on a dataset."""
    emb = compute_embeddings(model, dataset)
    rng = np.random.default_rng(seed)
    homog = label_homogeneity(emb, dataset.labels, k=k, rng=rng)
    # Base rate: homogeneity of random neighbor assignment.
    perm = rng.permutation(dataset.num_vertices)
    base = label_homogeneity(
        emb[perm], dataset.labels, k=k, rng=np.random.default_rng(seed)
    )
    return {
        "embedding_dim": float(emb.shape[1]),
        "label_homogeneity@k": homog,
        "shuffled_base_rate": base,
        "lift": homog / base if base > 0 else float("inf"),
    }
