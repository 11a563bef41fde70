"""Synthetic vertex attributes and labels.

The paper's datasets carry dense attribute vectors (50–602 dims) produced by
upstream pipelines (Word2Vec on Yelp reviews, SVD of bag-of-words on Amazon
item descriptions). These factories produce attributes with the same two
properties that matter downstream:

1. they are *informative* about the planted communities (so a GCN can learn
   and the accuracy curves of Figure 2 behave like the paper's), and
2. they are *noisy enough* that topology helps (a pure-MLP baseline does
   measurably worse than a GCN — verified in the integration tests).

Labels come in the paper's two flavours: single-class (Reddit-style softmax)
and multi-class a.k.a. multi-label (PPI/Yelp/Amazon-style per-class sigmoid).
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = [
    "gaussian_class_features",
    "svd_compressed_features",
    "single_label_from_blocks",
    "multi_label_from_blocks",
    "smooth_features",
]


def gaussian_class_features(
    blocks: np.ndarray,
    feature_dim: int,
    *,
    signal: float = 1.0,
    noise: float = 1.0,
    rng: np.random.Generator,
) -> np.ndarray:
    """Class-conditional Gaussian features (Word2Vec analog).

    Each block ``b`` owns a random unit-norm centroid ``mu_b``; vertex
    features are ``signal * mu_{block(v)} + noise * eps_v``. The
    signal-to-noise ratio controls task difficulty.
    """
    blocks = np.asarray(blocks)
    k = int(blocks.max()) + 1 if blocks.size else 0
    centroids = rng.standard_normal((k, feature_dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    feats = signal * centroids[blocks]
    feats += noise * rng.standard_normal((blocks.shape[0], feature_dim))
    return feats.astype(np.float64)


def svd_compressed_features(
    blocks: np.ndarray,
    feature_dim: int,
    *,
    vocab_size: int | None = None,
    topics_per_block: int = 8,
    words_per_vertex: int = 40,
    rng: np.random.Generator,
) -> np.ndarray:
    """Bag-of-words + truncated-SVD features (Amazon profile analog).

    Simulates the paper's Amazon preprocessing: every block is a mixture of
    ``topics_per_block`` "topics" (sparse word distributions); each vertex
    draws a bag of words from its block's mixture; the sparse count matrix
    is compressed to ``feature_dim`` dims with a randomized truncated SVD.
    """
    blocks = np.asarray(blocks)
    n = blocks.shape[0]
    k = int(blocks.max()) + 1 if n else 0
    if vocab_size is None:
        vocab_size = max(4 * feature_dim, 64)

    # Each topic concentrates on a small random subset of the vocabulary.
    num_topics = k * topics_per_block
    topic_words = rng.integers(0, vocab_size, size=(num_topics, max(4, vocab_size // 16)))

    counts = np.zeros((n, vocab_size), dtype=np.float64)
    # Vectorize over vertices: pick one topic per word draw.
    topic_of_vertex = blocks * topics_per_block + rng.integers(
        0, topics_per_block, size=n
    )
    word_cols = topic_words[
        np.repeat(topic_of_vertex, words_per_vertex),
        rng.integers(0, topic_words.shape[1], size=n * words_per_vertex),
    ]
    word_rows = np.repeat(np.arange(n), words_per_vertex)
    np.add.at(counts, (word_rows, word_cols), 1.0)
    # TF normalization, then randomized range finder + exact SVD on the
    # small projected matrix (classic Halko-Martinsson-Tropp sketch).
    counts /= np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
    sketch = counts @ rng.standard_normal((vocab_size, feature_dim + 8))
    q, _ = np.linalg.qr(sketch)
    b = q.T @ counts
    u_small, s, _ = np.linalg.svd(b, full_matrices=False)
    u = q @ u_small
    feats = (u[:, :feature_dim] * s[:feature_dim]).astype(np.float64)
    # Standardize columns: raw U*S magnitudes shrink with vocabulary size
    # (singular values of a row-normalized count matrix), which would
    # otherwise leave the GCN with near-zero inputs. Real pipelines
    # normalize attributes the same way.
    feats -= feats.mean(axis=0, keepdims=True)
    std = feats.std(axis=0, keepdims=True)
    feats /= np.maximum(std, 1e-12)
    return feats


def smooth_features(
    graph: CSRGraph, features: np.ndarray, *, hops: int = 1, alpha: float = 0.5
) -> np.ndarray:
    """Blend each vertex's features with its neighborhood mean.

    ``h_v <- (1 - alpha) * h_v + alpha * mean_{u ~ v} h_u``, repeated
    ``hops`` times. Makes attributes correlated along edges, which is what
    gives graph convolutions their edge over pure MLPs on real data.
    """
    # Imported here: repro.kernels imports repro.graphs.csr.
    from ..kernels import ops as kernel_ops

    if features.shape[0] != graph.num_vertices:
        raise ValueError("features row count must equal num_vertices")
    out = features.astype(np.float64, copy=True)
    deg = np.maximum(graph.degrees.astype(np.float64), 1.0)
    for _ in range(hops):
        # Pinned backend: the corpus is a function of the seed alone, not
        # of which backend is the default (the CSR matvec sums each row's
        # neighbors in index order).
        agg = kernel_ops.spmm(graph, out, backend="scipy")
        agg /= deg[:, None]
        out = (1.0 - alpha) * out + alpha * agg
    return out


def single_label_from_blocks(
    blocks: np.ndarray,
    num_classes: int,
    *,
    flip_prob: float = 0.0,
    rng: np.random.Generator,
) -> np.ndarray:
    """Single-class labels: ``label(v) = block(v) mod num_classes`` + noise.

    Returns an ``int64[n]`` class-id array (Reddit-style task).
    """
    blocks = np.asarray(blocks)
    labels = (blocks % num_classes).astype(np.int64)
    if flip_prob > 0.0:
        flip = rng.random(blocks.shape[0]) < flip_prob
        labels[flip] = rng.integers(0, num_classes, size=int(flip.sum()))
    return labels


def multi_label_from_blocks(
    blocks: np.ndarray,
    num_classes: int,
    *,
    labels_per_block: int = 3,
    flip_prob: float = 0.05,
    rng: np.random.Generator,
) -> np.ndarray:
    """Multi-label targets: each block owns ``labels_per_block`` classes.

    Returns a ``float64[n, num_classes]`` 0/1 matrix (PPI/Yelp/Amazon-style
    task; trained with per-class sigmoid cross-entropy). Every vertex gets
    its block's label set, with independent per-bit flip noise.
    """
    blocks = np.asarray(blocks)
    n = blocks.shape[0]
    k = int(blocks.max()) + 1 if n else 0
    block_label = np.zeros((k, num_classes), dtype=np.float64)
    for b in range(k):
        chosen = rng.choice(num_classes, size=min(labels_per_block, num_classes), replace=False)
        block_label[b, chosen] = 1.0
    y = block_label[blocks]
    if flip_prob > 0.0:
        flips = rng.random(y.shape) < flip_prob
        y = np.where(flips, 1.0 - y, y)
    return y
