"""Dataset profiles mirroring Table I of the paper.

Each of the paper's four datasets (PPI, Reddit, Yelp, Amazon) is represented
by a :class:`DatasetProfile` capturing its published statistics — vertex and
edge counts, attribute dimensionality, class count, single- vs multi-label
task — plus generator knobs (degree skew, community count, feature synth
recipe) chosen so the synthetic stand-in stresses the same code paths:

* **PPI**: small, moderately dense, 121-way multi-label.
* **Reddit**: high average degree (~100), single-label. The paper calls it
  "the largest graph evaluated by state-of-the-art embedding methods".
* **Yelp**: large and sparse (avg degree ~19), Word2Vec-style features.
* **Amazon**: extreme degree skew (avg 165, max in the tens of thousands) —
  the profile that motivates the sampler's per-vertex degree cap.

``make_dataset(name, scale=...)`` generates a scaled instance: vertex count
is ``round(scale * full_num_vertices)`` and average degree is preserved
(optionally damped for tractability). All randomness flows through a
caller-supplied seed, so datasets are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .csr import CSRGraph
from .features import (
    gaussian_class_features,
    multi_label_from_blocks,
    single_label_from_blocks,
    smooth_features,
    svd_compressed_features,
)
from .generators import DCSBMParams, dcsbm_graph, ensure_min_degree

__all__ = [
    "DatasetProfile",
    "Dataset",
    "PROFILES",
    "make_dataset",
    "table1_rows",
    "training_view",
]

TaskType = Literal["single", "multi"]


@dataclass(frozen=True)
class DatasetProfile:
    """Published statistics + generation recipe for one paper dataset."""

    name: str
    full_num_vertices: int
    full_num_edges: int  # undirected, as reported in Table I
    attribute_dim: int
    num_classes: int
    task: TaskType
    # Generator knobs.
    degree_exponent: float = 2.5
    max_weight_ratio: float = 100.0
    mixing: float = 0.25
    blocks_per_class: int = 1
    feature_recipe: Literal["gaussian", "svd"] = "gaussian"
    feature_signal: float = 2.0
    feature_noise: float = 1.0
    feature_smooth_hops: int = 1
    label_flip_prob: float = 0.03
    labels_per_block: int = 3

    @property
    def full_avg_degree(self) -> float:
        """Average number of stored (directed) edges per vertex."""
        return 2.0 * self.full_num_edges / self.full_num_vertices


# Table I of the paper, verbatim; (M) = multi-label, (S) = single-label.
PROFILES: dict[str, DatasetProfile] = {
    "ppi": DatasetProfile(
        name="ppi",
        full_num_vertices=14_755,
        full_num_edges=225_270,
        attribute_dim=50,
        num_classes=121,
        task="multi",
        degree_exponent=2.6,
        max_weight_ratio=40.0,
        mixing=0.30,
        feature_recipe="gaussian",
        feature_signal=1.6,
        feature_noise=1.0,
        labels_per_block=36,  # real PPI averages ~37 of 121 labels per vertex
        label_flip_prob=0.01,
    ),
    "reddit": DatasetProfile(
        name="reddit",
        full_num_vertices=232_965,
        full_num_edges=11_606_919,
        attribute_dim=602,
        num_classes=41,
        task="single",
        degree_exponent=2.3,
        max_weight_ratio=200.0,
        mixing=0.20,
        feature_recipe="gaussian",
        feature_signal=2.2,
        feature_noise=1.0,
    ),
    "yelp": DatasetProfile(
        name="yelp",
        full_num_vertices=716_847,
        full_num_edges=6_977_410,
        attribute_dim=300,
        num_classes=100,
        task="multi",
        degree_exponent=2.7,
        max_weight_ratio=120.0,
        mixing=0.25,
        feature_recipe="gaussian",
        feature_signal=1.8,
        feature_noise=1.0,
        labels_per_block=12,
        label_flip_prob=0.01,
    ),
    "amazon": DatasetProfile(
        name="amazon",
        full_num_vertices=1_598_960,
        full_num_edges=132_169_734,
        attribute_dim=200,
        num_classes=107,
        task="multi",
        degree_exponent=2.05,  # heavy tail: exercises the degree cap
        max_weight_ratio=2000.0,
        mixing=0.25,
        feature_recipe="svd",
        labels_per_block=12,
        label_flip_prob=0.01,
    ),
}


@dataclass(frozen=True)
class Dataset:
    """A generated dataset instance: topology + attributes + labels + splits.

    ``labels`` is ``int64[n]`` for single-label tasks and ``float64[n, C]``
    (0/1 indicator matrix) for multi-label tasks. ``features`` is frozen
    on construction (as ``CSRGraph`` freezes its arrays): full-graph
    inference memoizes its aggregate per dataset
    (:func:`repro.propagation.spmm.full_graph_input`), so a writer gets an
    error instead of a stale aggregate.
    """

    name: str
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    task: TaskType
    num_classes: int
    profile: DatasetProfile | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.graph.num_vertices
        if self.features.shape[0] != n:
            raise ValueError("features row count must equal num_vertices")
        if self.labels.shape[0] != n:
            raise ValueError("labels row count must equal num_vertices")
        if self.task == "multi" and (
            self.labels.ndim != 2 or self.labels.shape[1] != self.num_classes
        ):
            raise ValueError("multi-label labels must be (n, num_classes)")
        if self.task == "single" and self.labels.ndim != 1:
            raise ValueError("single-label labels must be 1-D class ids")
        all_idx = np.concatenate([self.train_idx, self.val_idx, self.test_idx])
        if np.unique(all_idx).shape[0] != all_idx.shape[0]:
            raise ValueError("train/val/test splits overlap")
        if all_idx.size and (all_idx.min() < 0 or all_idx.max() >= n):
            raise ValueError("split indices out of range")
        self.features.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def attribute_dim(self) -> int:
        return self.features.shape[1]


def training_view(
    dataset: Dataset, rng: np.random.Generator
) -> tuple[CSRGraph, np.ndarray]:
    """The graph every training method sees, and its vertex map.

    The subgraph induced on the training split (the sampler never sees
    validation or test vertices) can strand vertices; each stranded one is
    given one random training-graph neighbor drawn from ``rng``, so the
    samplers' min-degree precondition holds (the same
    :func:`ensure_min_degree` pass the generators apply to the full graph).
    """
    graph, vertex_map = dataset.graph.induced_subgraph(dataset.train_idx)
    if np.any(graph.degrees == 0):
        graph = ensure_min_degree(graph, 1, rng=rng)
    return graph, vertex_map


def make_dataset(
    name: str,
    *,
    scale: float = 0.01,
    seed: int = 0,
    avg_degree_cap: float | None = 60.0,
    train_frac: float = 0.66,
    val_frac: float = 0.12,
) -> Dataset:
    """Generate a scaled instance of one of the four paper datasets.

    Parameters
    ----------
    name:
        One of ``"ppi"``, ``"reddit"``, ``"yelp"``, ``"amazon"``.
    scale:
        Fraction of the full vertex count to generate (default 1%).
    avg_degree_cap:
        The Reddit/Amazon profiles have average degrees of 100–165, which
        dominates runtime without changing any algorithmic behaviour; the
        cap (default 60) bounds the generated average degree. Pass ``None``
        to reproduce the full published density.
    """
    key = name.lower()
    if key not in PROFILES:
        raise KeyError(f"unknown dataset {name!r}; choose from {sorted(PROFILES)}")
    profile = PROFILES[key]
    rng = np.random.default_rng(seed)

    n = max(int(round(profile.full_num_vertices * scale)), 64)
    avg_degree = profile.full_avg_degree
    if avg_degree_cap is not None:
        avg_degree = min(avg_degree, avg_degree_cap)
    # Avg degree can't exceed n - 1 on a simple graph.
    avg_degree = min(avg_degree, n - 1)

    num_blocks = max(profile.num_classes * profile.blocks_per_class, 2)
    # Keep at least ~8 vertices per block so communities are resolvable.
    num_blocks = min(num_blocks, max(n // 8, 2))

    params = DCSBMParams(
        num_vertices=n,
        num_blocks=num_blocks,
        avg_degree=avg_degree,
        exponent=profile.degree_exponent,
        mixing=profile.mixing,
        max_weight_ratio=profile.max_weight_ratio,
    )
    graph, blocks = dcsbm_graph(params, rng=rng)

    if profile.feature_recipe == "svd":
        features = svd_compressed_features(
            blocks, profile.attribute_dim, rng=rng
        )
    else:
        features = gaussian_class_features(
            blocks,
            profile.attribute_dim,
            signal=profile.feature_signal,
            noise=profile.feature_noise,
            rng=rng,
        )
    if profile.feature_smooth_hops > 0:
        features = smooth_features(
            graph, features, hops=profile.feature_smooth_hops, alpha=0.5
        )

    if profile.task == "single":
        labels = single_label_from_blocks(
            blocks, profile.num_classes, flip_prob=profile.label_flip_prob, rng=rng
        )
    else:
        labels = multi_label_from_blocks(
            blocks,
            profile.num_classes,
            labels_per_block=profile.labels_per_block,
            flip_prob=profile.label_flip_prob,
            rng=rng,
        )

    perm = rng.permutation(n)
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    train_idx = np.sort(perm[:n_train])
    val_idx = np.sort(perm[n_train : n_train + n_val])
    test_idx = np.sort(perm[n_train + n_val :])

    return Dataset(
        name=profile.name,
        graph=graph,
        features=features,
        labels=labels,
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
        task=profile.task,
        num_classes=profile.num_classes,
        profile=profile,
    )


def table1_rows(
    datasets: dict[str, Dataset] | None = None,
) -> list[dict[str, object]]:
    """Rows of Table I: published stats plus (optionally) generated stats.

    When ``datasets`` maps profile names to generated instances, each row
    also reports the generated vertex/edge counts so the bench harness can
    print paper-vs-measured side by side.
    """
    rows: list[dict[str, object]] = []
    for key, profile in PROFILES.items():
        row: dict[str, object] = {
            "dataset": profile.name.upper() if key == "ppi" else profile.name.capitalize(),
            "paper_vertices": profile.full_num_vertices,
            "paper_edges": profile.full_num_edges,
            "attribute_dim": profile.attribute_dim,
            "num_classes": profile.num_classes,
            "task": "M" if profile.task == "multi" else "S",
        }
        if datasets is not None and key in datasets:
            ds = datasets[key]
            row["generated_vertices"] = ds.num_vertices
            row["generated_edges"] = ds.graph.num_edges
            row["generated_avg_degree"] = round(ds.graph.average_degree, 2)
        rows.append(row)
    return rows
