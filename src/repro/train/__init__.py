"""Training: configuration, the GS-GCN trainer, full-graph evaluation."""

from .checkpoint import checkpoint_metadata, load_checkpoint, save_checkpoint
from .config import TrainConfig
from .embedding import (
    compute_embeddings,
    cosine_nearest_neighbors,
    embedding_report,
    label_homogeneity,
)
from .evaluation import EvalResult, Evaluator
from .trainer import EpochRecord, GraphSamplingTrainer, IterationMetrics, TrainResult

__all__ = [
    "TrainConfig",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_metadata",
    "compute_embeddings",
    "cosine_nearest_neighbors",
    "label_homogeneity",
    "embedding_report",
    "Evaluator",
    "EvalResult",
    "GraphSamplingTrainer",
    "TrainResult",
    "EpochRecord",
    "IterationMetrics",
]
