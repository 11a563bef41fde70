"""Analytic models: Eq. 1 complexity and speedup helpers."""

from .complexity import (
    eq1_forward_ops,
    gs_gcn_batch_ops,
    gs_gcn_epoch_ops,
    layer_sampling_batch_ops,
    layer_sampling_epoch_ops,
    layer_sampling_support_sizes,
    work_ratio_vs_depth,
)
from .speedup import amdahl_speedup, gemm_simulated_time

__all__ = [
    "eq1_forward_ops",
    "gs_gcn_batch_ops",
    "gs_gcn_epoch_ops",
    "layer_sampling_support_sizes",
    "layer_sampling_batch_ops",
    "layer_sampling_epoch_ops",
    "work_ratio_vs_depth",
    "amdahl_speedup",
    "gemm_simulated_time",
]
