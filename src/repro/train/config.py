"""Training configuration for the graph-sampling GCN."""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.policy import resolve_policy
from ..sampling.dashboard import ENGINES
from ..sampling.zoo import FAMILIES

__all__ = ["TrainConfig", "LOSS_NORMS"]

#: Loss-normalization modes: ``"none"`` (plain batch mean, the seed
#: behavior) or ``"saint"`` (GraphSAINT ``1/(n p_v)`` weights from
#: :mod:`repro.sampling.norm`).
LOSS_NORMS = ("none", "saint")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of Algorithm 5 training.

    Attributes
    ----------
    hidden_dims:
        Per-branch hidden sizes, one per GCN layer; the paper evaluates
        2-layer models with 512 and 1024, and up to 3 layers in Table II.
    frontier_size, budget:
        Frontier-sampler parameters ``m`` and ``n``. The sampler's other
        knobs (the enlargement factor ``eta``, the skew cap of Section
        VI-C2, the random-walk depth) keep
        :func:`repro.sampling.zoo.make_sampler`'s defaults; the
        experiments that sweep them build the sampler themselves and pass
        it to the trainer.
    dtype_policy:
        Kernel dtype policy name (see :mod:`repro.kernels.policy`):
        ``"reference"`` (float64, bit-identical to the seed
        implementation) or ``"fast"`` (float32). The only kernel setting
        there is.
    sampler_engine:
        Sampler execution engine: ``"fast"`` (vectorized) or
        ``"reference"`` (scalar oracle); forwarded to whichever sampler
        family is selected (see :mod:`repro.sampling.dashboard` and the
        zoo modules).
    sampler_family:
        Which subgraph sampler the trainer builds
        (:data:`repro.sampling.zoo.FAMILIES`): ``"dashboard"`` (the
        paper's frontier sampler, default), ``"rw"``, ``"edge"`` or
        ``"edge-indp"``. The configured ``budget`` is mapped onto each
        family's native parameter by
        :func:`repro.sampling.zoo.make_sampler`.
    loss_norm:
        ``"none"`` (plain batch-mean loss, the seed behavior) or
        ``"saint"`` — apply the GraphSAINT loss-normalization weights
        ``lambda_v = 1/(n p_v)`` so every sampler family's minibatch
        loss is an unbiased full-graph estimate.
    norm_subgraphs:
        Pre-sampling passes used to estimate empirical inclusion
        probabilities when ``loss_norm="saint"`` and the family has no
        closed form (dashboard, rw).
    prefetch_depth:
        Subgraphs the :class:`~repro.sampling.scheduler.SubgraphPool`
        keeps sampled ahead of the trainer; 0 samples inline. An
        execution knob only: the subgraph sequence, and so the trained
        weights, depend on ``seed`` alone.
    prefetch_workers:
        Concurrent sampler instances filling the pool (1 = one
        background thread, > 1 = a process pool); at most
        ``prefetch_depth`` of them are ever busy.
    epochs:
        One epoch processes ``ceil(|V_train| / budget)`` subgraph batches
        (the paper's definition of an epoch as one full traversal).
    """

    hidden_dims: tuple[int, ...] = (128, 128)
    frontier_size: int = 100
    budget: int = 500
    lr: float = 0.01
    weight_decay: float = 0.0
    dropout: float = 0.0
    concat: bool = True
    epochs: int = 10
    eval_every: int = 1
    seed: int = 0
    dtype_policy: str = "reference"
    sampler_engine: str = "fast"
    sampler_family: str = "dashboard"
    loss_norm: str = "none"
    norm_subgraphs: int = 24
    prefetch_depth: int = 0
    prefetch_workers: int = 1

    def __post_init__(self) -> None:
        if not self.hidden_dims:
            raise ValueError("need at least one hidden layer")
        if self.frontier_size <= 0 or self.budget < self.frontier_size:
            raise ValueError("invalid sampler sizes")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.prefetch_workers < 1:
            raise ValueError("prefetch_workers must be >= 1")
        # Fail fast on typos; resolve_policy raises ValueError naming
        # the valid choices.
        resolve_policy(self.dtype_policy)
        if self.sampler_engine not in ENGINES:
            raise ValueError(
                f"sampler_engine must be one of {ENGINES}, "
                f"got {self.sampler_engine!r}"
            )
        if self.sampler_family not in FAMILIES:
            raise ValueError(
                f"sampler_family must be one of {FAMILIES}, "
                f"got {self.sampler_family!r}"
            )
        if self.loss_norm not in LOSS_NORMS:
            raise ValueError(
                f"loss_norm must be one of {LOSS_NORMS}, got {self.loss_norm!r}"
            )
        if self.norm_subgraphs < 1:
            raise ValueError("norm_subgraphs must be >= 1")
