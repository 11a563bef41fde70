"""The graph-sampling GCN trainer (Algorithms 1 & 5).

Every iteration: take a subgraph from the pool (sampled inline, or ahead of
the optimizer by ``prefetch_workers`` sampler instances), build a
*complete* GCN on it, run forward + backward, and take an Adam step. Per
the paper, training restricts to the training graph — the subgraph sampler
never sees validation or test vertices — while evaluation runs a
full-graph forward pass with the shared weights.

Training keeps one clock, **wall seconds** — real measured Python time,
used by the Figure 2 time-accuracy comparison (every method in this repo
runs in the same numpy framework, so wall-clock ratios are meaningful).
The modeled clock is not kept here: each iteration records its counters
(:class:`IterationMetrics`: the sampler's operation stats, one
propagation report per pass and the GEMM flop count), and
:mod:`repro.experiments.repricing` prices them after the run at whatever
core count, lane width and sampler-instance count a figure asks for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..graphs.datasets import Dataset, training_view
from ..kernels import accounting
from ..kernels.policy import resolve_policy
from ..obs import is_enabled as obs_enabled
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from ..nn.loss import make_loss
from ..nn.network import GCN
from ..nn.optim import Adam
from ..propagation.feature_prop import PartitionedPropagator
from ..sampling.zoo import make_sampler, norm_coefficients
from ..sampling.scheduler import SubgraphPool
from .config import TrainConfig
from .evaluation import EvalResult, Evaluator

__all__ = ["EpochRecord", "TrainResult", "GraphSamplingTrainer"]


@dataclass(frozen=True)
class EpochRecord:
    """Progress snapshot at the end of one epoch."""

    epoch: int
    train_loss: float
    wall_seconds_total: float
    val: EvalResult | None


@dataclass(frozen=True)
class IterationMetrics:
    """Raw metered quantities of one training iteration.

    The only record of an iteration's cost: :mod:`repro.experiments.repricing`
    prices a run from these at any core count / lane width without
    re-running it — sampler stats through
    :func:`repro.sampling.cost.pool_fill_times`, propagation reports under
    Theorem 2's partition count for the cores priced, and the GEMM flop
    count under the Amdahl model.
    """

    sampler_stats: dict[str, float]
    prop_reports: tuple
    gemm_flops: float
    subgraph_vertices: int
    subgraph_edges: int
    spmm_flops: float = 0.0


@dataclass
class TrainResult:
    """Everything a training run produced."""

    epochs: list[EpochRecord] = field(default_factory=list)
    iterations: int = 0
    iteration_metrics: list[IterationMetrics] = field(default_factory=list)

    @property
    def final_val_f1(self) -> float:
        for rec in reversed(self.epochs):
            if rec.val is not None:
                return rec.val.f1_micro
        return float("nan")


class GraphSamplingTrainer:
    """Minibatch GCN training by graph sampling (the paper's method).

    Parameters
    ----------
    dataset, config:
        Data and hyperparameters.
    sampler:
        Optional override of the subgraph sampler (built on
        ``self.train_graph``); defaults to the Dashboard frontier sampler.
        Used by the sampler-comparison ablation (the paper's future-work
        direction of supporting a wider class of sampling algorithms).
    """

    def __init__(
        self,
        dataset: Dataset,
        config: TrainConfig,
        *,
        sampler=None,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.rng = np.random.default_rng(config.seed)

        # Training graph: the view of the training split every method in
        # this repo trains on (shared with the baselines).
        self.train_graph, self.train_vmap = training_view(dataset, self.rng)
        # Kernel regime: the reference policy keeps float64 (bit-identical
        # to the seed implementation); the fast policy casts once here.
        self.policy = resolve_policy(config.dtype_policy)
        self.train_features = self.policy.cast(dataset.features[self.train_vmap])
        self.train_labels = dataset.labels[self.train_vmap]

        budget = min(config.budget, self.train_graph.num_vertices)
        frontier = min(config.frontier_size, budget)
        if sampler is not None:
            self.sampler = sampler
        else:
            # The zoo factory: config.sampler_family selects the sampler,
            # the shared budget is mapped onto each family's native knob
            # (the default "dashboard" path builds exactly the frontier
            # sampler this constructor always built).
            self.sampler = make_sampler(
                config.sampler_family,
                self.train_graph,
                budget=budget,
                frontier_size=frontier,
            )
        # GraphSAINT loss normalization: per-vertex weights 1/(n p_v)
        # (closed-form for the edge families, empirical pre-sampling
        # otherwise) make each family's minibatch loss an unbiased
        # full-graph estimate, so the families train to comparable F1.
        self.norm = None
        self._loss_weights = None
        if config.loss_norm == "saint":
            self.norm = norm_coefficients(
                self.sampler,
                num_subgraphs=config.norm_subgraphs,
                seed=config.seed,
            )
            self._loss_weights = self.norm.loss_weight
        # One pool for every run: prefetch_depth subgraphs in flight from
        # prefetch_workers sampler instances, depth 0 sampling inline. The
        # knobs move work off the critical path; the subgraph sequence is
        # a function of the seed alone.
        self.pool = SubgraphPool(
            self.sampler,
            depth=config.prefetch_depth,
            workers=config.prefetch_workers,
            seed=config.seed,
        )
        self.model = GCN(
            dataset.features.shape[1],
            list(config.hidden_dims),
            dataset.num_classes,
            dropout=config.dropout,
            seed=config.seed,
            dtype=self.policy.dtype,
        )
        self.loss = make_loss(dataset.task)
        self.optimizer = Adam(lr=config.lr, weight_decay=config.weight_decay)
        self.evaluator = Evaluator(dataset)
        self.batches_per_epoch = max(
            1, -(-self.train_graph.num_vertices // budget)
        )

    def close(self) -> None:
        """Shut the subgraph pool down (idempotent): with
        ``prefetch_depth > 0`` it owns a background executor."""
        self.pool.close()

    def __enter__(self) -> "GraphSamplingTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def train_iteration(self, iteration: int, result: TrainResult) -> float:
        """One Algorithm-5 iteration; returns the minibatch loss.

        When :mod:`repro.obs` is enabled, the iteration records a span
        tree — ``trainer.iteration`` with children ``trainer.sample``
        (pool pop + minibatch gather), ``trainer.forward`` and
        ``trainer.backward`` (which includes the optimizer step, its own
        ``trainer.optimizer`` child); the ``prop.forward``/``prop.backward``
        spans of the partitioned propagator nest under forward/backward.
        """
        with span("trainer.iteration") as it_sp:
            with span("trainer.sample"):
                subgraph = self.pool.get()
                propagator = PartitionedPropagator(subgraph.graph)
                feats = self.train_features[subgraph.vertex_map]
                labels = self.train_labels[subgraph.vertex_map]
                loss_w = (
                    self._loss_weights[subgraph.vertex_map]
                    if self._loss_weights is not None
                    else None
                )

            # Meter the iteration's actual kernel dispatches; the captured
            # gemm flop count is what weight application is priced from:
            # 3x the forward count minus the first layer's two input-
            # gradient products, which backward does not run.
            with accounting.capture() as kernel_costs:
                with span("trainer.forward"):
                    logits = self.model.forward(feats, propagator, train=True)
                    batch_loss = self.loss.forward(logits, labels, loss_w)
                with span("trainer.backward"):
                    self.model.backward(
                        self.loss.backward(logits, labels, loss_w)
                    )
                    with span("trainer.optimizer"):
                        self.optimizer.step(self.model.parameter_groups())

            result.iteration_metrics.append(
                IterationMetrics(
                    sampler_stats=dict(subgraph.stats),
                    prop_reports=tuple(propagator.reports),
                    gemm_flops=kernel_costs.gemm_flops,
                    subgraph_vertices=subgraph.num_vertices,
                    subgraph_edges=subgraph.graph.num_edges,
                    spmm_flops=kernel_costs.spmm_flops,
                )
            )
            if obs_enabled():
                it_sp.set(
                    iteration=iteration,
                    vertices=subgraph.num_vertices,
                    edges=subgraph.graph.num_edges,
                )
                obs_metrics.inc("trainer.iterations")
        if obs_enabled():
            # Raw per-iteration wall samples: what the bench-record /
            # bench-gate pipeline runs its statistical tests on.
            duration = getattr(it_sp, "duration", None)
            if duration is not None:
                obs_metrics.observe("trainer.iteration_seconds", duration)
        return batch_loss

    def train(self) -> TrainResult:
        """Run ``config.epochs`` of training; returns per-epoch records and
        the iteration counters the modeled clock is priced from."""
        cfg = self.config
        result = TrainResult()
        wall_total = 0.0
        for epoch in range(cfg.epochs):
            with span("trainer.epoch") as ep_sp:
                t0 = time.perf_counter()
                losses = []
                for _ in range(self.batches_per_epoch):
                    losses.append(self.train_iteration(result.iterations, result))
                    result.iterations += 1
                wall_total += time.perf_counter() - t0
                if obs_enabled():
                    ep_sp.set(epoch=epoch)
                if (epoch + 1) % cfg.eval_every == 0:
                    with span("trainer.eval") as ev_sp:
                        val = self.evaluator.evaluate(self.model, "val")
                    if obs_enabled():
                        # The first sample of a dataset's first run is the
                        # cold fill of full_graph_input (one more SpMM).
                        duration = getattr(ev_sp, "duration", None)
                        if duration is not None:
                            obs_metrics.observe("trainer.evaluate_seconds", duration)
                else:
                    val = None
            result.epochs.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=float(np.mean(losses)),
                    wall_seconds_total=wall_total,
                    val=val,
                )
            )
        return result
