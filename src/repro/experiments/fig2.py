"""Experiment F2 — Figure 2: accuracy (F1-micro) vs sequential training time.

Trains the proposed graph-sampling GCN and the baselines (GraphSAGE,
Batched GCN, optionally FastGCN) single-threaded on each dataset profile,
collecting (cumulative wall seconds, validation F1) curves, then applies
the paper's speedup rule: with ``a0`` the best baseline accuracy, the
threshold is ``a0 - 0.0025`` and the serial training speedup is the ratio
of times to first reach that threshold (best baseline over proposed).

Paper shapes to expect: GraphSAGE is the strongest baseline; the proposed
method reaches the threshold 1.9x-7.8x faster serially and matches or
exceeds final accuracy on every dataset.
"""

from __future__ import annotations

from ..baselines.batched_gcn import BatchedGCNConfig, BatchedGCNTrainer
from ..baselines.fastgcn import FastGCNConfig, FastGCNTrainer
from ..baselines.graphsage import GraphSAGETrainer, SageConfig
from ..graphs.datasets import Dataset, make_dataset
from ..parallel.machine import xeon_40core
from ..train.config import TrainConfig
from ..train.trainer import GraphSamplingTrainer, TrainResult
from .common import EXPERIMENT_SCALES, format_table, paper_budget
from .modelcosts import batched_gcn_iteration_cost, graphsage_iteration_cost
from .repricing import cumulative_time

__all__ = ["run", "run_dataset", "format_results", "ACCURACY_SLACK"]

ACCURACY_SLACK = 0.0025  # the paper's allowed stochastic variance

# Per-dataset training recipes for the proposed method:
# (proposed epochs, baseline epochs, dropout, weight decay, lr).
# The multi-label profiles need regularization: frontier subgraphs are
# sparser than the full graph, so the unregularized model leans on the
# self-feature path and overfits; dropout + weight decay restore the
# paper's accuracy parity (the paper's reference implementations tune
# per-dataset hyperparameters the same way).
RECIPES: dict[str, tuple[int, int, float, float, float]] = {
    "ppi": (120, 30, 0.2, 1e-3, 0.01),
    "reddit": (16, 6, 0.0, 0.0, 0.005),
    "yelp": (90, 10, 0.3, 1e-3, 0.02),
    "amazon": (70, 10, 0.3, 1e-3, 0.02),
}


def _curve(result: TrainResult, clock=lambda rec: rec.wall_seconds_total):
    """(time on ``clock``, validation F1) at every evaluated epoch."""
    return [(clock(rec), rec.val.f1_micro) for rec in result.epochs if rec.val is not None]


def _time_to_threshold(
    curve: list[tuple[float, float]], threshold: float
) -> float | None:
    for t, f1 in curve:
        if f1 >= threshold:
            return t
    return None


def _speedup(
    curves: dict[str, list[tuple[float, float]]], threshold: float
) -> tuple[float | None, float | None, float | None]:
    """Times at which ``proposed`` and the fastest baseline first reach
    ``threshold`` on the curves' clock, and their ratio (baseline over
    proposed); ``None`` where a threshold is never reached."""
    times = {name: _time_to_threshold(c, threshold) for name, c in curves.items()}
    t_ours = times.pop("proposed")
    t_base = min((t for t in times.values() if t is not None), default=None)
    ratio = t_base / t_ours if (t_ours is not None and t_base is not None) else None
    return t_ours, t_base, ratio


def run_dataset(
    dataset: Dataset,
    *,
    hidden: int = 128,
    epoch_scale: float = 1.0,
    seed: int = 0,
    include_fastgcn: bool = False,
) -> dict[str, object]:
    """Figure 2 for one dataset; returns curves and the speedup row."""
    budget = paper_budget(dataset.train_idx.shape[0])
    hidden_dims = (hidden, hidden)
    # Multi-label sigmoid heads train with larger steps than softmax heads
    # (the per-class gradients are sparse); applied uniformly to every
    # method so the comparison stays fair.
    lr_baseline = 0.02 if dataset.task == "multi" else 0.01
    prop_epochs, base_epochs, dropout, weight_decay, lr_proposed = RECIPES.get(
        dataset.name, (20, 8, 0.0, 0.0, 0.02 if dataset.task == "multi" else 0.005)
    )
    prop_epochs = max(int(round(prop_epochs * epoch_scale)), 2)
    base_epochs = max(int(round(base_epochs * epoch_scale)), 2)
    machine = xeon_40core()

    with GraphSamplingTrainer(
        dataset,
        TrainConfig(
            hidden_dims=hidden_dims,
            frontier_size=max(budget // 12, 16),
            budget=budget,
            lr=lr_proposed,
            dropout=dropout,
            weight_decay=weight_decay,
            epochs=prop_epochs,
            eval_every=1,
            seed=seed,
        ),
    ) as proposed:
        proposed_result = proposed.train()
    curves = {"proposed": _curve(proposed_result)}
    # The serial run on the modeled machine: 1 core, scalar sampler, the
    # pool's sampler instances; an epoch ends after its last iteration.
    clock = cumulative_time(
        proposed_result.iteration_metrics,
        machine,
        cores=1,
        p_intra=1,
        instances=proposed.pool.instances,
    )
    per_epoch = proposed.batches_per_epoch
    modeled = {
        "proposed": _curve(proposed_result, lambda rec: clock[(rec.epoch + 1) * per_epoch - 1])
    }

    # name -> (trainer class, config, modeled per-iteration cost or None).
    # Every baseline gets the same architecture, batch size, step size and
    # epochs; FastGCN has no cost model, so it has no modeled curve.
    shared = dict(
        hidden_dims=hidden_dims,
        batch_size=256,
        lr=lr_baseline,
        epochs=base_epochs,
        eval_every=1,
        seed=seed,
    )
    fanouts = (25,) + (10,) * (len(hidden_dims) - 1)
    baselines = {
        "graphsage": (
            GraphSAGETrainer,
            SageConfig(**shared, fanouts=fanouts),
            graphsage_iteration_cost,
        ),
        "batched_gcn": (
            BatchedGCNTrainer,
            BatchedGCNConfig(**shared),
            batched_gcn_iteration_cost,
        ),
    }
    if include_fastgcn:
        layer_sizes = (400,) * len(hidden_dims)
        baselines["fastgcn"] = (
            FastGCNTrainer,
            FastGCNConfig(**shared, layer_sizes=layer_sizes),
            None,
        )
    for name, (trainer_cls, config, iteration_cost) in baselines.items():
        trainer = trainer_cls(dataset, config)
        result = trainer.train()
        curves[name] = _curve(result)
        if iteration_cost is not None:
            batches = -(-trainer.train_graph.num_vertices // config.batch_size)
            epoch_cost = iteration_cost(trainer, machine) * batches
            modeled[name] = _curve(result, lambda rec: epoch_cost * (rec.epoch + 1))

    a0 = max(f1 for name, c in curves.items() if name != "proposed" for _, f1 in c)
    threshold = a0 - ACCURACY_SLACK
    t_ours, t_base, speedup = _speedup(curves, threshold)
    # Modeled (work-based) speedup: same threshold, but the x-axis is the
    # machine cost model applied uniformly to every method — the quantity
    # that survives graph down-scaling (see modelcosts docstring).
    _, _, modeled_speedup = _speedup(modeled, threshold)
    return {
        "dataset": dataset.name,
        "curves": curves,
        "modeled_curves": modeled,
        "best_baseline_f1": a0,
        "proposed_final_f1": max(f1 for _, f1 in curves["proposed"]),
        "threshold": threshold,
        "time_proposed": t_ours,
        "time_best_baseline": t_base,
        "serial_speedup": speedup,
        "modeled_speedup": modeled_speedup,
    }


def run(
    *,
    datasets: list[str] | None = None,
    hidden: int = 128,
    epoch_scale: float = 1.0,
    seed: int = 0,
) -> dict[str, object]:
    """Run the Figure 2 comparison (GS-GCN, GraphSAGE, Batched GCN) on
    the requested dataset profiles at their experiment scales."""
    per_dataset = []
    for name in datasets or list(EXPERIMENT_SCALES):
        ds = make_dataset(name, scale=EXPERIMENT_SCALES[name], seed=seed)
        per_dataset.append(
            run_dataset(ds, hidden=hidden, epoch_scale=epoch_scale, seed=seed)
        )
    return {"results": per_dataset}


def format_results(results: dict[str, object]) -> str:
    """Render the paper-style table for printed output."""
    rows = []
    for r in results["results"]:  # type: ignore[union-attr]
        rows.append(
            {
                "dataset": r["dataset"],
                "best_baseline_f1": r["best_baseline_f1"],
                "proposed_f1": r["proposed_final_f1"],
                "threshold": r["threshold"],
                "t_baseline_s": r["time_best_baseline"],
                "t_proposed_s": r["time_proposed"],
                "wall_speedup": r["serial_speedup"],
                "modeled_speedup": r["modeled_speedup"],
            }
        )
    return format_table(
        rows, title="Figure 2: time-accuracy (serial) and speedup at threshold"
    )
