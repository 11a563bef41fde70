"""Experiment T2 — Table II: speedup vs parallelized GraphSAGE (Reddit).

The paper compares its C++ implementation against the TensorFlow
GraphSAGE for 1/2/3-layer models on 1-40 cores, reporting speedups from
2x (1 layer, 1 core) to 1306x (3 layers, 40 cores). Two effects drive the
table:

1. **Work**: neighbor explosion. GraphSAGE's per-epoch operation count is
   measured here from *actual sampled supports* of our GraphSAGE
   implementation (not an asymptotic formula), and the proposed method's
   cost comes from re-priced metered training runs.
2. **Scaling**: the paper's numbers imply TF GraphSAGE peaks at ~5.4x
   parallel speedup on 40 cores (communication-bound: d_LS more traffic
   per unit compute). We model that as an Amdahl serial fraction
   (``sage_serial_fraction``, default calibrated to 0.18), and multiply by
   a framework-overhead constant (``tf_overhead``) representing the
   Python/TF interpreter gap — both documented calibrations, recorded in
   EXPERIMENTS.md.

Expected shape: speedups grow monotonically both with depth (orders of
magnitude by 3 layers) and with core count.
"""

from __future__ import annotations

import numpy as np

from ..analysis.speedup import amdahl_speedup
from ..baselines.graphsage import GraphSAGETrainer, SageConfig
from ..graphs.datasets import make_dataset
from ..parallel.machine import MachineSpec, xeon_40core
from .common import EXPERIMENT_SCALES, format_table, metered_run
from .modelcosts import graphsage_iteration_cost
from .repricing import speedup_table

__all__ = ["run", "format_results", "sage_epoch_cost"]

DEFAULT_CORES = (1, 5, 10, 20, 40)


def sage_epoch_cost(
    trainer: GraphSAGETrainer,
    *,
    iterations: int,
    machine: MachineSpec,
    rng: np.random.Generator,
) -> float:
    """Measured per-epoch serial cost (cost units) of GraphSAGE.

    Runs ``iterations`` real training iterations, then prices the
    trainer's recorded support sizes with :func:`graphsage_iteration_cost`
    — the one GraphSAGE cost model, on the constants the proposed
    method's side of the ratio is priced with — times the batches of an
    epoch.
    """
    cfg = trainer.config
    n_train = trainer.train_graph.num_vertices
    for _ in range(iterations):
        batch = rng.choice(n_train, size=min(cfg.batch_size, n_train), replace=False)
        trainer.train_iteration(batch)
    batches_per_epoch = -(-n_train // cfg.batch_size)
    return graphsage_iteration_cost(trainer, machine) * batches_per_epoch


def run(
    *,
    scale: float | None = None,
    hidden: int = 128,
    layers_list: tuple[int, ...] = (1, 2, 3),
    cores_list: tuple[int, ...] = DEFAULT_CORES,
    iterations: int = 4,
    tf_overhead: float = 3.0,
    sage_serial_fraction: float = 0.18,
    seed: int = 0,
) -> dict[str, object]:
    """Run the Table II comparison on the Reddit profile."""
    scale = scale if scale is not None else EXPERIMENT_SCALES["reddit"]
    machine = xeon_40core()
    ds = make_dataset("reddit", scale=scale, seed=seed)
    rng = np.random.default_rng(seed)

    rows = []
    detail: dict[int, dict[str, float]] = {}
    for layers in layers_list:
        metrics, gs_batches = metered_run(
            ds, hidden_dims=(hidden,) * layers, iterations=iterations, seed=seed
        )
        # The paper trains GraphSAGE with batch 512 on Reddit's 153k
        # training vertices (~0.33%); keep that ratio so the per-epoch
        # batch count — and with it the neighbor-explosion blow-up —
        # reproduces at reduced graph scale.
        sage_batch = max(8, int(round(ds.train_idx.shape[0] * 512 / 153_000)))
        sage_trainer = GraphSAGETrainer(
            ds,
            SageConfig(
                hidden_dims=(hidden,) * layers,
                fanouts=(25,) + (10,) * (layers - 1),
                batch_size=sage_batch,
                epochs=1,
                seed=seed,
            ),
        )
        sage_serial = tf_overhead * sage_epoch_cost(
            sage_trainer, iterations=iterations, machine=machine, rng=rng
        )

        gs_times = speedup_table(
            metrics, machine, cores_list=list(cores_list), p_intra=8
        )
        row: dict[str, object] = {"layers": layers}
        for cores in cores_list:
            t_gs = gs_times[cores]["total"] * gs_batches
            t_sage = sage_serial / amdahl_speedup(cores, sage_serial_fraction)
            row[f"{cores}-core"] = t_sage / t_gs
        rows.append(row)
        detail[layers] = {
            "gs_epoch_1core": gs_times[1]["total"] * gs_batches,
            "sage_epoch_serial": sage_serial,
        }
    return {"rows": rows, "detail": detail}


def format_results(results: dict[str, object]) -> str:
    """Render the paper-style table for printed output."""
    return format_table(
        results["rows"],  # type: ignore[arg-type]
        title="Table II: speedup of proposed vs parallelized GraphSAGE (Reddit profile)",
    )


if __name__ == "__main__":  # pragma: no cover
    print(format_results(run()))
