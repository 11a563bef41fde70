"""The training step, pinned: losses, validation F1 and weights per seed.

``step_golden.json`` was generated at commit b7bb8f3 — the last one where
``backward`` computed the input-feature gradient, accumulated every
weight gradient into a zero-filled buffer and replayed each propagation
pass as ``Q`` column chunks. Dropping dead work may not move a single
bit of what a seed trains: for every trainer (the graph-sampling trainer
under four configurations, and the three Fig. 2 baselines) 20 iterations
must reproduce the per-iteration losses, the validation F1 after
iterations 10 and 20 and the SHA-256 of every parameter. The corpora are
small enough that OpenBLAS runs each product on one thread (a threaded
GEMM splits its reduction, so larger cases would pin the host's core
count too; these read the same under ``OPENBLAS_NUM_THREADS`` 1 and 2).
Regenerate (only when a change to the trained numbers is intended)::

    PYTHONPATH=src python tests/train/test_step_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.baselines.batched_gcn import BatchedGCNConfig, BatchedGCNTrainer
from repro.baselines.fastgcn import FastGCNConfig, FastGCNTrainer
from repro.baselines.graphsage import GraphSAGETrainer, SageConfig
from repro.graphs import make_dataset
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer, TrainResult

GOLDEN = pathlib.Path(__file__).with_name("step_golden.json")
ITERATIONS = 20
EVAL_AT = (10, 20)

_GS = dict(hidden_dims=(16, 16), frontier_size=20, budget=120, lr=0.01, seed=3)

#: name -> (dataset profile, scale, trainer class, config)
CASES = {
    "gs_single_label": ("reddit", 0.005, GraphSamplingTrainer, TrainConfig(**_GS)),
    "gs_multi_label_dropout_decay": (
        "ppi",
        0.04,
        GraphSamplingTrainer,
        TrainConfig(**_GS, dropout=0.2, weight_decay=1e-4),
    ),
    "gs_saint_rw": (
        "ppi",
        0.04,
        GraphSamplingTrainer,
        TrainConfig(**_GS, sampler_family="rw", loss_norm="saint", norm_subgraphs=8),
    ),
    "gs_fast_policy": (
        "reddit",
        0.005,
        GraphSamplingTrainer,
        TrainConfig(**_GS, dtype_policy="fast"),
    ),
    "graphsage": (
        "ppi",
        0.04,
        GraphSAGETrainer,
        SageConfig(hidden_dims=(16, 16), fanouts=(5, 3), batch_size=64, seed=3),
    ),
    "fastgcn": (
        "reddit",
        0.005,
        FastGCNTrainer,
        FastGCNConfig(hidden_dims=(16, 16), layer_sizes=(80, 80), batch_size=64, seed=3),
    ),
    "batched_gcn": (
        "ppi",
        0.02,
        BatchedGCNTrainer,
        BatchedGCNConfig(hidden_dims=(16, 16), batch_size=64, seed=3),
    ),
}


def _weights_digest(model) -> str:
    """SHA-256 over every parameter, in ``parameter_groups()`` order (the
    arrays ``state_dict()`` copies, for the models that have one)."""
    sha = hashlib.sha256()
    for i, (params, _) in enumerate(model.parameter_groups()):
        for name in sorted(params):
            sha.update(f"{i}.{name}:{params[name].dtype}".encode())
            sha.update(params[name].tobytes())
    return sha.hexdigest()


def _val_f1(trainer) -> float:
    if hasattr(trainer, "evaluator"):
        return trainer.evaluator.evaluate(trainer.model, "val").f1_micro
    return trainer.evaluate("val").f1_micro


def _baseline_batches(trainer):
    """The batches ``train()`` would draw, one epoch permutation at a time."""
    n_train = trainer.train_graph.num_vertices
    size = trainer.config.batch_size
    while True:
        order = trainer.rng.permutation(n_train)
        for lo in range(0, n_train, size):
            yield order[lo : lo + size]


def _run(name: str) -> dict:
    profile, scale, trainer_cls, config = CASES[name]
    dataset = make_dataset(profile, scale=scale, seed=11)
    trainer = trainer_cls(dataset, config)
    losses, val_f1 = [], {}
    result, batches = TrainResult(), _baseline_batches(trainer)
    try:
        for i in range(ITERATIONS):
            if trainer_cls is GraphSamplingTrainer:
                loss = trainer.train_iteration(i, result)
            else:
                loss = trainer.train_iteration(next(batches))
            losses.append(float(loss))
            if i + 1 in EVAL_AT:
                val_f1[str(i + 1)] = float(_val_f1(trainer))
    finally:
        if hasattr(trainer, "close"):
            trainer.close()
    return {
        "losses": losses,
        "val_f1": val_f1,
        "weights_sha256": _weights_digest(trainer.model),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_matches_the_parent(name):
    # json round-trips a float64 through its repr, so == is bit equality.
    assert _run(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(
        json.dumps({name: _run(name) for name in sorted(CASES)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
