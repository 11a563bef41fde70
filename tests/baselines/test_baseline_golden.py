"""The three Fig. 2 baselines through their public ``train()``, pinned.

``baseline_golden.json`` was generated at commit e09a0c8 — the last one
where ``GraphSAGETrainer``, ``FastGCNTrainer`` and ``BatchedGCNTrainer``
each carried their own epoch loop, training-view set-up and evaluator.
Moving those into one shell may not move a bit of what a seed trains: for
each trainer, on a single-label and a multi-label profile, three epochs
must reproduce every epoch's mean training loss, validation loss and
validation F1, the final test F1 (all as ``float.hex()``) and the
iteration count. Neither profile strands a training vertex at these
scales, so Batched GCN — which did not patch stranded vertices before the
shell — is pinned with the others.

The numbers depend on how many threads OpenBLAS runs one call on (a
threaded product may differ in the last ulp), so the cases run with one
(the ``blas_one_thread`` fixture) and the file was re-pinned at one
thread (commit 09fa8cc's trainers; 3 of the 6 cases moved in a last ulp
from the threaded numbers first recorded). Regenerate (only when a change
to the trained numbers is intended)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/baselines/test_baseline_golden.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

from repro.baselines.batched_gcn import BatchedGCNConfig, BatchedGCNTrainer
from repro.baselines.fastgcn import FastGCNConfig, FastGCNTrainer
from repro.baselines.graphsage import GraphSAGETrainer, SageConfig
from repro.graphs import make_dataset
from repro.train.config import TrainConfig
from repro.train.trainer import GraphSamplingTrainer

GOLDEN = pathlib.Path(__file__).with_name("baseline_golden.json")
PROFILES = {"reddit": 0.005, "ppi": 0.04}
_COMMON = dict(hidden_dims=(32, 32), batch_size=64, epochs=3, seed=3)

#: name -> (trainer class, config)
TRAINERS = {
    "graphsage": (GraphSAGETrainer, SageConfig(**_COMMON, fanouts=(5, 3))),
    "fastgcn": (FastGCNTrainer, FastGCNConfig(**_COMMON, layer_sizes=(100, 100))),
    "batched_gcn": (BatchedGCNTrainer, BatchedGCNConfig(**_COMMON)),
}
CASES = [f"{t}-{p}" for t in TRAINERS for p in PROFILES]


def _run(case: str) -> dict:
    name, profile = case.split("-")
    trainer_cls, config = TRAINERS[name]
    dataset = make_dataset(profile, scale=PROFILES[profile], seed=11)
    trainer = trainer_cls(dataset, config)
    result = trainer.train()
    return {
        "train_loss": [float(r.train_loss).hex() for r in result.epochs],
        "val_loss": [float(r.val.loss).hex() for r in result.epochs],
        "val_f1_micro": [float(r.val.f1_micro).hex() for r in result.epochs],
        "test_f1_micro": float(trainer.evaluate("test").f1_micro).hex(),
        "iterations": result.iterations,
    }


@pytest.mark.usefixtures("blas_one_thread")
@pytest.mark.parametrize("case", CASES)
def test_baseline_trains_the_parents_bits(case):
    assert _run(case) == json.loads(GOLDEN.read_text())[case]


def test_all_four_methods_train_on_one_graph():
    """``ppi`` @ 0.08 strands a training vertex: every method gets the
    same patched training graph from one seed."""
    dataset = make_dataset("ppi", scale=0.08, seed=0)
    induced, _ = dataset.graph.induced_subgraph(dataset.train_idx)
    assert induced.degrees.min() == 0  # the case is not vacuous
    trainers = [
        GraphSamplingTrainer(dataset, TrainConfig(hidden_dims=(8, 8), seed=5)),
        GraphSAGETrainer(dataset, SageConfig(hidden_dims=(8, 8), seed=5)),
        FastGCNTrainer(dataset, FastGCNConfig(hidden_dims=(8, 8), seed=5)),
        BatchedGCNTrainer(dataset, BatchedGCNConfig(hidden_dims=(8, 8), seed=5)),
    ]
    trainers[0].close()
    first = trainers[0].train_graph
    for trainer in trainers:
        graph = trainer.train_graph
        assert graph.degrees.min() >= 1
        assert np.array_equal(graph.indptr, first.indptr)
        assert np.array_equal(graph.indices, first.indices)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps({c: _run(c) for c in CASES}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
