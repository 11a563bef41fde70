"""Guard: the Fig. 2 baselines stay one shell, one block stack, one recipe.

Before the shell, ``GraphSAGETrainer``, ``FastGCNTrainer`` and
``BatchedGCNTrainer`` each carried a copy of the epoch loop, the training
view and an evaluator, and the copies drifted (Batched GCN trained on a
different graph than the other three). These checks fail when a copy
grows back: a baseline that defines its own ``train``, a block model with
its own ``forward``/``backward``, or an experiment that writes the
subgraph-budget formula out instead of calling ``paper_budget``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.baselines.base import BlockModel, MinibatchBaseline
from repro.baselines.batched_gcn import BatchedGCNTrainer
from repro.baselines.fastgcn import FastGCNModel, FastGCNTrainer
from repro.baselines.graphsage import GraphSAGEModel, GraphSAGETrainer

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.mark.parametrize("cls", [GraphSAGETrainer, FastGCNTrainer, BatchedGCNTrainer])
def test_baselines_share_the_epoch_loop(cls):
    assert issubclass(cls, MinibatchBaseline)
    assert "train" not in vars(cls)
    assert "train_iteration" in vars(cls) and "full_logits" in vars(cls)


def test_one_epoch_loop_in_the_package():
    sources = [p.read_text() for p in (SRC / "baselines").glob("*.py")]
    assert sum(src.count("def train(") for src in sources) == 1


@pytest.mark.parametrize("cls", [GraphSAGEModel, FastGCNModel])
def test_block_models_share_the_stack(cls):
    assert issubclass(cls, BlockModel)
    assert not {"forward", "backward", "parameter_groups"} & set(vars(cls))


def test_budget_formula_lives_in_common():
    hits = [
        path.name
        for path in sorted((SRC / "experiments").glob("*.py"))
        if "// 4, 1200" in path.read_text()
    ]
    assert hits == ["common.py"]
