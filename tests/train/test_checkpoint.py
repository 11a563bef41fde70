"""Tests for model checkpointing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.nn.network import GCN
from repro.train.checkpoint import (
    checkpoint_metadata,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture
def model():
    return GCN(10, [8, 8], 5, seed=3)


class TestRoundtrip:
    def test_save_load_identical(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ckpt")
        assert path.suffix == ".npz"
        fresh = GCN(10, [8, 8], 5, seed=99)
        load_checkpoint(fresh, path)
        for k, v in model.state_dict().items():
            assert np.array_equal(fresh.state_dict()[k], v), k

    def test_metadata(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ckpt.npz")
        meta = checkpoint_metadata(path)
        assert meta["in_dim"] == 10
        assert meta["hidden_dims"] == [8, 8]
        assert meta["num_classes"] == 5
        assert meta["num_parameters"] == model.num_parameters()
        assert "concat" not in meta  # every layer concatenates; nothing to record

    def test_a_header_that_still_names_concat_loads(self, model, tmp_path):
        # The header older checkpoints carry: the same keys plus
        # "concat": true, from when the layer could sum its branches.
        header = {
            "in_dim": 10,
            "num_classes": 5,
            "hidden_dims": [8, 8],
            "concat": True,
            "num_parameters": model.num_parameters(),
        }
        path = tmp_path / "old.npz"
        meta = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
        np.savez(path, __meta__=meta, **model.state_dict())
        fresh = load_checkpoint(GCN(10, [8, 8], 5, seed=99), path)
        for k, v in model.state_dict().items():
            assert np.array_equal(fresh.state_dict()[k], v), k

    def test_architecture_mismatch_rejected(self, model, tmp_path):
        path = save_checkpoint(model, tmp_path / "ckpt")
        wrong = GCN(10, [8], 5, seed=0)
        with pytest.raises(ValueError, match="mismatch"):
            load_checkpoint(wrong, path)

    def test_not_a_checkpoint(self, tmp_path):
        bogus = tmp_path / "x.npz"
        np.savez(bogus, a=np.zeros(3))
        with pytest.raises(ValueError, match="missing metadata"):
            checkpoint_metadata(bogus)

    def test_predictions_preserved(self, model, tmp_path, reddit_small):
        from repro.propagation.spmm import MeanAggregator

        agg = MeanAggregator(reddit_small.graph)
        model2 = GCN(
            reddit_small.attribute_dim, [8], reddit_small.num_classes, seed=1
        )
        before = model2.forward(reddit_small.features, agg, train=False)
        path = save_checkpoint(model2, tmp_path / "m")
        fresh = GCN(
            reddit_small.attribute_dim, [8], reddit_small.num_classes, seed=42
        )
        load_checkpoint(fresh, path)
        after = fresh.forward(reddit_small.features, agg, train=False)
        assert np.allclose(before, after)
