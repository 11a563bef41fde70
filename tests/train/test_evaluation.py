"""Tests for full-graph evaluation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.graphs import make_dataset
from repro.kernels import accounting
from repro.nn.loss import make_loss
from repro.nn.metrics import f1_micro
from repro.nn.network import GCN
from repro.propagation.spmm import MeanAggregator
from repro.train.embedding import compute_embeddings
from repro.train.evaluation import Evaluator


class TestEvaluator:
    def test_matches_manual_computation(self, reddit_small):
        ds = reddit_small
        model = GCN(ds.attribute_dim, [8], ds.num_classes, seed=0)
        ev = Evaluator(ds)
        res = ev.evaluate(model, "val")

        logits = model.forward(ds.features, MeanAggregator(ds.graph), train=False)
        loss = make_loss(ds.task)
        manual_f1 = f1_micro(
            ds.labels[ds.val_idx],
            loss.predict(logits[ds.val_idx]),
            ds.num_classes,
        )
        assert res.f1_micro == pytest.approx(manual_f1)

    def test_all_splits(self, reddit_small):
        model = GCN(reddit_small.attribute_dim, [8], reddit_small.num_classes, seed=0)
        ev = Evaluator(reddit_small)
        for split in ("train", "val", "test"):
            res = ev.evaluate(model, split)
            assert res.split == split
            assert np.isfinite(res.loss)

    def test_unknown_split(self, reddit_small):
        model = GCN(reddit_small.attribute_dim, [8], reddit_small.num_classes, seed=0)
        with pytest.raises(ValueError, match="unknown split"):
            Evaluator(reddit_small).evaluate(model, "dev")

    def test_multilabel_dataset(self, ppi_small):
        model = GCN(ppi_small.attribute_dim, [8], ppi_small.num_classes, seed=0)
        res = Evaluator(ppi_small).evaluate(model, "test")
        assert 0.0 <= res.f1_micro <= 1.0
        assert 0.0 <= res.f1_macro <= 1.0


def _fresh(dataset):
    """The same corpus as a new ``Dataset`` object: nothing memoized for it."""
    return dataclasses.replace(dataset)


def _oracle_logits(model, dataset):
    """Every layer through ``layer.forward`` with a freshly computed
    aggregate, nothing shared with ``full_graph_input``."""
    aggregator = MeanAggregator(dataset.graph)
    h = np.array(dataset.features, dtype=model.dtype)
    for layer in model.layers:
        h = layer.forward(h, aggregator, train=False, h_agg=aggregator.forward(h))
    return model.head.forward(h, train=False)


class TestSharedInput:
    def test_normalized_model_inference_matches_layer_forward(self, ppi_small):
        ds = _fresh(ppi_small)
        model = GCN(ds.attribute_dim, [32, 32], ds.num_classes, seed=3)
        for layer in model.layers:  # biases start at zero: make them count
            for name in ("b_neigh", "b_self"):
                layer.params[name][...] = np.linspace(-0.5, 0.5, layer.out_dim)
        expected = _oracle_logits(model, ds)
        ev = Evaluator(ds)
        cold = ev.full_logits(model)
        warm = ev.full_logits(model)
        assert np.array_equal(cold, expected)
        assert np.array_equal(warm, expected)
        emb = compute_embeddings(model, ds)
        assert np.array_equal(model.head.forward(emb, train=False), expected)

    @pytest.mark.parametrize("hidden", [(8, 8), (8, 8, 8)])
    @pytest.mark.parametrize("profile", ["ppi", "reddit", "yelp", "amazon"])
    def test_equal_to_uncached_pass_on_every_profile(self, profile, hidden):
        ds = make_dataset(profile, scale=0.002, seed=5)
        model = GCN(ds.attribute_dim, list(hidden), ds.num_classes, seed=1)
        aggregator = MeanAggregator(ds.graph)
        logits = model.forward(ds.features, aggregator, train=False)
        emb = model.embeddings(ds.features, aggregator)
        for _ in range(2):  # cold, then warm
            assert np.array_equal(Evaluator(ds).full_logits(model), logits)
            assert np.array_equal(compute_embeddings(model, ds), emb)

    @pytest.mark.parametrize("hidden", [(8, 8), (8, 8, 8)])
    @pytest.mark.parametrize("call", ["evaluate", "embed"])
    def test_warm_pass_skips_the_input_spmm(self, reddit_small, call, hidden):
        ds = _fresh(reddit_small)
        model = GCN(ds.attribute_dim, list(hidden), ds.num_classes, seed=0)
        evaluator = Evaluator(ds)

        def run():
            with accounting.capture() as seen:
                if call == "evaluate":
                    evaluator.evaluate(model, "val")
                else:
                    compute_embeddings(model, ds)
            return seen

        cold, warm = run(), run()
        assert cold.spmm_calls == len(hidden)
        assert warm.spmm_calls == len(hidden) - 1
        assert cold.spmm_flops - warm.spmm_flops == (
            2.0 * ds.graph.num_edges_directed * ds.attribute_dim
        )
        assert warm.gemm_calls == cold.gemm_calls
        assert warm.gemm_flops == cold.gemm_flops

    def test_training_pass_refuses_an_input_aggregate(self, ppi_small):
        model = GCN(ppi_small.attribute_dim, [4], ppi_small.num_classes, dropout=0.5)
        aggregator = MeanAggregator(ppi_small.graph)
        with pytest.raises(ValueError, match="train=False"):
            model.forward(
                ppi_small.features, aggregator,
                input_aggregate=aggregator.forward(ppi_small.features),
            )
