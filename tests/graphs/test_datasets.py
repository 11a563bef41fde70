"""Tests for dataset profiles and generation (Table I substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.datasets import PROFILES, Dataset, make_dataset, table1_rows


class TestProfiles:
    def test_all_four_present(self):
        assert set(PROFILES) == {"ppi", "reddit", "yelp", "amazon"}

    def test_table1_published_stats(self):
        """The profile constants are the paper's Table I, verbatim."""
        p = PROFILES["ppi"]
        assert (p.full_num_vertices, p.full_num_edges) == (14_755, 225_270)
        assert (p.attribute_dim, p.num_classes, p.task) == (50, 121, "multi")
        r = PROFILES["reddit"]
        assert (r.full_num_vertices, r.full_num_edges) == (232_965, 11_606_919)
        assert (r.attribute_dim, r.num_classes, r.task) == (602, 41, "single")
        y = PROFILES["yelp"]
        assert (y.full_num_vertices, y.full_num_edges) == (716_847, 6_977_410)
        assert (y.attribute_dim, y.num_classes, y.task) == (300, 100, "multi")
        a = PROFILES["amazon"]
        assert (a.full_num_vertices, a.full_num_edges) == (1_598_960, 132_169_734)
        assert (a.attribute_dim, a.num_classes, a.task) == (200, 107, "multi")

    def test_full_avg_degree(self):
        r = PROFILES["reddit"]
        assert r.full_avg_degree == pytest.approx(99.65, abs=0.1)


class TestMakeDataset:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            make_dataset("citeseer")

    @pytest.mark.parametrize("name", list(PROFILES))
    def test_generation_invariants(self, name):
        ds = make_dataset(name, scale=0.003 if name != "ppi" else 0.03, seed=1)
        profile = PROFILES[name]
        assert ds.attribute_dim == profile.attribute_dim
        assert ds.num_classes == profile.num_classes
        assert ds.task == profile.task
        assert ds.graph.degrees.min() >= 1
        assert ds.graph.is_symmetric()
        # Splits partition the vertex set.
        total = ds.train_idx.size + ds.val_idx.size + ds.test_idx.size
        assert total == ds.num_vertices
        if profile.task == "multi":
            assert ds.labels.shape == (ds.num_vertices, profile.num_classes)
        else:
            assert ds.labels.shape == (ds.num_vertices,)

    def test_scale_controls_size(self):
        small = make_dataset("ppi", scale=0.02, seed=0)
        large = make_dataset("ppi", scale=0.06, seed=0)
        assert large.num_vertices == pytest.approx(3 * small.num_vertices, rel=0.05)

    def test_determinism(self):
        a = make_dataset("yelp", scale=0.002, seed=9)
        b = make_dataset("yelp", scale=0.002, seed=9)
        assert np.array_equal(a.graph.indices, b.graph.indices)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_seed_changes_instance(self):
        a = make_dataset("yelp", scale=0.002, seed=1)
        b = make_dataset("yelp", scale=0.002, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_degree_cap(self):
        capped = make_dataset("reddit", scale=0.004, seed=0, avg_degree_cap=20.0)
        assert capped.graph.average_degree <= 22.0

    def test_amazon_skew(self):
        ds = make_dataset("amazon", scale=0.002, seed=0)
        degs = ds.graph.degrees
        # Heavy-tailed: max degree an order of magnitude above the mean.
        assert degs.max() > 8 * degs.mean()

    def test_split_fractions(self):
        ds = make_dataset("ppi", scale=0.05, seed=0, train_frac=0.5, val_frac=0.25)
        n = ds.num_vertices
        assert ds.train_idx.size == pytest.approx(0.5 * n, abs=2)
        assert ds.val_idx.size == pytest.approx(0.25 * n, abs=2)


class TestDatasetValidation:
    def test_split_overlap_rejected(self, ppi_small):
        ds = ppi_small
        with pytest.raises(ValueError, match="overlap"):
            Dataset(
                name="bad",
                graph=ds.graph,
                features=ds.features,
                labels=ds.labels,
                train_idx=ds.train_idx,
                val_idx=ds.train_idx[:1],
                test_idx=ds.test_idx,
                task=ds.task,
                num_classes=ds.num_classes,
            )

    def test_feature_rows_checked(self, ppi_small):
        ds = ppi_small
        with pytest.raises(ValueError, match="features"):
            Dataset(
                name="bad",
                graph=ds.graph,
                features=ds.features[:-1],
                labels=ds.labels,
                train_idx=ds.train_idx,
                val_idx=ds.val_idx,
                test_idx=ds.test_idx,
                task=ds.task,
                num_classes=ds.num_classes,
            )


class TestTable1Rows:
    def test_rows_without_datasets(self):
        rows = table1_rows()
        assert len(rows) == 4
        assert rows[0]["paper_vertices"] == 14_755
        assert "generated_vertices" not in rows[0]

    def test_rows_with_datasets(self, ppi_small):
        rows = table1_rows({"ppi": ppi_small})
        ppi_row = next(r for r in rows if r["dataset"] == "PPI")
        assert ppi_row["generated_vertices"] == ppi_small.num_vertices
