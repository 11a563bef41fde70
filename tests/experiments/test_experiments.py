"""Shape tests for the experiment harness (paper tables/figures).

These assert the *qualitative* claims each artifact must reproduce, on
reduced workloads so the whole file runs in well under a minute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ablations, fig2, fig3, fig4, table1, table2
from repro.experiments.common import format_float, format_table
from repro.graphs import make_dataset


TINY_SCALES = {"ppi": 0.04, "reddit": 0.005}


class TestFormatting:
    def test_format_table_basic(self):
        out = format_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}], title="T"
        )
        assert "T" in out and "a" in out and "2.500" in out

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_float(self):
        assert format_float(1234567) == "1,234,567"
        assert format_float(float("nan")) == "nan"
        assert format_float(0.5) == "0.500"
        assert format_float("x") == "x"


class TestTable1:
    def test_paper_columns_present(self):
        res = table1.run(scales=TINY_SCALES, seed=0)
        rows = res["rows"]
        assert len(rows) == 4
        generated = [r for r in rows if "generated_vertices" in r]
        assert len(generated) == 2
        out = table1.format_results(res)
        assert "Table I" in out


class TestFig2:
    @pytest.fixture(scope="class")
    def results(self):
        dataset = make_dataset("ppi", scale=TINY_SCALES["ppi"], seed=0)
        return fig2.run_dataset(
            dataset, hidden=32, epoch_scale=0.1, seed=0, include_fastgcn=True
        )

    def test_curves_are_time_ordered_f1(self, results):
        assert set(results["curves"]) == {
            "proposed", "graphsage", "batched_gcn", "fastgcn"
        }
        for curves in (results["curves"], results["modeled_curves"]):
            for curve in curves.values():
                times = [t for t, _ in curve]
                assert curve and times == sorted(times)
                assert all(0.0 <= f1 <= 1.0 for _, f1 in curve)

    def test_threshold_is_best_baseline_minus_slack(self, results):
        best = max(
            f1
            for name, curve in results["curves"].items()
            if name != "proposed"
            for _, f1 in curve
        )
        assert results["best_baseline_f1"] == best
        assert results["threshold"] == best - fig2.ACCURACY_SLACK

    def test_modeled_curves_only_for_priced_methods(self, results):
        """FastGCN has no cost model, so no modeled curve."""
        assert set(results["modeled_curves"]) == {
            "proposed", "graphsage", "batched_gcn"
        }

    @pytest.mark.parametrize(
        "curves_key, speedup_key",
        [("curves", "serial_speedup"), ("modeled_curves", "modeled_speedup")],
    )
    def test_speedup_recomputed_from_curves(self, results, curves_key, speedup_key):
        def first_reach(curve):
            return next((t for t, f1 in curve if f1 >= results["threshold"]), None)

        curves = results[curves_key]
        ours = first_reach(curves["proposed"])
        reached = [
            t
            for name, curve in curves.items()
            if name != "proposed" and (t := first_reach(curve)) is not None
        ]
        assert reached  # the best baseline reaches its own threshold
        if ours is None:
            assert results[speedup_key] is None
        else:
            assert results[speedup_key] == min(reached) / ours
        if curves_key == "curves":
            assert results["time_proposed"] == ours
            assert results["time_best_baseline"] == min(reached)

    def test_fastgcn_curve_starts_after_preprocessing(self, monkeypatch):
        """FastGCN's importance distribution is charged before epoch 0."""
        built = []

        class Recorded(fig2.FastGCNTrainer):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(fig2, "FastGCNTrainer", Recorded)
        dataset = make_dataset("ppi", scale=TINY_SCALES["ppi"], seed=0)
        res = fig2.run_dataset(
            dataset, hidden=8, epoch_scale=0.01, seed=0, include_fastgcn=True
        )
        (trainer,) = built
        assert res["curves"]["fastgcn"][0][0] >= trainer.preprocessing_seconds > 0.0


class TestFig3:
    @pytest.fixture(scope="class")
    def results(self):
        return fig3.run(
            datasets=["reddit"],
            scales=TINY_SCALES,
            hidden_dims=(128,),
            iterations=3,
            seed=0,
        )

    def test_iteration_speedup_monotone(self, results):
        rows = [r for r in results["rows"] if r["cores"] in (1, 10, 40)]
        speedups = {r["cores"]: r["iteration_speedup"] for r in rows}
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[1] < speedups[10] < speedups[40]

    def test_overall_speedup_band_at_40(self, results):
        """Paper: ~20x overall at 40 cores; accept a generous band."""
        at40 = next(r for r in results["rows"] if r["cores"] == 40)
        assert 10.0 <= at40["iteration_speedup"] <= 30.0

    def test_weight_app_band(self, results):
        at40 = next(r for r in results["rows"] if r["cores"] == 40)
        assert 13.0 <= at40["weight_speedup"] <= 20.0  # paper ~16x

    def test_featprop_band(self, results):
        at40 = next(r for r in results["rows"] if r["cores"] == 40)
        assert 20.0 <= at40["featprop_speedup"] <= 30.0  # paper ~25x

    def test_breakdown_sums_to_one(self, results):
        for r in results["rows"]:
            total = r["frac_sampling"] + r["frac_featprop"] + r["frac_weight"]
            assert total == pytest.approx(1.0)


class TestFig4:
    @pytest.fixture(scope="class")
    def results(self):
        return fig4.run(
            datasets=["reddit"], scales=TINY_SCALES, num_subgraphs=6, seed=0
        )

    def test_panel_a_monotone_with_knee(self, results):
        rows = {r["p_inter"]: r["sampling_speedup"] for r in results["panel_a"]}
        assert rows[5] > 3.0
        assert rows[40] > rows[20] > rows[10] > rows[5]
        # NUMA knee: efficiency at 40 clearly below efficiency at 20.
        assert rows[40] / 40 < 0.75 * rows[20] / 20

    def test_panel_a_band_at_40(self, results):
        rows = {r["p_inter"]: r["sampling_speedup"] for r in results["panel_a"]}
        assert 10.0 <= rows[40] <= 22.0  # paper reads ~13-15x

    def test_panel_b_avx_band(self, results):
        for r in results["panel_b"]:
            assert 3.0 <= r["avx_speedup"] <= 8.5  # paper: ~4x avg, 4-8 range


class TestTable2:
    @pytest.fixture(scope="class")
    def results(self):
        return table2.run(scale=0.005, hidden=64, iterations=2, seed=0)

    def test_monotone_in_depth(self, results):
        rows = {r["layers"]: r for r in results["rows"]}
        for cores in ("1-core", "40-core"):
            assert rows[1][cores] < rows[2][cores] < rows[3][cores]

    def test_monotone_in_cores(self, results):
        for r in results["rows"]:
            assert r["1-core"] < r["5-core"] < r["20-core"] < r["40-core"]

    def test_depth_explosion_order_of_magnitude(self, results):
        rows = {r["layers"]: r for r in results["rows"]}
        assert rows[3]["1-core"] > 4 * rows[1]["1-core"]


class TestAblations:
    def test_partitioning_two_approx(self):
        res = ablations.run_partitioning(sizes=(1000, 4000), feature_dims=(512,))
        for row in res["rows"]:
            if row["thm2_conditions"]:
                assert row["ratio_vs_ideal"] <= 2.0 + 1e-9
            assert row["ratio_vs_lb"] <= 2.2

    def test_eta_tradeoff(self):
        res = ablations.run_dashboard_eta(etas=(1.5, 3.0), num_subgraphs=2, seed=0)
        rows = {r["eta"]: r for r in res["rows"]}
        # Larger eta: fewer cleanups, more probes per pop, bigger table.
        assert rows[3.0]["cleanups_per_subgraph"] <= rows[1.5]["cleanups_per_subgraph"]
        assert rows[3.0]["probes_per_pop"] >= rows[1.5]["probes_per_pop"]
        assert rows[3.0]["dashboard_KB"] > rows[1.5]["dashboard_KB"]

    def test_degree_cap_rows(self):
        res = ablations.run_degree_cap(num_subgraphs=3, seed=0)
        caps = [r["cap"] for r in res["rows"]]
        assert caps == ["none", 30]
        for r in res["rows"]:
            assert 0.0 <= r["mean_pairwise_jaccard"] <= 1.0

    def test_sampler_comparison_rows(self):
        res = ablations.run_sampler_comparison(epochs=2, seed=0)
        names = {r["sampler"] for r in res["rows"]}
        assert names == {
            "frontier",
            "random_node",
            "random_edge",
            "random_walk",
            "mh_walk",
            "forest_fire",
            "snowball",
        }
        for r in res["rows"]:
            assert 0.0 <= r["degree_ks_vs_full"] <= 1.0
