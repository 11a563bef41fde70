"""Benchmark X4 — sampler comparison (the paper's future-work section).

Frontier sampling vs simpler samplers, measured on connectivity
preservation (degree-distribution distance, clustering gap, connected
fraction) and downstream GCN validation F1 with the same training budget.
"""

from __future__ import annotations

from repro.experiments import ablations
from repro.experiments.common import format_table


def test_ablation_sampler_comparison(paper_bench):
    results = paper_bench(
        "ablation_samplers",
        lambda: ablations.run_sampler_comparison(epochs=12, seed=0),
        text=lambda r: format_table(
            r["rows"], title="X4: sampler comparison (PPI profile)"
        ),
    )
    rows = {r["sampler"]: r for r in results["rows"]}
    # The paper motivates frontier sampling by connectivity preservation,
    # and explicitly leaves "impact on accuracy of various sampling
    # algorithms" to future work — so the accuracy assertion is
    # competitiveness, not dominance.
    best_f1 = max(r["val_f1_micro"] for r in rows.values())
    assert rows["frontier"]["val_f1_micro"] >= best_f1 - 0.15
    # Connectivity: frontier subgraphs are denser and at least as
    # connected as uniform node samples of the same budget.
    assert (
        rows["frontier"]["subgraph_avg_degree"]
        > rows["random_node"]["subgraph_avg_degree"]
    )
    assert (
        rows["frontier"]["largest_cc_frac"]
        >= rows["random_node"]["largest_cc_frac"]
    )
