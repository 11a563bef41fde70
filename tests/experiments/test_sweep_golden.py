"""Golden pin of the sweeps whose defaults are the paper's one configuration.

X1 (``run_partitioning``), X1b (``run_partitioner_gamma``), X8
(``run_alias_contrast``), X3 (``run_degree_cap``), Fig. 4 on PPI and
Table I each run here at their full defaults: the sweep points, machine
and cache size are module constants, not parameters, so these rows are
what ``repro.cli ablations`` / ``fig4`` / ``table1`` print. They are
modeled or counted, never timed, so they are a pure function of the seed
and pinned bit for bit (floats as ``float.hex``): a constant mistyped in
a refactor fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ablations, fig4, table1

# Per experiment: (column names, rows), floats as float.hex().
GOLDEN = {
    'run_partitioning': (
        ('n', 'f', 'Q_ours', 'gcomm_ours_MB', 'gcomm_ideal_MB', 'gcomm_random_MB',
         'ratio_vs_ideal', 'ratio_vs_lb', 'thm2_conditions'),
        [
            (1000, 128, 40, '0x1.0f7c000000000p+1', '0x1.0153000000000p+0',
             '0x1.0f7c000000000p+1', '0x1.0e165868ed0e1p+1', '0x1.1600000000000p+1', False),
            (1000, 512, 40, '0x1.433e000000000p+2', '0x1.f7a97ffffffffp+1',
             '0x1.433e000000000p+2', '0x1.4897e335fac9dp+0', '0x1.4b00000000000p+0', True),
            (1000, 1024, 40, '0x1.1e9f000000000p+3', '0x1.f5d4bffffffffp+2',
             '0x1.1e9f000000000p+3', '0x1.246dd9048bbd1p+0', '0x1.2580000000000p+0', True),
            (2000, 128, 40, '0x1.0f7c000000000p+2', '0x1.0153000000000p+1',
             '0x1.0f7c000000000p+2', '0x1.0e165868ed0e1p+1', '0x1.1600000000000p+1', False),
            (2000, 512, 40, '0x1.433e000000000p+3', '0x1.f7a97ffffffffp+2',
             '0x1.433e000000000p+3', '0x1.4897e335fac9dp+0', '0x1.4b00000000000p+0', True),
            (2000, 1024, 63, '0x1.33ada00000000p+4', '0x1.f5d4c00000000p+3',
             '0x1.33ada00000000p+4', '0x1.39e9b4e667fe8p+0', '0x1.3b10000000000p+0', True),
            (4000, 128, 40, '0x1.0f7c000000000p+3', '0x1.0153000000000p+2',
             '0x1.0f7c000000000p+3', '0x1.0e165868ed0e1p+1', '0x1.1600000000000p+1', False),
            (4000, 512, 63, '0x1.6d5b400000000p+4', '0x1.f7a9800000000p+3',
             '0x1.6d5b400000000p+4', '0x1.73679db8467bdp+0', '0x1.7620000000000p+0', True),
            (4000, 1024, 125, '0x1.6c70e00000000p+5', '0x1.f7a9800000000p+4',
             '0x1.6c70e00000000p+5', '0x1.72795c72a9032p+0', '0x1.7530000000000p+0', True),
            (8000, 128, 40, '0x1.0f7c000000000p+4', '0x1.0153000000000p+3',
             '0x1.0f7c000000000p+4', '0x1.0e165868ed0e1p+1', '0x1.1600000000000p+1', False),
            (8000, 512, 125, '0x1.dee1c00000000p+5', '0x1.fb53000000000p+4',
             '0x1.dee1c00000000p+5', '0x1.e34ba457b7118p+0', '0x1.ea60000000000p+0', True),
            (8000, 1024, 250, '0x1.dee1c00000000p+6', '0x1.fb53000000000p+5',
             '0x1.dee1c00000000p+6', '0x1.e34ba457b7118p+0', '0x1.ea60000000000p+0', True),
        ],
    ),
    'run_partitioner_gamma': (
        ('parts', 'gamma_lower_bound', 'gamma_random', 'gamma_bfs', 'gamma_greedy'),
        [
            (2, '0x1.0000000000000p-1', '0x1.fc2dd9ca81e91p-1', '0x1.ef715a6d88475p-1',
             '0x1.e68701460cbc8p-1'),
            (4, '0x1.0000000000000p-2', '0x1.dd4b24ef715a7p-1', '0x1.a5e3fae7cd0e0p-1',
             '0x1.908ea59277b8bp-1'),
            (8, '0x1.0000000000000p-3', '0x1.8d884752c93bep-1', '0x1.573e68701460dp-1',
             '0x1.2ad36c423a965p-1'),
        ],
    ),
    'run_alias_contrast': (
        ('frontier_m', 'pops', 'alias_ops', 'dashboard_ops', 'dashboard_advantage'),
        [
            (50, 350, '0x1.16e8000000000p+14', '0x1.21d8000000000p+16', '0x1.ecade304d4874p-3'),
            (200, 1400, '0x1.12ce000000000p+18', '0x1.21d8000000000p+18', '0x1.e56f1826a439fp-1'),
            (1000, 7000, '0x1.abac600000000p+22', '0x1.6a4e000000000p+20',
             '0x1.2e304d4873ecbp+2'),
            (4000, 28000, '0x1.ab5a580000000p+26', '0x1.6a4e000000000p+22',
             '0x1.2df656f1826a4p+4'),
        ],
    ),
    'run_degree_cap': (
        ('cap', 'mean_pairwise_jaccard', 'hub_inclusion_rate', 'vertex_coverage'),
        [
            ('none', '0x1.38c0de1e00226p-3', '0x1.c842108421084p-1', '0x1.4e20fb097226cp-1'),
            (30, '0x1.2dbb0813f80afp-3', '0x1.c000000000000p-1', '0x1.552c590400a3fp-1'),
        ],
    ),
    'fig4_panel_a': (
        ('dataset', 'p_inter', 'sampling_speedup'),
        [
            ('ppi', 1, '0x1.00851e6066e39p+0'),
            ('ppi', 5, '0x1.0bc83139c5fd3p+2'),
            ('ppi', 10, '0x1.e13b8c361ecd7p+2'),
            ('ppi', 20, '0x1.82dd85c8938b0p+3'),
            ('ppi', 30, '0x1.bc3cb51f2a324p+3'),
            ('ppi', 40, '0x1.df0dac9a096a8p+3'),
        ],
    ),
    'fig4_panel_b': (
        ('dataset', 'p_inter', 'avx_speedup'),
        [
            ('ppi', 1, '0x1.3cb1b85948126p+2'),
            ('ppi', 5, '0x1.42f6c5fb1874dp+2'),
            ('ppi', 10, '0x1.4974be151918bp+2'),
            ('ppi', 20, '0x1.53522456daacbp+2'),
            ('ppi', 30, '0x1.5f0ff110a1ba4p+2'),
            ('ppi', 40, '0x1.6675a818cbfadp+2'),
        ],
    ),
    'table1': (
        ('dataset', 'paper_vertices', 'paper_edges', 'attribute_dim', 'num_classes', 'task',
         'generated_vertices', 'generated_edges', 'generated_avg_degree'),
        [
            ('PPI', 14755, 225270, 50, 121, 'M', 1180, 9021, '0x1.e947ae147ae14p+3'),
            ('Reddit', 232965, 11606919, 602, 41, 'S', 2330, 33879, '0x1.d147ae147ae14p+4'),
            ('Yelp', 716847, 6977410, 300, 100, 'M', 2867, 18682, '0x1.a0f5c28f5c28fp+3'),
            ('Amazon', 1598960, 132169734, 200, 107, 'M', 3198, 31733, '0x1.3d9999999999ap+4'),
        ],
    ),
}


def _hex(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


@pytest.fixture(scope="module")
def fig4_ppi():
    return fig4.run(datasets=["ppi"])


@pytest.fixture(scope="module")
def runs(fig4_ppi):
    return {
        "run_partitioning": lambda: ablations.run_partitioning()["rows"],
        "run_partitioner_gamma": lambda: ablations.run_partitioner_gamma()["rows"],
        "run_alias_contrast": lambda: ablations.run_alias_contrast()["rows"],
        "run_degree_cap": lambda: ablations.run_degree_cap()["rows"],
        "fig4_panel_a": lambda: fig4_ppi["panel_a"],
        "fig4_panel_b": lambda: fig4_ppi["panel_b"],
        "table1": lambda: table1.run()["rows"],
    }


@pytest.mark.parametrize("name", list(GOLDEN))
def test_rows_are_bit_identical(runs, name):
    columns, expected = GOLDEN[name]
    rows = runs[name]()
    assert [tuple(row) for row in rows] == [columns] * len(rows)
    assert [tuple(_hex(v) for v in row.values()) for row in rows] == expected
