"""The Dashboard sampler's raw draws, pinned bit for bit.

``dashboard_golden.json`` was generated at commit b73955d, before the fast
engine's probe rounds were rewritten as fixed array sequences. For every
(point, engine, seed) it holds SHA-256 digests of three things: the raw
``sampled`` pop order a draw returns (not only the induced vertex map),
the draw's stats together with its CostCounter totals, and the generator's
final ``bit_generator.state``. A rewrite that keeps the RNG calls, the
DB/IA layout and the metering keeps all three. Regenerate (only when a
stream change is intended)::

    PYTHONPATH=src python tests/sampling/test_dashboard_golden.py --write
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.experiments.samplerbench import _workload
from repro.graphs.datasets import make_dataset, training_view
from repro.sampling.dashboard import ENGINES, Dashboard, DashboardFrontierSampler

GOLDEN = pathlib.Path(__file__).with_name("dashboard_golden.json")

SEEDS = range(8)

#: point -> (profile, scale, training view?, sampler keywords). ``m16`` /
#: ``m50`` are the e2e operating points of ``ppi_small`` / ``serve_mixed``;
#: ``sampler_bench`` is ``sampler-bench``'s default Reddit workload;
#: ``grow`` sets an ``eta`` small enough that a cleanup alone cannot fit
#: the next append.
POINTS: dict[str, tuple[str, float, bool, dict]] = {
    "m16": ("ppi", 0.08, True, {"frontier_size": 16, "budget": 194}),
    "m50": ("yelp", 0.010, True, {"frontier_size": 50, "budget": 600}),
    "sampler_bench": ("reddit", 0.010, False, {"frontier_size": 291, "budget": 1747}),
    "amazon_cap30": (
        "amazon",
        0.004,
        False,
        {"frontier_size": 40, "budget": 500, "max_entries_per_vertex": 30},
    ),
    "grow": ("ppi", 0.08, True, {"frontier_size": 16, "budget": 194, "eta": 1.05}),
    "round_pops_1": (
        "ppi",
        0.08,
        True,
        {"frontier_size": 16, "budget": 194, "round_pops": 1},
    ),
}


@functools.lru_cache(maxsize=None)
def _graph(profile: str, scale: float, view: bool):
    dataset = make_dataset(profile, scale=scale, seed=0)
    if not view:
        return dataset.graph
    return training_view(dataset, np.random.default_rng(0))[0]


def _sampler(point: str, engine: str) -> DashboardFrontierSampler:
    profile, scale, view, keywords = POINTS[point]
    return DashboardFrontierSampler(
        _graph(profile, scale, view), engine=engine, **keywords
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(point: str, engine: str) -> list[dict]:
    sampler = _sampler(point, engine)
    draw = sampler._draw_fast if engine == "fast" else sampler._draw_reference
    out = []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        sampled, stats, counter = draw(rng)
        meters = {**stats, **dataclasses.asdict(counter)}
        out.append(
            {
                "sampled": _sha(np.ascontiguousarray(sampled, dtype=np.int64).tobytes()),
                "stats": _sha(
                    json.dumps(
                        {k: float(v).hex() for k, v in sorted(meters.items())}
                    ).encode()
                ),
                "rng_state": _sha(
                    json.dumps(rng.bit_generator.state, sort_keys=True).encode()
                ),
            }
        )
    return out


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("point", sorted(POINTS))
def test_draws_match_the_parent(point, engine):
    assert _digests(point, engine) == json.loads(GOLDEN.read_text())[point][engine]


def test_sampler_bench_point_is_the_default_workload():
    _, budget, frontier_size = _workload("reddit", None, 0, None, None)
    keywords = POINTS["sampler_bench"][3]
    assert (frontier_size, budget) == (keywords["frontier_size"], keywords["budget"])


@pytest.mark.parametrize("engine", ENGINES)
def test_grow_point_reaches_grow(engine, monkeypatch):
    grows = []
    original = Dashboard.grow

    def counting(self, new_capacity):
        grows.append(new_capacity)
        return original(self, new_capacity)

    monkeypatch.setattr(Dashboard, "grow", counting)
    _digests("grow", engine)
    assert len(grows) > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(
        json.dumps(
            {p: {e: _digests(p, e) for e in ENGINES} for p in sorted(POINTS)},
            indent=1,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
