"""Generated corpora, pinned: one small instance per Table-I profile.

``corpus_golden.json`` was generated at commit b7bb8f3, where
``smooth_features`` gathered ``out[graph.indices]`` and reduced it with
``np.add.at``. Routing the same mean aggregation through
``kernels.ops.spmm`` keeps each row's summation order, so the features —
and with them every trained number downstream — must not move by a bit.
Regenerate (only when a change to the corpora is intended)::

    PYTHONPATH=src python tests/graphs/test_corpus_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.graphs import make_dataset

GOLDEN = pathlib.Path(__file__).with_name("corpus_golden.json")

#: profile -> scale of its pinned instance (a few hundred vertices each)
SCALES = {"ppi": 0.04, "reddit": 0.005, "yelp": 0.001, "amazon": 0.0004}


def _digest(name: str) -> dict:
    dataset = make_dataset(name, scale=SCALES[name], seed=11)
    sha = hashlib.sha256()
    for array in (dataset.graph.indptr, dataset.graph.indices, dataset.labels):
        sha.update(np.ascontiguousarray(array).tobytes())
    return {
        "vertices": dataset.num_vertices,
        "features_sha256": hashlib.sha256(dataset.features.tobytes()).hexdigest(),
        "graph_labels_sha256": sha.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(SCALES))
def test_corpus_matches_the_parent(name):
    assert _digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(
        json.dumps({name: _digest(name) for name in sorted(SCALES)}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
