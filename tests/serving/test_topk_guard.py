"""Guard: the serving package has one top-k.

``repro.serving.index._topk_desc`` is the only place under
``src/repro/serving`` that partitions similarities; the brute-force
scan, the cluster index (probe selection and candidate top-k), the
shard merge and the router all call it. A second hand-written
``argpartition`` would be a second tie order to keep in step, so this
AST scan fails on one, the way ``tests/kernels/test_kernel_guard.py``
fails on a raw matmul.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from repro.serving.index import _topk_desc, _topk_rows, merge_topk

SERVING = Path(__file__).resolve().parents[2] / "src" / "repro" / "serving"


def _argpartition_sites(path: Path) -> list[str]:
    """``<file>:<enclosing function>`` of every ``argpartition`` use."""
    sites: list[str] = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name == "argpartition":
            sites.append(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return sites


def test_argpartition_lives_in_one_function():
    assert SERVING.is_dir(), f"source tree not found at {SERVING}"
    sites = [s for path in sorted(SERVING.rglob("*.py")) for s in _argpartition_sites(path)]
    assert sites == ["index.py:_topk_desc"], sites


def test_detector_sees_both_spellings(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numpy as np\n"
        "from numpy import argpartition\n"
        "def f(x):\n"
        "    return np.argpartition(x, 1)\n"
        "def g(x):\n"
        "    return x.argpartition(1), argpartition(x, 1)\n"
    )
    assert _argpartition_sites(sample) == ["sample.py:f", "sample.py:g", "sample.py:g"]


def test_tie_order_is_argpartition_then_argsort():
    # The helper's one documented property, on rows full of exact ties
    # (what ``cosine_nearest_neighbors`` sees on duplicated embeddings).
    rng = np.random.default_rng(0)
    sims = rng.integers(0, 4, size=(7, 40)).astype(np.float64)
    for k in (1, 5, 40):
        part = np.argpartition(-sims, kth=k - 1, axis=1)[:, :k]
        row = np.arange(sims.shape[0])[:, None]
        want = part[row, np.argsort(-sims[row, part], axis=1)]
        assert np.array_equal(_topk_desc(sims, k), want)
        assert np.array_equal(np.sort(_topk_desc(sims, k, ranked=False)), np.sort(part))
        cols, values = _topk_rows(sims, k)
        assert np.array_equal(cols, want) and np.array_equal(values, sims[row, want])
    # One row through the merge: same scheme, ids instead of columns.
    ids = rng.permutation(40)
    got_ids, got_sims = merge_topk([ids[:25], ids[25:]], [sims[0, :25], sims[0, 25:]], 5)
    want = np.argpartition(-sims[0], kth=4)[:5]
    want = want[np.argsort(-sims[0, want])]
    assert np.array_equal(got_ids, ids[want]) and np.array_equal(got_sims, sims[0, want])
