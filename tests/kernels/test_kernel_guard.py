"""Guard: no raw matrix multiplies outside the kernel layer.

The whole point of ``repro.kernels`` is that every GEMM/SpMM on a
training or serving path dispatches through one metered seam. This test
AST-scans ``src/repro`` for raw ``@`` matmuls and ``.dot(`` /
``.matmul(`` calls so a stray hand-rolled multiply cannot creep back in
unnoticed. Files with a legitimate reason to bypass the kernel layer are
allowlisted explicitly — extend the list only with a comment saying why.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# Relative to src/repro. Directories cover their whole subtree.
ALLOWLIST = {
    # The kernel layer itself: raw multiplies live here by design.
    "kernels",
    # Synthetic dataset synthesis (feature sketching): runs once at
    # dataset build time, not per-iteration.
    "graphs/features.py",
}


def _is_allowed(rel: Path) -> bool:
    parts = rel.as_posix()
    for entry in ALLOWLIST:
        if parts == entry or parts.startswith(entry + "/"):
            return True
    return False


def _raw_matmul_sites(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    sites: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            sites.append(f"{path.name}:{node.lineno} uses '@'")
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.op, ast.MatMult
        ):
            sites.append(f"{path.name}:{node.lineno} uses '@='")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dot", "matmul")
        ):
            sites.append(
                f"{path.name}:{node.lineno} calls .{node.func.attr}()"
            )
    return sites


def test_no_raw_matmul_outside_kernel_layer():
    assert SRC.is_dir(), f"source tree not found at {SRC}"
    offenders: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if _is_allowed(rel):
            continue
        for site in _raw_matmul_sites(path):
            offenders.append(f"{rel.as_posix()} -> {site}")
    assert not offenders, (
        "raw matrix multiplies outside repro.kernels (route them through "
        "repro.kernels.ops or extend the allowlist with a justification):\n"
        + "\n".join(offenders)
    )


def test_allowlist_entries_exist():
    # A deleted/renamed file must not leave a stale hole in the guard.
    for entry in ALLOWLIST:
        assert (SRC / entry).exists(), f"stale allowlist entry: {entry}"
