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


def _direct_backend_sites(path: Path) -> list[str]:
    """``get_backend(...).gemm(...)`` / ``.spmm(...)`` call sites.

    Dispatching straight off a registry lookup skips the validation and
    the per-class accounting that ``kernels.ops`` provides — outside the
    kernel layer that is always a bug, even though no raw ``@`` appears.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    sites: list[str] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("gemm", "spmm")
            and isinstance(node.func.value, ast.Call)
        ):
            continue
        inner = node.func.value.func
        name = (
            inner.id
            if isinstance(inner, ast.Name)
            else inner.attr
            if isinstance(inner, ast.Attribute)
            else None
        )
        if name == "get_backend":
            sites.append(
                f"{path.name}:{node.lineno} calls "
                f"get_backend(...).{node.func.attr}()"
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


def test_no_direct_backend_dispatch_outside_kernel_layer():
    offenders: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if _is_allowed(rel):
            continue
        for site in _direct_backend_sites(path):
            offenders.append(f"{rel.as_posix()} -> {site}")
    assert not offenders, (
        "direct get_backend(...).gemm/spmm dispatch outside repro.kernels "
        "(it bypasses validation and accounting; call "
        "repro.kernels.ops instead):\n" + "\n".join(offenders)
    )


def test_direct_backend_detector_catches_the_pattern(tmp_path):
    # The detector itself must recognize the chained form it guards.
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from repro.kernels.backends import get_backend\n"
        "def f(a, b, graph, x):\n"
        "    y = get_backend('numpy').gemm(a, b)\n"
        "    z = get_backend('scipy').spmm(graph, x)\n"
        "    return y, z\n"
    )
    sites = _direct_backend_sites(sample)
    assert len(sites) == 2
    assert any(".gemm()" in s for s in sites)
    assert any(".spmm()" in s for s in sites)


def test_allowlist_entries_exist():
    # A deleted/renamed file must not leave a stale hole in the guard.
    for entry in ALLOWLIST:
        assert (SRC / entry).exists(), f"stale allowlist entry: {entry}"
