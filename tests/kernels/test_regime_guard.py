"""Guard: the kernel regime is one dial and one scope.

What the numbers are is ``dtype_policy``; how kernels are dispatched is
one ambient plan mode with two states, entered through
``autotune.planning``. Everything that used to thread or duplicate that
— a third mode, a third backend, a second row-blocker, four resolvers,
five config fields — is gone, and this AST scan fails when one comes
back, the way ``test_kernel_guard.py`` fails on a raw matmul.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.kernels.autotune import PLAN_MODES
from repro.kernels.backends import available_backends

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
KERNELS = SRC / "kernels"


def _walk_owned(tree: ast.AST):
    """``(node, dotted owner)`` for every node: the classes/functions it
    is in, itself included when it is one."""

    def visit(node: ast.AST, owner: str):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        yield node, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, "")


def _scan(root: Path, match) -> list[str]:
    """``<path under src/repro>:<owner>`` of every node ``match`` accepts."""
    assert root.is_dir(), f"source tree not found at {root}"
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, owner in _walk_owned(tree):
            if match(node):
                sites.append(f"{path.relative_to(SRC).as_posix()}:{owner}")
    return sites


def _is_resolver(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef) and node.name.lstrip("_").startswith("resolve")


def _is_row_panel_loop(node: ast.AST) -> bool:
    """``for i in range(start, stop, step)``: a strided walk over rows."""
    return (
        isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and getattr(node.iter.func, "id", None) == "range"
        and len(node.iter.args) == 3
    )


def _is_kernel_setting_field(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.AnnAssign)
        and getattr(node.target, "id", None) in ("kernel_plan", "spmm_backend")
    )


def _names_planning(node: ast.AST) -> bool:
    return (getattr(node, "attr", None) or getattr(node, "id", None)) == "planning"


def test_two_modes_two_backends():
    assert PLAN_MODES == ("auto", "fast")
    assert available_backends() == ["numpy", "scipy"]


def test_one_resolver_and_one_row_blocker():
    # policy.resolve_policy maps a name to a dtype policy; it plans nothing.
    assert _scan(KERNELS, _is_resolver) == [
        "kernels/autotune.py:PlanCache.resolve",
        "kernels/policy.py:resolve_policy",
    ]
    assert _scan(KERNELS, _is_row_panel_loop) == ["kernels/autotune.py:execute_gemm"]


def test_no_config_carries_a_kernel_setting():
    # dtype_policy is the one kernel field a config has; class-level
    # annotated names are how every config here declares its fields.
    assert _scan(SRC, _is_kernel_setting_field) == []


def test_planning_is_entered_only_by_the_kernel_tools():
    sites = {site.split(":")[0] for site in _scan(SRC, _names_planning)}
    assert {s for s in sites if not s.startswith("kernels/")} == {
        "experiments/kernelbench.py"
    }


def test_detectors_see_what_they_guard(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from dataclasses import dataclass\n"
        "from repro.kernels import autotune\n"
        "@dataclass\n"
        "class Config:\n"
        "    kernel_plan: str = 'fast'\n"
        "    spmm_backend: str = 'scipy'\n"
        "    def _resolve_gemm(self, a):\n"
        "        for i in range(0, a.shape[0], 64):\n"
        "            pass\n"
        "        for _ in range(3):\n"
        "            pass\n"
        "def run(trainer):\n"
        "    with autotune.planning('auto'):\n"
        "        trainer.train()\n"
    )
    tree = ast.parse(sample.read_text())
    found = {
        name: [owner for node, owner in _walk_owned(tree) if match(node)]
        for name, match in (
            ("fields", _is_kernel_setting_field),
            ("resolvers", _is_resolver),
            ("loops", _is_row_panel_loop),
            ("planning", _names_planning),
        )
    }
    assert found == {
        "fields": ["Config", "Config"],
        "resolvers": ["Config._resolve_gemm"],
        "loops": ["Config._resolve_gemm"],
        "planning": ["run"],
    }
