"""Guard: kernels dispatch, they do not plan.

What the numbers are is ``dtype_policy``; how a kernel runs is one
straight line in ``kernels.ops`` — validate, name the shape class, run
the one BLAS GEMM or CSR SpMM, report. The per-shape-class autotuner that used
to sit in that line (plan modes, a plan table on disk, a tuner, a shared
arena, ``plan=`` / ``transient=`` keywords, an environment variable) was
measured on the paths the system runs, tied with static dispatch, and
deleted; this AST scan fails when a piece of it comes back, the way
``test_kernel_guard.py`` fails on a raw matmul.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

from repro.kernels import ops as kernel_ops

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
KERNELS = SRC / "kernels"

PLAN_MACHINERY = {
    "planning", "plan_mode", "PlanCache", "Tuner", "ExecutionPlan", "execute_gemm",
}
PLAN_KEYWORDS = {"plan", "transient"}


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


def _names_plan_machinery(node: ast.AST) -> bool:
    """A definition, import, use or attribute access of a deleted name."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name in PLAN_MACHINERY
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1] in PLAN_MACHINERY
    return (getattr(node, "attr", None) or getattr(node, "id", None)) in PLAN_MACHINERY


def _passes_plan_keyword(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and any(
        kw.arg in PLAN_KEYWORDS for kw in node.keywords
    )


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


def _reads_environment(node: ast.AST) -> bool:
    name = getattr(node, "attr", None) or getattr(node, "id", None)
    if isinstance(node, ast.alias):
        name = node.name
    return name in ("environ", "getenv")


def test_one_spmm_kernel():
    # The backend registry folded into the CSR SpMM: no entry point picks
    # an implementation, and the numpy segment sum is only the oracle
    # behind propagation.spmm.spmm_sum_numpy.
    for name in kernel_ops.__all__:
        assert "backend" not in inspect.signature(getattr(kernel_ops, name)).parameters, name
    assert not (KERNELS / "backends.py").exists()


def test_plan_machinery_is_named_nowhere():
    assert _scan(SRC, _names_plan_machinery) == []


def test_no_kernel_entry_point_takes_or_is_passed_a_plan():
    for name in kernel_ops.__all__:
        code = getattr(kernel_ops, name).__code__
        params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
        assert not PLAN_KEYWORDS & set(params), name
    assert _scan(SRC, _passes_plan_keyword) == []


def test_no_row_panel_loop_and_no_environment_in_the_kernel_layer():
    assert _scan(KERNELS, _is_row_panel_loop) == []
    assert _scan(KERNELS, _reads_environment) == []


def test_no_config_carries_a_kernel_setting():
    # dtype_policy is the one kernel field a config has; class-level
    # annotated names are how every config here declares its fields.
    assert _scan(SRC, _is_kernel_setting_field) == []


def test_detectors_see_what_they_guard(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "from dataclasses import dataclass\n"
        "from repro.kernels.autotune import PlanCache as Cache\n"
        "@dataclass\n"
        "class Config:\n"
        "    kernel_plan: str = 'fast'\n"
        "    spmm_backend: str = 'scipy'\n"
        "    def execute_gemm(self, a):\n"
        "        for i in range(0, a.shape[0], 64):\n"
        "            pass\n"
        "        for _ in range(3):\n"
        "            pass\n"
        "def run(trainer, ops, a):\n"
        "    os.environ.get('REPRO_KERNEL_PLAN_CACHE')\n"
        "    with autotune.planning('auto'):\n"
        "        ops.gemm(a, a, transient=True)\n"
        "        ops.gemm(a, a, plan=None, out=a)\n"
    )
    tree = ast.parse(sample.read_text())
    found = {
        name: [owner for node, owner in _walk_owned(tree) if match(node)]
        for name, match in (
            ("fields", _is_kernel_setting_field),
            ("machinery", _names_plan_machinery),
            ("keywords", _passes_plan_keyword),
            ("loops", _is_row_panel_loop),
            ("environment", _reads_environment),
        )
    }
    assert found == {
        "fields": ["Config", "Config"],
        "machinery": ["", "Config.execute_gemm", "run"],
        "keywords": ["run", "run"],
        "loops": ["Config.execute_gemm"],
        "environment": ["run"],
    }
