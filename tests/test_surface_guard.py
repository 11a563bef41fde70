"""Guard: one roofline, one counter pricer, nothing unreached.

A public name or config field stays only if a paper experiment, CLI verb,
benchmark, e2e workload or example reaches it. These went because nothing
did: the second ``CostCounter`` pricer (``simulated_time`` /
``serial_cost``) and the ``MachineSpec`` surface only it read, the
analytic roofline beside the measured one, graph npz/edge-list I/O and
its validator, early stopping, three sampler knobs ``TrainConfig``
forwarded at their defaults, and a delegating bench-JSON alias. This AST
scan of ``src/repro`` fails when one is defined, imported, re-exported,
read or passed again, and when a second roofline grows anywhere but
``kernels/roofline.py``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

from repro.parallel.machine import MachineSpec
from repro.train.config import TrainConfig

from .kernels.test_regime_guard import _walk_owned

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

DELETED_NAMES = {
    "simulated_time", "serial_cost", "numa_factor", "numa_remote_penalty",
    "sockets_used", "with_cores", "laptop_4core", "speedup_curve",
    "KernelProfile", "roofline_point", "gemm_kernel_profile",
    "aggregation_kernel_profile", "save_graph", "load_graph", "save_dataset",
    "load_dataset", "write_edge_list", "read_edge_list", "validate_graph",
    "validate_dataset", "ValidationError", "patience", "restore_best",
}
DELETED_MODULES = ("analysis/roofline.py", "graphs/io.py", "graphs/validate.py")
#: (module, attribute) pairs whose name is too generic to ban everywhere.
DELETED_ATTRIBUTES = (
    ("repro.analysis.speedup", "efficiency"),
    ("repro.analysis", "efficiency"),
    ("repro.experiments.common", "write_bench_json"),
    ("repro.experiments", "write_bench_json"),
)
DELETED_TRAIN_FIELDS = {"patience", "restore_best", "eta", "max_entries_per_vertex", "walk_depth"}

#: Words a public definition of a roofline piece carries, and the one
#: module each piece may live in.
ROOFLINE_HOMES = {
    "roofline": "kernels/roofline.py",
    "ridge": "kernels/roofline.py",
    "intensity": "kernels/roofline.py",
    "peaks": "kernels/roofline.py",
    "bytes_moved": "kernels/accounting.py",
}


def _scan(match) -> list[str]:
    """``<path under src/repro>:<owner>`` of every node ``match`` accepts
    (``match`` gets the node and that path)."""
    assert SRC.is_dir(), f"source tree not found at {SRC}"
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node, owner in _walk_owned(ast.parse(path.read_text(), filename=str(path))):
            if match(node, rel):
                sites.append(f"{rel}:{owner}")
    return sites


def _names_deleted(node: ast.AST, rel: str) -> bool:
    """A definition, import, ``__all__`` entry, use, attribute access or
    keyword argument of a deleted name."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name in DELETED_NAMES
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1] in DELETED_NAMES
    if isinstance(node, ast.keyword):
        return node.arg in DELETED_NAMES
    if isinstance(node, ast.Assign) and any(
        getattr(t, "id", None) == "__all__" for t in node.targets
    ):
        return any(
            getattr(elt, "value", None) in DELETED_NAMES
            for elt in getattr(node.value, "elts", ())
        )
    return (getattr(node, "attr", None) or getattr(node, "id", None)) in DELETED_NAMES


def _defines_a_roofline_elsewhere(node: ast.AST, rel: str) -> bool:
    """A public class/function named like a roofline piece outside the
    module that piece belongs to."""
    if not isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    if node.name.startswith("_"):
        return False
    name = node.name.lower()
    return any(word in name and rel != home for word, home in ROOFLINE_HOMES.items())


def test_no_deleted_name_is_defined_imported_or_used():
    assert _scan(_names_deleted) == []
    for module in DELETED_MODULES:
        assert not (SRC / module).exists(), module
    for module, name in DELETED_ATTRIBUTES:
        assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_configs_carry_no_deleted_field():
    train = {f.name for f in dataclasses.fields(TrainConfig)}
    assert not train & DELETED_TRAIN_FIELDS
    machine = {f.name for f in dataclasses.fields(MachineSpec)}
    assert "numa_remote_penalty" not in machine
    for method in ("numa_factor", "sockets_used", "with_cores"):
        assert not hasattr(MachineSpec, method), method


def test_only_kernels_roofline_defines_a_roofline():
    modules = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*roofline*.py"))
    assert modules == ["kernels/roofline.py"]
    assert _scan(_defines_a_roofline_elsewhere) == []


def test_detectors_see_what_they_guard():
    sample = (
        "from repro.parallel import laptop_4core as small\n"
        "from .io import read_edge_list\n"
        "__all__ = ['KernelProfile', 'amdahl_speedup']\n"
        "class KernelProfile:\n"
        "    pass\n"
        "class Config:\n"
        "    patience: int = 3\n"
        "    def numa_factor(self, cores):\n"
        "        return self.machine.numa_remote_penalty\n"
        "def run(trainer, machine, counter):\n"
        "    trainer.train(restore_best=True)\n"
        "    return simulated_time(counter, machine, cores=4)\n"
        "def attainable_roofline(profile):\n"
        "    pass\n"
        "def modeled_ridge_intensity(machine):\n"
        "    pass\n"
        "def gemm_bytes_moved(m, k, n):\n"
        "    pass\n"
        "def _run_roofline_report(args):\n"
        "    pass\n"
        "def efficiency(times):\n"
        "    pass\n"
    )
    tree = ast.parse(sample)
    found = {
        name: [owner for node, owner in _walk_owned(tree) if match(node, "experiments/x.py")]
        for name, match in (
            ("deleted", _names_deleted),
            ("roofline", _defines_a_roofline_elsewhere),
        )
    }
    assert found == {
        "deleted": [
            "", "", "", "KernelProfile", "Config", "Config.numa_factor",
            "Config.numa_factor", "run", "run",
        ],
        "roofline": [
            "attainable_roofline", "modeled_ridge_intensity", "gemm_bytes_moved",
        ],
    }
    # In its home module a roofline piece is no offence.
    home = [
        owner
        for node, owner in _walk_owned(tree)
        if _defines_a_roofline_elsewhere(node, "kernels/roofline.py")
    ]
    assert home == ["gemm_bytes_moved"]
