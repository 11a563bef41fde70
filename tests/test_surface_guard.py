"""Guard: one roofline, one counter pricer, nothing unreached, nothing unread.

A public name or config field stays only if a paper experiment, CLI verb,
benchmark, e2e workload or example reaches it. These went because nothing
did: the second ``CostCounter`` pricer (``simulated_time`` /
``serial_cost``) and the ``MachineSpec`` surface only it read, the
analytic roofline beside the measured one, graph npz/edge-list I/O and
its validator, early stopping, three sampler knobs ``TrainConfig``
forwarded at their defaults, a delegating bench-JSON alias, the
learning-rate schedules, the GCN layer's ``concat`` switch and the
second bench writer (``BenchReporter``, ``write_bench_json``,
``add_samples``, ``from_registry``). This AST
scan of ``src/repro`` fails when one is defined, imported, re-exported,
read or passed again, and when a second roofline grows anywhere but
``kernels/roofline.py``.

The same holds for whole modules: every module under ``src/repro`` is
imported, directly or through other modules, by an entry point a run
starts from — the CLI, a benchmark, an example or a tool — or sits on
``UNREACHED_ALLOWED`` with its reason. The module strings of the e2e
tracer's ``TARGETS`` count as imports; a package ``__init__`` that only
re-exports a name does not (a name read through a package is charged to
the module that defines it).

And for each public name: every top-level function or class, and every
method or property of a public class, in a module a run reaches is read
somewhere in ``src/repro`` or an entry point outside its own body — as a
name, an attribute, a ``from ... import`` outside a package ``__init__``,
or a string equal to it or a dotted string ending in it (the e2e layer
table reads ``PrefetchStats.mean_staleness`` through ``getattr``). Tests,
docstrings and ``__all__`` never count. A name kept anyway — a fixture or
oracle the tests use, a paper claim only a test checks, or a seam an open
ROADMAP item needs — sits on ``NAMES_ALLOWED`` with its reason.

One bench writer: nothing outside ``obs/record.py`` builds a
``BenchRecord`` (``write_bench`` builds it from what the runner states),
and the history series that survived the switch keep their keys.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

from repro.baselines.base import BlockModel
from repro.baselines.batched_gcn import BatchedGCNConfig
from repro.baselines.graphsage import SageConfig
from repro.baselines.sage_layers import BipartiteGCNLayer
from repro.experiments.modelcosts import layer_dims_of
from repro.nn.layers import GCNLayer
from repro.nn.network import GCN
from repro.parallel.machine import MachineSpec
from repro.sampling.zoo import make_sampler
from repro.train.config import TrainConfig

from .kernels.test_regime_guard import _walk_owned

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: What a run starts from: the CLI, every benchmark, example and tool.
ENTRY_POINTS = ("src/repro/cli.py", "benchmarks/**/*.py", "examples/*.py", "tools/*.py")
#: The e2e tracer imports each module its ``TARGETS`` names.
TRACER = "benchmarks/e2e/tracing.py"

#: Modules no entry point reaches, each kept for the reason given.
UNREACHED_ALLOWED = {
    "repro.nn.gradcheck": "the finite-difference oracle the layer tests compare against",
    "repro.sampling.parallel_sim": "the only check of Theorem 1 on measured workloads",
    "repro.parallel.executor": "the work-span executor only parallel_sim runs (Theorem 1)",
    "repro.propagation.cache_model": "the Theorem 2 mechanism check, until a measured one is recorded",
}

#: Public names no run reads, each kept for the reason given.
NAMES_ALLOWED = {
    "repro.graphs.generators.ring_of_cliques": "the clique-ring test graph (conftest's clique_ring)",
    "repro.graphs.generators.grid_graph": "the grid test graph of tests/conftest.py",
    "repro.graphs.csr.CSRGraph.has_edge": "the edge-membership oracle of the graph tests",
    "repro.graphs.csr.CSRGraph.is_symmetric": "the symmetry oracle of the generator tests",
    "repro.propagation.spmm.MeanAggregator.dense": "the dense A_hat the SpMM tests compare against",
    "repro.kernels.backends.adjacency_cache_stats": "the memo counter that proves the cache is hit",
    "repro.propagation.spmm.input_aggregate_stats": "the memo counter that proves the cache is hit",
    "repro.sampling.dashboard.Dashboard.alive_vertices": "the frontier oracle of the Dashboard tests",
    "repro.obs.trace.set_tracer": "the test seam that installs a fake-clock tracer",
    "repro.obs._gate.set_enabled": "the test seam that resets the obs gate between tests",
    "repro.sampling.base.GraphSampler.sample_many": "ROADMAP item 1 makes it the sampling primitive",
    "repro.sampling.norm.NormCoefficients.expected_batch_weight": (
        "ROADMAP item 4's batch-weight-is-1 estimator invariant"
    ),
    "repro.analysis.complexity.work_ratio_vs_depth": "the paper's §III-B work-ratio claim",
    "repro.sampling.cost.theorem1_speedup_bound": "the paper's Theorem 1 speedup bound",
    "repro.sampling.cost.serial_sampler_cost": "the serial cost Theorem 1's bound is stated over",
}

DELETED_NAMES = {
    "simulated_time", "serial_cost", "numa_factor", "numa_remote_penalty",
    "sockets_used", "with_cores", "laptop_4core", "speedup_curve",
    "KernelProfile", "roofline_point", "gemm_kernel_profile",
    "aggregation_kernel_profile", "save_graph", "load_graph", "save_dataset",
    "load_dataset", "write_edge_list", "read_edge_list", "validate_graph",
    "validate_dataset", "ValidationError", "patience", "restore_best",
    "ConstantLR", "StepDecayLR", "CosineAnnealingLR", "WarmupLR", "apply_schedule",
    "BenchReporter", "write_bench_json", "add_samples", "from_registry",
    "_write_serving_bench",
}
DELETED_MODULES = (
    "analysis/roofline.py", "graphs/io.py", "graphs/validate.py", "nn/schedule.py",
)
#: (module, attribute) pairs whose name is too generic to ban everywhere.
DELETED_ATTRIBUTES = (
    ("repro.analysis.speedup", "efficiency"),
    ("repro.analysis", "efficiency"),
    ("repro.experiments.common", "write_bench_json"),
    ("repro.experiments", "write_bench_json"),
)
DELETED_TRAIN_FIELDS = {
    "patience", "restore_best", "eta", "max_entries_per_vertex", "walk_depth", "concat",
}
#: Layer options every run left at the paper's shape (concat, bias, no
#: L2 row normalization), now the layers' fixed form.
DELETED_LAYER_OPTIONS = {"concat", "bias", "normalize"}

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
    for config in (BatchedGCNConfig, SageConfig):
        assert "concat" not in {f.name for f in dataclasses.fields(config)}, config
    for model in (GCN, GCNLayer, BipartiteGCNLayer, BlockModel):
        assert not set(inspect.signature(model).parameters) & DELETED_LAYER_OPTIONS, model
    assert "concat" not in inspect.signature(layer_dims_of).parameters
    machine = {f.name for f in dataclasses.fields(MachineSpec)}
    assert "numa_remote_penalty" not in machine
    for method in ("numa_factor", "sockets_used", "with_cores"):
        assert not hasattr(MachineSpec, method), method


def test_make_sampler_takes_no_knob_no_caller_passes():
    # eta / the degree cap / round_pops / vector_lanes stay on the sampler
    # classes; the sweeps that vary them build the sampler directly.
    knobs = set(inspect.signature(make_sampler).parameters)
    assert not knobs & {"eta", "max_entries_per_vertex", "vector_lanes", "round_pops"}


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


def _module_index(src: Path) -> dict[str, Path]:
    """Dotted name -> file of every module under ``src`` (a source root)."""
    index = {}
    for path in src.rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        index[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return index


def _is_package(index: dict[str, Path], name: str | None) -> bool:
    return name in index and index[name].name == "__init__.py"


def _import_base(index: dict[str, Path], module: str | None, node: ast.ImportFrom) -> str | None:
    """The absolute module a ``from ... import`` in ``module`` reads from."""
    if not node.level:
        return node.module
    parts = module.split(".") if module else []
    if not _is_package(index, module):
        parts = parts[:-1]
    parts = parts[: len(parts) - node.level + 1]
    return ".".join(parts + ([node.module] if node.module else [])) or None


def _home(index: dict[str, Path], base: str, name: str) -> str:
    """The module that ``name``, read through ``base``, lives in: the
    submodule of that name, or the module a package ``__init__``
    re-exports it from, or ``base`` itself."""
    if f"{base}.{name}" in index:
        return f"{base}.{name}"
    if not _is_package(index, base):
        return base
    for node in ast.parse(index[base].read_text()).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _home(index, _import_base(index, base, node), alias.name)
    return base


def _imports(index: dict[str, Path], path: Path, module: str | None) -> set[str]:
    """Modules under ``index`` that the file at ``path`` imports, or reads
    as an attribute of a module it imported (``obs.export.render``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(index, module, node)
            if base is None:
                continue
            found.add(base)
            for alias in node.names:
                found.add(home := _home(index, base, alias.name))
                if home == f"{base}.{alias.name}":
                    bound[alias.asname or alias.name] = home
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        owner = bound.get(node.id) if isinstance(node, ast.Name) else None
        for attr in reversed(chain if owner else []):
            if (home := _home(index, owner, attr)) == owner:
                break
            found.add(owner := home)
    return found & set(index)


def _targets(tracer: Path) -> set[str]:
    """The module strings of a tracer file's ``TARGETS`` list."""
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            return {entry.elts[0].value for entry in node.value.elts}
    return set()


def _reach_violations(
    src: Path, entries: list[Path], targets: set[str], allowed: dict[str, str]
) -> list[str]:
    """What the reachability guard fails on: an unreached module off the
    allow-list, an allow-list entry without a reason, or one for a module
    that is reached (or gone)."""
    index = _module_index(src)
    modules = {path: name for name, path in index.items()}
    todo = {m for path in entries if path not in modules for m in _imports(index, path, None)}
    todo |= {modules[path] for path in entries if path in modules} | (targets & set(index))
    reached = set()
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        parts = module.split(".")
        todo.update(".".join(parts[:i]) for i in range(1, len(parts)))
        if not _is_package(index, module):  # a package's re-exports are no edge
            todo |= _imports(index, index[module], module)
    return (
        [f"unreached: {m}" for m in sorted(set(index) - reached - set(allowed))]
        + [f"no reason: {m}" for m, why in sorted(allowed.items()) if not why.strip()]
        + [f"stale allow: {m}" for m in sorted(set(allowed) & (reached | (set(allowed) - set(index))))]
    )


def _entry_points(root: Path) -> list[Path]:
    return sorted({path for pattern in ENTRY_POINTS for path in root.glob(pattern)})


def test_every_module_is_reached_by_a_run():
    entries = _entry_points(REPO)
    assert REPO / "src/repro/cli.py" in entries and len(entries) > 20
    targets = _targets(REPO / TRACER)
    assert "repro.sampling.pipeline" in targets
    assert _reach_violations(SRC.parent, entries, targets, UNREACHED_ALLOWED) == []


#: A dotted identifier string (``"repro.nn.layers.relu"``) reads its last part.
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of every top-level public function or
    class and every public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def _unread_strings(tree: ast.Module) -> set[int]:
    """``id`` of every docstring and ``__all__`` string node in ``tree``."""
    skip = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, *_DEFS)) and body and isinstance(body[0], ast.Expr):
            skip.add(id(body[0].value))
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            skip.update(id(sub) for sub in ast.walk(node.value))
    return skip


def _reads(tree: ast.Module, *, package_init: bool):
    """``(name, line)`` of every read in ``tree``: a name, an attribute, a
    ``from ... import`` (not in a package ``__init__``) or a string equal
    to the name or a dotted string ending in it."""
    skip = _unread_strings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not package_init:
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            if node.value.isidentifier():
                yield node.value, node.lineno
            elif _DOTTED.fullmatch(node.value):
                yield node.value.rsplit(".", 1)[1], node.lineno


def _name_violations(
    src: Path, entries: list[Path], exempt: set[str], allowed: dict[str, str]
) -> list[str]:
    """What the name guard fails on: a public definition in a module off
    ``exempt`` that nothing reads outside its own body and that is not on
    the allow-list, an allow-list entry without a reason, or one for a
    name that is read (or gone)."""
    index = _module_index(src)
    modules = {path: name for name, path in index.items()}
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in set(index.values()) | set(entries)
    }
    read_at: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _reads(tree, package_init=path.name == "__init__.py"):
            read_at.setdefault(name, []).append((path, line))
    unread = set()
    for path, module in modules.items():
        if module in exempt:
            continue
        for qual, node in _public_definitions(trees[path]):
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in read_at.get(node.name, ())
            ):
                unread.add(f"{module}.{qual}")
    return (
        [f"unread: {n}" for n in sorted(unread - set(allowed))]
        + [f"no reason: {n}" for n, why in sorted(allowed.items()) if not why.strip()]
        + [f"stale allow: {n}" for n in sorted(set(allowed) - unread)]
    )


def test_every_public_name_is_read_by_a_run():
    entries = [p for p in _entry_points(REPO) if not p.is_relative_to(SRC)]
    assert _name_violations(SRC.parent, entries, set(UNREACHED_ALLOWED), NAMES_ALLOWED) == []


class TestReachabilityDetector:
    """The guard on a planted tree: ``pkg`` holds a package that
    re-exports from ``util`` and ``orphan``; the entry point reads one
    name through the package and one module by attribute."""

    def _plant(self, root: Path, *, tracer_targets: str = "") -> tuple[Path, list[Path]]:
        src = root / "src"
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/lib/__init__.py": (
                "from .util import helper\nfrom .orphan import unused\n"
                "from . import extra\n"
            ),
            "src/pkg/lib/util.py": "from ..deep import leaf\ndef helper():\n    return leaf\n",
            "src/pkg/lib/orphan.py": "def unused():\n    pass\n",
            "src/pkg/lib/extra.py": "X = 1\n",
            "src/pkg/deep.py": "leaf = 1\n",
            "src/pkg/viaattr.py": "Y = 2\n",
            "src/pkg/traced.py": "def f():\n    pass\n",
            "tools/run.py": (
                "import pkg\nfrom pkg.lib import helper\nprint(helper(), pkg.viaattr.Y)\n"
            ),
            "bench/tracing.py": f"TARGETS = [{tracer_targets}]\n",
        }
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        return src, [root / "tools/run.py"]

    def test_a_re_export_reaches_nothing_and_an_orphan_fails(self, tmp_path):
        src, entries = self._plant(tmp_path)
        found = _reach_violations(src, entries, _targets(tmp_path / "bench/tracing.py"), {})
        assert found == [
            "unreached: pkg.lib.extra",
            "unreached: pkg.lib.orphan",
            "unreached: pkg.traced",
        ]

    def test_a_tracer_target_string_counts_as_an_import(self, tmp_path):
        src, entries = self._plant(
            tmp_path, tracer_targets='("pkg.traced", "f", "x.f")'
        )
        allowed = {"pkg.lib.extra": "planted", "pkg.lib.orphan": "planted"}
        targets = _targets(tmp_path / "bench/tracing.py")
        assert targets == {"pkg.traced"}
        assert _reach_violations(src, entries, targets, allowed) == []

    def test_allow_list_entries_need_a_reason_and_an_unreached_module(self, tmp_path):
        src, entries = self._plant(tmp_path, tracer_targets='("pkg.traced", "f", "x.f")')
        allowed = {
            "pkg.lib.extra": "planted",
            "pkg.lib.orphan": " ",
            "pkg.deep": "reached through util",
            "pkg.gone": "no such module",
        }
        assert _reach_violations(src, entries, {"pkg.traced"}, allowed) == [
            "no reason: pkg.lib.orphan",
            "stale allow: pkg.deep",
            "stale allow: pkg.gone",
        ]


class TestNameDetector:
    """The name guard on a planted tree: ``pkg.lib`` defines functions and
    a class whose names are read, or not, by an entry point and a test."""

    def _plant(self, root: Path) -> tuple[Path, list[Path]]:
        files = {
            "src/pkg/__init__.py": (
                "from .lib import unused, used\n__all__ = ['unused', 'used']\n"
            ),
            "src/pkg/lib.py": (
                "def used():\n    return 1\n"
                "def unused():\n    return unused\n"
                "class Box:\n"
                "    '''tested'''\n"
                "    def tested(self):\n        return 1\n"
                "    def by_string(self):\n        return 2\n"
                "    def _private(self):\n        return 3\n"
                "    def __len__(self):\n        return 0\n"
                "class _Hidden:\n    def method(self):\n        pass\n"
            ),
            "src/pkg/exempt.py": "def orphan():\n    pass\n",
            "tools/run.py": (
                "from pkg.lib import Box, used\n"
                "print(used(), getattr(Box(), 'by_string')())\n"
            ),
            "tests/test_lib.py": "from pkg.lib import Box, unused\nBox().tested()\n",
        }
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        return root / "src", [root / "tools/run.py"]

    def test_unread_names_fail_and_tests_docstrings_and_all_do_not_read(self, tmp_path):
        src, entries = self._plant(tmp_path)
        assert _name_violations(src, entries, {"pkg.exempt"}, {}) == [
            "unread: pkg.lib.Box.tested",
            "unread: pkg.lib.unused",
        ]

    def test_a_getattr_string_in_an_entry_point_is_a_read(self, tmp_path):
        src, entries = self._plant(tmp_path)
        allowed = {"pkg.lib.Box.tested": "planted", "pkg.lib.unused": "planted"}
        assert _name_violations(src, entries, {"pkg.exempt"}, allowed) == []

    def test_allow_list_entries_need_a_reason_and_an_unread_name(self, tmp_path):
        src, entries = self._plant(tmp_path)
        allowed = {
            "pkg.lib.Box.tested": "planted",
            "pkg.lib.unused": " ",
            "pkg.lib.used": "read by tools/run.py",
            "pkg.lib.gone": "no such name",
            "pkg.exempt.orphan": "its module is exempt",
        }
        assert _name_violations(src, entries, {"pkg.exempt"}, allowed) == [
            "no reason: pkg.lib.unused",
            "stale allow: pkg.exempt.orphan",
            "stale allow: pkg.lib.gone",
            "stale allow: pkg.lib.used",
        ]


# ---- one bench writer ---------------------------------------------------

#: The one module that builds a bench record (``write_bench``).
RECORD_HOME = SRC / "obs" / "record.py"


def _record_builders(path: Path) -> list[int]:
    """Lines in ``path`` that construct a ``BenchRecord`` or call
    ``add_samples`` (reading one back with ``BenchRecord.from_dict`` is
    no build)."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("BenchRecord", "add_samples"):
                lines.append(node.lineno)
    return lines


def test_only_the_bench_writer_builds_a_record():
    paths = set(SRC.rglob("*.py")) | set(_entry_points(REPO))
    sites = [
        f"{path.relative_to(REPO)}:{line}"
        for path in sorted(paths - {RECORD_HOME})
        for line in _record_builders(path)
    ]
    assert sites == []
    assert _record_builders(RECORD_HOME)  # the writer itself is seen


def test_the_record_builder_detector_sees_what_it_guards(tmp_path):
    planted = tmp_path / "bench_x.py"
    planted.write_text(
        "from repro.obs.record import BenchRecord\n"
        "rec = BenchRecord('x')\n"
        "rec.add_samples('m', [1.0])\n"
        "back = BenchRecord.from_dict({})\n"
        "other = record.BenchRecord(bench='y')\n"
    )
    assert _record_builders(planted) == [2, 3, 5]


#: Surviving history series whose key must not move: (bench, key) ->
#: (seed, the runner's clock and key fields as ``write_bench`` gets them).
PINNED_KEYS = {
    ("sampler_throughput", "799f3a6856ae"): (0, {"clock": "wall"}),
    ("train_bench", "25b666d6410c"): (0, {"clock": "wall", "key_fields": {"dataset": "ppi", "hidden": 128}}),
    ("train_bench", "dedde2e9dbd7"): (0, {"clock": "wall", "key_fields": {"dataset": "yelp", "hidden": 128}}),
    ("train_bench", "773e476900fb"): (0, {"clock": "wall", "key_fields": {"dataset": "reddit", "hidden": 512}}),
    ("serve_refresh", "6e0722366c92"): (0, {"clock": "wall", "key_fields": {"shard": "1792x256", "cells": 32}}),
    ("serve_search", "018228edfe71"): (0, {"clock": "wall", "key_fields": {"dim": 256}}),
    ("kernels", "6ac24d82985f"): (None, {"clock": "wall"}),
}
#: Fingerprint fields that name the host, not the run: taken from the
#: history line so the pin holds on any interpreter.
HOST_FIELDS = ("python", "numpy", "platform")


def test_surviving_history_keys_are_unchanged(tmp_path):
    from repro.obs.record import MetricSeries, fingerprint_key, load_bench_records, write_bench

    for (bench, key), (seed, fields) in PINNED_KEYS.items():
        lines = [
            json.loads(line)
            for line in (REPO / "benchmarks" / "history" / f"{bench}.jsonl").read_text().splitlines()
        ]
        recorded = next(line["env"] for line in lines if line["key"] == key)
        out = tmp_path / f"{bench}-{key}"
        write_bench(out, bench, {**fields, "series": {"m": MetricSeries([1.0])}}, seed=seed)
        [record], _ = load_bench_records(out)
        env = {**record.env, **{f: recorded[f] for f in HOST_FIELDS}}
        assert fingerprint_key(env) == key, (bench, key)
        assert set(env) == set(recorded), (bench, key)
