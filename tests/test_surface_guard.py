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

And for each option: every defaulted parameter of a public function,
method or constructor in a ``repro`` module a run reaches is passed, by
keyword or position, by some call in ``src/repro`` or an entry point
outside its own body — else it sits on ``OPTIONS_ALLOWED`` with the
test that injects through it. Passing the parameter's own constant
default (``activation="relu"`` where the default is ``"relu"``) sets
nothing. A bare forward of the caller's own
same-named parameter (``engine=engine``) counts only when that parameter
is itself set by a run; ``super().__init__`` and building a class
without its own ``__init__`` are calls to the base class; a keyword a
``**kwargs`` factory takes, or a key of a ``dict(...)`` / ``{...}``
passed as a parameter the callee splats, is passed to what the splat
calls. No package is exempt: an experiment's sweep default stays a
parameter only where a test shrinks it (``OPTIONS_ALLOWED`` names the
test), and is a constant where nothing moves it. The never-applied
aggregation normalization, the samplers' lane width, the Dashboard's
round size, Eq. 2's unit costs, ``TrainConfig.sampler_engine``, the
kernel backend registry, the never-passed ``out=`` buffers, the index's
caller-supplied cells, the cluster's graph partition and the
experiments' fixed sweep points (X1's machine, Fig. 4's machine, eta and
``p_inter`` list, Table II's depths, cores and fitted constants, the
serving corpora and server sizes, the sampler benches' workload) went
because no run set them.

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
    "repro.sampling.dashboard.Dashboard.alive_vertices": "the frontier oracle of the Dashboard tests",
    "repro.obs.trace.set_tracer": "the test seam that installs a fake-clock tracer",
    "repro.obs._gate.set_enabled": "the test seam that resets the obs gate between tests",
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
    "_write_serving_bench", "aggregation_weights", "directed_slot_probs", "sample_many",
    "KernelBackend", "register_backend", "get_backend", "available_backends",
    "default_backend", "TOTALS", "reset_totals", "adjacency_cache_stats",
    "input_aggregate_stats", "_ADJACENCY_STATS", "_INPUT_AGGREGATE_STATS",
    "MAX_FLOP_DRIFT", "expected_flops", "_eval_flop_drift",
}
DELETED_MODULES = (
    "analysis/roofline.py", "graphs/io.py", "graphs/validate.py", "nn/schedule.py",
    "kernels/backends.py", "sampling/extra.py",
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
    "sampler_engine",
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
    assert not machine & {"numa_remote_penalty", "vector_lanes"}
    for method in ("numa_factor", "sockets_used", "with_cores"):
        assert not hasattr(MachineSpec, method), method


def test_make_sampler_takes_no_knob_no_caller_passes():
    # eta and the degree cap stay on the Dashboard sampler, and the sweeps
    # that vary them build it directly; round_pops and vector_lanes are
    # gone (a fast round is max(1, m // 4) pops, the lane width is
    # costmodel.VECTOR_LANES).
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
    name that is read (or gone). Reads are matched by name alone, so
    same-named definitions mask each other: one read ``budget`` keeps
    every ``budget`` property."""
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


# ---- every option is set by a run ---------------------------------------

_EXPERIMENTS = "tests/experiments/test_experiments.py::"
_EXTENSIONS = "tests/experiments/test_extensions.py::"

#: Defaulted parameters no run passes: test seams, and the experiment
#: sweep points tier-1 shrinks, each naming the test that passes it.
OPTIONS_ALLOWED = {
    "repro.obs.trace.Tracer(clock)": "the fake clock of tests/obs/test_trace.py",
    "repro.obs.flight.FlightRecorder(clock)": (
        "the fake clock of tests/obs/test_flight.py::TestDump::test_maybe_dump_debounces"
    ),
    "repro.obs.history.HistoryStore.append(recorded_at)": (
        "the fixed stamp of tests/obs/test_history.py::TestAppend::test_one_line_per_metric"
    ),
    "repro.serving.server.EmbeddingServer(service_model)": (
        "the deterministic service time tests/serving/test_replay_golden.py pins"
    ),
    "repro.serving.index.BruteForceIndex(chunk_size)": (
        "the one-shot scan of tests/serving/test_index.py::TestBruteForce::"
        "test_chunking_is_bit_identical"
    ),
    "repro.cli.main(argv)": "the argv of tests/experiments/test_cli.py",
    "repro.analysis.complexity.work_ratio_vs_depth(num_vertices)": (
        "Case 2's support cap, tests/analysis/test_complexity.py::"
        "TestSectionIIIBClaims::test_large_batch_no_explosion"
    ),
    **{
        f"repro.baselines.sage_layers.{layer}({param})": (
            "the identity-activation, per-policy gradient check of "
            "tests/nn/test_gradcheck_policies.py::test_layer_gradients_under_policy"
        )
        for layer in ("BipartiteGCNLayer", "ConvOnlyLayer")
        for param in ("activation", "dtype")
    },
    "repro.nn.layers.GCNLayer(activation)": (
        "the identity-activation gradient checks of tests/nn/test_layers.py::"
        "TestGCNLayerGradients and tests/nn/test_gradcheck_policies.py"
    ),
    "repro.nn.layers.DenseLayer(activation)": (
        "the ReLU head of tests/nn/test_layers.py::TestDenseLayer::test_gradients"
    ),
    "repro.graphs.csr.edges_to_csr(dedup)": (
        "the parallel edges of tests/graphs/test_csr.py::TestConstruction::"
        "test_keep_parallel_edges_when_requested"
    ),
    "repro.graphs.csr.edges_to_csr(symmetrize)": (
        "the directed edge list of tests/graphs/test_csr.py::TestConstruction::test_no_symmetrize"
    ),
    "repro.graphs.features.smooth_features(alpha)": (
        "alpha 0.7 in tests/graphs/test_features.py::TestSmoothing::"
        "test_increases_edge_correlation"
    ),
    "repro.graphs.generators.power_law_weights(w_min)": (
        "the inverted bounds of tests/graphs/test_generators.py::TestPowerLawWeights::"
        "test_invalid_bounds"
    ),
    "repro.train.embedding.label_homogeneity(k)": (
        "k = 5 in tests/train/test_embedding.py::TestHomogeneity::test_perfectly_clustered"
    ),
    "repro.experiments.ablations.run_degree_cap(num_subgraphs)": (
        f"three subgraphs in {_EXPERIMENTS}TestAblations::test_degree_cap_rows"
    ),
    "repro.experiments.ablations.run_dashboard_eta(etas)": (
        f"two etas in {_EXPERIMENTS}TestAblations::test_eta_tradeoff"
    ),
    **{
        f"repro.experiments.ablations.run_partitioning({param})": (
            f"a 2 x 1 sweep in {_EXPERIMENTS}TestAblations::test_partitioning_two_approx"
        )
        for param in ("sizes", "feature_dims")
    },
    **{
        f"repro.experiments.extensions.run_budget_scaling({param})": (
            f"a two-point sweep in {_EXTENSIONS}TestBudgetScaling::"
            "test_budget_fraction_shrinks"
        )
        for param in ("base_scale", "scale_factors", "budget", "hidden", "epochs")
    },
    **{
        f"repro.experiments.extensions.run_depth_accuracy({param})": (
            f"a two-depth sweep in {_EXTENSIONS}TestDepthAccuracy::"
            "test_rows_and_monotone_cost"
        )
        for param in ("depths", "hidden", "epochs")
    },
    "repro.experiments.fig2.run_dataset(include_fastgcn)": (
        f"the FastGCN curve of {_EXPERIMENTS}TestFig2"
    ),
    **{
        f"repro.experiments.{module}.run(scales)": (
            f"the half-size profiles of {_EXPERIMENTS}{cls}"
        )
        for module, cls in (("fig3", "TestFig3"), ("fig4", "TestFig4"), ("table1", "TestTable1"))
    },
    "repro.experiments.table2.run(scale)": f"the half-size Reddit of {_EXPERIMENTS}TestTable2",
    **{
        f"repro.experiments.plotting.ascii_plot({param})": (
            "the small grids of tests/experiments/test_plotting.py::TestAsciiPlot"
        )
        for param in ("width", "height")
    },
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk_scoped(tree: ast.Module):
    """``(node, enclosing def, enclosing class, parent, qualified name)``
    of every node; the class reaches through the defs inside it."""

    def visit(node, fn, cls, parent, qual):
        yield node, fn, cls, parent, qual
        if isinstance(node, ast.ClassDef):
            cls, qual = node, (*qual, node.name)
        elif isinstance(node, _FUNCS):
            fn, qual = node, (*qual, node.name)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, fn, cls, node, qual)

    yield from visit(tree, None, None, None, ())


def _signature(node: ast.FunctionDef, method: bool) -> tuple[list[str], dict[str, ast.AST]]:
    """``(positional parameters as a call passes them, defaulted
    parameter -> its default)`` of a ``def``."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaulted |= {a.arg: d for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    return (positional[1:] if method and not static else positional), defaulted


def _is_own_default(value: ast.AST, default: ast.AST) -> bool:
    """``value`` is the same constant as the parameter's constant default
    (``activation="relu"`` against ``activation="relu"``): passing it
    sets nothing."""
    return (
        isinstance(value, ast.Constant)
        and isinstance(default, ast.Constant)
        and type(value.value) is type(default.value)
        and value.value == default.value
    )


def _callee_names(call: ast.Call, cls: ast.ClassDef | None) -> list[str]:
    """The names a call reaches a ``def`` by: a function or method name, a
    class name for its constructor, and the enclosing class's bases for
    ``super().__init__``."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr != "__init__":
        return [func.attr]
    is_super = isinstance(func.value, ast.Call) and getattr(func.value.func, "id", None) == "super"
    if not (is_super and cls):
        return []
    return [getattr(base, "id", None) or getattr(base, "attr", None) for base in cls.bases]


def _mentions(node: ast.AST) -> set[str]:
    """Every name and attribute name in ``node`` (``self.kw`` -> ``kw``)."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)} - {None}


def _bound(target: ast.AST) -> set[str]:
    """The names an assignment target binds (``self.kw`` binds ``kw``)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Attribute):
        return {target.attr}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_bound, target.elts))
    return set()


def _literal_items(value: ast.AST) -> list[tuple[str, ast.AST]]:
    """``(key, value)`` of a ``{"k": v}`` or ``dict(k=v)`` literal."""
    if isinstance(value, ast.Dict):
        return [
            (k.value, v)
            for k, v in zip(value.keys, value.values)
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        ]
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict":
        return [(kw.arg, kw.value) for kw in value.keywords if kw.arg]
    return []


def _option_violations(
    src: Path,
    entries: list[Path],
    package: str,
    exempt: set[str],
    allowed: dict[str, str],
) -> list[str]:
    """What the option guard fails on: a defaulted parameter of a public
    function, method or constructor in a ``package`` module off ``exempt``
    that no call outside its own body sets (``module.Qual(param)``) and
    that is not on the allow-list, an allow-list entry without a reason,
    or one for an option that is set (or gone). Calls are matched to
    definitions by name, as the name guard matches reads.

    A keyword a function takes into ``**kwargs`` reaches every call its
    scope makes with ``**kwargs``; the keys of a ``{...}`` / ``dict(...)``
    literal passed as a parameter reach every call that splats that
    parameter, through locals, ``self.<param>`` and same-scope forwards.
    A method's scope is its whole class."""
    index = _module_index(src)
    modules = {path: name for name, path in index.items()}
    defs: dict[int, dict] = {}
    by_name: dict[str, list[dict]] = {}
    calls, scoped_calls, assigns, inherits = [], {}, {}, {}
    for path in sorted(set(index.values()) | set(entries)):
        module = modules.get(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node, fn, cls, parent, qual in _walk_scoped(tree):
            scope = id(cls) if cls is not None else id(fn) if fn is not None else None
            if isinstance(node, ast.ClassDef) and not any(
                isinstance(sub, _FUNCS) and sub.name == "__init__" for sub in node.body
            ):  # constructing it runs a base's __init__
                inherits[node.name] = [getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases]
            elif isinstance(node, _FUNCS):
                method = isinstance(parent, ast.ClassDef)
                positional, defaulted = _signature(node, method)
                ctor = method and node.name == "__init__"
                shown = ".".join(qual if ctor else (*qual, node.name))
                in_package = module is not None and (
                    module == package or module.startswith(f"{package}.")
                )
                checked = (
                    in_package
                    and module not in exempt
                    and (isinstance(parent, ast.Module) or (method and len(qual) == 1))
                    and not any(part.startswith("_") for part in shown.split("."))
                )
                args = node.args
                record = dict(
                    path=path, node=node, option=f"{module}.{shown}", positional=positional,
                    defaulted=defaulted, checked=checked,
                    params={a.arg for a in args.posonlyargs + args.args + args.kwonlyargs},
                    varkw=args.kwarg.arg if args.kwarg else None,
                    scope=id(parent) if method else id(node),
                )
                defs[id(node)] = record
                by_name.setdefault(parent.name if ctor else node.name, []).append(record)
            elif isinstance(node, ast.Call):
                entry = (path, node, fn, _callee_names(node, cls))
                calls.append(entry)
                scoped_calls.setdefault(scope, []).append(entry)
            elif isinstance(node, ast.Assign):
                targets = set().union(*map(_bound, node.targets))
                assigns.setdefault(scope, []).append((targets, _mentions(node.value)))
    set_by_run = set()
    forwards, spread_seen = [], set()

    def callees(path, call, names):
        names = list(names)
        for name in names:  # a class without __init__ is built by its bases'
            names += [base for base in inherits.get(name, ()) if base not in names]
        for record in (r for name in names for r in by_name.get(name, ())):
            node = record["node"]
            if not (record["path"] == path and node.lineno <= call.lineno <= node.end_lineno):
                yield record  # a call in its own body is no set

    def deliver(record, param, value, caller):
        """``param=value`` passed to ``record`` from inside ``caller``."""
        if param not in record["params"]:
            if record["varkw"]:
                spread(record, record["varkw"], param, value, caller)
            return
        if param in record["defaulted"]:
            option = (id(record["node"]), param)
            forward = (
                caller is not None
                and isinstance(value, ast.Name)
                and value.id == param
                and param in caller["defaulted"]
            )
            if forward:
                forwards.append((option, (id(caller["node"]), param)))
            elif not _is_own_default(value, record["defaulted"][param]):
                set_by_run.add(option)
        for key, item in _literal_items(value):
            spread(record, param, key, item, caller)

    def spread(record, param, key, value, caller):
        """``key=value`` held in ``record``'s parameter ``param``: deliver it
        to every call in the scope that splats ``param``, and follow
        ``name=param`` forwards."""
        mark = (id(record["node"]), param, key, id(value))
        if mark in spread_seen:
            return
        spread_seen.add(mark)
        sources = {param}
        grew = True
        while grew:  # locals assigned from the parameter hold it too
            grew = False
            for targets, mentioned in assigns.get(record["scope"], ()):
                if mentioned & sources and not targets <= sources:
                    sources |= targets
                    grew = True
        for path, call, fn, names in scoped_calls.get(record["scope"], ()):
            for kw in call.keywords:
                if kw.arg is None and _mentions(kw.value) & sources:
                    for target in callees(path, call, names):
                        deliver(target, key, value, caller)
                elif kw.arg and _mentions(kw.value) & sources and (
                    isinstance(kw.value, (ast.Name, ast.Attribute))
                ):
                    for target in callees(path, call, names):
                        if kw.arg in target["params"]:
                            spread(target, kw.arg, key, value, caller)

    for path, call, fn, names in calls:
        caller = defs.get(id(fn))
        args = call.args
        star = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)), len(args))
        for record in callees(path, call, names):
            for param, value in zip(record["positional"], args[:star]):
                deliver(record, param, value, caller)
            for kw in call.keywords:
                if kw.arg:
                    deliver(record, kw.arg, kw.value, caller)
    grew = True
    while grew:  # a forward sets an option once its source is set
        grew = False
        for option, source in forwards:
            if source in set_by_run and option not in set_by_run:
                set_by_run.add(option)
                grew = True
    unset = {
        f"{record['option']}({param})"
        for record in defs.values()
        if record["checked"]
        for param in record["defaulted"]
        if (id(record["node"]), param) not in set_by_run
    }
    return (
        [f"unset: {o}" for o in sorted(unset - set(allowed))]
        + [f"no reason: {o}" for o, why in sorted(allowed.items()) if not why.strip()]
        + [f"stale allow: {o}" for o in sorted(set(allowed) - unset)]
    )


def test_every_option_is_set_by_a_run():
    entries = [p for p in _entry_points(REPO) if not p.is_relative_to(SRC)]
    assert _option_violations(
        SRC.parent, entries, "repro", set(UNREACHED_ALLOWED), OPTIONS_ALLOWED
    ) == []


class TestOptionDetector:
    """The option guard on a planted tree: ``pkg.lib`` defines a function,
    a base class and a subclass with defaulted parameters; ``pkg.app``
    and an entry point call them, some directly and some by forwarding
    their own parameters."""

    def _plant(self, root: Path) -> tuple[Path, list[Path]]:
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/lib.py": (
                "def draw(n, *, lanes=8, clip=1.0, engine='fast'):\n"
                "    return draw(n, lanes=lanes)\n"
                "class Base:\n"
                "    def __init__(self, graph, *, engine='fast', width=4):\n"
                "        self.engine = engine\n"
                "class Family(Base):\n"
                "    def __init__(self, graph, *, engine='fast', size=2):\n"
                "        super().__init__(graph, engine=engine)\n"
                "def _private(x=1):\n"
                "    return x\n"
                "def outer():\n"
                "    def inner(x=1):\n"
                "        return x\n"
                "    return inner()\n"
            ),
            "src/pkg/app.py": (
                "from .lib import Family, draw\n"
                "def build(graph, clip=1.0, engine='fast'):\n"
                "    draw(3, clip=clip)\n"
                "    return Family(graph, engine=engine)\n"
                "def run(graph):\n"
                "    return build(graph, engine='reference')\n"
            ),
            "tools/run.py": (
                "from pkg.app import run\nfrom pkg.lib import Family\nFamily(None, size=3)\n"
            ),
            "tests/test_lib.py": "from pkg.lib import draw\ndraw(1, lanes=4)\n",
        }
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        return root / "src", [root / "tools/run.py"]

    def test_unset_options_and_unset_forwards_fail(self, tmp_path):
        # lanes: passed only in its own body and by a test. clip: a
        # forward of build's clip, which nothing sets. engine reaches
        # Family and Base through two forwards from run's literal; size is
        # set by the entry point; width by nothing. Private and nested
        # defs are not checked.
        src, entries = self._plant(tmp_path)
        assert _option_violations(src, entries, "pkg", set(), {}) == [
            "unset: pkg.app.build(clip)",
            "unset: pkg.lib.Base(width)",
            "unset: pkg.lib.draw(clip)",
            "unset: pkg.lib.draw(engine)",
            "unset: pkg.lib.draw(lanes)",
        ]

    def test_a_pass_from_an_entry_point_counts(self, tmp_path):
        src, entries = self._plant(tmp_path)
        assert "unset: pkg.lib.Family(size)" in _option_violations(src, [], "pkg", set(), {})
        assert "unset: pkg.lib.Family(size)" not in _option_violations(
            src, entries, "pkg", set(), {}
        )

    def test_allow_list_entries_need_a_reason_and_an_unset_option(self, tmp_path):
        src, entries = self._plant(tmp_path)
        allowed = {
            "pkg.app.build(clip)": "planted",
            "pkg.lib.Base(width)": "planted",
            "pkg.lib.draw(clip)": "planted",
            "pkg.lib.draw(engine)": "planted",
            "pkg.lib.draw(lanes)": " ",
            "pkg.lib.Family(engine)": "set through build's forward",
            "pkg.lib.gone(x)": "no such option",
        }
        assert _option_violations(src, entries, "pkg", {"pkg.app"}, allowed) == [
            "no reason: pkg.lib.draw(lanes)",
            "stale allow: pkg.app.build(clip)",
            "stale allow: pkg.lib.Family(engine)",
            "stale allow: pkg.lib.gone(x)",
        ]

    def test_passing_the_own_default_is_no_set(self, tmp_path):
        # mode is passed only as its own default, by keyword and by
        # position; scale gets 2.0 once (a set) and its default 1.0
        # elsewhere; flag's default False is not the int 0 passed.
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/layer.py": (
                "class Layer:\n"
                "    def __init__(self, dim, mode='relu', *, scale=1.0, flag=False):\n"
                "        self.dim = dim\n"
            ),
            "tools/run.py": (
                "from pkg.layer import Layer\n"
                "Layer(3, mode='relu', scale=1.0)\n"
                "Layer(3, 'relu', scale=2.0, flag=0)\n"
            ),
        }
        for rel, text in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text)
        assert _option_violations(
            tmp_path / "src", [tmp_path / "tools/run.py"], "pkg", set(), {}
        ) == ["unset: pkg.layer.Layer(mode)"]

    def _plant_splats(self, root: Path) -> tuple[Path, list[Path]]:
        """``pkg.index``: an index, a ``**kwargs`` factory that builds it,
        and a server that splats its ``index_kwargs`` into the factory
        from another method; ``pkg.sweeps`` forwards its own unset default."""
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/index.py": (
                "class Index:\n"
                "    def __init__(self, rows, *, cells=None, probes=4, iters=12):\n"
                "        self.rows = rows\n"
                "def build(rows, kind='index', **kwargs):\n"
                "    return Index(rows, **kwargs)\n"
                "class Server:\n"
                "    def __init__(self, rows, *, index_kwargs=None):\n"
                "        self.index_kwargs = dict(index_kwargs or {})\n"
                "        self.index = self._build(rows)\n"
                "    def _build(self, rows):\n"
                "        kwargs = dict(self.index_kwargs)\n"
                "        return build(rows, **kwargs)\n"
            ),
            "src/pkg/sweeps.py": (
                "from .index import build\n"
                "def run(rows, iters=20):\n"
                "    return build(rows, iters=iters)\n"
            ),
            "tools/run.py": (
                "from pkg.index import Server, build\n"
                "from pkg.sweeps import run\n"
                "build([1], 'flat', probes=2)\n"
                "Server([1], index_kwargs=dict(cells=3))\n"
                "run([1])\n"
            ),
        }
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        return root / "src", [root / "tools/run.py"]

    def test_a_keyword_through_a_kwargs_factory_is_a_set(self, tmp_path):
        src, entries = self._plant_splats(tmp_path)
        assert "unset: pkg.index.Index(probes)" not in _option_violations(
            src, entries, "pkg", set(), {}
        )

    def test_a_dict_into_a_splatted_parameter_is_a_set(self, tmp_path):
        # cells rides Server's index_kwargs, through self.index_kwargs and
        # a local, into build's **kwargs and on into Index.
        src, entries = self._plant_splats(tmp_path)
        assert "unset: pkg.index.Index(cells)" not in _option_violations(
            src, entries, "pkg", set(), {}
        )

    def test_a_splatted_key_no_run_passes_is_still_unset(self, tmp_path):
        src, entries = self._plant_splats(tmp_path)
        assert _option_violations(src, entries, "pkg", set(), {}) == [
            "unset: pkg.index.Index(iters)",
            "unset: pkg.sweeps.run(iters)",
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
    ("train_bench", "83aaf52624f5"): (
        0, {"clock": "wall", "key_fields": {"dataset": "reddit", "hidden": 512, "blas_threads": 1}}
    ),
    ("serve_refresh", "6e0722366c92"): (0, {"clock": "wall", "key_fields": {"shard": "1792x256", "cells": 32}}),
    ("serve_search", "018228edfe71"): (0, {"clock": "wall", "key_fields": {"dim": 256}}),
    ("serve_replay", "9d1dbd7a8dfc"): (0, {"clock": "wall", "key_fields": {"corpus": "1864x1024", "cells": 8}}),
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
