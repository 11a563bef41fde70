"""Guard: one pricer. Training records counters; nothing on it prices them.

The modeled clock (the simulated 40-core Xeon of Figures 2-4 and Table
II) is priced once, after the run, by :mod:`repro.experiments.repricing`.
It used to be priced a second time inside the run — the trainer, the
subgraph pool and the partitioned propagator each took a ``MachineSpec``
— and the two prices disagreed. This test AST-scans the training path
for an import of the cost model, so a second pricer cannot grow back:

* no module under ``src/repro/train/``, and neither
  ``sampling/scheduler.py`` nor ``propagation/feature_prop.py``, may
  import ``repro.parallel.machine``, ``repro.analysis.speedup`` or
  ``repro.sampling.cost`` (a name imported through a package counts as
  the module that defines it);
* nothing under ``src/repro`` may mention ``add_sim_time``, the span
  method the live pricer charged spans through.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# Relative to src/repro. Directories cover their whole subtree.
GUARDED = ("train", "sampling/scheduler.py", "propagation/feature_prop.py")
PRICING = ("repro.parallel.machine", "repro.analysis.speedup", "repro.sampling.cost")


def _guarded_files() -> list[Path]:
    files: list[Path] = []
    for entry in GUARDED:
        target = SRC / entry
        files.extend(sorted(target.rglob("*.py")) if target.is_dir() else [target])
    return files


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _defining_module(package: str, name: str) -> str | None:
    """Where ``from package import name`` really comes from."""
    obj = getattr(importlib.import_module(package), name, None)
    if inspect.ismodule(obj):
        return obj.__name__
    return getattr(obj, "__module__", None)


def _imported_modules(source: str, module: str, *, is_package: bool) -> list[tuple[int, str]]:
    """``(line, module)`` for every module an import in ``source`` reaches."""
    package = module if is_package else module.rpartition(".")[0]
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = (
                importlib.util.resolve_name("." * node.level + (node.module or ""), package)
                if node.level
                else node.module
            )
            found.append((node.lineno, base))
            if not base.startswith("repro"):
                continue
            for alias in node.names:
                found.append((node.lineno, f"{base}.{alias.name}"))
                owner = _defining_module(base, alias.name)
                if owner:
                    found.append((node.lineno, owner))
    return found


def _pricing_imports(source: str, module: str, *, is_package: bool = False) -> list[str]:
    return sorted(
        {
            f"line {line} reaches {name}"
            for line, name in _imported_modules(source, module, is_package=is_package)
            if any(name == p or name.startswith(p + ".") for p in PRICING)
        }
    )


def test_training_path_does_not_import_the_cost_model():
    offenders: list[str] = []
    for path in _guarded_files():
        module = _module_name(path)
        for site in _pricing_imports(
            path.read_text(), module, is_package=path.name == "__init__.py"
        ):
            offenders.append(f"{path.relative_to(SRC).as_posix()}: {site}")
    assert not offenders, (
        "the training path imports the cost model (record counters and "
        "price them in repro.experiments.repricing instead):\n" + "\n".join(offenders)
    )


def test_no_span_is_charged_modeled_time():
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "add_sim_time" in path.read_text()
    ]
    assert not offenders, f"add_sim_time is back in: {offenders}"


def test_detector_catches_every_import_form():
    # The detector must see direct, relative and package-re-exported
    # imports of each pricing module, and nothing in a harmless import.
    sample = (
        "from ..parallel.machine import MachineSpec\n"
        "from ..parallel import xeon_40core\n"
        "from ..sampling import cost\n"
        "import repro.analysis.speedup\n"
        "from ..obs.trace import span\n"
    )
    sites = _pricing_imports(sample, "repro.train.sample")
    lines = {int(site.split()[1]) for site in sites}
    assert lines == {1, 2, 3, 4}


def test_guarded_entries_exist():
    # A deleted/renamed file must not leave a stale hole in the guard.
    for entry in GUARDED:
        assert (SRC / entry).exists(), f"stale guard entry: {entry}"
