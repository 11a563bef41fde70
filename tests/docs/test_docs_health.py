"""Docs stay true: link integrity and architecture/code agreement.

Runs the same checks as the CI ``docs`` job (``tools/check_docs.py``) so
the tier-1 suite catches drift before CI does.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_checker()


def test_required_docs_exist():
    for rel in check_docs.DOC_FILES:
        assert (REPO_ROOT / rel).exists(), f"missing doc: {rel}"


def test_intra_repo_markdown_links_resolve():
    assert check_docs.check_links(REPO_ROOT) == []


def test_referenced_code_paths_exist():
    assert check_docs.check_code_paths(REPO_ROOT) == []


def test_architecture_names_every_public_package():
    """Every subpackage of repro (plus repro.cli) appears in the
    architecture doc, so new subsystems must be documented to land."""
    mentioned = set(check_docs.architecture_modules(REPO_ROOT))
    src = REPO_ROOT / "src" / "repro"
    public = {
        f"repro.{p.name}" for p in src.iterdir() if (p / "__init__.py").exists()
    }
    public.add("repro.cli")
    missing = {
        pkg
        for pkg in public
        if pkg not in mentioned and not any(m.startswith(pkg + ".") for m in mentioned)
    }
    assert not missing, f"architecture.md does not mention: {sorted(missing)}"


def test_architecture_modules_import():
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        assert check_docs.check_architecture_imports(REPO_ROOT) == []
    finally:
        sys.path.remove(str(REPO_ROOT / "src"))


def test_quoted_test_counts_match_the_suite():
    assert check_docs.check_test_counts(REPO_ROOT) == []


def test_test_count_check_flags_a_stale_number(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text(
        "".join(f"def test_{i}():\n    pass\n" for i in range(200))
    )
    (tmp_path / "README.md").write_text("pytest tests/   # ~210 unit/property tests\n")
    (tmp_path / "DESIGN.md").write_text("tests/   684 unit + integration tests\n")
    assert check_docs.count_test_functions(tmp_path) == 200
    (error,) = check_docs.check_test_counts(tmp_path)
    assert error.startswith("DESIGN.md: says 684 tests, tests/ defines 200")


def test_readme_links_new_docs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme
    assert "docs/observability.md" in readme
