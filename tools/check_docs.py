"""Docs health checker: link integrity + architecture/code agreement.

Three checks, all runnable standalone (``python tools/check_docs.py``) and
from the test suite (``tests/docs/test_docs_health.py``) so CI and tier-1
enforce the same thing:

1. **Links** — every intra-repo markdown link (``[text](path)`` and bare
   relative paths in ``docs/*.md``, ``README.md``, etc.) must resolve to
   an existing file, and every ``#fragment`` into a markdown file must
   match one of its headings.
2. **Modules** — every ``repro.*`` dotted module named in
   ``docs/architecture.md`` must import, so the architecture tour cannot
   drift from the package layout. Code paths like ``repro/obs/trace.py``
   referenced in any checked doc must exist under ``src/``.
3. **Test counts** — a number quoted next to "tests" in ``README.md`` /
   ``DESIGN.md`` must be within 10% of the number of ``def test_``
   functions under ``tests/`` (a static count: this script runs where
   pytest is not installed, and parametrized cases are not functions).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links and code references are checked.
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/architecture.md",
    "docs/kernels.md",
    "docs/observability.md",
    "docs/paper_mapping.md",
    "docs/sampling.md",
)

_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_MODULE_RE = re.compile(r"`(repro(?:\.[a-z_]+)+)")
_CODE_PATH_RE = re.compile(
    r"`((?:repro|tests|benchmarks|examples|tools)/[\w/]+\.py)"
)

#: Docs whose quoted test counts are held to the suite, and what a quoted
#: count looks like: "~1 300 unit + integration tests", "684 tests".
TEST_COUNT_FILES = ("README.md", "DESIGN.md")
TEST_COUNT_TOLERANCE = 0.10
_TEST_COUNT_RE = re.compile(
    r"(\d{1,3}(?:[ ,]\d{3})+|\d{3,})\s+(?:[\w+/-]+\s+){0,7}tests\b"
)
_TEST_DEF_RE = re.compile(r"^\s*def test_", re.MULTILINE)


def _heading_anchors(md_path: Path) -> set[str]:
    """GitHub-style anchors for every heading in a markdown file."""
    anchors = set()
    for line in md_path.read_text(encoding="utf-8").splitlines():
        m = re.match(r"#+\s+(.*)", line)
        if not m:
            continue
        text = re.sub(r"[`*]", "", m.group(1)).strip().lower()
        text = re.sub(r"[^\w\- ]", "", text)
        anchors.add(text.replace(" ", "-"))
    return anchors


def check_links(root: Path = REPO_ROOT) -> list[str]:
    """Return a list of broken intra-repo links across DOC_FILES."""
    errors = []
    for rel in DOC_FILES:
        doc = root / rel
        if not doc.exists():
            errors.append(f"{rel}: checked doc file is missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if not path_part:  # same-file fragment
                dest = doc
            else:
                dest = (doc.parent / path_part).resolve()
                if not dest.exists():
                    errors.append(f"{rel}: broken link -> {target}")
                    continue
            if fragment and dest.suffix == ".md":
                if fragment.lower() not in _heading_anchors(dest):
                    errors.append(f"{rel}: missing anchor -> {target}")
    return errors


def check_code_paths(root: Path = REPO_ROOT) -> list[str]:
    """Return code paths referenced in docs that do not exist on disk."""
    errors = []
    for rel in DOC_FILES:
        doc = root / rel
        if not doc.exists():
            continue
        for path in set(_CODE_PATH_RE.findall(doc.read_text(encoding="utf-8"))):
            candidate = root / ("src/" + path if path.startswith("repro/") else path)
            if not candidate.exists():
                errors.append(f"{rel}: references missing file {path}")
    return errors


def architecture_modules(root: Path = REPO_ROOT) -> list[str]:
    """Dotted repro.* module names mentioned in docs/architecture.md."""
    text = (root / "docs/architecture.md").read_text(encoding="utf-8")
    return sorted(set(_MODULE_RE.findall(text)))


def _resolve(name: str) -> None:
    """Resolve a dotted name: longest importable module prefix, then
    attribute lookup for the rest (so `repro.obs.span` and
    `repro.analysis.speedup.gemm_simulated_time` both count)."""
    parts = name.split(".")
    module, attrs = None, []
    for i in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        attrs = parts[i:]
        break
    if module is None:
        raise ImportError(f"no importable prefix of {name}")
    obj = module
    for attr in attrs:
        obj = getattr(obj, attr)


def check_architecture_imports(root: Path = REPO_ROOT) -> list[str]:
    """Resolve every repro.* dotted name in architecture.md."""
    errors = []
    modules = architecture_modules(root)
    if not modules:
        return ["docs/architecture.md names no repro.* modules"]
    for name in modules:
        try:
            _resolve(name)
        except Exception as exc:  # pragma: no cover - only on drift
            errors.append(f"docs/architecture.md: `{name}` fails to resolve: {exc}")
    return errors


def count_test_functions(root: Path = REPO_ROOT) -> int:
    """``def test_`` functions under ``tests/`` (static, no collection)."""
    return sum(
        len(_TEST_DEF_RE.findall(path.read_text(encoding="utf-8")))
        for path in (root / "tests").rglob("*.py")
    )


def check_test_counts(root: Path = REPO_ROOT) -> list[str]:
    """Return quoted test counts too far off the suite's."""
    actual = count_test_functions(root)
    errors = []
    for rel in TEST_COUNT_FILES:
        doc = root / rel
        if not doc.exists():
            continue
        for match in _TEST_COUNT_RE.finditer(doc.read_text(encoding="utf-8")):
            quoted = int(re.sub(r"\D", "", match.group(1)))
            if abs(quoted - actual) > TEST_COUNT_TOLERANCE * actual:
                errors.append(
                    f"{rel}: says {quoted} tests, tests/ defines {actual} "
                    f"(allowed: within {TEST_COUNT_TOLERANCE:.0%})"
                )
    return errors


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    errors = (
        check_links()
        + check_code_paths()
        + check_architecture_imports()
        + check_test_counts()
    )
    for err in errors:
        print(f"ERROR: {err}")
    if not errors:
        n = len(architecture_modules())
        print(f"docs OK: {len(DOC_FILES)} files, {n} architecture modules import")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
