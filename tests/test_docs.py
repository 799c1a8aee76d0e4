"""Documentation health checks: internal links resolve, docs stay current.

CI runs this module in a dedicated docs job (alongside compiling the
examples); it is also part of tier-1 so a broken link fails fast locally.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The markdown documents whose internal links must resolve.
DOCUMENTS = ("README.md", "docs/ARCHITECTURE.md")

_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)


def _slug(heading: str) -> str:
    """GitHub-style anchor slug of a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def _internal_links(text: str) -> list[str]:
    return [
        target
        for target in _LINK.findall(text)
        if not target.startswith(("http://", "https://", "mailto:"))
    ]


@pytest.mark.parametrize("document", DOCUMENTS)
def test_document_exists(document):
    assert (REPO_ROOT / document).is_file(), f"{document} is missing"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_internal_links_resolve(document):
    path = REPO_ROOT / document
    text = path.read_text()
    anchors = {_slug(h) for h in _HEADING.findall(text)}
    for target in _internal_links(text):
        target, _, fragment = target.partition("#")
        if not target:  # same-document anchor
            assert fragment in anchors, f"{document}: broken anchor #{fragment}"
            continue
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), f"{document}: broken link {target}"
        if fragment and resolved.suffix == ".md":
            other = {_slug(h) for h in _HEADING.findall(resolved.read_text())}
            assert fragment in other, f"{document}: broken anchor {target}#{fragment}"


def test_readme_links_architecture_doc():
    """The issue's contract: the architecture guide is reachable from the
    README (not an orphaned file)."""
    text = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in _internal_links(text) or "docs/ARCHITECTURE.md" in text


def test_architecture_doc_names_only_real_modules():
    """Every `src/...` path the architecture doc references must exist."""
    text = (REPO_ROOT / "docs/ARCHITECTURE.md").read_text()
    for reference in re.findall(r"`(src/[\w/\.]+)`", text):
        assert (REPO_ROOT / reference).exists(), f"ARCHITECTURE.md: {reference} missing"


def _repro_imports(directory: str) -> list[tuple[str, str, str]]:
    """``(file, module, name)`` of every ``from repro... import name`` in
    the top-level scripts of ``directory``, nested imports included."""
    found = []
    for path in sorted((REPO_ROOT / directory).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module is not None
                and node.module.split(".")[0] == "repro"
            ):
                found.extend((path.name, node.module, alias.name) for alias in node.names)
    return found


@pytest.mark.parametrize("directory", ["examples", "benchmarks"])
def test_script_imports_resolve(directory):
    """Every name the examples and benchmarks import from ``repro`` exists
    (compiling them alone does not catch an import of a deleted name)."""
    imports = _repro_imports(directory)
    assert imports, f"no repro imports found under {directory}/"
    for filename, module_name, name in imports:
        module = importlib.import_module(module_name)
        if hasattr(module, name):
            continue
        try:  # ``from repro.pkg import submodule`` names a module.
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{directory}/{filename}: cannot import {name} from {module_name}")


def test_fleet_modules_have_contract_docstrings():
    """Every fleet module documents its contract in the module docstring
    (the contracts used to live only in ROADMAP.md)."""
    import pkgutil

    import repro.fleet as fleet

    modules = ["repro.fleet"] + [
        f"repro.fleet.{m.name}" for m in pkgutil.iter_modules(fleet.__path__)
    ]
    for name in modules:
        module = importlib.import_module(name)
        doc = module.__doc__ or ""
        assert len(doc.strip()) > 200, f"{name} needs a contract-level module docstring"
