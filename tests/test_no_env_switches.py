"""Guard: the library reads no environment variable except the telemetry switch.

Each job has one production path.  A reference implementation that exists
only to check a fast path lives in ``tests/oracles/``, never behind an
environment switch in ``src/`` — so the set of environment variables the
library reads is pinned here.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The only environment variable ``src/`` may read.
ALLOWED = {"REPRO_TELEMETRY"}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` or a bare ``environ``."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _is_getenv(node: ast.AST) -> bool:
    """``os.getenv`` or a bare ``getenv``."""
    return (isinstance(node, ast.Attribute) and node.attr == "getenv") or (
        isinstance(node, ast.Name) and node.id == "getenv"
    )


def _env_keys(tree: ast.AST):
    """The key expression of every environment read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if _is_getenv(func) or (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "pop", "setdefault")
                and _is_environ(func.value)
            ):
                yield node.args[0] if node.args else None
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node.slice
        elif isinstance(node, ast.Compare) and any(map(_is_environ, node.comparators)):
            yield node.left


def _string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    return {
        target.id: statement.value.value
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, str)
        for target in statement.targets
        if isinstance(target, ast.Name)
    }


def environment_reads(source: str, where: str) -> set[str]:
    """Names of the environment variables ``source`` reads; a key that is
    neither a literal nor a module-level string constant is reported as
    unresolved (and so fails the guard)."""
    tree = ast.parse(source)
    constants = _string_constants(tree)
    names = set()
    for key in _env_keys(tree):
        if isinstance(key, ast.Constant):
            names.add(key.value)
        elif isinstance(key, ast.Name) and key.id in constants:
            names.add(constants[key.id])
        else:
            names.add(f"<unresolved {ast.unparse(key) if key else '()'} in {where}>")
    return names


def test_scanner_finds_every_read_form():
    source = (
        "import os\n"
        "from os import environ, getenv\n"
        'SWITCH = "B"\n'
        'os.environ.get("A")\n'
        "os.environ.get(SWITCH)\n"
        'os.environ["C"]\n'
        'os.getenv("D")\n'
        'getenv("E")\n'
        '"F" in os.environ\n'
        'environ.pop("G", None)\n'
        "os.environ.get(key)\n"
    )
    assert environment_reads(source, "snippet") == {
        "A", "B", "C", "D", "E", "F", "G", "<unresolved key in snippet>",
    }


def test_src_reads_only_the_telemetry_switch():
    names: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC))
        for name in environment_reads(path.read_text(), where):
            names.setdefault(name, []).append(where)
    assert set(names) == ALLOWED, names
