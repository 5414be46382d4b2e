"""Every module-level import in ``src/repro`` and ``tests`` is used by its module.

A plain ``ast`` walk, since neither pyflakes nor ruff is a dependency.
A name counts as used when it is read anywhere in the module, listed in
``__all__``, or named inside a quoted annotation.  Package
``__init__.py`` files (re-exports), ``from __future__`` imports and
imports under a module-level ``if`` (``if TYPE_CHECKING:``) are not
checked.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
MODULES = sorted(
    path
    for tree in (SOURCE, ROOT / "tests")
    for path in tree.rglob("*.py")
    if path.name != "__init__.py"
)


def module_imports(tree):
    """``(bound name, line)`` of every checked module-level import."""
    statements = []
    for node in tree.body:
        if isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                statements.extend(block)
            for handler in node.handlers:
                statements.extend(handler.body)
        else:
            statements.append(node)
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    for annotation in annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in module_imports(tree) if name not in used]


def module_id(path):
    """``service/wire.py`` for the package, ``tests/...`` for the tests."""
    return str(path.relative_to(SOURCE if SOURCE in path.parents else ROOT))


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_what_it_should_and_nothing_else():
    source = '''
from __future__ import annotations
import os, sys as system
from typing import TYPE_CHECKING, List, Optional
from .errors import Exported
if TYPE_CHECKING:
    from .heavy import Heavy
try:
    import orjson
except ImportError:
    import json
__all__ = ["Exported"]
def f(x: "Optional[Heavy]") -> List[int]:
    return [os.sep]
'''
    assert unused_imports(source) == ["system (line 3)", "orjson (line 9)", "json (line 11)"]
