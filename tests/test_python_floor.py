"""``src/repro`` keeps to the Python floor ``pyproject.toml`` declares.

Only one interpreter is installed where the tier-1 suite runs, so two
static checks stand in for a run on the floor version: every module
parses with ``ast.parse(..., feature_version=FLOOR)``, which rejects
grammar added later (``match``, ``except*``), and no ``dataclass`` or
``field`` call passes ``slots=`` or ``kw_only=``, keywords Python 3.10
added that the parser cannot see.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
MODULES = sorted(SOURCE.rglob("*.py"))
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)

#: Keywords of ``dataclass``/``field`` that Python 3.10 added.
LATER_KEYWORDS = {"slots", "kw_only"}


def later_dataclass_keywords(tree):
    """``(keyword, line)`` of every post-3.9 keyword passed to a
    ``dataclass`` or ``field`` call, however the name is reached."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("dataclass", "field"):
                for keyword in node.keywords:
                    if keyword.arg in LATER_KEYWORDS:
                        yield keyword.arg, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SOURCE)))
def test_module_parses_on_the_floor_and_uses_no_later_dataclass_keyword(path):
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
    assert list(later_dataclass_keywords(tree)) == []


def test_the_checks_see_what_the_floor_lacks():
    with pytest.raises(SyntaxError):
        ast.parse("match x:\n    case 1:\n        pass\n", feature_version=(3, 9))
    source = """
import dataclasses
from dataclasses import dataclass, field
@dataclass(slots=True)
class A:
    x: int = field(default=0, kw_only=True)
@dataclasses.dataclass(frozen=True, kw_only=True)
class B:
    y: int
@dataclass(frozen=True)
class C:
    z: int = field(default=0)
"""
    found = list(later_dataclass_keywords(ast.parse(source)))
    assert sorted(found) == [("kw_only", 6), ("kw_only", 7), ("slots", 4)]
