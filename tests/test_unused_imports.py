"""Every name a module of src/ or tests/ imports is read somewhere in it.

No linter ships with the project, so this parse of each module stands in
for one: an import that nothing reads fails the test.  __future__ imports
and the package __init__ are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import and never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    bound.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)}
    # a quoted annotation reads the names inside its quotes
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= {n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from numpy import array as arr, zeros\n"
              "def f(x: 'arr') -> None:\n    return zeros(os.path.sep)\n")
    assert unused_imports(source) == [(2, "math")]
