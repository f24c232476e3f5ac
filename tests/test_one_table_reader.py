"""path_engine alone decides how a segment table is read.

read_segments reads tables at the probes a caller gives, and read_knots at
every path's knots, horizon and midpoints; the integer keys that order
probes among knots and events are private to path_engine.  The guard
parses each module of src/levyrefract and fails if one other than
path_engine names the key helpers, if properties_oracle takes more than
read_knots and trajectory_table from path_engine, if read_segments takes
caller-sorted keys, or if the per-read running-sum helper _lumps is back.
"""

import ast
import inspect
from pathlib import Path

import levyrefract
from levyrefract import path_engine

SRC = Path(levyrefract.__file__).resolve().parent
OWNER = "path_engine.py"
KEY_HELPERS = {"path_keys", "_path_keys", "table_entries", "_table_entries"}


def names_used(source: str) -> set:
    """Every identifier that source names, imports or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def imports_from(source: str, module: str) -> set:
    """The names that source imports from the sibling module."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == module and node.level == 1
            for alias in node.names}


def test_the_guard_sees_names_and_imports():
    src = "from .path_engine import _path_keys, read_knots\nx = path_engine.table_entries\n"
    assert {"_path_keys", "read_knots", "table_entries"} <= names_used(src)
    assert imports_from(src, "path_engine") == {"_path_keys", "read_knots"}
    assert imports_from("from levyrefract.path_engine import read_knots\n", "path_engine") == set()


def test_only_path_engine_names_the_key_helpers():
    modules = sorted(SRC.glob("*.py"))
    assert OWNER in {p.name for p in modules}
    found = {p.name: sorted(names_used(p.read_text(encoding="utf-8")) & KEY_HELPERS)
             for p in modules if p.name != OWNER}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_oracle_reads_knots_only():
    source = (SRC / "properties_oracle.py").read_text(encoding="utf-8")
    assert imports_from(source, "path_engine") == {"read_knots", "trajectory_table"}


def test_read_segments_sorts_its_own_keys():
    assert list(inspect.signature(path_engine.read_segments).parameters) == [
        "tables", "path", "t", "drivers"]


def test_no_lumps_helper():
    for p in sorted(SRC.glob("*.py")):
        defined = {node.name for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert "_lumps" not in defined, p.name
