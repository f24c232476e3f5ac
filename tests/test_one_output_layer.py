"""Every output format lives in cli_reporting.

The estimators, engines and property oracle return data; cli_reporting
alone decides how a file prints it.  The guard parses each module of
src/levyrefract and fails if one other than cli_reporting holds a %.17g
format, the format of every float a CSV cell prints, or defines a to_csv
method.
"""

import ast
from pathlib import Path

import levyrefract

SRC = Path(levyrefract.__file__).resolve().parent
WRITER = "cli_reporting.py"


def output_formats(source: str) -> list:
    """(line, what) of each %.17g format string and each to_csv method."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "%.17g" in node.value:
            found.append((node.lineno, "a %.17g format"))
        elif isinstance(node, ast.ClassDef):
            found += [(f.lineno, "%s.to_csv" % node.name) for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and f.name == "to_csv"]
    return found


def test_the_guard_sees_a_format_and_a_writer():
    src = 'class A:\n    def to_csv(self):\n        return "%.17g" % 1.0\n'
    assert output_formats(src) == [(2, "A.to_csv"), (3, "a %.17g format")]
    assert output_formats('def f(x):\n    return "%.3g" % x\n') == []


def test_only_cli_reporting_formats_output():
    modules = sorted(SRC.glob("*.py"))
    assert WRITER in {p.name for p in modules}
    found = {p.name: output_formats(p.read_text(encoding="utf-8"))
             for p in modules if p.name != WRITER}
    assert {name: hits for name, hits in found.items() if hits} == {}
