"""The Python blocks of README.md import only names the package has.

The import statements of each ```python block run in a fresh namespace, so
an example that names a deleted function fails here rather than in a
reader's session.  The rest of a block is not run: the examples are sized
for a full run, not for a test.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def import_source(block: str) -> str:
    """The top-level import statements of a block, as source."""
    return "\n".join(ast.get_source_segment(block, node) for node in ast.parse(block).body
                     if isinstance(node, (ast.Import, ast.ImportFrom)))


def test_the_readme_has_python_blocks():
    assert BLOCKS and all(import_source(block) for block in BLOCKS)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_the_imports_of_a_python_block_run(block):
    exec(compile(import_source(block), str(README), "exec"), {})
