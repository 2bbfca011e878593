"""What each module imports from the package at run time.

``changes`` and ``validation`` read a pricing through ``model`` alone, so
neither needs the subscription engine loaded to diff or validate.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pricebook"


def run_time_imports(path: Path) -> set[str]:
    """The package modules a module imports, outside ``if TYPE_CHECKING:`` blocks."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    type_only = {id(node) for block in ast.walk(tree) if isinstance(block, ast.If)
                 and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
                 for node in ast.walk(block)}
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.level and id(node) not in type_only}


@pytest.mark.parametrize("module", ["changes", "validation"])
def test_reads_only_model_and_errors(module):
    assert run_time_imports(SRC / f"{module}.py") <= {"model", "errors"}
