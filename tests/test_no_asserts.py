"""Result checks in the engine raise InvariantViolation (exit 4): a bare
assert would vanish under python -O."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusionseed"


@pytest.mark.parametrize("module", ["grp", "zoo", "sgroup"])
def test_module_has_no_assert(module):
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}"
