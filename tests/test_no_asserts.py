"""Result checks in the engine raise InvariantViolation (exit 4): a bare
assert, or a raise of AssertionError, would be the wrong error, and python
-O strips the first."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fusionseed"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    exc = getattr(node, "exc", None)
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_assert(module):
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and _raises_assertion_error(node)]
    assert lines == [], f"{path.name} asserts at lines {lines}"
