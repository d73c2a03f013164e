"""Every top-level function and class under src has a caller in src."""

import ast
from pathlib import Path

import weylfk

# The only input that reaches the dense 2-d ``eigh`` route, which the
# symmetry-block tests use as their reference; no src code builds one.
ALLOWED = {"CustomPotential"}


def _named(node):
    """Every identifier that node reads, as a name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_definition_is_named_elsewhere_in_src():
    # only the syntax tree counts, so docstrings and comments do not; and
    # __init__ is left out, as its re-exports are not callers
    paths = sorted(Path(weylfk.__file__).parent.glob("*.py"))
    statements = [node for path in paths if path.name != "__init__.py"
                  for node in ast.parse(path.read_text()).body]
    named = [set(_named(node)) for node in statements]
    unused = [
        node.name for k, node in enumerate(statements)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in ALLOWED
        and not any(node.name in names for j, names in enumerate(named) if j != k)
    ]
    assert unused == []
