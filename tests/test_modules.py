"""Module boundaries of the nlv package: no module imports another
module's private names."""

import ast
from pathlib import Path

import nlv

SOURCES = sorted(Path(nlv.__file__).parent.glob("*.py"))


def private_imports(path):
    """``module.name`` for each private name that a relative import in
    ``path`` takes from another module; dunder names such as
    ``__version__`` are public."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    yield f"{node.module or ''}.{name}"


def test_no_private_name_crosses_a_module_boundary():
    assert len(SOURCES) > 10
    crossings = {path.name: list(private_imports(path)) for path in SOURCES}
    assert {name: found for name, found in crossings.items() if found} == {}
