"""Every name a goldmanab module imports is used in that module.

A deletion that leaves an import behind fails here.  ``__init__`` is left
out: it imports names to re-export them.
"""

import ast
import pathlib

import pytest

import goldmanab

SOURCES = sorted(p for p in pathlib.Path(goldmanab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree):
    """Each name an import statement binds, with its line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [f"{name} (line {line})" for name, line in _imported(tree) if name not in used] == []
