"""Every name a module of the package imports is used in that module.

A stdlib ``ast`` scan, so it needs no linter. ``__init__.py`` is exempt: its
imports are the public API.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qals"

# perfbench's assert_untraced() reads these from qals.solver to show that solve calls
# neither; they go with perfbench's encode and decode wrappers (ROADMAP item 7)
READ_FROM_OUTSIDE = {"solver.py": {"encode", "decode"}}


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert _imported(tree) - used == READ_FROM_OUTSIDE.get(path.name, set())
