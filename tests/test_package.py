"""Package-wide source checks."""

import ast
from pathlib import Path

import scflogic

SOURCES = sorted(
    path for path in Path(scflogic.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _module_imports(tree: ast.Module):
    """(bound name, line) of every import at module level, including those
    under a module-level `if` such as `if TYPE_CHECKING:`."""
    body = list(tree.body)
    for stmt in body:
        if isinstance(stmt, ast.If):
            body += stmt.body + stmt.orelse
        elif isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                yield (alias.asname or alias.name).split(".")[0], stmt.lineno


def test_every_module_level_import_is_read():
    assert SOURCES
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _module_imports(tree)
            if name not in read
        ]
    assert not unused, f"imported but never read: {unused}"
