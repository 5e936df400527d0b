"""Every name a `latentcot` module imports is used in that module."""

import ast
from pathlib import Path

import latentcot

PACKAGE = Path(latentcot.__file__).parent
# perfbench's tracer test reads `rl.forward`, so rl keeps that import unused
ALLOWED = {("rl", "forward")}


def _unused_imports(tree: ast.Module) -> list:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    unused = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert [u for u in unused if u not in ALLOWED] == []
