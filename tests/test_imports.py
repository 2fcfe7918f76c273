"""No module imports a name it never uses; an import line marked ``# noqa`` is a deliberate re-export."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for top in ("src", "tests", "tools", "demos") for path in (ROOT / top).rglob("*.py"))


def unused_imports(path):
    """``file:line name`` for each name ``path`` imports and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        alias.asname or alias.name.split(".")[0]: node.lineno
        for node in imports
        if getattr(node, "module", None) != "__future__" and "# noqa" not in lines[node.lineno - 1]
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    assert len(MODULES) > 20
    assert [entry for path in MODULES for entry in unused_imports(path)] == []
