import ast
from pathlib import Path

import homshift


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, annotations included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_use_every_name_they_import():
    # The check itself: a name read only in an annotation counts as used.
    leftover = "from typing import Iterator, Sequence\nx: Sequence[int] = []\n"
    assert _unused_imports(leftover) == ["Iterator (line 1)"]
    # __init__ imports to re-export, and _catalog is generated data.
    modules = [
        path
        for path in sorted(Path(homshift.__file__).parent.glob("*.py"))
        if path.name not in ("__init__.py", "_catalog.py")
    ]
    assert modules
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}
