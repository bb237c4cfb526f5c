"""Every import in src/ and tests/ is used: a name an import binds must be
read somewhere in the same file.  Checked with ``ast``, so no linter is
needed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_import_is_found():
    assert unused_imports("import os\nimport json as j\nj.dumps(1)\n") \
        == [(1, "os")]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for d in ("src", "tests") for path in sorted((ROOT / d).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, found
