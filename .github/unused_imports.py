"""Report top-level imports that a Python file never uses (stdlib only).

    python .github/unused_imports.py src tests perfbench .github

A name counts as used when it appears as a name anywhere else in the file.
Package ``__init__.py`` files are skipped: their imports are re-exports.
Exits 1 and prints ``path:line: name`` for each unused import.
"""
import ast
import sys
from pathlib import Path

unused = []
for root in sys.argv[1:]:
    for path in sorted(Path(root).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(
                    stmt, "module", None) != "__future__":
                for alias in stmt.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path}:{stmt.lineno}: {name}")
for line in unused:
    print(line)
sys.exit(1 if unused else 0)
