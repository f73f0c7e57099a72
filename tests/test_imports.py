"""Every module under src/ and tests/ reads each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds that no ``ast.Name``
    reads; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import inf, pi as half_turn\n"
              "x = np.zeros(1) + inf\n")
    assert unused_imports(source) == [(2, "os"), (4, "half_turn")]


def test_no_module_imports_a_name_it_never_reads():
    # a package __init__ imports names to re-export them
    files = [p for d in ("src", "tests")
             for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert files
    found = [f"{p.relative_to(ROOT)}:{line}: {name}" for p in files
             for line, name in unused_imports(p.read_text())]
    assert found == []
