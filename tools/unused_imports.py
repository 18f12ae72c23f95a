#!/usr/bin/env python3
"""Report imports a module never uses — a stdlib `ast` scan, no linter.

    python tools/unused_imports.py [PATH ...]      (default: src/repro)

A name bound by `import` / `from ... import` counts as used if it is read
anywhere in the module: as a name, as the root of an attribute chain, or
inside a string annotation.  Package `__init__.py` files are skipped
(their imports are the package's re-exports), as are `from __future__`
imports and names listed in a module's `__all__`.  Prints one
`path:line: name` per unused import and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]


def _bindings(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("Payload", "Optional[Entry]") names
            # what it uses in its text.
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted((line, name) for name, line in _bindings(tree)
                  if name not in used)


def main(argv: List[str]) -> int:
    roots = [Path(arg) for arg in argv] or [ROOT / "src" / "repro"]
    found = 0
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path):
                print(f"{path}:{line}: {name}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
