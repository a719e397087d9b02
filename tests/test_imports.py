"""No module of the package or of the tests imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "modpcheck").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(tree):
    """The names bound by the module's imports that nothing else in it reads;
    __future__ imports are skipped."""
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, alias.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    assert len(MODULES) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES
              for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert unused == []
