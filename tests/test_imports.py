"""Every name a module imports is used in that module.

A stdlib `ast` check over `src/rons`, `tests` and `scripts`, so an unused
import fails Tier-1 without a linter.  Exempt are `__future__` imports, the
relative imports of `rons/__init__.py` (its re-exports) and names listed in
a module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/rons", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """The imported names that `source` never reads, sorted; with
    `reexports`, its relative imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (reexports and node.level > 0):
                continue
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads as parse\n"
        "from .hilbert import box_rule\n"
        "__all__ = ['dumps']\n"
        "print(np.pi)\n"
    )
    assert unused_imports(source) == ["box_rule", "os", "parse"]
    assert unused_imports(source, reexports=True) == ["os", "parse"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    source = (ROOT / module).read_text()
    assert unused_imports(source, reexports=module == "src/rons/__init__.py") == []
