"""Every name a module imports is used in that module, and every private
module-level name of the package is used in the package.

Stdlib `ast` checks, so dead code fails Tier-1 without a linter.  The
import check runs over `src/rons`, `tests` and `scripts`; exempt are
`__future__` imports, the relative imports of `rons/__init__.py` (its
re-exports) and names listed in a module's `__all__`.  The private-name
check runs over `src/rons`: a module-level `_name` (a function, class or
assigned name) that no module of the package reads is left over.
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


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """The `module:_name` of each private module-level definition in
    `sources` (module name to source) that no module reads, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            dead += [
                f"{module}:{name}" for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return sorted(dead)


def test_the_check_finds_dead_private_names():
    sources = {
        "a": (
            "_SPREAD = 0.3\n"
            "_TOL: float = 1e-12\n"
            "__version__ = '1'\n"
            "def _helper():\n"
            "    return _TOL\n"
            "class _Unused:\n"
            "    pass\n"
            "def public(x):\n"
            "    return _helper() + x._attr\n"
        ),
        "b": "from .a import _SPREAD\n_attr = 1\n",
    }
    assert dead_private_names(sources) == ["a:_SPREAD", "a:_Unused"]


def test_every_private_name_is_used():
    sources = {
        path.stem: path.read_text() for path in sorted((ROOT / "src/rons").glob("*.py"))
    }
    assert dead_private_names(sources) == []
