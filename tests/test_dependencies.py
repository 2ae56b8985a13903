"""numpy is the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself."""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "deformclass"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_roots(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in a module."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [(line, root) for line, root in _imported_roots(tree)
               if root not in ALLOWED]
    assert foreign == [], f"{path.name} imports beyond stdlib and numpy"


def test_rule_sees_a_foreign_import():
    tree = ast.parse("import os\nimport numpy.linalg\nfrom scipy import fft\n"
                     "from . import model\nimport yaml as y\n")
    assert [root for _, root in _imported_roots(tree)
            if root not in ALLOWED] == ["scipy", "yaml"]


def test_star_import_gives_every_export():
    import deformclass

    names: dict = {}
    exec("from deformclass import *", names)
    exports = deformclass.__all__
    assert len(set(exports)) == len(exports)
    assert [name for name in exports if not hasattr(deformclass, name)] == []
    assert set(exports) <= set(names)
