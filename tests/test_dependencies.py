"""The package's runtime dependencies, as pyproject.toml declares them."""
import ast
import re
import sys
from pathlib import Path

import pytest

# tomllib is in Python 3.11 on; the package also supports 3.10.
tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dposforensics"


def _imported_top_levels() -> set[str]:
    """The top-level module of every absolute import in the package, at the
    top of a module or inside a function."""
    names = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared() -> set[str]:
    """The distribution names of pyproject.toml's dependencies; each is also
    the name its module is imported by."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
            for requirement in project["project"]["dependencies"]}


def test_third_party_imports_are_the_declared_dependencies():
    """Each third-party import is declared, and each declared dependency is
    imported, so that neither list outlives a change to the other."""
    third_party = (_imported_top_levels() - set(sys.stdlib_module_names)
                   - {"dposforensics"})
    assert third_party == _declared()
