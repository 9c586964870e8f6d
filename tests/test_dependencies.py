"""The package's runtime dependencies and its test extra, as pyproject.toml
declares them."""
import ast
import re
import sys
from pathlib import Path

import pytest

# tomllib is in Python 3.11 on; the package also supports 3.10.
tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dposforensics"
TESTS = ROOT / "tests"


def _imported_top_levels(directory: Path) -> set[str]:
    """The top-level module of every absolute import under directory, at the
    top of a module or inside a function."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _third_party(directory: Path) -> set[str]:
    """The imports under directory that are neither the standard library,
    the package, nor a module of the directory itself."""
    local = {path.stem for path in directory.rglob("*.py")}
    return (_imported_top_levels(directory) - set(sys.stdlib_module_names)
            - {"dposforensics"} - local)


def _names(requirements: list[str]) -> set[str]:
    """The distribution names of requirements; each is also the name its
    module is imported by."""
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
            for requirement in requirements}


def _project() -> dict:
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def test_third_party_imports_are_the_declared_dependencies():
    """Each third-party import is declared, and each declared dependency is
    imported, so that neither list outlives a change to the other."""
    assert _third_party(PACKAGE) == _names(_project()["dependencies"])


def test_test_imports_are_the_test_extra():
    """The tests' third-party imports beyond the runtime dependencies are
    the test extra, so that an install with [test] runs every test, and the
    extra names nothing the tests do not import."""
    project = _project()
    assert _third_party(TESTS) - _names(project["dependencies"]) == \
        _names(project["optional-dependencies"]["test"])
