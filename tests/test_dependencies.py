"""Every module the package imports is in the standard library, the package or its dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the absolute imports anywhere in `path`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "intertwine").glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_declared(path):
    third_party = imported_modules(path) - sys.stdlib_module_names - {"intertwine"}
    assert third_party <= declared_dependencies(), path.name
