"""Every module the package imports is in the standard library, the package or its dependencies.

scipy is imported only inside functions, so importing the package loads none of it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "intertwine").glob("*.py"))


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


def import_time_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import that runs when ``source`` is imported.

    That is every one outside a function body; class bodies run at import.
    """
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_declared(path):
    third_party = imported_modules(path) - sys.stdlib_module_names - {"intertwine"}
    assert third_party <= declared_dependencies(), path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_is_imported_inside_functions_only(path):
    at_import = [
        f"{path.name}:{line}: import {module}"
        for line, module in import_time_imports(path.read_text())
        if module.split(".")[0] == "scipy"
    ]
    hint = "scipy imported at module level; import it in the function that calls it"
    assert not at_import, "\n".join([hint, *at_import])


def test_import_time_imports_skip_function_bodies():
    source = (
        "import numpy as np\n"
        "try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n"
        "class A:\n    from scipy import sparse\n"
        "def f():\n    import scipy.optimize\n    from scipy import special\n"
        "from . import linalg\n"
    )
    assert import_time_imports(source) == [(1, "numpy"), (3, "scipy.linalg"), (7, "scipy")]
