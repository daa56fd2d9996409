"""The package's declared runtime dependencies are exactly what it imports.

An AST walk of ``src/repro`` collects the top-level module of every
absolute import; less the standard library and ``repro`` itself, that
set must equal the distributions ``pyproject.toml`` declares.  A
dependency nothing imports, or an import nothing declares, fails here.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro", "__future__"}


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in project["dependencies"]}


def test_declared_dependencies_are_the_imported_ones():
    imported = imported_packages()
    assert "numpy" in imported
    assert imported == declared_dependencies()
