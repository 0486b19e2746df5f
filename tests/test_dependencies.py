"""numpy is the package's only runtime dependency: every import in
src/samo names a standard-library module, numpy or samo itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "samo").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "samo"}


def imported_modules(path: Path) -> set:
    """Top-level names of the modules `path` imports; relative imports
    stay inside samo."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "driver.py", "core.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib_numpy_and_samo(path):
    assert imported_modules(path) <= ALLOWED, imported_modules(path) - ALLOWED


def test_a_third_party_import_is_caught(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import os\nfrom scipy.optimize import minimize\nfrom . import core\n")
    assert imported_modules(source) - ALLOWED == {"scipy"}
