"""numpy is the package's only runtime dependency: every import in
src/samo names a standard-library module, numpy or samo itself. The numpy
gufuncs the package takes row products with give every row the bytes of
the batched matmuls they replaced."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles

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


def test_gufunc_row_products_equal_batched_matmul():
    """`np.vecdot` and `np.vecmat` equal the batched-matmul forms of
    tests/oracles.py bit for bit at the shapes MGDA and the RBF model use:
    S starts or queries, N coordinates, K objectives and C centers. A numpy
    whose kernels differ fails here and not only in a whole-run test."""
    rng = np.random.default_rng(25)

    def spread(*shape):
        # either sign, magnitudes log-uniform over 1e-5 to 1e5
        return rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(-5.0, 5.0, shape)

    for s in (1, 7, 60):
        for n in (1, 2, 4, 8, 24, 33):
            for k in (1, 2, 3):
                W, J = spread(s, k), spread(s, k, n)
                assert np.vecmat(W, J).tobytes() == oracles.row_vecmat(W, J).tobytes()
                # contiguous rows and rows strided through a Jacobian stack
                for A, B in ((spread(s, n), spread(s, n)), (J[:, 0] - J[:, -1], J[:, -1])):
                    assert np.vecdot(A, B).tobytes() == oracles.row_dot(A, B).tobytes()
        for c in range(1, 141):
            for k in (1, 2, 3):
                phi, weights = spread(s, c), spread(c, k)
                assert np.vecmat(phi, weights).tobytes() == oracles.row_vecmat(phi, weights).tobytes()
