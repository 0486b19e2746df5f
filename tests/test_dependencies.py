"""numpy is the package's only runtime dependency: every import in
src/samo names a standard-library module, numpy or samo itself, and NSGA-II
draws through numpy's public generator API alone. The numpy
gufuncs the package takes row products with give every row the bytes of
the batched matmuls they replaced. Under the warning settings of
pyproject.toml, a failing hypothesis test fails alone."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "samo").glob("*.py"))
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


GENERATOR_INTERNALS = {"has_uint32", "uinteger", "random_raw", "advance"}


def named_internals(path: Path) -> set:
    """The names of GENERATOR_INTERNALS that `path` uses as an attribute,
    a variable or a string, such as a key of a bit generator's state."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names & GENERATOR_INTERNALS


def test_moea_draws_through_the_public_generator_api():
    """NSGA-II draws with `Generator` calls and rewinds through the whole
    `bit_generator.state`; it keeps no copy of PCG64's buffer or stream."""
    moea = next(p for p in SOURCES if p.name == "moea.py")
    assert named_internals(moea) == set()


def test_a_generator_internal_is_caught(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("bits.advance(-1)\nstate['uinteger'] = 0\nbits.random_raw(2)\n")
    assert named_internals(source) == {"advance", "uinteger", "random_raw"}


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


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=10))
def test_fails_on_a_generated_example(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    """hypothesis's failure report warns while pytest turns warnings into
    errors; the session still runs the test after the failing one."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    command = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml")]
    command += ["-p", "no:cacheprovider", str(tmp_path / "test_property.py")]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output.splitlines()[-1], output
