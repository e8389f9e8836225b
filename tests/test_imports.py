"""The library runs on the standard library and numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaglom"}

# Both commands reach the exact Green solve, so a deferred import there
# would be caught too.
CLI_RUN = """
import sys

import yaglom.cli

for args in (["conditions", "--preset", "alpha_walk"], ["spectral"]):
    assert yaglom.cli.main(args + ["--out-dir", sys.argv[1]]) == 0, args
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RUN, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_stdlib_and_numpy():
    paths = sorted((SRC / "yaglom").glob("*.py"))
    assert paths
    outside = [
        f"{path.name}:{lineno} imports {name}"
        for path in paths
        for lineno, name in _imported_modules(ast.parse(path.read_text(), str(path)))
        if name.partition(".")[0] not in ALLOWED
    ]
    assert not outside, outside


# Every private name one library module imports from another, as
# (importer, source, name).  Like the export list in ``test_api.py``, this
# grows only on purpose: the propagation core ``_normalised_run`` is
# called from ``evolve.evolve_trace`` alone, ``check_conditions`` reads
# hhat off the forward run it already makes for [2], and rho and hhat share
# one Richardson extrapolation.
PRIVATE_IMPORTS = {
    ("conditions", "spectral", "_GreenPole"),
    ("conditions", "transforms", "_hhat_from_trace"),
    ("evolve", "chain", "_normalised_run"),
    ("spectral", "chain", "_MAX_SPAN"),
    ("transforms", "spectral", "_richardson"),
}


def test_private_imports_between_modules_are_pinned():
    found = {
        (path.stem, node.module, alias.name)
        for path in sorted((SRC / "yaglom").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    }
    assert found == PRIVATE_IMPORTS
