"""The package imports only numpy, click and the standard library, and every
public name of the package has a caller.

The tests and the benchmark import only those, the package itself, their own
modules, and the test extra declared in pyproject.toml (pytest, hypothesis
and mpmath); no test-only package may become a run-time dependency.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import speccon

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "speccon"
ALLOWED = {"numpy", "click", "speccon"}
# Kept without a caller as the independent oracle for the computed spectra.
UNCALLED_EXPORTS = {"analytic_spectrum"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "__import__" \
                or isinstance(node, ast.Attribute) and node.attr == "import_module":
            roots.add("<dynamic import>")
    return roots


def test_package_imports_only_numpy_click_and_stdlib():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) >= 7
    for path in files:
        foreign = _imported_roots(path) - ALLOWED - set(sys.stdlib_module_names)
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_math_modules_read_and_write_no_files():
    # File formats are parsed and written by the CLI alone, and the math
    # modules do not depend on it.
    for name in ("graphs", "filters", "rates", "sim"):
        io = _imported_roots(PACKAGE / f"{name}.py") & {"json", "importlib", "click"}
        assert not io, f"{name}.py imports {sorted(io)}"


def test_cli_sets_no_floating_point_error_mode():
    # sim keeps finite states finite and lets a divergent run overflow without
    # a warning, so the CLI needs no np.errstate of its own.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(tree)}
    assert not names & {"errstate", "seterr"}


def test_guard_sees_a_forbidden_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nfrom scipy.sparse import csgraph\n")
    assert _imported_roots(bad) - ALLOWED - set(sys.stdlib_module_names) == {"scipy"}


def _unreferenced(names, paths: list[Path]) -> set[str]:
    """The names that no file in ``paths`` reads as a Name or an Attribute."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return set(names) - read


def test_every_export_has_a_caller():
    # A public name serves the package's own modules or an acceptance
    # criterion; a unit test of its own is not a caller.
    callers = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers.append(ROOT / "tests" / "test_acceptance.py")
    uncalled = _unreferenced(speccon.__all__, callers) - UNCALLED_EXPORTS
    assert not uncalled, f"exported without a caller: {sorted(uncalled)}"


def test_guard_sees_an_uncalled_export(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import math\n\ndef used():\n    return math.pi\n\n"
                      "def unused():\n    return used()\n")
    assert _unreferenced({"used", "unused", "pi"}, [module]) == {"unused"}


def test_tests_and_bench_import_only_declared_packages():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in requirements}
    for directory in (ROOT / "tests", ROOT / "bench"):
        files = sorted(directory.glob("*.py"))
        local = {p.stem for p in files}
        for path in files:
            undeclared = (_imported_roots(path) - declared - local - {project["name"]}
                          - set(sys.stdlib_module_names))
            assert not undeclared, f"{directory.name}/{path.name} imports {sorted(undeclared)}"
