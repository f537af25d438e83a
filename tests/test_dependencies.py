"""The package imports only numpy, click and the standard library.

scipy, networkx and hypothesis are installed for the tests, where they serve
as independent oracles; none of them may become a run-time dependency.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "speccon"
ALLOWED = {"numpy", "click", "speccon"}


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


def test_guard_sees_a_forbidden_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import numpy as np\nfrom scipy.sparse import csgraph\n")
    assert _imported_roots(bad) - ALLOWED - set(sys.stdlib_module_names) == {"scipy"}
