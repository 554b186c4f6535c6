"""The package's runtime dependencies are numpy and the standard library.

Every import statement in every module under src/longtopic is read from its
syntax tree, including imports inside functions: a name that is neither the
package itself, numpy, nor a standard-library module fails the test. And
`from longtopic import *` binds every name in `longtopic.__all__`.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "longtopic"
ALLOWED = {"longtopic", "numpy"}


def imported_roots(path):
    """(line, top-level module) of every absolute import in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0])
                        for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "inference" / "loss.py" in files
    outside = [f"{f.relative_to(PACKAGE)}:{line} imports {root}"
               for f in files for line, root in imported_roots(f)
               if root not in ALLOWED | sys.stdlib_module_names]
    assert outside == []


def test_the_guard_sees_a_third_party_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nfrom numpy import linalg\n"
                   "def f():\n    import scipy.special\nfrom . import x\n")
    assert list(imported_roots(src)) == [(1, "os"), (2, "numpy"),
                                         (4, "scipy")]


def test_star_import_binds_every_exported_name():
    import longtopic
    namespace = {}
    exec("from longtopic import *", namespace)
    assert set(longtopic.__all__) <= set(namespace)
