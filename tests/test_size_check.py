"""One comparison with the size cap: `errors.check_size` is the only code that
reads `MAX_SAMPLE_ELEMENTS`, and it refuses one number above the cap.

Every module under src/longtopic other than errors.py is read from its syntax
tree: a name, an attribute or an imported name `MAX_SAMPLE_ELEMENTS` there
fails the test. Docstrings and comments may mention it.
"""

import ast
from pathlib import Path

import pytest

from longtopic import errors
from longtopic.errors import ConfigError, ShapeError, check_size

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "longtopic"
CAP = "MAX_SAMPLE_ELEMENTS"


def cap_references(path):
    """The lines of one file whose code names the cap."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Name) and node.id == CAP
                or isinstance(node, ast.Attribute) and node.attr == CAP
                or isinstance(node, ast.alias) and node.name == CAP):
            yield node.lineno


def test_only_errors_refers_to_the_cap():
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "inference" / "trainer.py" in files
    outside = [f"{f.relative_to(PACKAGE)}:{line}" for f in files
               if f.name != "errors.py" for line in cap_references(f)]
    assert outside == []
    assert list(cap_references(PACKAGE / "errors.py"))


def test_the_guard_sees_every_way_to_name_the_cap(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(f'"""{CAP} in a docstring."""\n'
                   f"from .errors import {CAP}\n"
                   f"import longtopic.errors as e\n"
                   f"# {CAP} in a comment\n"
                   f"x = e.{CAP}\n"
                   f"y = {CAP} + 1\n")
    assert sorted(cap_references(src)) == [2, 5, 6]


def test_check_size_passes_at_the_cap_and_refuses_one_above(monkeypatch):
    monkeypatch.setattr(errors, "MAX_SAMPLE_ELEMENTS", 2 * 3 * 4 + 5)
    check_size(ConfigError, "these make", (2, 3, 4), (5,))
    check_size(ConfigError, "nothing makes")
    with pytest.raises(ShapeError, match=(
            r"^these make 30 numbers, above the cap 29$")):
        check_size(ShapeError, "these make", (2, 3, 4), (6,))
    with pytest.raises(ConfigError, match="make 30 numbers"):
        check_size(ConfigError, "they make", (30,), (0, 10 ** 9))
