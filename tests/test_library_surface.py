"""The library holds only code its pipeline runs, and README's tour runs.

Every module-level function and class in ``src/singlet_selftest``, private
ones included, must be referenced by some code of the package other than its
own definition and ``__init__.py``'s export; a definition only the tests use
belongs in the tests, and a helper left without a caller goes.  README's
``python`` block is executed as written, so the tour cannot drift from the
API.  The installed ``singlet-selftest`` script must name ``cli.main``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from singlet_selftest import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "singlet_selftest"


def unreferenced_definitions(package: Path) -> list[str]:
    """``module.name`` of each module-level ``def`` or ``class`` of
    ``package`` that no name or attribute in its modules, ``__init__.py``
    and the definition's own body excepted, refers to."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    # name -> (module, line) of every Name and Attribute in the package
    references: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append((module, node.lineno))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                outside = [
                    (where, line) for where, line in references.get(node.name, [])
                    if not (where == module and node.lineno <= line <= node.end_lineno)
                ]
                if not outside:
                    unused.append(f"{module[:-3]}.{node.name}")
    return unused


def test_every_public_definition_is_used_by_the_library():
    assert unreferenced_definitions(PACKAGE) == []


def test_the_check_sees_an_unused_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return _helper()\n\n\n"
        "def unused():\n    return unused()\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "def _orphan():\n    return used()\n"
    )
    assert unreferenced_definitions(tmp_path) == ["a.unused", "a._orphan"]


def test_readme_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_console_script_names_cli_main():
    # The tests run cli.main in-process and as python -m singlet_selftest.cli,
    # never the script pip installs, so its entry is checked here.  Read as
    # text: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^(\S+) = "(\S+)"$', scripts, flags=re.MULTILINE) == [
        ("singlet-selftest", "singlet_selftest.cli:main")]
    assert callable(cli.main)
