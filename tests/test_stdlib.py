"""The library imports nothing outside the standard library and itself."""

import ast
import pathlib
import sys

import twuality

PACKAGE = pathlib.Path(twuality.__file__).parent


def imported_roots(path):
    """The top-level module of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 8
    foreign = {
        f"{path.relative_to(PACKAGE)}: {root}"
        for path in modules
        for root in imported_roots(path)
        if root not in sys.stdlib_module_names and root != "twuality"
    }
    assert not foreign
