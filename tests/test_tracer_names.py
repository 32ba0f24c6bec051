"""Every name that ``perfbench/tracer.py`` wraps still exists in the package.

The tracer looks its functions up by module and attribute name, and its
methods in the class namespace, so deleting or renaming one of them
breaks every traced benchmark run, which the test suite does not start.
The file is read as text and parsed, not imported, so the test leaves
``perfbench/`` as it is.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolve(node):
    """The object a ``module`` or ``module.Class`` expression of the tracer
    names, with each bare name a submodule of ``twuality``."""
    if isinstance(node, ast.Name):
        return importlib.import_module(f"twuality.{node.id}")
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return getattr(_resolve(node.value), node.attr)


def _traced_entries():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    entries = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("TRACED", "TRACED_METHODS") for t in stmt.targets
        ):
            entries += stmt.value.elts
    return entries


_ENTRIES = _traced_entries()


def test_tracer_lists_are_found():
    assert len(_ENTRIES) >= 20


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: f"{ast.unparse(e.elts[0])}.{e.elts[1].value}")
def test_traced_name_resolves(entry):
    owner, attr = entry.elts[0], entry.elts[1].value
    assert callable(vars(_resolve(owner)).get(attr))
