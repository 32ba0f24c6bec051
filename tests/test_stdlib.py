"""The library imports nothing outside the standard library and itself,
uses every name it imports, and its source parses at the oldest Python it
supports; the command line loads no argument parser; no error it raises
for bad input quotes a value whole."""

import ast
import os
import pathlib
import subprocess
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


def test_every_module_parses_at_the_python_floor():
    """The source keeps to the grammar of ``requires-python``, 3.10."""
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


# (module, name) pairs allowed to stay imported though unused, with the reason
UNUSED_IMPORT_EXEMPT = {
    # perfbench/test_perfbench.py asserts that its tracer patches this import
    ("orbit_engine.py", "twist1"),
}


def unused_imports(path):
    """The names a module imports (its ``asname`` or its name) that no
    ``Name`` node in the module reads; ``from __future__`` is skipped."""
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    yield name


def test_every_import_is_used():
    """Each module but ``__init__.py`` reads every name it imports, so a
    deletion leaves no import behind; the exemptions are still unused."""
    unused = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path)
    }
    assert unused == UNUSED_IMPORT_EXEMPT


def test_no_validation_error_quotes_with_repr():
    """No f-string passed to a raised ``ValidationError`` converts a value
    with ``!r``, whose text has no bound: ``errors.quoted`` cuts it to
    ``QUOTE_LIMIT`` characters."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) and exc.func.id == "ValidationError":
                sites += [
                    f"{path.name}:{value.lineno}"
                    for arg in exc.args
                    for value in ast.walk(arg)
                    if isinstance(value, ast.FormattedValue) and value.conversion == ord("r")
                ]
    assert not sites


def budget_raises_outside_the_gate():
    """``module:line`` of each ``raise`` outside ``errors.py`` of
    ``BudgetError``, a call of it or a call of one of its attributes."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            target = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(target, ast.Attribute):
                target = target.value
            if isinstance(target, ast.Name) and target.id == "BudgetError":
                sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_every_budget_refusal_goes_through_the_gate():
    """Each cap is decided and its refusal worded by ``BudgetError.check``
    alone, which raises itself: no module builds a ``BudgetError`` to raise."""
    assert budget_raises_outside_the_gate() == []


def test_cli_serializes_through_one_path():
    """In ``cli.py``, ``json.dumps`` is read once by ``_canonical``, which
    writes each command's canonical text, and once by ``_text_lines``,
    which writes the scalars of ``--format text``: nothing else serializes."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    readers = [
        stmt.targets[0].id if isinstance(stmt, ast.Assign) else getattr(stmt, "name", ast.unparse(stmt))
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute) and node.attr == "dumps" and ast.unparse(node.value) == "json"
    ]
    assert sorted(readers) == ["_canonical", "_text_lines"]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "json"]


def test_cli_import_leaves_argparse_unloaded():
    """``twuality.cli`` reads argv off its own command table: importing it,
    in a fresh interpreter, loads no ``argparse``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, twuality.cli; print('argparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n")
