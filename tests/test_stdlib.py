"""The library imports nothing outside the standard library and itself,
uses every name it imports, exports only names that something uses, and
its source parses at the oldest Python it supports; the command line
loads no argument parser; no error it raises for bad input quotes a value
whole."""

import ast
import os
import pathlib
import re
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


REPO = pathlib.Path(__file__).resolve().parent.parent

# each name ``__init__.py`` exports, and one file that uses it: a module of
# the package, the README or the acceptance suite
EXPORT_USERS = {
    "BudgetError": "src/twuality/cli.py",
    "ConsistencyError": "src/twuality/cli.py",
    "TwualityError": "src/twuality/errors.py",
    "ValidationError": "src/twuality/cli.py",
    "DeltaMatroidWitness": "src/twuality/set_system.py",
    "SetSystem": "src/twuality/cli.py",
    "dual_twist": "README.md",
    "is_delta_matroid": "README.md",
    "is_vf_safe": "src/twuality/multimatroid.py",
    "loop_complement": "src/twuality/orbit_engine.py",
    "mask_of": "src/twuality/twuality_group.py",
    "members_of": "src/twuality/set_system.py",
    "twist": "src/twuality/orbit_engine.py",
    "BAR": "src/twuality/cli.py",
    "FLIPS": "src/twuality/orbit_engine.py",
    "Flip": "src/twuality/multimatroid.py",
    "ONE": "src/twuality/cli.py",
    "PLUS": "src/twuality/cli.py",
    "PLUS_STAR": "src/twuality/twuality_group.py",
    "Perm": "src/twuality/multimatroid.py",
    "STAR": "src/twuality/cli.py",
    "STAR_PLUS": "src/twuality/twuality_group.py",
    "TwualityElement": "src/twuality/cli.py",
    "act": "src/twuality/cli.py",
    "apply_flip": "src/twuality/cli.py",
    "flip_mul": "src/twuality/cli.py",
    "flip_pow": "src/twuality/orbit_engine.py",
    "parse_flip": "src/twuality/cli.py",
    "parse_perm": "src/twuality/cli.py",
    "reduce_word": "README.md",
    "sd_identity": "tests/test_acceptance.py",
    "sd_inv": "src/twuality/twuality_group.py",
    "sd_mul": "src/twuality/twuality_group.py",
    "uniform_flip": "src/twuality/orbit_engine.py",
    "vec_inv": "src/twuality/twuality_group.py",
    "vec_mul": "src/twuality/twuality_group.py",
    "vec_reindex": "src/twuality/twuality_group.py",
    "OrbitReport": "src/twuality/orbit_engine.py",
    "StabilizerHit": "src/twuality/orbit_engine.py",
    "UniformizationResult": "src/twuality/orbit_engine.py",
    "cycle_condition": "src/twuality/orbit_engine.py",
    "normalize_rep": "README.md",
    "orbit": "src/twuality/cli.py",
    "stabilizer_search": "src/twuality/cli.py",
    "transport": "README.md",
    "uniformize": "src/twuality/cli.py",
    "Carrier": "src/twuality/multimatroid.py",
    "Multimatroid": "src/twuality/cli.py",
    "Projection": "src/twuality/cli.py",
    "Restriction": "src/twuality/multimatroid.py",
    "TransversalTriple": "src/twuality/cli.py",
    "extract": "src/twuality/cli.py",
    "is_multimatroid": "src/twuality/cli.py",
    "is_tight": "src/twuality/cli.py",
    "lift": "src/twuality/cli.py",
    "orbit_via_lift": "README.md",
    "restrict": "README.md",
    "triple_flip": "src/twuality/multimatroid.py",
    "triple_word": "tests/test_acceptance.py",
    "FourRegularGraph": "src/twuality/ribbon.py",
    "RibbonEdge": "src/twuality/ribbon.py",
    "RibbonGraph": "src/twuality/cli.py",
    "MedialLiftReport": "src/twuality/ribbon.py",
    "all_black": "tests/test_acceptance.py",
    "all_white": "src/twuality/ribbon.py",
    "boundary_components": "README.md",
    "delta_matroid_of": "src/twuality/cli.py",
    "medial": "src/twuality/cli.py",
    "spanning_quasi_trees": "README.md",
    "split_components": "src/twuality/ribbon.py",
    "transition_matroid": "src/twuality/ribbon.py",
    "verify_medial_lift": "src/twuality/cli.py",
}


def exported_names():
    """The names that the ``from .module import ...`` lines of
    ``__init__.py`` bind, in order."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    return [alias.asname or alias.name for node in imports for alias in node.names]


def reads_name(path, name):
    """Whether a source file reads ``name`` outside a ``def`` or ``class``
    of that name; for the README, whether a code block or code span holds
    it as a word."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        code = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
        return any(re.search(rf"\b{name}\b", span) for span in code)
    tree = ast.parse(text, str(path))
    own = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        for inner in ast.walk(node)
    }
    return any(
        isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load) and id(node) not in own
        for node in ast.walk(tree)
    )


def test_every_export_has_a_user():
    """``EXPORT_USERS`` lists exactly the exported names, and the file it
    names for each reads it: a new export without a user fails here."""
    assert sorted(EXPORT_USERS.keys() ^ set(exported_names())) == []
    modules = (REPO / "src" / "twuality").glob("*.py")
    users = {"README.md", "tests/test_acceptance.py"} | {
        f"src/twuality/{path.name}" for path in modules if path.name != "__init__.py"
    }
    unused = [
        f"{name}: {user}"
        for name, user in EXPORT_USERS.items()
        if user not in users or not reads_name(REPO / user, name)
    ]
    assert not unused


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
