"""The README against the code it documents: the Budgets cap sentence
against the cap constants, the CLI table against the command table, and
the value-type sentence against the classes declared with
``_value_type``."""

import ast
import pathlib
import re

import twuality
from twuality.cli import _COMMANDS
from twuality.multimatroid import LIFT_CAP, MULTIMATROID_CAP, ORBIT_VIA_LIFT_CAPS
from twuality.orbit_engine import ORBIT_CAPS, STABILIZER_CAPS
from twuality.ribbon import MEDIAL_LIFT_CAP, QUASI_TREE_CAP, TRANSITION_MATROID_CAP
from twuality.set_system import VF_SAFE_DEFAULT_CAP

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    """The text under a ``## `` heading, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_budget_caps_match_the_constants():
    assert set(ORBIT_CAPS) == set(ORBIT_VIA_LIFT_CAPS) == {"full", "iota"}
    assert set(STABILIZER_CAPS) == {"all", "uniform"}
    sentence = (
        "Exhaustive routines have hard caps and raise rather than truncate (`--max-n` overrides):"
        f" orbit `full` n <= {ORBIT_CAPS['full']}, `iota` n <= {ORBIT_CAPS['iota']};"
        f" stabilizer search `all` n <= {STABILIZER_CAPS['all']}, `uniform` n <= {STABILIZER_CAPS['uniform']};"
        f" multimatroid axiom checks n <= {MULTIMATROID_CAP}; lift n <= {LIFT_CAP};"
        f" orbit-via-lift `full` n <= {ORBIT_VIA_LIFT_CAPS['full']}, `iota` n <= {ORBIT_VIA_LIFT_CAPS['iota']};"
        f" quasi-tree enumeration {QUASI_TREE_CAP} edges;"
        f" transition matroids {TRANSITION_MATROID_CAP} medial vertices;"
        f" the medial/lift comparison {MEDIAL_LIFT_CAP} edges;"
        f" the vf-safety closure search n <= {VF_SAFE_DEFAULT_CAP}."
    )
    assert sentence in " ".join(_section("Budgets").split())


def test_cli_table_lists_the_parser_commands():
    """Each row of the table names one command, the words before ``FILE``,
    with the ``ribbon`` subcommands spelled out; the command table has
    exactly those."""
    rows = re.findall(r"^\| `([^`]*?) FILE\b", _section("Command-line interface"), re.M)
    expected = set()
    for name, command in _COMMANDS.items():
        what = dict(command.positionals).get("what", ())
        expected.update([f"{name} {sub}" for sub in what] or [name])
    assert len(rows) == len(set(rows))
    assert set(rows) == expected


def test_value_type_sentence_names_the_value_types():
    """The backticked names in the README's "The value types (...)"
    sentence are exactly the classes of the package decorated with
    ``_value_type``, each named once."""
    sentence = re.search(r"The value types \(([^)]*)\)", " ".join(README.split())).group(1)
    named = re.findall(r"`(\w+)`", sentence)
    decorated = set()
    for path in pathlib.Path(twuality.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "_value_type"
                for d in node.decorator_list
            ):
                decorated.add(node.name)
    assert len(named) == len(set(named))
    assert set(named) == decorated
