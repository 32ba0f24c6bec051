"""List what the tier-1 suite leaves unexecuted in ``src/twuality``.

Runs the suite in this process under ``sys.settrace`` and
``threading.settrace``, tracing only frames whose code lies in
``src/twuality``, and prints:

* each line of a compiled code object that never ran, file by file;
* each ``if``, ``for`` or ``while`` whose body never ran, or whose exit
  (the condition false, or the loop done) never ran.

Run it from the repository root, with any extra pytest arguments::

    python tests/line_coverage.py [-x] [-k EXPR]

It needs only the standard library and pytest, and takes several minutes,
so the suite does not run it (no ``test_`` prefix).  It exits 1 when a line
never ran, but for the bodies of the ``if __name__ == "__main__":`` guards,
and 0 otherwise.  Failed tests are reported and not gated on: the tracer
slows every call, so a test with a time budget can fail under it alone.
Lines run only in a child process, as ``python -m twuality`` in a fresh
interpreter, do not count.  An exit is read off the line that runs after
the header, so a header left by an exception counts as exited.  Hypothesis
draws new examples on each run, so a branch that only its examples reach
can come and go between runs.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twuality"
PREFIX = str(PACKAGE) + "/"
RETURN = 0  # the arc target of a frame that returns or yields

# per file, each (line, next line) pair that ran; a line ran when it ends one
arcs_run: dict[str, set[tuple[int, int]]] = defaultdict(set)


def _trace(frame, event, arg):
    """The global tracer: a local tracer for frames of the package only."""
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    arcs = arcs_run[filename]
    last = RETURN

    def local(frame, event, arg):
        nonlocal last
        if event == "line":
            arcs.add((last, frame.f_lineno))
            last = frame.f_lineno
        elif event == "return":
            arcs.add((last, RETURN))
        return local

    return local


def executable_lines(path: Path) -> set[int]:
    """Every line that some instruction of the compiled file belongs to;
    a function's ``def`` line counts once, for the enclosing code."""
    out: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        body = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
        if code.co_name != "<module>":
            body.discard(code.co_firstlineno)
        out |= body
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return out


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def guarded_lines(tree: ast.Module) -> set[int]:
    """The lines of the bodies of the module's ``__main__`` guards."""
    return {
        line
        for node in tree.body
        if _is_main_guard(node)
        for stmt in node.body
        for line in range(stmt.lineno, stmt.end_lineno + 1)
    }


def branch_gaps(tree: ast.Module, arcs: set[tuple[int, int]]) -> list[str]:
    """Each ``if``/``for``/``while`` whose body, or exit, no arc reached:
    an arc leaves one of the header's lines for a line of the body, or for
    a line past the header and the body (or the frame's return)."""
    gaps = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.For, ast.While)) or _is_main_guard(node):
            continue
        head_end = (node.iter if isinstance(node, ast.For) else node.test).end_lineno
        head = range(node.lineno, head_end + 1)
        body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        if body.start <= head_end:
            continue  # a body on the header's line: no line event tells them apart
        targets = {b for a, b in arcs if a in head}
        kind = type(node).__name__.lower()
        if not targets & set(body):
            gaps.append(f"{node.lineno}: {kind} body never ran")
        forever = isinstance(node, ast.While) and isinstance(node.test, ast.Constant) and node.test.value
        if not forever and not {b for b in targets if b not in head and b not in body}:
            gaps.append(f"{node.lineno}: {kind} exit never ran")
    return sorted(gaps, key=lambda gap: int(gap.partition(":")[0]))


def report() -> int:
    """Print the gaps file by file; the number of lines that never ran
    outside the ``__main__`` guards."""
    missed_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        tree = ast.parse(path.read_text(), filename)
        arcs = arcs_run[filename]
        missed = executable_lines(path) - {line for _, line in arcs}
        gated = sorted(missed - guarded_lines(tree))
        missed_total += len(gated)
        gaps = branch_gaps(tree, arcs)
        name = path.relative_to(ROOT)
        if gated:
            print(f"{name}: never ran: {', '.join(map(str, gated))}")
        for gap in gaps:
            print(f"{name}:{gap}")
    print(f"{missed_total} line(s) of src/twuality never ran, __main__ guards aside")
    return missed_total


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"pytest exited {int(status)} under the tracer; not gated on")
    return 1 if report() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
