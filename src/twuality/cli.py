"""Command-line surface.

Every subcommand reads canonical JSON files and returns its result as
canonical JSON text, which ``main`` alone writes to stdout; ``--format
text`` writes the sketch of that text's value instead.  One command
table (``_COMMANDS``) holds each command's function, the kind of file it
reads, its positional words and its options; ``_parse`` reads
argv once against it, with argparse's syntax (options anywhere after the
command word, ``--name value`` or ``--name=value``, unique prefixes,
``--``, negative numbers as values, the last of a repeated option
winning, ``-h``) and argparse's error wording, each offending word quoted
to ``errors.QUOTE_LIMIT`` characters.  ``main`` reads the file as bytes
and loads it before the subcommand parses any option's value.  Identical
inputs produce byte-identical outputs.  Exit codes: 0 ok, 1 validation
error, 2 budget exceeded, 3 a verification subcommand found a concrete
counterexample (which is always printed), 4 internal error: a
re-verification inside the package failed, which is a bug and not bad
input (one ``internal error: ...`` line on stderr).

Operation strings for ``apply`` are read left-to-right and applied
left-to-right: ``--ops "*{1} +{2} (1 2)"`` twists at 1, loop-complements
at 2, then relabels.  Inside a single braces token the letters are also
left-to-right, so the token ``*+{1}`` twists first; it therefore denotes
the flip whose canonical token is ``+*``.  Flip value tokens elsewhere
(``--gvec``, ``--g``, reports) use the canonical names ``1 * + *+ +* ~``,
whose words apply rightmost-first.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple

from .errors import BudgetError, ConsistencyError, ValidationError, clipped, quoted
from .multimatroid import (
    Multimatroid,
    Projection,
    TransversalTriple,
    _orbit_via_lift_tables,
    extract,
    is_multimatroid,
    is_tight,
    lift,
)
from .orbit_engine import orbit, stabilizer_search, uniformize
from .ribbon import RibbonGraph, delta_matroid_of, medial, verify_medial_lift
from .set_system import SetSystem, _canonical_order, _exchange_witness, _systems_pieces, _vf_safety
from .twuality_group import (
    BAR,
    ONE,
    PLUS,
    STAR,
    TwualityElement,
    _parse_ints,
    act,
    apply_flip,
    flip_mul,
    parse_flip,
    parse_perm,
)


def _load_json(path: str) -> dict:
    """The JSON value of the file at ``path``, read as bytes and decoded
    here; ``\r\n`` and ``\r`` become ``\n`` as a text-mode read makes them,
    so values and error positions are those of such a read."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:  # its text names the path again, so only its number and reason
        raise ValidationError(f"cannot read {clipped(path)}: [Errno {exc.errno}] {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{clipped(path)} is not UTF-8 text: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except ValueError as exc:  # a ``JSONDecodeError``, or an integer literal too long for ``int``
        raise ValidationError(f"{clipped(path)} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{clipped(path)} nests its JSON too deeply") from None


# the canonical text of a tree built by a ``to_json``, which holds no cycle
_canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"), check_circular=False)


def _text_lines(value, indent):
    """The sketch of a dict or list: one line per key or item.  A scalar,
    or a list of scalars (empty or not), follows its ``key:`` or ``-`` as
    compact JSON; a dict or a list holding containers opens a block below
    it, one level deeper."""
    if isinstance(value, dict):
        items = ((f"{key}:", value[key]) for key in sorted(value))
    else:
        items = (("-", inner) for inner in value)
    for head, inner in items:
        if isinstance(inner, dict) or (isinstance(inner, list) and any(isinstance(x, (dict, list)) for x in inner)):
            yield indent + head
            yield from _text_lines(inner, indent + "  ")
        else:
            yield f"{indent}{head} {json.dumps(inner, separators=(',', ':'))}"


_OPS_SCANNER = re.compile(
    r"(?P<flip>[*+~1]+\{[0-9,\s]*\})"
    r"|(?P<cycles>(?:\([0-9,\s]*\))+)"
    r"|(?P<oneline>\[[0-9,\s]*\])"
    r"|(?P<junk>\S+)"
)


def _parse_ops(text: str, n: int):
    """Left-to-right operation list: flip-word tokens with braces, plus
    permutations in cycle or one-line notation."""
    ops = []
    for m in _OPS_SCANNER.finditer(text):
        if m.group("junk"):
            raise ValidationError(f"bad operation token {quoted(m.group('junk'))}")
        if m.group("cycles") or m.group("oneline"):
            ops.append(("perm", parse_perm(m.group(0), n)))
            continue
        word, body = m.group("flip")[:-1].split("{", maxsplit=1)
        flip = ONE
        for ch in word:
            step = {"1": ONE, "*": STAR, "+": PLUS, "~": BAR}[ch]
            flip = flip_mul(step, flip)
        elems = _parse_ints(body, f"bad operation token {quoted(m.group(0))}")
        if len(set(elems)) != len(elems):
            raise ValidationError(f"repeated element in {quoted(m.group(0))}")
        ops.append(("flip", flip, elems))
    return ops


def _parse_triple(text: str | None, n: int) -> TransversalTriple:
    if text is None:
        return TransversalTriple.reference(n)
    try:
        data = json.loads(text)
        tau = TransversalTriple.from_json(data if isinstance(data, dict) else {"roles": data})
    except (ValueError, RecursionError, ValidationError) as exc:
        raise ValidationError(f"bad transversal triple {quoted(text)}: {exc}") from None
    if tau.n != n:
        raise ValidationError(f"triple covers {tau.n} classes, expected {n}")
    return tau


def _parse_projection(text: str | None, n: int) -> Projection:
    if text is None:
        return Projection.identity(n)
    return Projection(parse_perm(text, n))


def _parse_gvec(text: str, n: int):
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if len(tokens) != n:
        raise ValidationError(f"flip vector has {len(tokens)} entries, expected {n}")
    return tuple(parse_flip(t) for t in tokens)


def _cmd_check(D, args) -> tuple[str, int]:
    # the closure walks exchange on D first, and its failure table is the witness's
    vf_safe, bad = _vf_safety(D, args.max_n, None)
    witness = _exchange_witness(D, bad)
    payload = {
        "n": D.n,
        "proper": D.is_proper,
        "normal": D.is_normal,
        "delta_matroid": witness.valid,
        "witness": witness.to_json(),
        "vf_safe": vf_safe,
    }
    return _canonical(payload), 0


def _cmd_apply(D, args) -> tuple[str, int]:
    for op in _parse_ops(args.ops, D.n):
        if op[0] == "perm":
            D = act(TwualityElement((ONE,) * D.n, op[1]), D)
        else:
            _, flip, elems = op
            for i in elems:
                D = apply_flip(D, flip, i)
    return _canonical(D.to_json()), 0


def _cmd_orbit(D, args) -> tuple[str, int]:
    return orbit(D, mode=args.mode, max_n=args.max_n).canonical_json(), 0


def _cmd_selftwual(D, args) -> tuple[str, int]:
    hits = stabilizer_search(D, mode=args.mode, max_n=args.max_n)
    # each hit's ``to_json`` as canonical text: no token needs escaping, no vector is empty
    perm = functools.cache(lambda images: str(list(images)).replace(" ", ""))
    texts = (
        '{"gvec":["%s"],"perm":%s' % ('","'.join([f.token for f in h.gvec]), perm(h.perm.images))
        + ("}" if h.uniform is None else ',"uniform":"%s"}' % h.uniform.token)
        for h in hits
    )
    return '{"count":%d,"hits":[%s]}' % (len(hits), ",".join(texts)), 0


def _cmd_uniformize(D, args) -> tuple[str, int]:
    gvec = _parse_gvec(args.gvec, D.n)
    mu = parse_perm(args.mu, D.n)
    g = parse_flip(args.g)
    return _canonical(uniformize(D, gvec, mu, g).to_json()), 0


def _cmd_lift(D, args) -> tuple[str, int]:
    tau = _parse_triple(args.tau, D.n)
    sigma = _parse_projection(args.sigma, D.n)
    return lift(D, tau, sigma, max_n=args.max_n).canonical_json(), 0


def _cmd_extract(Z, args) -> tuple[str, int]:
    tau = _parse_triple(args.tau, Z.n)
    sigma = _parse_projection(args.sigma, Z.n)
    return _canonical(extract(Z, tau, sigma).to_json()), 0


def _cmd_mm_check(Z, args) -> tuple[str, int]:
    ok, witness = is_multimatroid(Z, max_n=args.max_n)
    tight, tight_witness = is_tight(Z, max_n=args.max_n)
    payload = {
        "n": Z.n,
        "multimatroid": ok,
        "witness": witness,
        "tight": tight,
        "tight_witness": tight_witness,
    }
    return _canonical(payload), 0


def _cmd_orbit_via_lift(D, args) -> tuple[str, int]:
    """``{"elements": [D.to_json() ...], "size": ...}`` over the systems of
    ``orbit_via_lift``, one join of ``_systems_pieces`` over their order
    forms, as ``orbit`` writes its elements: no ``SetSystem`` is built."""
    tau = _parse_triple(args.tau, D.n)
    sigma = _parse_projection(args.sigma, D.n)
    forms = _canonical_order(_orbit_via_lift_tables(D, tau, sigma, args.mode, args.max_n), D.n)[1]
    return "".join(['{"elements":', *_systems_pieces(forms, D.n), ',"size":%d}' % len(forms)]), 0


def _cmd_ribbon(G, args) -> tuple[str, int]:
    if args.what == "medial":
        return _canonical(medial(G).to_json()), 0
    if args.what == "dm":
        return _canonical(delta_matroid_of(G, max_e=args.max_n).to_json()), 0
    report = verify_medial_lift(G, max_e=args.max_n)
    return _canonical(report.to_json()), 0 if report.equal else 3


class _Opt(NamedTuple):
    """One option of the command table.  ``type`` is ``int`` or ``str``
    for an option that takes a value (one of ``choices`` when given), or
    ``None`` for a flag that stores ``const``."""

    dest: str
    default: object = None
    type: type | None = str
    choices: tuple = ()
    const: object = None
    required: bool = False
    help: str = ""


_HELP = _Opt("help", type=None, help="show this help message and exit")
_TOP = {"-h": _HELP, "--help": _HELP}  # the only options before the command word
_COMMON = {
    **_TOP,
    "--format": _Opt("format", "json", choices=("json", "text")),
    "--max-n": _Opt("max_n", type=int, help="override the hard budget cap"),
    "--threads": _Opt("threads", 1, int, help="accepted for compatibility; output is independent of it"),
}
_IOTA = {"--iota": _Opt("mode", "full", None, const="iota", help="flips only, no relabeling")}
_TRIPLE = {"--tau": _Opt("tau"), "--sigma": _Opt("sigma")}


class _Command:
    """One row of the command table: the function, the kind of file it
    reads, its options by option string (the common ones first) and its
    positional words as ``(dest, choices)``: ``file``, after ``what`` when
    ``what`` lists the choices of a word before it."""

    def __init__(self, fn, kind, help, options=None, what=()):
        self.fn, self.kind, self.help = fn, kind, help
        self.options = {**_COMMON, **(options or {})}
        self.positionals = ((("what", what),) if what else ()) + (("file", ()),)
        self.defaults = {opt.dest: opt.default for opt in self.options.values() if opt is not _HELP}
        self.defaults.update(fn=fn, kind=kind)
        self.required = [(option, opt.dest) for option, opt in self.options.items() if opt.required]


_COMMANDS = {
    "check": _Command(_cmd_check, SetSystem, "properness / normality / exchange axiom / vf-safety report"),
    "apply": _Command(
        _cmd_apply, SetSystem, "apply a left-to-right operation string", {"--ops": _Opt("ops", required=True)}
    ),
    "orbit": _Command(_cmd_orbit, SetSystem, "breadth-first orbit enumeration", _IOTA),
    "selftwual": _Command(
        _cmd_selftwual,
        SetSystem,
        "search for stabilizing group elements",
        {"--uniform-only": _Opt("mode", "all", None, const="uniform")},
    ),
    "uniformize": _Command(
        _cmd_uniformize,
        SetSystem,
        "conjugate a stabilizer into a uniform one",
        {"--gvec": _Opt("gvec", required=True), "--mu": _Opt("mu", required=True), "--g": _Opt("g", required=True)},
    ),
    "lift": _Command(_cmd_lift, SetSystem, "lift a vf-safe system to its 3-matroid", _TRIPLE),
    "extract": _Command(
        _cmd_extract,
        Multimatroid,
        "extract the set system of a 3-matroid",
        {"--tau": _Opt("tau", required=True), "--sigma": _Opt("sigma", required=True)},
    ),
    "mm-check": _Command(_cmd_mm_check, Multimatroid, "multimatroid axioms and tightness report"),
    "orbit-via-lift": _Command(_cmd_orbit_via_lift, SetSystem, "orbit through lift extractions", {**_IOTA, **_TRIPLE}),
    "ribbon": _Command(_cmd_ribbon, RibbonGraph, "ribbon-graph commands", what=("dm", "medial", "verify-t63")),
}

# argparse's test for a negative number, which is a positional word and so a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Help(Exception):
    """``-h`` or ``--help`` was given; the argument is the help text."""


def _metavar(word: str, choices) -> str:
    """How usage and help name a value: its choices, else ``word``."""
    return "{%s}" % ",".join(choices) if choices else word


def _spelled(option: str, opt: _Opt) -> str:
    """An option as usage and help write it, with a metavar when it takes a value."""
    return option if opt.type is None else f"{option} {_metavar(opt.dest.upper(), opt.choices)}"


def _usage(name: str | None) -> str:
    """The usage line of command ``name``, or of the program when ``None``."""
    if name is None:
        return "usage: twuality [-h] {%s} ..." % ",".join(_COMMANDS)
    command = _COMMANDS[name]
    spelled = [(_spelled(o, opt), opt.required) for o, opt in command.options.items() if opt is not _HELP]
    options = [text if required else f"[{text}]" for text, required in spelled]
    words = [_metavar(dest, choices) for dest, choices in command.positionals]
    return " ".join(["usage: twuality", name, "[-h]", *options, *words])


def _help(name: str | None) -> str:
    """The usage line, a description, then a line per command, or per
    positional word and option of command ``name``."""
    if name is None:
        about, rows = __doc__.splitlines()[0], [(command, entry.help) for command, entry in _COMMANDS.items()]
    else:
        command = _COMMANDS[name]
        rows = [(_metavar(dest, choices), "") for dest, choices in command.positionals]
        options = [("-h, --help" if o == "--help" else _spelled(o, opt), opt.help) for o, opt in command.options.items()]
        rows += options[1:]  # "-h" and "--help" share one row
        about = command.help
    return "\n".join([_usage(name), "", about, ""] + [f"  {left:<24}{right}".rstrip() for left, right in rows]) + "\n"


def _refuse(message: str, name: str | None) -> ValidationError:
    """An argv error in argparse's words, then the usage line of the
    program (``name`` None) or of command ``name``."""
    return ValidationError(f"{message}\n{_usage(name)}")


def _read_option(word: str, options: dict, name: str | None):
    """What argparse reads ``word`` as: ``None`` for a positional word
    (a negative number among them), else ``(option string, explicit value
    or None)``, the option string ``None`` for an unknown option.  A
    unique prefix of an option string names it; ``--name=value`` and
    ``-hVALUE`` carry an explicit value."""
    if word[:1] != "-" or word == "-":
        return None
    if word in options:
        return word, None
    head, eq, value = word.partition("=")
    if eq and head in options:
        return head, value
    if word[1] == "-":
        prefix, explicit = (head, value) if eq else (word, None)
        hits = [(option, explicit) for option in options if option.startswith(prefix)]
    else:
        hits = [(word[:2], word[2:])] if word[:2] in options else []
    if len(hits) > 1:
        matches = ", ".join(option for option, _ in hits)
        raise _refuse(f"ambiguous option: {clipped(word)} could match {matches}", name)
    if hits:
        return hits[0]
    return None if _NEGATIVE_NUMBER.match(word) or " " in word else (None, None)


def _checked(label: str, word: str, choices, name: str | None) -> str:
    """``word``, refused unless it is one of ``choices``."""
    if word not in choices:
        listed = ", ".join(map(repr, choices))
        raise _refuse(f"argument {label}: invalid choice: {quoted(word)} (choose from {listed})", name)
    return word


def _value(option: str, opt: _Opt, text: str, name: str | None):
    """The value ``text`` gives an option that takes one, refused as
    argparse refuses it."""
    if opt.type is int:
        try:
            return int(text)
        except ValueError:
            raise _refuse(f"argument {option}: invalid int value: {quoted(text)}", name) from None
    return _checked(option, text, opt.choices, name) if opt.choices else text


def _flag(option: str, opt: _Opt, explicit: str | None, name: str | None):
    """The value of a flag; ``-h`` or ``--help`` raises ``_Help``.  A flag
    takes no value: argparse reads each ``h`` after ``-h`` as ``-h``
    again, and refuses whatever else follows."""
    if explicit and option[1] != "-":
        explicit = explicit.lstrip("h") or None
    if explicit is not None:
        label = "-h/--help" if opt is _HELP else option
        raise _refuse(f"argument {label}: ignored explicit argument {quoted(explicit)}", name)
    if opt is _HELP:
        raise _Help(_help(name))
    return opt.const


def _parse(argv: list[str]) -> SimpleNamespace:
    """The arguments of ``argv`` as argparse's two-level parse read them:
    the command word, then the command's function, kind of file,
    positional words and the value of each option.  Raises
    ``ValidationError`` with argparse's wording and a usage line, or
    ``_Help``."""
    extras = []  # unrecognized words, in argv order
    for at, word in enumerate(argv):
        hit = None if word == "--" else _read_option(word, _TOP, None)
        if hit is None:
            break
        if hit[0] is None:
            extras.append(word)
        else:
            _flag(hit[0], _HELP, hit[1], None)
    else:
        raise _refuse("the following arguments are required: command", None)
    if argv[at:] == ["--"]:  # a ``--`` with nothing after it names no command
        raise _refuse("the following arguments are required: command", None)
    name = _checked("command", word, _COMMANDS, None)
    return _parse_command(name, argv[at + 1 :], extras)


def _parse_command(name: str, words: list[str], extras: list[str]) -> SimpleNamespace:
    """The namespace of command ``name`` from the words after it.  Options
    may come anywhere, abbreviated to a unique prefix, as ``--name value``
    or ``--name=value``; the last of an option given twice wins; every word
    after the first ``--`` is positional.  Every word is read before any
    is taken, so an ambiguous option is refused first, as argparse does."""
    command = _COMMANDS[name]
    hits, marker = [], False
    for word in words:
        if marker or word == "--":
            hits.append(None if marker else word)
            marker = True
        else:
            hits.append(_read_option(word, command.options, name))
    values, seen, filled = dict(command.defaults), set(), 0
    # a ``--`` next to a positional word is dropped, else it is unrecognized
    after_positional = stray = False
    at = 0
    while at < len(words):
        word, hit = words[at], hits[at]
        at += 1
        if hit is None and filled < len(command.positionals):
            dest, choices = command.positionals[filled]
            values[dest] = _checked(dest, word, choices, name) if choices else word
            filled += 1
            after_positional, stray = True, False
        elif hit == "--":
            stray = not after_positional
        elif hit is None or hit[0] is None:
            extras.extend(("--", word) if stray else (word,))
            after_positional = stray = False
        else:
            after_positional = False
            option, explicit = hit
            opt = command.options[option]
            if opt.type is None:
                values[opt.dest] = _flag(option, opt, explicit, name)
            else:
                if explicit is None:
                    if at == len(words) or hits[at] is not None:
                        raise _refuse(f"argument {option}: expected one argument", name)
                    explicit = words[at]
                    at += 1
                values[opt.dest] = _value(option, opt, explicit, name)
            seen.add(opt.dest)
    if stray:
        extras.append("--")
    missing = [dest for dest, _ in command.positionals[filled:]]
    missing += [option for option, dest in command.required if dest not in seen]
    if missing:
        raise _refuse(f"the following arguments are required: {', '.join(missing)}", name)
    if extras:
        raise _refuse(f"unrecognized arguments: {clipped(' '.join(extras))}", None)
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args.threads < 1:
            raise ValidationError("--threads must be positive")
        if args.max_n is not None and args.max_n < 0:
            raise ValidationError("--max-n must be non-negative")
        text, code = args.fn(args.kind.from_json(_load_json(args.file)), args)
    except _Help as shown:
        sys.stdout.write(str(shown))
        return 0
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    if args.format == "json":
        sys.stdout.write(text)  # two writes: no copy of a large text
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(line + "\n" for line in _text_lines(json.loads(text), ""))
    return code


if __name__ == "__main__":
    sys.exit(main())
