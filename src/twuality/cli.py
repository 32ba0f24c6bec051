"""Command-line surface.

Every subcommand reads canonical JSON files and writes canonical JSON to
stdout (``--format text`` switches to a human-readable sketch).  Each
declares the kind of file it reads, and ``main`` loads that file before
the subcommand parses any other option.  Identical
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

import argparse
import functools
import json
import re
import sys

from .errors import BudgetError, ConsistencyError, ValidationError, quoted
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
from .set_system import SetSystem, VF_SAFE_DEFAULT_CAP, _canonical_order, _exchange_witness, _systems_text
from .set_system import _vf_safety
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(f"{message}\n{self.format_usage()}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from None
    except ValueError as exc:  # a ``JSONDecodeError``, or an integer literal too long for ``int``
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{path} nests its JSON too deeply") from None


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        if isinstance(payload, str):  # canonical JSON text the command wrote itself
            text = payload
        else:  # every payload is a tree built by a ``to_json``, so no cycle check
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False)
        sys.stdout.write(text)  # two writes: no copy of a large text
        sys.stdout.write("\n")
        return
    for line in _text_lines(json.loads(payload) if isinstance(payload, str) else payload, ""):
        sys.stdout.write(line + "\n")


def _text_lines(value, indent):
    """The sketch of a dict or list: one line per key or item.  A scalar,
    or a list of scalars (empty or not), follows its ``key:`` or ``-`` as
    compact JSON; a dict or a list holding containers opens a block below
    it, one level deeper."""
    # a payload may hold tuples where its JSON holds arrays
    if isinstance(value, dict):
        items = ((f"{key}:", value[key]) for key in sorted(value))
    else:
        items = (("-", inner) for inner in value)
    for head, inner in items:
        if isinstance(inner, dict) or (
            isinstance(inner, (list, tuple)) and any(isinstance(x, (dict, list, tuple)) for x in inner)
        ):
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


def _cmd_check(D, args) -> tuple[dict, int]:
    cap = args.max_n if args.max_n is not None else VF_SAFE_DEFAULT_CAP
    # the closure walks exchange on D first, and its failure table is the witness's
    vf_safe, bad = _vf_safety(D, cap, None)
    witness = _exchange_witness(D, bad)
    payload = {
        "n": D.n,
        "proper": D.is_proper,
        "normal": D.is_normal,
        "delta_matroid": witness.valid,
        "witness": witness.to_json(),
        "vf_safe": vf_safe,
    }
    return payload, 0


def _cmd_apply(D, args) -> tuple[dict, int]:
    for op in _parse_ops(args.ops, D.n):
        if op[0] == "perm":
            D = act(TwualityElement((ONE,) * D.n, op[1]), D)
        else:
            _, flip, elems = op
            for i in elems:
                D = apply_flip(D, flip, i)
    return D.to_json(), 0


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


def _cmd_uniformize(D, args) -> tuple[dict, int]:
    gvec = _parse_gvec(args.gvec, D.n)
    mu = parse_perm(args.mu, D.n)
    g = parse_flip(args.g)
    return uniformize(D, gvec, mu, g).to_json(), 0


def _cmd_lift(D, args) -> tuple[str, int]:
    tau = _parse_triple(args.tau, D.n)
    sigma = _parse_projection(args.sigma, D.n)
    kwargs = {} if args.max_n is None else {"max_n": args.max_n}
    return lift(D, tau, sigma, **kwargs).canonical_json(), 0


def _cmd_extract(Z, args) -> tuple[dict, int]:
    tau = _parse_triple(args.tau, Z.n)
    sigma = _parse_projection(args.sigma, Z.n)
    return extract(Z, tau, sigma).to_json(), 0


def _cmd_mm_check(Z, args) -> tuple[dict, int]:
    kwargs = {} if args.max_n is None else {"max_n": args.max_n}
    ok, witness = is_multimatroid(Z, **kwargs)
    tight, tight_witness = is_tight(Z, **kwargs)
    return {
        "n": Z.n,
        "multimatroid": ok,
        "witness": witness,
        "tight": tight,
        "tight_witness": tight_witness,
    }, 0


def _cmd_orbit_via_lift(D, args) -> tuple[str, int]:
    """``{"elements": [D.to_json() ...], "size": ...}`` over the systems of
    ``orbit_via_lift``, as canonical text written off their order forms,
    as ``orbit`` writes its elements: no ``SetSystem`` is built."""
    tau = _parse_triple(args.tau, D.n)
    sigma = _parse_projection(args.sigma, D.n)
    forms = _canonical_order(_orbit_via_lift_tables(D, tau, sigma, args.mode, args.max_n), D.n)[1]
    return '{"elements":%s,"size":%d}' % (_systems_text(forms, D.n), len(forms)), 0


def _cmd_ribbon(G, args) -> tuple[dict, int]:
    if args.what == "medial":
        return medial(G).to_json(), 0
    kwargs = {} if args.max_n is None else {"max_e": args.max_n}
    if args.what == "dm":
        return delta_matroid_of(G, **kwargs).to_json(), 0
    report = verify_medial_lift(G, **kwargs)
    return report.to_json(), 0 if report.equal else 3


@functools.cache
def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--max-n", type=int, default=None, help="override the hard budget cap")
    common.add_argument("--threads", type=int, default=1, help="accepted for compatibility; output is independent of it")

    parser = _Parser(prog="twuality", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, fn, kind=SetSystem, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.add_argument("file")
        p.set_defaults(fn=fn, kind=kind)
        return p

    add("check", _cmd_check, help="properness / normality / exchange axiom / vf-safety report")
    p = add("apply", _cmd_apply, help="apply a left-to-right operation string")
    p.add_argument("--ops", required=True)
    p = add("orbit", _cmd_orbit, help="breadth-first orbit enumeration")
    p.add_argument("--iota", action="store_const", const="iota", default="full", dest="mode", help="flips only, no relabeling")
    p = add("selftwual", _cmd_selftwual, help="search for stabilizing group elements")
    p.add_argument("--uniform-only", action="store_const", const="uniform", default="all", dest="mode")
    p = add("uniformize", _cmd_uniformize, help="conjugate a stabilizer into a uniform one")
    p.add_argument("--gvec", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--g", required=True)
    p = add("lift", _cmd_lift, help="lift a vf-safe system to its 3-matroid")
    p.add_argument("--tau")
    p.add_argument("--sigma")
    p = add("extract", _cmd_extract, Multimatroid, help="extract the set system of a 3-matroid")
    p.add_argument("--tau", required=True)
    p.add_argument("--sigma", required=True)
    add("mm-check", _cmd_mm_check, Multimatroid, help="multimatroid axioms and tightness report")
    p = add("orbit-via-lift", _cmd_orbit_via_lift, help="orbit through lift extractions")
    p.add_argument("--iota", action="store_const", const="iota", default="full", dest="mode")
    p.add_argument("--tau")
    p.add_argument("--sigma")
    p = sub.add_parser("ribbon", parents=[common], help="ribbon-graph commands")
    p.add_argument("what", choices=("dm", "medial", "verify-t63"))
    p.add_argument("file")
    p.set_defaults(fn=_cmd_ribbon, kind=RibbonGraph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise ValidationError("--threads must be positive")
        if args.max_n is not None and args.max_n < 0:
            raise ValidationError("--max-n must be non-negative")
        payload, code = args.fn(args.kind.from_json(_load_json(args.file)), args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BudgetError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
