"""Output checks that do not trust the package.

The invariants below are tested with a second, plain implementation of
the few set-system operations they need, on the parsed canonical JSON the
package printed or returned.  Each check returns ``None`` when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations


def family(data) -> tuple[int, frozenset[int]]:
    """``(n, masks)`` of a set system in the canonical file format."""
    masks = frozenset(sum(1 << (i - 1) for i in s) for s in data["feasible"])
    return data["n"], masks


def _twist(fam, bit):
    return frozenset(m ^ bit for m in fam)


def _loop_complement(fam, bit):
    return fam ^ frozenset(m | bit for m in fam if not m & bit)


def _dual_twist(fam, bit):
    return fam ^ frozenset(m & ~bit for m in fam if m & bit)


_STEPS = {"*": _twist, "+": _loop_complement, "~": _dual_twist}


def _relabel(fam, images):
    out = set()
    for m in fam:
        r = 0
        for i, img in enumerate(images):
            if m >> i & 1:
                r |= 1 << (img - 1)
        out.add(r)
    return frozenset(out)


def _generator(fam, token, n):
    """One orbit generator: ``*i``, ``+i`` or the transposition ``(i i+1)``."""
    if token.startswith("("):
        i = int(token[1:].split()[0])
        images = list(range(1, n + 1))
        images[i - 1], images[i] = i + 1, i
        return _relabel(fam, images)
    return _STEPS[token[0]](fam, 1 << (int(token[1:]) - 1))


def act(fam, gvec, perm):
    """Relabel by ``perm``, then apply each flip token, rightmost letter first."""
    fam = _relabel(fam, perm)
    for i, token in enumerate(gvec):
        for step in reversed(token):
            if step != "1":
                fam = _STEPS[step](fam, 1 << i)
    return fam


def orbit_report(seed, report) -> str | None:
    """Every witness path replays from ``seed`` to its element."""
    n, start = family(seed)
    elements = [family(e)[1] for e in report["elements"]]
    paths = [tuple(p) for p in report["paths"]]
    if not report["size"] == len(elements) == len(paths):
        return "orbit size, elements and paths disagree"
    if len(set(elements)) != len(elements):
        return "orbit lists an element twice"
    reached = {}
    for path, element in sorted(zip(paths, elements), key=lambda pe: len(pe[0])):
        if path:
            parent = reached.get(path[:-1])
            if parent is None:
                return f"witness {list(path)} extends no other witness"
            state = _generator(parent, path[-1], n)
        else:
            state = start
        if state != element:
            return f"witness {list(path)} does not replay to its element"
        reached[path] = state
    if () not in reached:
        return "orbit misses its seed"
    return None


def stabilizer_hits(seed, payload) -> str | None:
    """Every hit fixes ``seed``, its vector part is not the identity, and a
    ``uniform`` tag names the common entry."""
    _, fam = family(seed)
    if payload["count"] != len(payload["hits"]):
        return "hit count disagrees with the hit list"
    for hit in payload["hits"]:
        gvec = hit["gvec"]
        if all(g == "1" for g in gvec):
            return f"hit {hit} has the identity vector"
        if act(fam, gvec, hit["perm"]) != fam:
            return f"hit {hit} does not fix the system"
        if "uniform" in hit and set(gvec) != {hit["uniform"]}:
            return f"hit {hit} is tagged uniform but is not"
    return None


def exchange_witness(fam, witness) -> str | None:
    """``(X, Y, u)`` refutes symmetric exchange in ``fam``."""
    if witness is None or witness.get("reason") != "exchange":
        return f"expected an exchange witness, got {witness}"
    x = sum(1 << (i - 1) for i in witness["X"])
    y = sum(1 << (i - 1) for i in witness["Y"])
    ub = 1 << (witness["u"] - 1)
    diff = x ^ y
    if x not in fam or y not in fam or not diff & ub:
        return "exchange witness is not a feasible pair with u in the difference"
    repairs = [x ^ ub] + [x ^ ub ^ (1 << v) for v in range(diff.bit_length()) if diff >> v & 1 and 1 << v != ub]
    if any(r in fam for r in repairs):
        return "exchange witness can be repaired"
    return None


def lift_extracts_to(fam, lifted) -> str | None:
    """Extracting at the reference triple gives back ``fam``: the slot-2
    labels of the bases that use slot 3 nowhere."""
    out = set()
    for basis in lifted["bases"]:
        roles = [r for _, r in basis]
        if 3 not in roles:
            out.add(sum(1 << (i - 1) for i, r in basis if r == 2))
    return None if frozenset(out) == fam else "extract(lift(D)) != D"


def exchange_failure(fam) -> str | None:
    """``fam`` satisfies the symmetric exchange axiom: for feasible ``X``,
    ``Y`` and ``u`` in ``X ^ Y`` there is a ``v`` in ``X ^ Y`` (possibly
    ``u``) with ``X ^ {u, v}`` feasible."""
    for x in fam:
        for y in fam:
            diff = x ^ y
            bits = [1 << v for v in range(diff.bit_length()) if diff >> v & 1]
            for ub in bits:
                if not any(x ^ ub ^ (vb if vb != ub else 0) in fam for vb in bits):
                    return f"no exchange for X={x:b}, Y={y:b}, u={ub.bit_length()}"
    return None
