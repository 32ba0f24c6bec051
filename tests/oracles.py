"""Plain reference implementations that the library's fast engines are
compared against.

* ``first_exchange_failure``: the symmetric-exchange triple loop, pair by
  pair.  The library prunes it with truth-table masks.
* ``vf_safe_oracle``: the breadth-first closure over single systems, one
  exchange check per reachable system.  The library walks twist classes of
  truth tables instead.
* ``twist1``, ``loop_complement1``, ``dual_twist1``: the single-element
  flips on a frozenset of masks, ``bit`` the mask of the element.  The
  library applies them to truth tables.
* ``orbit_oracle``: the breadth-first orbit closure over frozenset states
  keyed by their sorted masks.  The library keys states by truth table.
"""

from collections import deque

from twuality import OrbitReport, Perm, SetSystem


def twist1(masks, bit):
    return frozenset(m ^ bit for m in masks)


def loop_complement1(masks, bit):
    return frozenset(masks ^ {m | bit for m in masks if not m & bit})


def dual_twist1(masks, bit):
    return frozenset(masks ^ {m & ~bit for m in masks if m & bit})


def first_exchange_failure(ordered, fam):
    """First ``(X, Y, u)`` refuting symmetric exchange, ``X`` and then ``Y``
    in the order of ``ordered`` (the members of ``fam``) and ``u``
    ascending; ``None`` when the axiom holds."""
    for x in ordered:
        for y in ordered:
            diff = x ^ y
            d = diff
            while d:
                ub = d & -d
                d ^= ub
                if (x ^ ub) in fam:
                    continue
                e = diff
                while e:
                    vb = e & -e
                    e ^= vb
                    if vb != ub and (x ^ ub ^ vb) in fam:
                        break
                else:
                    return x, y, ub
    return None


def vf_safe_oracle(D):
    """Whether every system reachable from ``D`` by single-element twists
    and loop complementations is a delta-matroid."""
    bits = [1 << k for k in range(D.n)]
    seed = D.mask_set()
    seen = {seed}
    queue = deque([seed])
    while queue:
        state = queue.popleft()
        if not state or first_exchange_failure(state, state) is not None:
            return False
        for bit in bits:
            for op in (twist1, loop_complement1):
                nxt = op(state, bit)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return True


def orbit_oracle(D, mode):
    """Breadth-first closure of ``D`` under ``*i, +i`` for each ``i`` in
    turn and, in full mode, the adjacent transpositions; the report of
    ``twuality.orbit`` without its budget check."""
    gens = []
    for i in range(1, D.n + 1):
        bit = 1 << (i - 1)
        gens.append((f"*{i}", lambda s, b=bit: twist1(s, b)))
        gens.append((f"+{i}", lambda s, b=bit: loop_complement1(s, b)))
    if mode == "full":
        for i in range(1, D.n):
            p = Perm([*range(1, i), i + 1, i, *range(i + 2, D.n + 1)])
            gens.append((f"({i} {i+1})", lambda s, q=p: frozenset(q.apply_mask(m) for m in s)))
    seed = D.masks
    paths = {seed: ()}
    queue = deque([frozenset(seed)])
    while queue:
        state = queue.popleft()
        base = paths[tuple(sorted(state))]
        for token, step in gens:
            nxt = step(state)
            canon = tuple(sorted(nxt))
            if canon not in paths:
                paths[canon] = base + (token,)
                queue.append(nxt)
    systems = {SetSystem(D.n, canon): path for canon, path in paths.items()}
    elements = tuple(sorted(systems, key=SetSystem.canonical_key))
    return OrbitReport(D, mode, elements, {d: systems[d] for d in elements})
