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
* ``relabel_mask``: a permutation applied to one mask.  The library
  relabels whole truth tables by adjacent transpositions.
* ``twist``, ``loop_complement``, ``dual_twist``: the bulk operations
  read directly off their definitions, the parity rules by interval
  counting.  The library folds single-element flips.
* ``stabilizer_oracle``: one action per group element.  The library
  matches relabelings of the system by their image.
* ``quasi_trees_oracle``: both conditions of a spanning quasi-tree, a
  component count and a boundary count.  The library counts boundaries
  only.
"""

import itertools
from collections import deque

from twuality import (
    FLIPS,
    ONE,
    OrbitReport,
    Perm,
    SetSystem,
    StabilizerHit,
    TwualityElement,
    act,
    uniform_flip,
)
from twuality.ribbon import _component_count, _sub_boundary
from twuality.set_system import mask_of


def relabel_mask(images, mask):
    """The image of ``mask`` under ``i -> images[i-1]``."""
    out = 0
    for i, img in enumerate(images):
        if mask >> i & 1:
            out |= 1 << (img - 1)
    return out


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def twist(D, I):
    """Every feasible ``X`` replaced by ``X symdiff I``."""
    imask = mask_of(I, D.n)
    return SetSystem(D.n, (m ^ imask for m in D.masks))


def loop_complement(D, I):
    """``X`` is feasible iff an odd number of feasible ``Y`` satisfy
    ``X \\ I <= Y <= X``."""
    imask = mask_of(I, D.n)
    out = set()
    for y in D.masks:
        for s in _submasks(imask & ~y):
            out ^= {y | s}
    return SetSystem(D.n, out)


def dual_twist(D, I):
    """``X`` is feasible iff an odd number of feasible ``Y`` satisfy
    ``X <= Y <= X | I``."""
    imask = mask_of(I, D.n)
    out = set()
    for y in D.masks:
        for s in _submasks(imask & y):
            out ^= {y ^ s}
    return SetSystem(D.n, out)


def stabilizer_oracle(D, mode):
    """``stabilizer_search`` without its budget check: every non-identity
    vector in the fixed flip order (only the uniform ones in ``uniform``
    mode), and for each every permutation in lexicographic order, kept
    when it fixes ``D``."""
    n = D.n
    if mode == "uniform":
        gvecs = [(g,) * n for g in FLIPS[1:]] if n else []
    else:
        gvecs = [g for g in itertools.product(FLIPS, repeat=n) if any(x is not ONE for x in g)]
    perms = [Perm(p) for p in itertools.permutations(range(1, n + 1))]
    hits = []
    for gvec in gvecs:
        for perm in perms:
            element = TwualityElement(gvec, perm)
            if act(element, D) == D:
                hits.append(StabilizerHit(element, uniform_flip(gvec)))
    return hits


def quasi_trees_oracle(G):
    """Label sets of spanning subgraphs with as many components as ``G``
    and as many boundary walks as components."""
    k_full = _component_count(G, frozenset(e.label for e in G.edges))
    out = []
    for r in range(G.n + 1):
        for combo in itertools.combinations(range(1, G.n + 1), r):
            sub = frozenset(combo)
            if _component_count(G, sub) == k_full and _sub_boundary(G, sub) == k_full:
                out.append(combo)
    return tuple(out)


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
            p = (*range(1, i), i + 1, i, *range(i + 2, D.n + 1))
            gens.append((f"({i} {i+1})", lambda s, q=p: frozenset(relabel_mask(q, m) for m in s)))
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
