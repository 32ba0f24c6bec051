"""Plain reference implementations that the library's fast engines are
compared against.

* ``first_exchange_failure``, ``exchange_failures_oracle``: the
  symmetric-exchange triple loop, pair by pair; the first refuting triple,
  and the truth table of every ``X`` that has one.  The library walks the
  whole truth table once per element.
* ``exchange_scan``: the per-set scan that the library ran before its
  whole-table walk, pruned by one AND of truth-table masks per bit.
* ``vf_safe_oracle``: the breadth-first closure over single systems, one
  exchange check per reachable system.  The library walks twist classes of
  truth tables instead, and first certifies binary families.
* ``twist_class``, ``vf_class_walk_oracle``: the library's earlier
  closure over twist classes, which listed every twist of each class it
  reached (a Gray-code walk) and checked exchange on a class key only when
  the breadth-first loop popped it.  The library walks the closure one
  element at a time, keeps one greedily reduced twist per coset word
  ``r`` in ``{1, +, +*}^n``, checks each new one at once, stops at the
  first failure, and starts with the input itself.
* ``binary_quasi_tree_system``: ``D(G)`` as the twist of a ``D(A)`` by a
  spanning forest, ``A`` read off the quasi-trees that differ from the
  forest in at most two edges, ``O(n**2)`` splits of the medial.  The
  library keeps the black/white splits that keep the component count, in
  one depth-first walk over all ``2**n``.
* ``min_max_matroids``, ``classify_element``: the lower and upper
  matroids of a family, its sets of least and of greatest size, and the
  ``RibbonLoopClass`` of an element of a delta-matroid, read off the
  lower matroids of the family and of its twist at the element.
  ``normalize_rep_oracle`` runs them; the library has neither.
* ``normalize_rep_oracle``: the orbit representative by the route it
  took before: the twist by the first set of ``min_max_matroids``' lower
  matroid, loop complementation at the feasible singletons, then
  ``classify_element`` on every element and a warning for any that is
  not an orientable ribbon loop.  The library twists by the least
  feasible set and proves the classification instead of running it.
* ``check_report_oracle``: the ``check`` report by the route it took
  before, the exchange walk on every input and then vf-safety.  The
  library decides vf-safety first and walks exchange only on a refusal.
* ``binary_table_oracle``: ``D(A)`` for a symmetric 0/1 matrix, one GF(2)
  elimination per subset.  The library builds the table by recursing on
  Schur complements.
* ``binary_recursion_oracle``: that recursion down to two elements.  The
  library ends it at three, in a lookup table.
* ``twist1``, ``loop_complement1``, ``dual_twist1``: the single-element
  flips on a frozenset of masks, ``bit`` the mask of the element.  The
  library applies them to truth tables.
* ``flip_oracle``, ``act_oracle``: each of the six flips as its word of
  those primitive steps (``FLIP_WORDS``), and the group action as a
  relabeling of every mask followed by one word per element.  The library
  applies a flip as the permutation of three slot tables that it is.
* ``transport_oracle``: a stabilizer pushed along a move entry by entry,
  its flip vector a product of three reindexed vectors.  The library
  conjugates by the group's product and inverse.
* ``members_of_oracle``: a mask's elements, one shift per bit.  The
  library selects them from the mask's binary digits in one ``compress``.
* ``shortlex_key``, ``canonical_key_oracle``: the canonical order as
  tuples, a subset keyed by its size and its member tuple and a family by
  the sorted keys of its sets.  The library compares shortlex ranks read
  from one table per ground size.
* ``orbit_oracle``: the breadth-first orbit closure over frozenset states
  keyed by their sorted masks, its report payload built from the sorted
  systems' ``feasible_sets``.  The library keys states by truth table,
  keeps the shortlex ranks of its sort and writes the JSON text from them.
* ``orbit_walk_oracle``: the breadth-first walk on truth tables that
  tries every generator from every state.  The library tries from each
  state only the generators that the group's relations leave open after
  the last generator of its word.
* ``burnside_orbit_count``, ``burnside_class_count``: the number of
  orbits on all families over [n], by Burnside's lemma over every group
  element, and over one element per conjugacy class with its class size.
  The library has no census; the tests partition all families with
  ``orbit``.
* ``masks_of_table_oracle``: the set bits of a truth table, lowest first,
  one AND and one XOR of the whole int per bit.  The library selects them
  from the table's binary digits in one ``compress``.
* ``choices_oracle``: the choice tuples of a ``4**n``-bit table, one
  shift per digit of every set bit.  The library visits only the nonzero
  bytes of the table and reads the digits of an index a byte at a time.
* ``relabel_mask``: a permutation applied to one mask.  The library
  relabels whole truth tables by adjacent transpositions.
* ``twist``, ``loop_complement``, ``dual_twist``: the bulk operations
  read directly off their definitions, the parity rules by interval
  counting.  The library folds single-element flips.
* ``plain_changes_oracle``: the Steinhaus–Johnson–Trotter swap
  positions as the recursive generator the library ran per call.  The
  library keeps the walk per ground size as delta swaps with the one-line
  images they reach.
* ``stabilizer_oracle``: one action per group element.  The library
  matches relabelings of the system by their image, walking them one
  adjacent transposition at a time and the flip vectors one element at a
  time.
* ``trace_boundary``, ``sub_boundary``, ``boundary_oracle``: boundary
  walks traced on half-edge sides, of a rotation system, of a spanning
  subgraph and of a whole surface; ``component_count``: the components
  of a spanning subgraph by union-find over vertices.  The library counts
  boundary walks as components of a split of the medial.
* ``quasi_trees_oracle``: both conditions of a spanning quasi-tree, a
  component count and a traced boundary count, one edge subset at a
  time.  The library keeps the black/white splits of the medial that
  keep the component count, in one depth-first walk.
* ``all_triples``: the ``6**n`` transversal triples, which
  ``orbit_via_lift_oracle`` walks one by one, their role tables the six
  ``PERM3`` in lexicographic order, and ``SLOT_ROLES`` the roles each
  puts in slots 1 and 2.
* ``orbit_via_lift_oracle``: one ``extract`` per transversal triple, each
  scanning every basis.  The library walks the classes once over a
  ``4**n``-bit table of the bases, sharing prefixes.
* ``spread_oracle``: a truth table placed in the ``4**n``-bit index
  space one feasible set at a time, its members at digit 2 and the rest
  at digit 1.  The library moves all entries with one element in each
  step, one mask and one shift of the whole table.
* ``medial_lift_oracle``: the ``verify_medial_lift`` report by the route
  it took before: ``D(G)`` extracted from the transition matroid, placed
  set by set and dual-twisted class by class on choice tuples.  The
  library runs the lift's class step on the transition table itself.
* ``lift_rebuild_oracle``: the comparison ``verify_medial_lift`` made
  before, from a transition table: the whole lifted table rebuilt by
  ``_role_steps`` at the reference roles and compared with the table, the
  report built on every call.  The library decides equality class by
  class and runs ``_role_steps`` only on a mismatch.
* ``is_reference_lift_oracle``: the class-by-class lift test
  ``verify_medial_lift`` made through its own helper, each class split
  by ``_split``.  The library makes it in the pass that extracts
  ``D(G)``, on the untouched transition table.
* ``extracted_tables_oracle``: the extractions over all transversal
  triples, one ``_keep_slots`` call per table and class.  The library
  splits each table of a level once and writes the six children inline.
* ``is_multimatroid_oracle``: every independent set filtered by
  compatibility for each transversal, then every pair of the survivors
  tried for augmentation.  The library tests the table bits of the
  subtransversals of each transversal and augmentation on class masks.
* ``down_closure``, ``is_tight_oracle``, ``restrict_oracle``,
  ``lift_oracle``, ``extract_oracle``: the multimatroid engines on a
  frozenset of choice tuples, one tuple per basis or independent set.
  The library keeps a multimatroid as its ``4**n``-bit base table and
  works per class with masked shifts of the whole table.
* ``tightness_oracle``: ``is_tight`` basis by basis, each basis's three
  replacements per class probed in the base table.  The library finds
  the failing lines of every class at once, in a few masked shifts.
* ``medial_oracle``: the medial as ``(half-edge, slot)`` tag tuples, each
  transition and the corner list a sorted tuple of sorted tag pairs.  The
  library holds int tags ``4k + 2j + slot`` and decodes them only for
  ``to_json``.
* ``medial_components_oracle``: the components of a medial, free loops
  included, by a depth-first search along its corner edges.  The library
  counts them in ``medial``'s pass over the rotations, by a union-find
  over the medial vertices.
* ``transition_matroid_oracle``: one split per transition system of a
  ``medial_oracle``, each a fresh union-find over its tags
  (``split_components_oracle``); ``kept_splits_oracle`` does the same
  for any option set.  The library walks the medial vertices depth
  first, joining open paths at their ends and undoing each join on the
  way back, and reads the last vertex's kept options off the pairing of
  the two paths still open.
* ``argparse_oracle``: the command line parsed by argparse, a top-level
  parser with one subparser per command.  The CLI reads argv once off its
  command table, with argparse's syntax and error wording.
"""

import argparse
import collections
import itertools
import math
import warnings
from collections import deque
from enum import Enum

from twuality import (
    FLIPS,
    ONE,
    Perm,
    STAR,
    STAR_PLUS,
    SetSystem,
    StabilizerHit,
    TwualityElement,
    ValidationError,
    act,
    is_delta_matroid,
    is_vf_safe,
    uniform_flip,
)
from twuality.multimatroid import (
    Multimatroid,
    Projection,
    Restriction,
    TransversalTriple,
    _keep_slots,
    _role_steps,
    _split,
    _zeros,
    extract,
    lift,
)
from twuality.cli import (
    _cmd_apply,
    _cmd_check,
    _cmd_extract,
    _cmd_lift,
    _cmd_mm_check,
    _cmd_orbit,
    _cmd_orbit_via_lift,
    _cmd_ribbon,
    _cmd_selftwual,
    _cmd_uniformize,
)
from twuality.ribbon import (
    RibbonGraph,
    TRANSITION_NAMES,
    MedialLiftReport,
    medial,
    split_components,
    transition_matroid,
)
from twuality.set_system import _HALVES, _binary_table, _exchange_failures, fold_flip, mask_of
from twuality.set_system import loop_complement1 as table_complement1, twist1 as table_twist1
from twuality.twuality_group import vec_inv, vec_mul, vec_reindex


def members_of_oracle(mask):
    """The ascending tuple of the elements of a mask, element ``i`` bit ``i - 1``."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def shortlex_key(mask):
    """Sort key ordering subsets by cardinality, then lexicographically."""
    return (mask.bit_count(), members_of_oracle(mask))


def canonical_key_oracle(D):
    """Total-order key for sorting collections of systems."""
    return (D.n, tuple(sorted(shortlex_key(m) for m in D.masks)))


def masks_of_table_oracle(table):
    out = []
    while table:
        low = table & -table
        out.append(low.bit_length() - 1)
        table ^= low
    return out


def choices_oracle(n, table):
    return [tuple(i >> 2 * k & 3 for k in range(n)) for i in masks_of_table_oracle(table)]


def relabel_mask(images, mask):
    """The image of ``mask`` under ``i -> images[i-1]``."""
    out = 0
    for i, img in enumerate(images):
        if mask >> i & 1:
            out |= 1 << (img - 1)
    return out


def plain_changes_oracle(n):
    """Steinhaus–Johnson–Trotter: the ``n! - 1`` swaps of positions ``k``
    and ``k + 1`` that walk ``n`` items through every order.  The last
    item sweeps end to end; between sweeps the others take one step."""
    if n < 2:
        return
    inner = plain_changes_oracle(n - 1)
    leftward = True
    while True:
        yield from range(n - 2, -1, -1) if leftward else range(n - 1)
        k = next(inner, None)
        if k is None:
            return
        yield k + 1 if leftward else k  # the last item sits at the left end
        leftward = not leftward


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
            if act(TwualityElement(gvec, perm), D) == D:
                hits.append(StabilizerHit(gvec, perm, uniform_flip(gvec)))
    return hits


def trace_boundary(vertices, edges):
    """Boundary walks of a signed rotation system; ``edges`` yields
    ``(h1, h2, sign)``.  Empty rotations are one disc boundary each.

    Walks are traced on doubled half-edge sides: walking out along a
    half-edge on its left or right side, an untwisted edge swaps the side,
    a twisted edge keeps it, and the corner at the far vertex turns left
    sides to the next rotation position and right sides to the previous
    one.  Each boundary component is traversed once in each direction, so
    the component count is half the orbit count.
    """
    nxt, prv, partner, sign = {}, {}, {}, {}
    isolated = 0
    for rot in vertices:
        if not rot:
            isolated += 1
            continue
        k = len(rot)
        for idx, h in enumerate(rot):
            nxt[h] = rot[(idx + 1) % k]
            prv[h] = rot[(idx - 1) % k]
    for h1, h2, s in edges:
        partner[h1] = h2
        partner[h2] = h1
        sign[h1] = sign[h2] = s

    def successor(state):
        h, side = state
        h2 = partner[h]
        side2 = side ^ 1 if sign[h] == 1 else side
        if side2 == 0:
            return (nxt[h2], 1)
        return (prv[h2], 0)

    todo = {(h, side) for h in partner for side in (0, 1)}
    orbits = 0
    while todo:
        start = todo.pop()
        cur = successor(start)
        while cur != start:
            todo.remove(cur)
            cur = successor(cur)
        orbits += 1
    assert orbits % 2 == 0, "boundary orbits must pair up by direction"
    return orbits // 2 + isolated


def sub_boundary(G, labels):
    """Boundary walks of the spanning subgraph ``(V, labels)``."""
    kept = {h for e in G.edges if e.label in labels for h in e.ends}
    vertices = tuple(tuple(h for h in rot if h in kept) for rot in G.vertices)
    return trace_boundary(
        vertices, ((e.ends[0], e.ends[1], e.sign) for e in G.edges if e.label in labels)
    )


def boundary_oracle(G):
    """Boundary walks of the whole surface of ``G``."""
    return sub_boundary(G, frozenset(e.label for e in G.edges))


def component_count(G, labels=None):
    """Components of ``(V, labels)``, by default of ``G`` itself."""
    vertex_of = {h: vi for vi, rot in enumerate(G.vertices) for h in rot}
    uf = _TagUnionFind(range(len(G.vertices)))
    for e in G.edges:
        if labels is None or e.label in labels:
            uf.union(vertex_of[e.ends[0]], vertex_of[e.ends[1]])
    return uf.count


def quasi_trees_oracle(G):
    """Label sets of spanning subgraphs with as many components as ``G``
    and as many boundary walks as components."""
    k_full = component_count(G)
    out = []
    for r in range(G.n + 1):
        for combo in itertools.combinations(range(1, G.n + 1), r):
            sub = frozenset(combo)
            if component_count(G, sub) == k_full and sub_boundary(G, sub) == k_full:
                out.append(combo)
    return tuple(out)


def twist1(masks, bit):
    return frozenset(m ^ bit for m in masks)


def loop_complement1(masks, bit):
    return frozenset(masks ^ {m | bit for m in masks if not m & bit})


def dual_twist1(masks, bit):
    return frozenset(masks ^ {m & ~bit for m in masks if m & bit})


#: per flip token, its primitive steps in application order: ``*`` twist,
#: ``+`` loop complementation, ``~`` dual twist
FLIP_WORDS = {"1": (), "*": ("*",), "+": ("+",), "*+": ("+", "*"), "+*": ("*", "+"), "~": ("~",)}
_PRIMITIVES = {"*": twist1, "+": loop_complement1, "~": dual_twist1}


def flip_oracle(masks, g, bit):
    """The flip ``g`` at the element with mask ``bit``, step by step."""
    masks = frozenset(masks)
    for step in FLIP_WORDS[g.token]:
        masks = _PRIMITIVES[step](masks, bit)
    return masks


def act_oracle(a, D):
    """Relabel every mask of ``D`` by ``a.perm``, then apply the flip of
    each entry of ``a.gvec`` at its element."""
    masks = frozenset(relabel_mask(a.perm.images, m) for m in D.masks)
    for k, g in enumerate(a.gvec):
        masks = flip_oracle(masks, g, 1 << k)
    return SetSystem(D.n, masks)


def transport_oracle(D, stab, move):
    """``(act(move, D), stab')`` for a stabilizer ``stab = (g, mu)`` of ``D``
    and ``move = (h, pi)``: ``stab' = (h o (g.pi^-1) o (h^-1.mu'^-1), mu')``
    with ``mu' = pi mu pi^-1``, where ``.s`` denotes reindexing."""
    hvec, pi = move.gvec, move.perm
    mup = pi * stab.perm * pi.inverse()
    gvec = vec_mul(hvec, vec_mul(vec_reindex(stab.gvec, pi), vec_reindex(vec_inv(hvec), mup)))
    return act_oracle(move, D), TwualityElement(gvec, mup)


def _first_refuting_bit(x, y, fam):
    """The least bit ``u`` of ``x ^ y`` for which no ``v`` there makes
    ``x ^ u ^ v`` a member of ``fam`` (``v = u`` included), or ``None``."""
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
            return ub
    return None


def first_exchange_failure(ordered, fam):
    """First ``(X, Y, u)`` refuting symmetric exchange, ``X`` and then ``Y``
    in the order of ``ordered`` (the members of ``fam``) and ``u``
    ascending; ``None`` when the axiom holds."""
    for x in ordered:
        for y in ordered:
            ub = _first_refuting_bit(x, y, fam)
            if ub is not None:
                return x, y, ub
    return None


def exchange_failures_oracle(fam):
    """The truth table of every ``X`` in ``fam`` that refutes symmetric
    exchange with some ``Y`` in ``fam`` and some ``u``."""
    bad = 0
    for x in fam:
        if any(_first_refuting_bit(x, y, fam) is not None for y in fam):
            bad |= 1 << x
    return bad


def exchange_scan(ordered, table, n):
    """First ``(X, Y, u)`` refuting symmetric exchange, or ``None``, in the
    order of ``first_exchange_failure``; ``ordered`` is the family over [n]
    with truth table ``table``.

    For a feasible ``X`` and a bit ``u`` with ``X symdiff {u}`` infeasible,
    let ``R`` be the bits ``v != u`` with ``X symdiff {u, v}`` feasible: a
    ``Y`` fails with ``u`` iff it differs from ``X`` at ``u`` and agrees
    with it on ``R``.  Whether such a ``Y`` exists is one AND of truth-table
    masks per bit of ``R``; only an ``X`` for which one does is scanned
    against every ``Y``.
    """
    fam = frozenset(ordered)
    bits = [(1 << k, half) for k, half in enumerate(_HALVES[n])]
    for x in ordered:
        # per bit, the truth-table positions that agree with x there
        agree = [~half if x & bit else half for bit, half in bits]
        stuck = []
        for k, (ub, _) in enumerate(bits):
            xu = x ^ ub
            if xu in fam:
                continue
            reach = 0
            ys = table & ~agree[k]
            for j, (vb, _) in enumerate(bits):
                if j != k and (xu ^ vb) in fam:
                    reach |= vb
                    ys &= agree[j]
            if ys:
                stuck.append((ub, reach))
        if stuck:
            for y in ordered:
                diff = x ^ y
                for ub, reach in stuck:
                    if diff & ub and not diff & reach:
                        return x, y, ub
    return None


def binary_table_oracle(A):
    """The truth table of ``{Y : A[Y] nonsingular over GF(2)}``, for ``A``
    a symmetric matrix given as a list of 0/1 rows."""
    n, table = len(A), 0
    for Y in range(1 << n):
        idx = [i for i in range(n) if Y >> i & 1]
        M = [[A[i][j] for j in idx] for i in idx]
        for c in range(len(idx)):
            pivot = next((r for r in range(c, len(idx)) if M[r][c]), None)
            if pivot is None:
                break
            M[c], M[pivot] = M[pivot], M[c]
            for r in range(c + 1, len(idx)):
                if M[r][c]:
                    M[r] = [a ^ b for a, b in zip(M[r], M[c])]
        else:
            table |= 1 << Y
    return table


def binary_recursion_oracle(rows, n):
    """``D(A)`` for the symmetric GF(2) matrix with row ``i`` the mask
    ``rows[i]``, ``n >= 2``, by the Schur-complement recursion at the top
    element, down to two elements."""
    if n == 2:
        a, b = rows
        return 1 | (a & 1) << 1 | (b & 2) << 1 | ((a & b >> 1 ^ a >> 1) & 1) << 3
    v = n - 1
    keep, top = (1 << v) - 1, rows[v]
    low = binary_recursion_oracle([r & keep for r in rows[:v]], v)
    high = binary_recursion_oracle([(r ^ top if r >> v & 1 else r) & keep for r in rows[:v]], v)
    return low | (high if top >> v & 1 else high ^ low) << (1 << v)


def twist_class(table, n):
    """The ``2**n`` twists of a truth table over [n], in Gray-code order."""
    out = [table]
    for i in range(1, 1 << n):
        table = table_twist1(table, n, (i & -i).bit_length() - 1)
        out.append(table)
    return out


def vf_class_walk_oracle(table, n):
    """The vf-safety closure of a truth table over [n] by twist classes,
    without the binary certificate: every twist of each class reached is
    listed, and exchange is checked on a class key when the breadth-first
    loop pops it.  Returns the verdict, the keys of the classes reached in
    the order reached, and the keys checked for exchange in order."""
    reached = set(twist_class(table, n))
    keys = [min(reached)]
    for i, key in enumerate(keys):
        if not key or _exchange_failures(key, n):
            return False, keys, keys[:i + 1]
        for k in range(n):
            for base in (key, table_twist1(key, n, k)):
                nxt = table_complement1(base, n, k)
                if nxt not in reached:
                    listed = twist_class(nxt, n)
                    reached.update(listed)
                    keys.append(min(listed))
    return True, keys, keys


def binary_quasi_tree_system(G):
    """``D(G)`` of a ribbon graph with at least 2 edges by GF(2): the twist
    by a spanning forest ``T`` of ``D(A)``, where ``A[i][i]`` says whether
    ``T symdiff {i}`` is a quasi-tree and ``A[i][j]`` whether ``T symdiff
    {i, j}`` is, XOR ``A[i][i] A[j][j]``.  A set of edges (bit ``k`` the
    edge at position ``k``) is a quasi-tree when the medial's split white
    on it and black elsewhere has the medial's component count."""
    n, Fm = G.n, medial(G)
    vertex_of = {h: v for v, rot in enumerate(G.vertices) for h in rot}
    uf, forest = _TagUnionFind(vertex_of.values()), 0
    for k, e in enumerate(G.edges):
        count = uf.count
        uf.union(*(vertex_of[h] for h in e.ends))
        if uf.count < count:
            forest |= 1 << k

    def quasi_tree(X):
        return split_components(Fm, [TRANSITION_NAMES[X >> k & 1] for k in range(n)]) == Fm.components

    diag = [quasi_tree(forest ^ 1 << i) for i in range(n)]
    rows = [d << i for i, d in enumerate(diag)]
    for i, j in itertools.combinations(range(n), 2):
        if quasi_tree(forest ^ 1 << i ^ 1 << j) ^ diag[i] & diag[j]:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return SetSystem.from_table(n, fold_flip(table_twist1, _binary_table(rows, n), n, forest))


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


def min_max_matroids(D):
    """Restrict the family to its minimum- and maximum-cardinality sets."""
    if not D.is_proper:
        raise ValidationError("improper set system has no lower/upper matroid")
    masks = D.masks
    sizes = [m.bit_count() for m in masks]
    lo, hi = min(sizes), max(sizes)
    dmin = SetSystem(D.n, (m for m in masks if m.bit_count() == lo))
    dmax = SetSystem(D.n, (m for m in masks if m.bit_count() == hi))
    return dmin, dmax


class RibbonLoopClass(Enum):
    NOT_RIBBON_LOOP = "not-ribbon-loop"
    ORIENTABLE_LOOP = "orientable-loop"
    NON_ORIENTABLE_LOOP = "non-orientable-loop"


def classify_element(D, i):
    """Ribbon-loop trichotomy for element ``i`` of a delta-matroid.

    ``i`` is a ribbon loop when it meets no minimum-cardinality feasible
    set; a ribbon loop is non-orientable when it is again a ribbon loop
    after twisting at ``i``, and orientable otherwise.
    """
    bit = mask_of((i,), D.n)
    if not is_delta_matroid(D).valid:
        raise ValidationError("classify_element requires a delta-matroid")

    def ribbon_loop(system):
        dmin, _ = min_max_matroids(system)
        return all(not m & bit for m in dmin.masks)

    if not ribbon_loop(D):
        return RibbonLoopClass.NOT_RIBBON_LOOP
    if ribbon_loop(twist(D, (i,))):
        return RibbonLoopClass.NON_ORIENTABLE_LOOP
    return RibbonLoopClass.ORIENTABLE_LOOP


def normalize_rep_oracle(D):
    """``normalize_rep(D)`` for a vf-safe ``D``, each element of the result
    classified, with a warning naming those that are not orientable ribbon
    loops."""
    dmin, _ = min_max_matroids(D)
    normal = twist(D, dmin.feasible_sets()[0])
    rep = loop_complement(normal, [i for i in range(1, D.n + 1) if normal.has_mask(1 << (i - 1))])
    bad = [i for i in range(1, D.n + 1) if classify_element(rep, i) is not RibbonLoopClass.ORIENTABLE_LOOP]
    if bad:
        warnings.warn(f"normalized representative has non-orientable elements {bad}: {rep!r}", stacklevel=2)
    return rep


def check_report_oracle(D):
    """The payload of ``twuality check``: the exchange walk, then vf-safety."""
    witness = is_delta_matroid(D)
    return {
        "n": D.n,
        "proper": D.is_proper,
        "normal": D.is_normal,
        "delta_matroid": witness.valid,
        "witness": witness.to_json(),
        "vf_safe": is_vf_safe(D),
    }


def orbit_oracle(D, mode):
    """Breadth-first closure of ``D`` under ``*i, +i`` for each ``i`` in
    turn and, in full mode, the adjacent transpositions; the payload of
    ``twuality.orbit(D, mode).to_json()`` without its budget check, built
    from sorted systems."""
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
    elements = sorted(systems, key=canonical_key_oracle)
    return {
        "mode": mode,
        "size": len(elements),
        "elements": [{"n": D.n, "feasible": d.feasible_sets()} for d in elements],
        "paths": [list(systems[d]) for d in elements],
    }


def _fixed_count(g, n):
    """The number of families over [n] that the group element ``g`` fixes.
    The action is GF(2)-linear on truth tables, with column ``X`` of its
    matrix ``M_g`` the table of ``act(g, {X})``, so ``g`` fixes
    ``2**(2**n - rank(M_g + I))`` families."""
    basis = {}  # leading bit -> reduced column
    for X in range(1 << n):
        col = act(g, SetSystem(n, [X])).table ^ 1 << X
        while col and col.bit_length() in basis:
            col ^= basis[col.bit_length()]
        if col:
            basis[col.bit_length()] = col
    return 2 ** ((1 << n) - len(basis))


def burnside_orbit_count(n, mode):
    """The number of orbits of the group on all ``2**(2**n)`` families over
    [n]: the average of ``|Fix(g)|`` over every group element ``g``, flip
    vectors with every relabeling in full mode and flip vectors alone in
    iota mode."""
    perms = itertools.permutations(range(1, n + 1)) if mode == "full" else [range(1, n + 1)]
    group = [
        TwualityElement(gvec, Perm(p)) for p in perms for gvec in itertools.product(FLIPS, repeat=n)
    ]
    total = sum(_fixed_count(g, n) for g in group)
    count, rest = divmod(total, len(group))
    assert rest == 0, (n, mode, total)
    return count


#: the conjugacy classes of S3, each as a flip in it and its size
_S3_CLASSES = ((ONE, 1), (STAR, 3), (STAR_PLUS, 2))


def _partitions(n, top):
    """The partitions of ``n`` into parts of at most ``top``, parts descending."""
    if not n:
        yield ()
    for part in range(min(n, top), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def burnside_class_count(n, mode):
    """``burnside_orbit_count`` as a sum over conjugacy classes, one
    ``|Fix|`` per class.  A class of S3 wr S_n (full mode) is a cycle type
    ``λ`` plus the S3 class ``c`` of each cycle's product of flips, of
    weight ``n!/z_λ · Π 6**(ℓ - 1) |c|`` over the cycles, times the ways to
    give the classes to cycles of equal length.  Its representative
    relabels along the cycles, with the product's flip on the first
    element of each cycle and ``1`` elsewhere.  In iota mode the group is
    S3^n and a class up to relabeling is a multiset of S3 classes: the
    cycle type ``1^n``."""
    order = 6**n * (math.factorial(n) if mode == "full" else 1)
    total = weights = 0
    for shape in _partitions(n, n) if mode == "full" else [(1,) * n]:
        lengths = collections.Counter(shape)
        z = math.prod(length**m * math.factorial(m) for length, m in lengths.items())
        images, starts = [], []
        for length in shape:
            starts.append(len(images))
            images += [len(images) + i % length + 1 for i in range(1, length + 1)]
        for choice in itertools.product(
            *(itertools.combinations_with_replacement(_S3_CLASSES, m) for m in lengths.values())
        ):
            weight = math.factorial(n) // z
            for same in choice:  # the ways to give these classes to the cycles of one length
                weight *= math.factorial(len(same))
                weight //= math.prod(map(math.factorial, collections.Counter(same).values()))
            gvec = [ONE] * n
            # the lengths are in the descending order of the shape
            for start, length, (flip, size) in zip(starts, shape, itertools.chain(*choice)):
                gvec[start] = flip
                weight *= 6 ** (length - 1) * size
            total += weight * _fixed_count(TwualityElement(tuple(gvec), Perm(images)), n)
            weights += weight
    assert weights == order, (n, mode, weights)
    count, rest = divmod(total, order)
    assert rest == 0, (n, mode, total)
    return count


def orbit_walk_oracle(table, n, mode):
    """The breadth-first orbit walk on truth tables that tries every
    generator from every state, in the order ``*1, +1, *2, +2, ..`` and
    then ``(1 2), (2 3), ..``: each new table's witness word is its
    parent's plus the generator.  Returns the words keyed by table, in
    the order the walk found the tables."""
    halves = _HALVES[n]
    flips = [(h, 1 << k, f"*{k + 1}", f"+{k + 1}") for k, h in enumerate(halves)]
    swaps = []  # per adjacent transposition, the delta swap of its two middle slots
    if mode == "full":
        swaps = [(~halves[k] & halves[k + 1], 1 << k, f"({k + 1} {k + 2})") for k in range(n - 1)]
    paths = {table: ()}
    queue = deque([table])
    while queue:
        s = queue.popleft()
        base = paths[s]
        for half, shift, tw, lc in flips:
            up = (s & half) << shift
            for t, token in ((up | ((s >> shift) & half), tw), (s ^ up, lc)):
                if t not in paths:
                    paths[t] = base + (token,)
                    queue.append(t)
        for mask, shift, token in swaps:
            d = ((s >> shift) ^ s) & mask
            t = s ^ d ^ (d << shift)
            if t not in paths:
                paths[t] = base + (token,)
                queue.append(t)
    return paths


#: the six role permutations in lexicographic order
PERM3 = tuple(sorted(itertools.permutations((1, 2, 3))))

#: the (slot-1 role, slot-2 role) pair of each role table in ``PERM3``
SLOT_ROLES = tuple((p.index(1) + 1, p.index(2) + 1) for p in PERM3)


def all_triples(n):
    """All ``6**n`` transversal triples, lexicographic in the role tables."""
    for combo in itertools.product(PERM3, repeat=n):
        yield TransversalTriple(combo)


def orbit_via_lift_oracle(D, tau=None, sigma=None, mode="full", vf_cache=None):
    """``orbit_via_lift`` without its budget check: one ``extract`` per
    transversal triple at the identity projection, then every distinct
    table relabeled by ``sigma`` (iota) or every projection (full)."""
    n = D.n
    tau = TransversalTriple.reference(n) if tau is None else tau
    sigma = Projection.identity(n) if sigma is None else sigma
    Z = lift(D, tau, sigma, max_n=max(n, 1), vf_cache=vf_cache)
    ident = Projection.identity(n)
    tables = {extract(Z, tau_p, ident).table for tau_p in all_triples(n)}
    if mode == "iota":
        relabelings = [sigma.relabel.images]
    else:
        relabelings = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    for p in relabelings:
        for t in tables:
            masks = SetSystem.from_table(n, t).masks
            seen.add(SetSystem(n, (relabel_mask(p, m) for m in masks)))
    return tuple(sorted(seen, key=canonical_key_oracle))


def down_closure(Z):
    """All subtransversals of bases; entries 0 mark missed classes."""
    out = set()
    for b in Z.bases:
        for pattern in itertools.product((False, True), repeat=Z.n):
            out.add(tuple(r if keep else 0 for r, keep in zip(b, pattern)))
    return frozenset(out)


def is_tight_oracle(Z):
    """``is_tight`` without its budget check, by set membership."""
    bases = Z.bases
    for b in sorted(bases):
        for k in range(Z.n):
            non_bases = [r for r in (1, 2, 3) if b[:k] + (r,) + b[k + 1 :] not in bases]
            if len(non_bases) != 1:
                return False, {"basis": list(b), "class": k + 1, "non_bases": non_bases}
    return True, None


def tightness_oracle(Z):
    """``is_tight`` without its budget check, basis by basis: the first
    basis in tuple order, at its first class, whose line of three
    replacements does not hold exactly two bases."""
    for b in Z.sorted_bases():
        at = sum(r << 2 * k for k, r in enumerate(b))
        for k in range(Z.n):
            line = at - (b[k] << 2 * k)
            non_bases = [r for r in (1, 2, 3) if not Z.table >> (line + (r << 2 * k)) & 1]
            if len(non_bases) != 1:
                return False, {"basis": list(b), "class": k + 1, "non_bases": non_bases}
    return True, None


def restrict_oracle(Z, X):
    """``restrict`` on well-formed ``X``: the independents within ``X``,
    and of those the ones no allowed role of a missed class extends."""
    allowed = [set() for _ in range(Z.n)]
    for i, r in X:
        allowed[i - 1].add(r)
    inside = frozenset(
        I for I in down_closure(Z) if all(r == 0 or r in allowed[k] for k, r in enumerate(I))
    )
    bases = []
    for I in sorted(inside):
        if not any(
            I[:k] + (r,) + I[k + 1 :] in inside
            for k in range(Z.n)
            if I[k] == 0
            for r in allowed[k]
        ):
            bases.append(I)
    return Restriction(Z.n, tuple(frozenset(a) for a in allowed), inside, tuple(bases))


def lift_oracle(D, tau, sigma):
    """``lift`` without its checks: every transversal choice tried, its
    slot-2 labels looked up in ``D`` dual-twisted at its slot-3 labels by
    interval counting."""
    bases = []
    for choice in itertools.product((1, 2, 3), repeat=D.n):
        labels = {1: [], 2: [], 3: []}
        for i, r in enumerate(choice, start=1):
            labels[tau.slot_of(i, r)].append(sigma.label_of(i))
        if dual_twist(D, labels[3]).has_mask(mask_of(labels[2], D.n)):
            bases.append(choice)
    return Multimatroid(D.n, bases)


def extract_oracle(Z, tau, sigma):
    """``extract`` one basis at a time: the slot-2 classes of each basis
    that avoids slot 3, relabeled by ``sigma``."""
    masks = set()
    for b in Z.bases:
        slots = [tau.slot_of(i, r) for i, r in enumerate(b, start=1)]
        if 3 not in slots:
            masks.add(sum(1 << k for k, slot in enumerate(slots) if slot == 2))
    return SetSystem(Z.n, (relabel_mask(sigma.relabel.images, m) for m in masks))


def spread_oracle(table, n):
    """``_spread`` one feasible set ``X`` at a time: the index with digit
    2 at the members of ``X`` and 1 elsewhere."""
    out = 0
    for m in masks_of_table_oracle(table):
        out |= 1 << sum((1 + (m >> k & 1)) << 2 * k for k in range(n))
    return out


def medial_lift_oracle(G):
    """``verify_medial_lift`` without its checks: ``D(G)`` extracted from
    the transition matroid at the reference triple, placed set by set
    (``spread_oracle``), then per class each choice with digit 3 there
    added when exactly one of its digit-1 and digit-2 versions is a basis,
    and the bases compared with the medial's."""
    n = G.n
    Zm = transition_matroid(medial(G), max_v=n)
    D = extract(Zm, TransversalTriple.reference(n), Projection.identity(n))
    lifted = set(choices_oracle(n, spread_oracle(D.table, n)))
    for k in range(n):
        lifted |= {
            b[:k] + (3,) + b[k + 1 :] for b in lifted if b[:k] + (3 - b[k],) + b[k + 1 :] not in lifted
        }
    bases = Zm.bases
    only = tuple(sorted(bases - lifted)), tuple(sorted(lifted - bases))
    return MedialLiftReport(bases == lifted, *only)


def lift_rebuild_oracle(table, n):
    """The ``MedialLiftReport`` of a transition table ``table`` on ``n``
    classes against its lift, by rebuilding the lift: ``_role_steps`` at
    the reference roles, then the bases on each side only."""
    lifted = _role_steps(table, ((1, 2, 3),) * n)
    diffs = table & ~lifted, lifted & ~table
    only = [Multimatroid.from_table(n, t).sorted_bases() if t else () for t in diffs]
    return MedialLiftReport(lifted == table, *only)


def is_reference_lift_oracle(table, n):
    """``_role_steps(table, ((1, 2, 3),) * n) == table``, decided class by
    class: no entry has digit ``k`` 0, and the digit-3 entries are the XOR
    of the digit-1 and digit-2 ones."""
    for k, zero in enumerate(_zeros(n)):
        s0, s1, s2, s3 = _split(table, k, zero)
        if s0 or s3 != s1 ^ s2:
            return False
    return True


def extracted_tables_oracle(Z):
    """The truth tables of ``extract(Z, tau, identity)`` over all ``6**n``
    triples: per class, the ``_keep_slots`` steps of the six role tables
    on every distinct table of the level."""
    level = {Z.table}
    for k, zero in enumerate(_zeros(Z.n)):
        level = {c for t in level for c in _keep_slots(t, k, zero, SLOT_ROLES)}
    return level


def _compatible(I, T):
    return all(a == 0 or a == b for a, b in zip(I, T))


def is_multimatroid_oracle(Z):
    """``is_multimatroid`` without its budget check: for each transversal
    ``T``, every compatible independent ``I`` against every larger
    compatible ``J``, then every skew pair of every missed class."""
    independents = down_closure(Z)
    if not independents:
        return False, {"axiom": 1, "reason": "no independent sets"}
    ordered = sorted(independents)
    for T in itertools.product((1, 2, 3), repeat=Z.n):
        members = [I for I in ordered if _compatible(I, T)]
        for I in members:
            size_i = sum(1 for r in I if r)
            for J in members:
                if sum(1 for r in J if r) <= size_i:
                    continue
                can_augment = False
                for k in range(Z.n):
                    if I[k] == 0 and J[k] != 0:
                        ext = I[:k] + (J[k],) + I[k + 1 :]
                        if ext in independents:
                            can_augment = True
                            break
                if not can_augment:
                    return False, {"axiom": 1, "transversal": list(T), "I": list(I), "J": list(J)}
    for I in ordered:
        for k in range(Z.n):
            if I[k] != 0:
                continue
            for x, y in ((1, 2), (1, 3), (2, 3)):
                if (
                    I[:k] + (x,) + I[k + 1 :] not in independents
                    and I[:k] + (y,) + I[k + 1 :] not in independents
                ):
                    return False, {"axiom": 2, "independent": list(I), "class": k + 1, "pair": [x, y]}
    return True, None


class _TagUnionFind:
    """Union-find over arbitrary hashable items, counting its classes."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.count = len(self.parent)

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.count -= 1


BEFORE, AFTER = 0, 1


def _pairing(a, b, c, d):
    return tuple(sorted((tuple(sorted((a, b))), tuple(sorted((c, d))))))


class MedialOracle:
    """The medial of a ribbon graph as tag tuples ``(half-edge, slot)``:
    per edge its label, ends, sign and three pairings, the sorted corner
    edges, the free loops, every tag, and the edge label of each
    half-edge."""

    def __init__(self, vertices, corner_edges, free_loops, label_of):
        self.vertices = vertices
        self.corner_edges = corner_edges
        self.free_loops = free_loops
        self.label_of = label_of
        self.tags = [(h, slot) for _, ends, _, _ in vertices for h in ends for slot in (BEFORE, AFTER)]

    @property
    def n(self):
        return len(self.vertices)

    def to_json(self):
        def tag_json(tag):
            return [tag[0], "before" if tag[1] == BEFORE else "after"]

        def pairs_json(pairs):
            return [[tag_json(a), tag_json(b)] for a, b in pairs]

        return {
            "medial_vertices": [
                {
                    "label": label,
                    "ends": list(ends),
                    "sign": sign,
                    "transitions": {name: pairs_json(transitions[name]) for name in TRANSITION_NAMES},
                }
                for label, ends, sign, transitions in self.vertices
            ],
            "corner_edges": pairs_json(self.corner_edges),
            "free_loops": self.free_loops,
        }


def medial_oracle(G):
    """Medial of ``G`` with every pairing spelled out on tag tuples: black
    pairs the slots at each end, white pairs ``after`` with the far
    ``before`` on an untwisted edge and like slots on a twisted one,
    crossing is the third pairing; corner edges join ``(h, after)`` to
    ``(next h, before)``."""
    vertices = []
    for e in G.edges:
        h1, h2 = e.ends
        black = _pairing((h1, BEFORE), (h1, AFTER), (h2, BEFORE), (h2, AFTER))
        if e.sign == 1:
            white = _pairing((h1, AFTER), (h2, BEFORE), (h1, BEFORE), (h2, AFTER))
            crossing = _pairing((h1, BEFORE), (h2, BEFORE), (h1, AFTER), (h2, AFTER))
        else:
            white = _pairing((h1, AFTER), (h2, AFTER), (h1, BEFORE), (h2, BEFORE))
            crossing = _pairing((h1, AFTER), (h2, BEFORE), (h1, BEFORE), (h2, AFTER))
        vertices.append((e.label, e.ends, e.sign, {"black": black, "white": white, "crossing": crossing}))
    corners = []
    for rot in G.vertices:
        for idx, h in enumerate(rot):
            corners.append(tuple(sorted(((h, AFTER), (rot[(idx + 1) % len(rot)], BEFORE)))))
    free_loops = sum(1 for rot in G.vertices if not rot)
    label_of = {h: e.label for e in G.edges for h in e.ends}
    return MedialOracle(vertices, tuple(sorted(corners)), free_loops, label_of)


def medial_components_oracle(Fm):
    """Components of the ``FourRegularGraph`` ``Fm``: its free loops, plus
    one depth-first search along the corner edges from each medial vertex
    not yet reached."""
    n, corner = Fm.n, Fm.corner
    seen = [False] * n
    components = Fm.free_loops
    for root in range(n):
        if seen[root]:
            continue
        components += 1
        seen[root] = True
        stack = [root]
        while stack:
            k = stack.pop()
            for t in corner[4 * k : 4 * k + 4]:
                if not seen[t >> 2]:
                    seen[t >> 2] = True
                    stack.append(t >> 2)
    return components


def split_components_oracle(M, T):
    """Components after choosing transition ``T[k]`` at vertex ``k`` of
    the ``medial_oracle`` ``M``: a union-find over its tags, joined along
    corner edges and the chosen pairings."""
    uf = _TagUnionFind(M.tags)
    for a, b in M.corner_edges:
        uf.union(a, b)
    for (_, _, _, transitions), name in zip(M.vertices, T):
        for a, b in transitions[name]:
            uf.union(a, b)
    return uf.count + M.free_loops


def kept_splits_oracle(M, options):
    """``_kept_splits`` of the ``medial_oracle`` ``M`` for the same
    ``(role, index offset)`` options: every choice of one option per
    vertex split from scratch, its index bit set when it has as many
    components as the medial graph itself."""
    uf = _TagUnionFind(label for label, _, _, _ in M.vertices)
    for a, b in M.corner_edges:
        uf.union(M.label_of[a[0]], M.label_of[b[0]])
    k_full = uf.count + M.free_loops
    table = 0
    for choice in itertools.product(*options):
        names = tuple(TRANSITION_NAMES[role] for role, _ in choice)
        if split_components_oracle(M, names) == k_full:
            table |= 1 << sum(offset for _, offset in choice)
    return table


def transition_matroid_oracle(M):
    """``transition_matroid`` of the ``medial_oracle`` ``M`` without its
    budget check: every transition system split from scratch, kept when
    it has as many components as the medial graph itself."""
    uf = _TagUnionFind(label for label, _, _, _ in M.vertices)
    for a, b in M.corner_edges:
        uf.union(M.label_of[a[0]], M.label_of[b[0]])
    k_full = uf.count + M.free_loops
    bases = []
    for choice in itertools.product((1, 2, 3), repeat=M.n):
        names = tuple(TRANSITION_NAMES[r - 1] for r in choice)
        if split_components_oracle(M, names) == k_full:
            bases.append(choice)
    return Multimatroid(M.n, bases)


class ArgparseRefusal(Exception):
    """An argv error of ``argparse_oracle``: the message, then argparse's
    usage text."""


class _RefusingParser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseRefusal(f"{message}\n{self.format_usage()}")


def argparse_oracle() -> argparse.ArgumentParser:
    """The parser the CLI built before its command table: common options
    from a parent parser, one subparser per command setting ``fn`` and
    ``kind``.  ``parse_args`` returns the namespace, raises
    ``ArgparseRefusal`` on bad argv, and prints help and exits 0 on
    ``-h``."""
    common = _RefusingParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--max-n", type=int, default=None, help="override the hard budget cap")
    common.add_argument("--threads", type=int, default=1, help="accepted for compatibility; output is independent of it")

    parser = _RefusingParser(prog="twuality", description="Command-line surface.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_RefusingParser)

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
