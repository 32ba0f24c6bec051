"""Ribbon graphs as signed rotation systems, medial 4-regular graphs
with their three transitions per vertex, boundary walks and spanning
quasi-trees counted on the medial, transition matroids, and the
medial/lift comparison check.

A ribbon graph is a list of vertices, each a cyclic sequence of half-edge
ids, plus edges pairing the half-edges with a sign (+1 untwisted, -1
twisted) and a label in ``1..n``.  The split of the medial that is
white at the edges of ``A`` and black elsewhere has the boundary walks of
``(V, A)`` as its components (Ellis-Monaghan and Moffatt, *Twisted
duality for embedded graphs*), so boundary walks are counted as split
components, and the quasi-trees and the transition matroid share one
depth-first walk over transition systems.  The medial is held as int
tags, four per edge; a split is counted by joining open paths of tags
at their ends, so no union-find is needed.

Medial transition conventions (fixed by requiring all-black splits to
count vertices and all-white splits to count boundary walks, and kept
frozen): with half-edge slots ``before``/``after`` for the two corners
flanking a half-edge, the black transition pairs the two slots at each
end; the white transition pairs ``after`` with the far ``before`` on an
untwisted edge and like slots on a twisted edge; crossing is the
remaining pairing.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

from .errors import BudgetError, ConsistencyError, ValidationError, quoted
from .multimatroid import Multimatroid, _check_class_count, _is_reference_lift, _role_steps, _zeros
from .set_system import MAX_GROUND, SetSystem, VF_SAFE_DEFAULT_CAP
from .set_system import _exchange_failures, _is_binary, _value_type, _vf_safety

QUASI_TREE_CAP = 16
TRANSITION_MATROID_CAP = 8
MEDIAL_LIFT_CAP = 6

BEFORE, AFTER = 0, 1
TRANSITION_NAMES = ("black", "white", "crossing")


@_value_type()
class RibbonEdge:
    ends: tuple[int, int]
    sign: int
    label: int


def _canon_rotation(rot: Sequence[int]) -> tuple[int, ...]:
    rot = tuple(rot)
    k = rot.index(min(rot)) if rot else 0
    return rot[k:] + rot[:k] if k else rot


@_value_type(init=False, repr=False, eq=False)
class RibbonGraph:
    """A signed rotation system.  Rotations are stored starting from their
    least half-edge id; that normalization never changes the surface."""

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[RibbonEdge, ...]

    def __init__(self, vertices: Sequence[Sequence[int]], edges: Sequence):
        """One pass over the edges checks each and places it in the slot
        of its label; a label out of range or taken fails the bijection,
        reported after the pass, so an earlier edge's fault comes first.
        The half-edge ids get one type-and-minimum test; only when it
        fails does the per-id loop run, to name the first bad id (an
        ``int`` subclass other than ``bool`` passes it)."""
        if not isinstance(vertices, (list, tuple)) or not all(
            isinstance(rot, (list, tuple)) for rot in vertices
        ):
            raise ValidationError(f"vertices {quoted(vertices)} must be a list of rotation lists")
        if not isinstance(edges, (list, tuple)):
            raise ValidationError(f"edges {quoted(edges)} must be a list")
        n = len(edges)
        slots, misplaced = [None] * n, False
        set_ends, set_sign, set_label = RibbonEdge.ends.__set__, RibbonEdge.sign.__set__, RibbonEdge.label.__set__
        for e in edges:
            if isinstance(e, (list, tuple)) and len(e) == 3:
                ends, sign, label = e
            elif isinstance(e, RibbonEdge):
                ends, sign, label = e.ends, e.sign, e.label
            elif isinstance(e, dict):
                try:
                    ends, sign, label = e["ends"], e["sign"], e["label"]
                except KeyError as missing:
                    raise ValidationError(f"edge object missing key {missing}") from None
            else:
                raise ValidationError(f"edge {quoted(e)} must be [ends, sign, label]")
            if not isinstance(ends, (list, tuple)) or len(ends) != 2 or ends[0] == ends[1]:
                raise ValidationError(f"edge ends {quoted(ends)} must be two distinct half-edges")
            if type(sign) is not int or sign not in (1, -1):
                raise ValidationError(f"edge sign must be +1 or -1, got {quoted(sign)}")
            if type(label) is not int:
                raise ValidationError(f"edge label {quoted(label)} must be an integer")
            if 0 < label <= n and slots[label - 1] is None:
                slots[label - 1] = edge = object.__new__(RibbonEdge)
                set_ends(edge, tuple(ends))
                set_sign(edge, sign)
                set_label(edge, label)
            else:
                misplaced = True
        if misplaced:
            raise ValidationError("edge labels must be a bijection onto 1..#edges")
        rot_ids = list(itertools.chain.from_iterable(vertices))
        end_ids = [h for e in slots for h in e.ends]
        if {*map(type, rot_ids), *map(type, end_ids)} - {int} or min(rot_ids + end_ids, default=1) < 1:
            for h in rot_ids + end_ids:
                if not isinstance(h, int) or isinstance(h, bool) or h < 1:
                    raise ValidationError(f"half-edge id {quoted(h)} must be a positive integer")
        rot_set, end_set = set(rot_ids), set(end_ids)
        if len(rot_set) != len(rot_ids):
            raise ValidationError("a half-edge appears twice in the rotations")
        if len(end_set) != len(end_ids):
            raise ValidationError("a half-edge appears twice among the edge ends")
        if rot_set != end_set:
            raise ValidationError("rotations and edge ends must use the same half-edges")
        object.__setattr__(self, "vertices", tuple(map(_canon_rotation, vertices)))
        object.__setattr__(self, "edges", tuple(slots))

    @property
    def n(self) -> int:
        return len(self.edges)

    def to_json(self) -> dict:
        return {
            "vertices": [list(rot) for rot in self.vertices],
            "edges": [
                {"ends": list(e.ends), "sign": e.sign, "label": e.label} for e in self.edges
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RibbonGraph":
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise ValidationError("ribbon-graph object needs 'vertices' and 'edges'")
        return cls(data["vertices"], data["edges"])

    def __repr__(self):
        return f"RibbonGraph({[list(r) for r in self.vertices]}, {list(self.edges)})"


# ---------------------------------------------------------------------------
# medial graphs

# Black, white and crossing tag pairs of an untwisted (+1) and a twisted
# (-1) edge, as offsets ``2j + slot`` from the edge's first tag.
_TRANSITION_OFFSETS = {
    1: (((0, 1), (2, 3)), ((1, 2), (0, 3)), ((0, 2), (1, 3))),
    -1: (((0, 1), (2, 3)), ((1, 3), (0, 2)), ((1, 2), (0, 3))),
}
_SLOT_NAMES = ("before", "after")


def _vertex_pairs(k: int, sign: int):
    """``FourRegularGraph.pairs[k]`` of an edge with ``sign``."""
    offsets = _TRANSITION_OFFSETS[sign]
    return tuple(((4 * k + a, 4 * k + b), (4 * k + c, 4 * k + d)) for (a, b), (c, d) in offsets)


@functools.cache
def _pairs_by_position(n: int):
    """Per edge position ``k < n``, ``(None, _vertex_pairs(k, 1),
    _vertex_pairs(k, -1))``: a row indexed by the edge's sign.  Built once
    per edge count, for any count, and shared by all medials with it."""
    return tuple((None, _vertex_pairs(k, 1), _vertex_pairs(k, -1)) for k in range(n))


@_value_type(init=False, repr=False, eq=False)
class FourRegularGraph:
    """Medial structure: one 4-valent vertex per edge, corner edges from
    the rotations, and a free loop per isolated vertex.

    The slot ``slot`` of end ``j`` of edge ``k`` is the tag
    ``4k + 2j + slot``.  ``corner[t]`` is the tag that a corner edge joins
    to ``t``; ``pairs[k][role]`` holds the two tag pairs of transition
    ``role`` (0 black, 1 white, 2 crossing) at vertex ``k``, each pair
    lesser tag first, read by sign off the edge position's row of the
    ``_pairs_by_position`` table that all medials with as many edges
    share; ``components`` counts the components of the medial, free loops
    included.  It is handed in, not checked: ``medial``, the one
    constructor, counts it during its pass over the rotations."""

    edges: tuple[RibbonEdge, ...]
    corner: tuple[int, ...]
    pairs: tuple[tuple[tuple[tuple[int, int], tuple[int, int]], ...], ...]
    free_loops: int
    components: int

    def __init__(
        self, edges: tuple[RibbonEdge, ...], corner: Sequence[int], free_loops: int, components: int
    ):
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "corner", tuple(corner))
        rows = _pairs_by_position(len(edges))
        object.__setattr__(self, "pairs", tuple([row[e.sign] for row, e in zip(rows, edges)]))
        object.__setattr__(self, "free_loops", free_loops)
        object.__setattr__(self, "components", components)

    @property
    def n(self) -> int:
        return len(self.edges)

    def to_json(self) -> dict:
        """Tags decoded to ``[half-edge, "before" | "after"]``; each pair,
        and each list of pairs, sorted by half-edge id, then slot."""

        tags = [(h, slot) for e in self.edges for h in e.ends for slot in (BEFORE, AFTER)]

        def pairs_json(pairs):
            decoded = sorted(tuple(sorted((tags[a], tags[b]))) for a, b in pairs)
            return [[[h, _SLOT_NAMES[slot]] for h, slot in pair] for pair in decoded]

        return {
            "medial_vertices": [
                {
                    "label": e.label,
                    "ends": list(e.ends),
                    "sign": e.sign,
                    "transitions": dict(zip(TRANSITION_NAMES, map(pairs_json, roles))),
                }
                for e, roles in zip(self.edges, self.pairs)
            ],
            "corner_edges": pairs_json((t, c) for t, c in enumerate(self.corner) if t < c),
            "free_loops": self.free_loops,
        }


def medial(G: RibbonGraph) -> FourRegularGraph:
    """Medial 4-regular graph of a ribbon graph.

    Corner edges join the ``after`` slot of each half-edge to the
    ``before`` slot of the next half-edge in its rotation; transitions
    follow the module-level convention.  One pass per rotation writes both
    ends of each corner edge into the corner array, starting from the
    ``after`` slot of the rotation's last half-edge; an empty rotation is a
    free loop.  The same pass counts the components: a rotation's corner
    edges join the medial vertices of its half-edges, so it links, in a
    union-find over the medial vertices, each of their roots to the root of
    its last half-edge's vertex, and each free loop is one component more.
    """
    n = G.n
    tag = dict(zip([h for e in G.edges for h in e.ends], range(0, 4 * n, 2)))  # end j of edge k: 4k + 2j
    corner, free_loops, root, components = [0] * (4 * n), 0, list(range(n)), n
    for rot in G.vertices:
        if not rot:
            free_loops += 1
            continue
        a = tag[rot[-1]]
        r = a >> 2
        while root[r] != r:
            r = root[r]
        a += AFTER
        for h in rot:
            b = tag[h] + BEFORE
            corner[a], corner[b] = b, a
            a = b + AFTER
            k = b >> 2
            while root[k] != k:
                k = root[k]
            if k != r:
                root[k] = r
                components -= 1
    return FourRegularGraph(G.edges, corner, free_loops, components + free_loops)


def all_black(Fm: FourRegularGraph) -> tuple[str, ...]:
    return ("black",) * Fm.n


def all_white(Fm: FourRegularGraph) -> tuple[str, ...]:
    return ("white",) * Fm.n


def split_components(Fm: FourRegularGraph, T: Sequence[str]) -> int:
    """Components of the 2-regular graph after replacing every medial
    vertex by its chosen pairing; free loops each count one.  The pairs
    join open paths as in ``_kept_splits``."""
    if len(T) != Fm.n:
        raise ValidationError(f"transition system must choose at all {Fm.n} medial vertices")
    for name in T:
        if name not in TRANSITION_NAMES:
            raise ValidationError(f"unknown transition {quoted(name)}")
    end = list(Fm.corner)
    count = Fm.free_loops
    for pairs, name in zip(Fm.pairs, T):
        for x, y in pairs[TRANSITION_NAMES.index(name)]:
            ex, ey = end[x], end[y]
            if ex == y:
                count += 1
            else:
                end[ex], end[ey] = ey, ex
    return count


def _kept_splits(Fm: FourRegularGraph, options: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Table whose set bits index the transition systems that keep the
    component count of the medial.  ``options[k]`` lists the ``(role,
    index offset)`` pairs tried at medial vertex ``k`` (role 0 black, 1
    white, 2 crossing); a system's index is the sum of its offsets.

    The systems are walked depth first over the medial vertices.  The
    corner edges start as open paths of two tags, and ``end[t]`` is the
    far end of the path at tag ``t``.  Joining ``x`` to ``y`` closes a
    cycle when ``end[x] == y`` and otherwise links the two far ends; on
    return those two entries are restored, so a prefix is split once.

    A medial component whose vertices are all joined has all its tags
    paired, so it has closed a cycle, and the last vertex closes one or two
    more.  So the walk stops at a prefix that has closed ``target`` cycles
    (one per component but the free loops); at vertex ``n - 2`` only the
    last vertex's component is open, so a kept prefix has closed
    ``target - 1``.  The last vertex's tags end the two open paths, and
    each of its options but the one pairing them that way closes one:
    ``two[t - t0]`` holds the options pairing its first tag ``t0`` with
    ``t``, so ``every ^ two[end[t0] - t0]`` is read off at the prefix's index.
    """
    n, pairs, end = Fm.n, Fm.pairs, list(Fm.corner)
    if not n:
        return 1
    target, second, t0 = Fm.components - Fm.free_loops, n - 2, 4 * (n - 1)
    two, every = [0] * 4, 0
    for role, offset in options[n - 1]:
        (x, y), (u, v) = pairs[n - 1][role]
        two[(y if x == t0 else v) - t0] |= 1 << offset  # a pair holds its lesser tag first
        every |= 1 << offset
    if n == 1:  # one medial vertex, one component
        return every ^ two[end[t0] - t0]
    table = 0

    def walk(k: int, index: int, cycles: int) -> None:
        nonlocal table
        vertex = pairs[k]
        for role, offset in options[k]:
            (x, y), (u, v) = vertex[role]
            count = cycles
            ex, ey = end[x], end[y]
            if ex == y:
                count += 1
            else:
                end[ex], end[ey] = ey, ex
            eu, ev = end[u], end[v]
            if eu == v:
                count += 1
            else:
                end[eu], end[ev] = ev, eu
            if count < target:
                if k < second:
                    walk(k + 1, index | offset, count)
                else:
                    table |= (every ^ two[end[t0] - t0]) << (index | offset)
            if eu != v:
                end[eu], end[ev] = u, v
            if ex != y:
                end[ex], end[ey] = x, y

    walk(0, 0, 0)
    return table


def transition_matroid(Fm: FourRegularGraph, max_v: int | None = None) -> Multimatroid:
    """3-matroid on one skew class per medial vertex whose bases are the
    transition systems preserving the component count.  Roles follow the
    fixed order black = 1, white = 2, crossing = 3; the base-table bit of
    a system is the sum of role·4^k over the medial vertices ``k``.
    ``max_v`` caps the medial vertices; ``None`` means ``TRANSITION_MATROID_CAP``."""
    n = Fm.n
    BudgetError.check(
        "transition matroid", n, max_v, TRANSITION_MATROID_CAP, 3, "transition systems", "{} medial vertices"
    )
    _check_class_count(n)
    return Multimatroid.from_table(n, _kept_splits(Fm, _transition_options(n)))


@functools.cache
def _transition_options(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``transition_matroid``'s ``_kept_splits`` options on ``n`` medial
    vertices: role ``r`` at vertex ``k`` adds ``(r + 1) * 4**k``."""
    return tuple(tuple((r, (r + 1) << 2 * k) for r in range(3)) for k in range(n))


def boundary_components(G: RibbonGraph) -> int:
    """Number of boundary walks of the encoded surface."""
    Fm = medial(G)
    return split_components(Fm, all_white(Fm))


def _quasi_tree_system(G: RibbonGraph, max_e: int | None) -> SetSystem:
    """Spanning quasi-trees of ``G``: ``A`` is one when the medial's split
    white on ``A``, black elsewhere, keeps the component count, i.e. ``(V, A)``
    has as many boundary walks as ``G`` has components (then as many components, too)."""
    BudgetError.check("quasi-tree enumeration", G.n, max_e, QUASI_TREE_CAP, 2, "edge subsets", "{} edges")
    if G.n > MAX_GROUND:
        raise ValidationError(f"ground size must be an integer in 0..{MAX_GROUND}, got {G.n}")
    options = [((0, 0), (1, 1 << k)) for k in range(G.n)]
    return SetSystem.from_table(G.n, _kept_splits(medial(G), options))


def spanning_quasi_trees(G: RibbonGraph, max_e: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Label sets of spanning subgraphs with as many components as ``G``,
    each component having exactly one boundary walk, in shortlex order.
    ``max_e`` caps the edges; ``None`` means ``QUASI_TREE_CAP``."""
    return _quasi_tree_system(G, max_e).feasible_sets()


def _checked_delta_matroid(G: RibbonGraph, D: SetSystem, vf_cache: dict | None) -> SetSystem:
    """``D`` once it is found vf-safe, or binary above the vf-safe cap.
    Either verdict proves symmetric exchange (``is_vf_safe``), so the
    exchange walk runs only on a refused family, where a failure is
    reported first.  ``_vf_safety`` gives a refusal with its failure table,
    so the walk runs here only after a refusal by the binary certificate."""
    if G.n <= VF_SAFE_DEFAULT_CAP:
        ok, bad = _vf_safety(D, None, vf_cache)
        fault = "is not vf-safe"
    else:
        ok, fault = _is_binary(D.table, D.n), "is not binary"
        bad = 0 if ok else _exchange_failures(D.table, D.n)
    if ok:
        return D
    if bad or not D.is_proper:
        fault = "fails symmetric exchange"
    raise ConsistencyError(f"quasi-tree family of {G!r} {fault}")


def delta_matroid_of(
    G: RibbonGraph, max_e: int | None = None, vf_cache: dict | None = None
) -> SetSystem:
    """Set system of spanning quasi-tree label sets; checked to satisfy
    symmetric exchange and vf-safety (above the vf-safe cap, as binary).
    ``max_e`` caps the edges; ``None`` means ``QUASI_TREE_CAP``."""
    return _checked_delta_matroid(G, _quasi_tree_system(G, max_e), vf_cache)


@_value_type()
class MedialLiftReport:
    """Base-set comparison of the medial transition matroid against the
    lift of the quasi-tree system at the black/white/crossing triple: the
    bases on one side only, each side in sorted order, both empty when
    ``equal``.  ``to_json`` writes a basis ``b`` as its ``[class, role]``
    pairs.  ``verify_medial_lift`` hands every equal graph the one shared
    ``_EQUAL_REPORT``; the type is frozen, so sharing it is safe."""

    equal: bool
    only_medial: tuple[tuple[int, ...], ...]
    only_lift: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        if self is _EQUAL_REPORT:
            return {"equal": True, "only_medial": [], "only_lift": []}
        return {
            "equal": self.equal,
            "only_medial": [[[i, r] for i, r in enumerate(b, start=1)] for b in self.only_medial],
            "only_lift": [[[i, r] for i, r in enumerate(b, start=1)] for b in self.only_lift],
        }


_EQUAL_REPORT = MedialLiftReport(True, (), ())


def verify_medial_lift(
    G: RibbonGraph, max_e: int | None = None, vf_cache: dict | None = None
) -> MedialLiftReport:
    """Compare the transition matroid of the medial with the lift of
    ``D(G)`` at the black/white/crossing triple, from one walk of the
    medial's splits.

    ``D(G)`` is read off the transition table ``M``, as ``extract`` at
    that triple: per class ``k`` one shift-and-mask step moves the black
    entries (digit ``k`` is 1) to digit 0 and the white ones (digit 2)
    there and up by ``2**k``, and drops the crossing ones.  The digits
    below ``k`` are by then packed into index bits below ``k``, so the last
    step leaves the truth table of ``D``.  It is checked as
    ``delta_matroid_of`` checks it: vf-safety is the hypothesis of the
    lift.  The lift is ``_role_steps`` at the reference roles run on ``M``
    itself, not on ``D`` placed set by set.  That is the same table: each
    class step rebuilds the entries with a crossing digit from those
    without one, so the result depends only on the black/white entries of
    ``M``, and those are ``_spread`` of the ``D`` read off them.  So ``M``
    equals the lift iff ``_role_steps`` fixes it, which
    ``_is_reference_lift`` decides class by class: at every class ``k``,
    no entry of ``M`` has digit 0 and the crossing entries are the XOR of
    the black and white ones.  The systems with a crossing thus check the
    lift's dual twists against the medial; the black/white half is checked
    against a half-edge boundary tracer in the tests.  An equal graph
    builds nothing and gets the shared ``_EQUAL_REPORT``; only a mismatch
    runs ``_role_steps``, builds the two difference tables and decodes
    their bases.  ``max_e`` caps the edges; ``None`` means
    ``MEDIAL_LIFT_CAP``."""
    n = G.n
    BudgetError.check("verification", n, max_e, MEDIAL_LIFT_CAP, 3, "transition systems", "{} edges")
    medial_table = table = transition_matroid(medial(G), max_v=n).table
    for k, zero in enumerate(_zeros(n)):
        d = 1 << 2 * k
        table = (table >> d & zero) | (table >> 2 * d & zero) << (1 << k)
    _checked_delta_matroid(G, SetSystem.from_table(n, table), vf_cache)
    if _is_reference_lift(medial_table, n):
        return _EQUAL_REPORT
    lifted = _role_steps(medial_table, ((1, 2, 3),) * n)
    diffs = medial_table & ~lifted, lifted & ~medial_table
    only = [Multimatroid.from_table(n, t).sorted_bases() if t else () for t in diffs]
    return MedialLiftReport(False, *only)
