"""Seeded input generators for the benchmark, written with the standard
library and the package's own constructors only.

Every random generator takes a ``random.Random``, so the same seed always
gives the same graphs and set systems.  Ribbon graphs use the half-edge
pairs ``(2j-1, 2j)`` labelled ``j``; a graph is then fixed by how the
half-edges are spread over cyclic rotations and by a sign vector.
"""

from __future__ import annotations

import itertools
import random

from twuality import (
    FLIPS,
    Perm,
    RibbonGraph,
    SetSystem,
    TwualityElement,
    act,
    apply_flip,
    is_delta_matroid,
    spanning_quasi_trees,
)

_MAX_TRIES = 2000
#: random graphs and the catalog have at most this many vertices
MAX_VERTICES = 3
#: the catalog holds every rotation system with at most this many edges
CATALOG_EDGES = 3


def _edges(signs):
    return [((2 * j - 1, 2 * j), s, j) for j, s in enumerate(signs, start=1)]


def random_ribbon(rng: random.Random, edges: int) -> RibbonGraph:
    """Random rotation system with exactly ``edges`` edges on 1..MAX_VERTICES vertices."""
    halves = list(range(1, 2 * edges + 1))
    rng.shuffle(halves)
    blocks = [[] for _ in range(rng.randint(1, MAX_VERTICES))]
    for h in halves:
        blocks[rng.randrange(len(blocks))].append(h)
    return RibbonGraph(blocks, _edges(random_signs(rng, edges)))


def bouquet(signs, interleaved: bool = False) -> RibbonGraph:
    m = len(signs)
    if interleaved:
        rot = [2 * j - 1 for j in range(1, m + 1)] + [2 * j for j in range(1, m + 1)]
    else:
        rot = list(range(1, 2 * m + 1))
    return RibbonGraph([rot], _edges(signs))


def path_graph(signs) -> RibbonGraph:
    m = len(signs)
    vertices = [[1]] + [[2 * j, 2 * j + 1] for j in range(1, m)] + [[2 * m]]
    return RibbonGraph(vertices, _edges(signs))


def theta(signs) -> RibbonGraph:
    """Two vertices joined by ``len(signs)`` parallel edges."""
    m = len(signs)
    return RibbonGraph(
        [[2 * j - 1 for j in range(1, m + 1)], [2 * j for j in range(1, m + 1)]], _edges(signs)
    )


def disjoint_union(G: RibbonGraph, H: RibbonGraph) -> RibbonGraph:
    """``G`` and ``H`` side by side, ``H``'s edges numbered after ``G``'s."""
    shift = 2 * G.n
    vertices = [list(rot) for rot in G.vertices] + [[h + shift for h in rot] for rot in H.vertices]
    return RibbonGraph(vertices, _edges([e.sign for e in G.edges] + [e.sign for e in H.edges]))


def relabel(rng: random.Random, G: RibbonGraph) -> RibbonGraph:
    """``G`` with its edge labels, half-edge ids and vertex order permuted at
    random: the same surface, so every engine does the same work on it."""
    ids = sorted(h for e in G.edges for h in e.ends)
    new_id = dict(zip(ids, rng.sample(range(1, len(ids) + 1), len(ids))))
    new_label = rng.sample(range(1, G.n + 1), G.n)
    vertices = [[new_id[h] for h in rot] for rot in G.vertices]
    rng.shuffle(vertices)
    edges = [((new_id[e.ends[0]], new_id[e.ends[1]]), e.sign, new_label[e.label - 1]) for e in G.edges]
    return RibbonGraph(vertices, edges)


def random_signs(rng: random.Random, m: int) -> list[int]:
    return [rng.choice((1, -1)) for _ in range(m)]


def _set_partitions(items, max_blocks):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest, max_blocks):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        if len(part) < max_blocks:
            yield [[first]] + part


def catalog():
    """Every rotation system with at most CATALOG_EDGES edges on at most
    MAX_VERTICES vertices (rotations up to cyclic shift, isolated vertices
    as padding), in every sign pattern."""
    for m in range(CATALOG_EDGES + 1):
        for blocks in _set_partitions(list(range(1, 2 * m + 1)), MAX_VERTICES):
            rot_choices = []
            for block in blocks:
                b = sorted(block)
                rot_choices.append([(b[0],) + p for p in itertools.permutations(b[1:])])
            for rots in itertools.product(*rot_choices):
                for pad in range(MAX_VERTICES - len(blocks) + 1):
                    vertices = list(rots) + [()] * pad
                    for signs in itertools.product((1, -1), repeat=m):
                        yield RibbonGraph(vertices, _edges(signs))


def quasi_tree_system(G: RibbonGraph) -> SetSystem:
    """The quasi-tree set system of ``G``, without the library's own
    exchange and vf-safety self-checks."""
    return SetSystem.from_sets(G.n, spanning_quasi_trees(G))


def translate(rng: random.Random, D: SetSystem, flips=FLIPS) -> SetSystem:
    """``D`` moved by a random relabeling and a random vector of ``flips``;
    the orbit, up to relabeling, is unchanged."""
    gvec = tuple(rng.choice(flips) for _ in range(D.n))
    return act(TwualityElement(gvec, Perm(rng.sample(range(1, D.n + 1), D.n))), D)


def relabel_system(rng: random.Random, D: SetSystem) -> SetSystem:
    """``D`` with its elements relabeled at random."""
    return translate(rng, D, FLIPS[:1])


def twist_relabel(rng: random.Random, D: SetSystem) -> SetSystem:
    """``D`` moved by twists and a relabeling only.  These keep the family
    size, and keep a delta-matroid one even when it is not vf-safe."""
    return translate(rng, D, FLIPS[:2])


def random_family(rng: random.Random, n: int) -> SetSystem:
    """A random proper family; almost never a delta-matroid for n >= 4."""
    masks = [m for m in range(1 << n) if rng.random() < 0.5]
    return SetSystem(n, masks or [0])


def orbit_bound(D: SetSystem) -> int:
    """Upper bound on the flip-orbit size of ``D``: the product over the
    elements of 6 / |flips fixing D at that element alone|.  The closure
    engines are linear in the orbit size, so bounding it bounds their cost."""
    bound = 1
    for i in range(1, D.n + 1):
        bound *= 6 // sum(1 for g in FLIPS if apply_flip(D, g, i) == D)
    return bound


def sample_graph(rng: random.Random, edges: int, bounds: tuple[int, int]) -> RibbonGraph:
    """First random rotation system on 1..MAX_VERTICES vertices whose
    quasi-tree system has its orbit bound within ``bounds`` (inclusive)."""
    lo, hi = bounds
    for _ in range(_MAX_TRIES):
        G = random_ribbon(rng, edges)
        if lo <= orbit_bound(quasi_tree_system(G)) <= hi:
            return G
    raise RuntimeError(f"no {edges}-edge graph with orbit bound in {bounds}")


def direct_sum(A: SetSystem, B: SetSystem) -> SetSystem:
    """Feasible sets ``X | Y`` with ``Y`` shifted onto the elements after ``A``."""
    return SetSystem(A.n + B.n, (a | (b << A.n) for a in A.masks for b in B.masks))


def near_power_set(k: int) -> SetSystem:
    """Every subset of [k] but [k] itself: a delta-matroid that is not vf-safe."""
    return SetSystem(k, range((1 << k) - 1))


def not_vf_safe(rng: random.Random, n: int) -> SetSystem:
    """A delta-matroid that is not vf-safe: a 3-element near power set summed
    with a quasi-tree system, then twisted and relabeled at random."""
    rest = quasi_tree_system(random_ribbon(rng, n - 3))
    return twist_relabel(rng, direct_sum(near_power_set(3), rest))


def not_delta(rng: random.Random, n: int) -> SetSystem:
    """A random family that fails the symmetric exchange axiom."""
    for _ in range(_MAX_TRIES):
        D = random_family(rng, n)
        if not is_delta_matroid(D).valid:
            return D
    raise RuntimeError(f"no non-delta family found at n={n}")
