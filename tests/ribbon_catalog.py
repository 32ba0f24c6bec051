"""Ribbon-graph fixtures: named shapes in every sign pattern, exhaustive
enumerations of all small rotation systems, and a seeded random generator.

Edges are always the half-edge pairs (2j-1, 2j) labeled j, so a graph is
determined by the distribution of half-edges into cyclic rotations plus a
sign vector.
"""

import itertools

from twuality import RibbonGraph


def untwisted_loop():
    return RibbonGraph([[1, 2]], [((1, 2), 1, 1)])


def twisted_loop():
    return RibbonGraph([[1, 2]], [((1, 2), -1, 1)])


def _edges(signs):
    return [((2 * j - 1, 2 * j), signs[j - 1], j) for j in range(1, len(signs) + 1)]


def bouquet(signs, interleaved=False):
    m = len(signs)
    if interleaved:
        rot = [2 * j - 1 for j in range(1, m + 1)] + [2 * j for j in range(1, m + 1)]
    else:
        rot = list(range(1, 2 * m + 1))
    return RibbonGraph([rot], _edges(signs))


def path_graph(signs):
    m = len(signs)
    vertices = [[1]] + [[2 * j, 2 * j + 1] for j in range(1, m)] + [[2 * m]]
    return RibbonGraph(vertices, _edges(signs))


def digon(signs):
    return RibbonGraph([[1, 3], [2, 4]], _edges(signs))


def theta(signs):
    """Two vertices joined by ``len(signs)`` edges."""
    m = len(signs)
    return RibbonGraph([list(range(1, 2 * m, 2)), list(range(2, 2 * m + 1, 2))], _edges(signs))


def with_isolated(G, k=1):
    return RibbonGraph(list(G.vertices) + [[]] * k, G.edges)


def disjoint_union(G, H):
    """``G`` and ``H`` side by side, ``H``'s edges numbered after ``G``'s."""
    shift = 2 * G.n
    vertices = list(G.vertices) + [[h + shift for h in rot] for rot in H.vertices]
    return RibbonGraph(vertices, _edges([e.sign for e in G.edges + H.edges]))


def _sign_tag(signs):
    return "".join("p" if s == 1 else "m" for s in signs)


def named_fixtures():
    out = {
        "untwisted-loop": untwisted_loop(),
        "twisted-loop": twisted_loop(),
        "isolated-vertex": RibbonGraph([[]], []),
        "empty": RibbonGraph([], []),
        "loop-plus-isolated": with_isolated(twisted_loop()),
    }
    for signs in itertools.product((1, -1), repeat=1):
        out[f"path1-{_sign_tag(signs)}"] = path_graph(signs)
    for signs in itertools.product((1, -1), repeat=2):
        tag = _sign_tag(signs)
        out[f"digon-{tag}"] = digon(signs)
        out[f"path2-{tag}"] = path_graph(signs)
        out[f"bouquet2-{tag}"] = bouquet(signs)
        out[f"bouquet2i-{tag}"] = bouquet(signs, interleaved=True)
    for signs in itertools.product((1, -1), repeat=3):
        tag = _sign_tag(signs)
        out[f"theta-{tag}"] = theta(signs)
        out[f"path3-{tag}"] = path_graph(signs)
        out[f"bouquet3i-{tag}"] = bouquet(signs, interleaved=True)
    for signs in itertools.product((1, -1), repeat=4):
        tag = _sign_tag(signs)
        out[f"bouquet4-{tag}"] = bouquet(signs)
        out[f"bouquet4i-{tag}"] = bouquet(signs, interleaved=True)
        out[f"path4-{tag}"] = path_graph(signs)
    return out


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


def enumerate_all(max_edges=3, max_vertices=3):
    """Every rotation system with at most ``max_edges`` edges on at most
    ``max_vertices`` vertices (cyclic orders taken up to rotation, plus
    isolated-vertex padding), in every sign pattern."""
    for m in range(max_edges + 1):
        halves = list(range(1, 2 * m + 1))
        for blocks in _set_partitions(halves, max_vertices):
            rot_choices = []
            for block in blocks:
                b = sorted(block)
                rot_choices.append([(b[0],) + p for p in itertools.permutations(b[1:])])
            for rots in itertools.product(*rot_choices):
                for pad in range(max_vertices - len(blocks) + 1):
                    vertices = list(rots) + [()] * pad
                    for signs in itertools.product((1, -1), repeat=m):
                        yield RibbonGraph(vertices, _edges(signs))


def random_ribbon(rng, max_edges=4, max_vertices=3, min_edges=1):
    m = rng.randint(min_edges, max_edges)
    halves = list(range(1, 2 * m + 1))
    rng.shuffle(halves)
    nv = rng.randint(1, max_vertices)
    blocks = [[] for _ in range(nv)]
    for h in halves:
        blocks[rng.randrange(nv)].append(h)
    signs = [rng.choice((1, -1)) for _ in range(m)]
    return RibbonGraph(blocks, _edges(signs))
