"""The paper's ribbon-graph application as independent checks on the
≤3-edge catalog (every rotation system with at most 3 edges on at most 3
vertices, in every sign pattern): partial Petriality is loop
complementation on ``D(G)``, and the catalog's delta-matroids fall into
full-mode orbits whose stabilizer order is constant along each orbit."""

import itertools
import math

import pytest

from twuality import (
    RibbonGraph,
    SetSystem,
    delta_matroid_of,
    loop_complement,
    orbit,
    stabilizer_search,
)
from twuality.set_system import relabel

import ribbon_catalog as cat


@pytest.fixture(scope="module")
def catalog():
    """``(G, D(G))`` for every graph of the catalog."""
    cache = {}
    return [(G, delta_matroid_of(G, vf_cache=cache)) for G in cat.enumerate_all()]


def petrial(G, label):
    """``G`` with the sign of edge ``label`` toggled: its partial Petrial."""
    edges = [(e.ends, -e.sign if e.label == label else e.sign, e.label) for e in G.edges]
    return RibbonGraph(G.vertices, edges)


def full_stabilizer_order(D):
    """The ``stabilizer_search`` hits, which skip the identity vector, plus
    the relabelings that fix ``D``."""
    fixing = sum(
        relabel(D.table, D.n, p) == D.table for p in itertools.permutations(range(1, D.n + 1))
    )
    return len(stabilizer_search(D, mode="all")) + fixing


def test_partial_petrial_is_loop_complement(catalog):
    cache = {}
    pairs = 0
    for G, D in catalog:
        for e in G.edges:
            assert delta_matroid_of(petrial(G, e.label), vf_cache=cache) == loop_complement(D, (e.label,))
            pairs += 1
    assert (len(catalog), pairs) == (9_262, 27_570)


def test_orbit_census(catalog):
    graphic = {D for _, D in catalog}
    assert len(graphic) == 153
    reports = []
    left = set(graphic)
    while left:
        rep = orbit(min(left, key=SetSystem.canonical_key), mode="full")
        reports.append(rep)
        left -= set(rep.elements)
    assert [rep.size for rep in reports] == [1, 3, 9, 6, 27, 54, 54]
    elements = [E for rep in reports for E in rep.elements]
    assert len(set(elements)) == 154
    # the 3-edge tree needs 4 vertices, one more than the catalog allows
    outside = [E for E in elements if E not in graphic]
    assert outside == [SetSystem.from_sets(3, [(1, 2, 3)])]
    assert outside[0] == delta_matroid_of(cat.path_graph([1, 1, 1]))
    # the propagation theorem: the order is constant along each orbit
    orders = [{full_stabilizer_order(E) for E in rep.elements} for rep in reports]
    assert orders == [{1}, {2}, {8}, {12}, {48}, {24}, {24}]
    for rep, (order,) in zip(reports, orders):
        n = rep.seed.n
        assert order * rep.size == 6**n * math.factorial(n)
